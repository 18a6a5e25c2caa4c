"""Block-wise second-order pruning with Cholesky-based compensation.

The engine prunes the bundle's ``Layer``, checked when it was built, and
reads W, the dead channels and the dense output energy from it.  Columns are
processed in the order the bundle was factored in, left to right on a
two-level lazy-batch schedule.

- A block is ``config.blocksize`` columns.  Unstructured masks are chosen
  for the whole block at block entry; n:m masks are chosen per group of m
  at the group's first column.  Either way a mask is chosen from the
  weights as they stand after every earlier column's update, with the
  squared diagonals of the stored upper factor as the OBS denominators.
- Inside a block, the rank-1 column loop runs over sub-blocks of
  ``SUB_BLOCK`` columns (under n:m, a multiple of m, so that a group never
  straddles two sub-blocks).  Each pruned column is zeroed and every row is
  compensated along the factor's trailing row, within its sub-block only.
- A finished sub-block updates the rest of its block with one matrix
  product of its OBS errors and the factor's rows; a finished block
  updates every later column the same way.

Columns past a sub-block (or block) are never read inside it, so deferring
their updates changes only the rounding.  No activations are needed: the
per-block error follows in closed form from the sweep's OBS errors, and
every other error is a quadratic form in the raw Hessian,
``calibration.error_prefix``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import blas

from .calibration import DEGENERATE_DIAG, HessianBundle, Layer, error_prefix
from .errors import ConfigError, DimensionError, NumericOverflowError
from .tensors import Permutation, PruneMask, SparsityConfig, as_matrix, pruned_entries


@dataclass(frozen=True, eq=False)
class PruneOutcome:
    """Pruned weights and the error accounting of a layer; equality is by identity."""

    pruned_weights: np.ndarray
    mask: PruneMask
    block_error_trajectory: np.ndarray
    final_error: float
    relative_error: float


def select_block_mask(
    w_block: np.ndarray,
    inv_h_block_diag: np.ndarray,
    config: SparsityConfig,
    force_cols: Sequence[int] = (),
) -> PruneMask:
    """Choose the keep/prune mask for one block, or one n:m group, of columns.

    Saliency is w**2 / inv_diag, and ``tensors.pruned_entries`` applies the
    pattern's rule to it.  Columns in ``force_cols`` (dead calibration
    channels) get saliency -inf, so they are pruned first.
    """
    w_block = as_matrix(w_block)
    bw = w_block.shape[1]
    inv_diag = np.asarray(inv_h_block_diag, dtype=np.float64)
    if inv_diag.shape != (bw,):
        raise DimensionError(
            f"inverse diagonal length {inv_diag.shape} != block width {bw}"
        )
    s = w_block * w_block / inv_diag
    if len(force_cols):
        s[:, np.asarray(force_cols, dtype=np.intp)] = -np.inf
    return PruneMask(~pruned_entries(s, config))


def _subtract_product(out: np.ndarray, upper_rows: np.ndarray, errs: np.ndarray):
    """out -= upper_rows.T @ errs, in place on the row-major ``out``.

    One ``dgemm`` on the transposes, which are column-major, accumulates
    into ``out`` without a product temporary.  f2py rejects an empty ``c``,
    which the last block's (empty) tail and a layer with no rows give.
    """
    if out.size:
        blas.dgemm(-1.0, errs.T, upper_rows, beta=1.0, c=out.T, overwrite_c=1)


def _relative(absolute: float, layer: Layer) -> float:
    """Error relative to the dense output energy; a layer with none has 0."""
    return absolute / layer.dense_energy if layer.dense_energy > 0 else 0.0


def outcome_from_trajectory(
    layer: Layer, pruned: np.ndarray, kept: np.ndarray, trajectory
) -> PruneOutcome:
    """Assemble a PruneOutcome whose final error ends the trajectory."""
    absolute = float(trajectory[-1]) if len(trajectory) else 0.0
    return PruneOutcome(
        pruned_weights=pruned,
        mask=PruneMask(kept),
        block_error_trajectory=np.asarray(trajectory, dtype=np.float64),
        final_error=absolute,
        relative_error=_relative(absolute, layer),
    )


def reconstruction_error(layer: Layer, w_pruned: np.ndarray) -> tuple[float, float]:
    """Squared output error ||(W - w_pruned) X.T||^2, absolute and relative."""
    if np.shape(w_pruned) != layer.w.shape:
        raise DimensionError(f"pruned shape {np.shape(w_pruned)} != {layer.w.shape}")
    absolute = float(error_prefix(layer.w - w_pruned, layer.raw)[-1])
    return absolute, _relative(absolute, layer)


#: below this fraction of the dampened loss, the closed-form raw error has
#: cancelled to rounding noise and is measured directly instead
CANCELLATION = 1e-6

#: columns per sub-block of the rank-1 column loop; of 8, 16 and 32, 16 was
#: at or near the fastest at both 256x1024 (2:4) and 512x2048 (unstructured)
SUB_BLOCK = 16


def _channel_order(t: np.ndarray, order: Permutation) -> np.ndarray:
    """The row-major (rows, n) matrix whose column order.forward[j] is t[j]."""
    out = np.empty(t.shape[::-1], dtype=t.dtype)
    out[:, order.forward] = t.T
    return out


def prune_layer(bundle: HessianBundle, config: SparsityConfig) -> PruneOutcome:
    """Prune the bundle's layer block by block with OBS compensation.

    The layer was checked when it was built, so only the config is checked
    here.  The columns of W are swept in ``bundle.order``, the order its
    factor was made in; weights and mask come back in channel order.  Under
    an n:m pattern, an order that splits a group of m is rejected with a
    ConfigError before the sweep.  The error after block k is measured in
    the raw Hessian.  With every pruned column compensated, the dampened
    loss equals the summed squared OBS errors, so
    raw_k = sum(E**2) - damp_lambda * ||W0 - W_k||^2.  Once
    a column is pruned without compensation (degenerate inverse diagonal),
    or the subtraction cancels, sum(d @ H_raw @ d) is computed instead.
    """
    layer = bundle.layer
    rows, n = layer.w.shape
    ranges = config.block_ranges(n)  # raises ConfigError for an untiled n:m
    order = bundle.order
    if config.pattern is not None:
        m = config.pattern.m
        groups = order.forward.reshape(-1, m) // m
        if np.any(groups != groups[:, :1]):
            raise ConfigError(f"the column order splits a group of m={m}: "
                              "the n:m pattern would break in channel order")

    upper = bundle.chol_upper
    diag = upper.diagonal()
    inv_diag = diag * diag
    degenerate = inv_diag < DEGENERATE_DIAG
    saliency_diag = np.maximum(inv_diag, DEGENERATE_DIAG)
    dead = np.zeros(n, dtype=bool)
    dead[order.inverse[layer.dead_columns]] = True
    group = config.group_width
    step = SUB_BLOCK if config.pattern is None else max(1, SUB_BLOCK // group) * group

    # the sweep runs on W.T in pruning order, so that every column it
    # touches is contiguous
    dense_t = layer.w.T[order.forward]
    cur = dense_t.copy()
    kept_t = np.ones((n, rows), dtype=bool)
    trajectory = []
    loss = 0.0
    # ||W0 - W_k||^2 over the columns of finished blocks, which never change
    final_sq = 0.0
    uncompensated = False

    for block_index, (i1, i2) in enumerate(ranges):
        errs = np.zeros((i2 - i1, rows))
        for s1 in range(i1, i2, step):
            s2 = min(s1 + step, i2)
            for q in range(s1, s2):
                if (q - i1) % group == 0:
                    g2 = min(q + group, i2)
                    kept_t[q:g2] = select_block_mask(
                        cur[q:g2].T,
                        saliency_diag[q:g2],
                        config,
                        np.flatnonzero(dead[q:g2]),
                    ).kept.T
                e = errs[q - i1]
                pruned = ~kept_t[q]
                if degenerate[q]:
                    if np.any(pruned):
                        warnings.warn(
                            f"column {q}: degenerate inverse diagonal, pruning "
                            "without compensation",
                            RuntimeWarning,
                        )
                        uncompensated = True
                else:
                    np.divide(cur[q], diag[q], out=e, where=pruned)
                cur[q, pruned] = 0.0
                if q + 1 < s2:
                    cur[q + 1 : s2] -= np.outer(upper[q, q + 1 : s2], e)
            if s2 < i2:
                _subtract_product(
                    cur[s2:i2], upper[s1:s2, s2:i2], errs[s1 - i1 : s2 - i1]
                )
        _subtract_product(cur[i2:], upper[i1:i2, i2:], errs)

        # columns before i1 are final and were checked with earlier blocks
        if not np.all(np.isfinite(cur[i1:])):
            raise NumericOverflowError(
                f"non-finite weights after block {block_index}", block=block_index
            )
        loss += float(np.sum(errs * errs))
        # one block at a time, so that no temporary spans the unfinished columns
        tail_sq = [
            float(np.sum(np.square(dense_t[j1:j2] - cur[j1:j2])))
            for j1, j2 in ranges[block_index:]
        ]
        raw_err = loss - bundle.damp_lambda * (final_sq + sum(tail_sq))
        if uncompensated or raw_err < CANCELLATION * loss:
            d = layer.w - _channel_order(cur, order)
            raw_err = float(error_prefix(d, layer.raw)[-1])
        trajectory.append(raw_err)
        final_sq += tail_sq[0]

    # the sweep's copies go before the outputs are allocated
    del dense_t
    pruned_weights = _channel_order(cur, order)
    del cur
    return outcome_from_trajectory(
        layer, pruned_weights, _channel_order(kept_t, order), trajectory
    )
