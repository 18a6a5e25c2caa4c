"""Block-wise second-order pruning with Cholesky-based compensation.

Columns are processed in the order the Hessian bundle was factored in, left
to right on a two-level lazy-batch schedule.

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
every other error is a quadratic form in the raw Hessian, ``error_prefix``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import blas

from .calibration import DEGENERATE_DIAG, HessianBundle
from .errors import ConfigError, DimensionError, NumericOverflowError
from .tensors import (Permutation, PruneMask, SparsityConfig, as_matrix,
                      finite_matrix, pruned_entries)


@dataclass(frozen=True)
class PruneOutcome:
    """Pruned weights plus the error accounting of one layer."""

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
    return PruneMask(kept=~pruned_entries(s, config), pattern=config.pattern)


def error_prefix(d: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Entry e is the sum over the rows of d[:, :e] @ H[:e, :e] @ d[:, :e].

    That is ||d[:, :e] X[:, :e].T||^2 for H = X.T X; the last entry is the
    whole error.  One ``dtrmm`` makes G = 2 d triu(H), reading only the upper
    triangle of H, and column j adds sum_rows d_j (G_j - H_jj d_j).  Both
    operands are made row-major, whose transposes BLAS reads uncopied, so
    the sums run in one order and the error depends on the values alone.
    """
    d = np.ascontiguousarray(d)
    h = np.ascontiguousarray(hessian)
    prefix = np.zeros(d.shape[1] + 1)
    # f2py rejects an empty operand, which a layer with no rows gives
    if d.size:
        g = blas.dtrmm(2.0, h.T, d.T, lower=1).T
        g -= h.diagonal() * d
        g *= d
        np.cumsum(g.sum(axis=0), out=prefix[1:])
    return prefix


def _subtract_product(out: np.ndarray, upper_rows: np.ndarray, errs: np.ndarray):
    """out -= upper_rows.T @ errs, in place on the row-major ``out``.

    One ``dgemm`` on the transposes, which are column-major, accumulates
    into ``out`` without a product temporary.  f2py rejects an empty ``c``,
    which the last block's (empty) tail and a layer with no rows give.
    """
    if out.size:
        blas.dgemm(-1.0, errs.T, upper_rows, beta=1.0, c=out.T, overwrite_c=1)


def _relative(absolute: float, w_dense: np.ndarray, hessian: np.ndarray) -> float:
    """Error relative to the dense output energy; a layer with none has 0."""
    denom = float(error_prefix(w_dense, hessian)[-1])
    if not np.isfinite(denom):
        raise NumericOverflowError(f"dense output energy {denom} is not finite")
    return absolute / denom if denom > 0 else 0.0


def outcome_from_trajectory(
    w_dense: np.ndarray,
    pruned: np.ndarray,
    kept: np.ndarray,
    pattern,
    trajectory,
    hessian: np.ndarray,
) -> PruneOutcome:
    """Assemble a PruneOutcome whose final error ends the trajectory.

    The relative error divides by the dense layer's output energy
    sum(w @ H @ w) in the raw Hessian.
    """
    absolute = float(trajectory[-1]) if len(trajectory) else 0.0
    return PruneOutcome(
        pruned_weights=pruned,
        mask=PruneMask(kept=kept, pattern=pattern),
        block_error_trajectory=np.asarray(trajectory, dtype=np.float64),
        final_error=absolute,
        relative_error=_relative(absolute, w_dense, hessian),
    )


def reconstruction_error(
    w_dense: np.ndarray,
    w_pruned: np.ndarray,
    hessian: np.ndarray,
) -> tuple[float, float]:
    """Squared output error of the pruned layer, absolute and relative.

    ``hessian`` is the raw X.T @ X, so the absolute error is
    ||(w_dense - w_pruned) X.T||^2.
    """
    wd = as_matrix(w_dense)
    wp = as_matrix(w_pruned)
    h = as_matrix(hessian)
    if wd.shape != wp.shape:
        raise DimensionError(f"weight shapes differ: {wd.shape} vs {wp.shape}")
    if h.shape != (wd.shape[1], wd.shape[1]):
        raise DimensionError(
            f"Hessian shape {h.shape} != weight cols {wd.shape[1]}"
        )
    absolute = float(error_prefix(wd - wp, h)[-1])
    return absolute, _relative(absolute, wd, h)


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


def prune_layer(
    w: np.ndarray,
    bundle: HessianBundle,
    config: SparsityConfig,
) -> PruneOutcome:
    """Prune one layer block by block with OBS compensation.

    The columns of ``w`` are swept in ``bundle.order``, the order its
    factor was made in; weights and mask come back in channel order.  Under
    an n:m pattern, an order that splits a group of m is rejected with a
    ConfigError before the sweep.  The error after block k is measured in
    the raw Hessian.  With every pruned column compensated, the dampened
    loss equals the summed squared OBS errors, so
    raw_k = sum(E**2) - damp_lambda * ||W0 - W_k||^2.  Once
    a column is pruned without compensation (degenerate inverse diagonal),
    or the subtraction cancels, sum(d @ H_raw @ d) is computed instead.
    """
    # row-major, so that every sum runs in one order whatever the caller's layout
    w_dense = np.ascontiguousarray(finite_matrix(w))
    rows, n = w_dense.shape
    if n != bundle.n:
        raise DimensionError(f"weight cols {n} != Hessian size {bundle.n}")
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
    dead[order.inverse[bundle.dead_columns]] = True
    group = config.group_width
    step = SUB_BLOCK if config.pattern is None else max(1, SUB_BLOCK // group) * group

    # the sweep runs on W.T in pruning order, so that every column it
    # touches is contiguous
    dense_t = w_dense.T[order.forward]
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
            d = w_dense - _channel_order(cur, order)
            raw_err = float(error_prefix(d, bundle.raw)[-1])
        trajectory.append(raw_err)
        final_sq += tail_sq[0]

    # the copies go before the error denominator allocates two of its own
    del dense_t
    pruned_weights = _channel_order(cur, order)
    del cur
    return outcome_from_trajectory(
        w_dense,
        pruned_weights,
        _channel_order(kept_t, order),
        config.pattern,
        trajectory,
        bundle.raw,
    )
