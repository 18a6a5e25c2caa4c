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
  straddles two sub-blocks).  A column is one divide, by the factor's
  diagonal where pruned and inf where kept, and one in-place ``dger`` along
  the factor's trailing row, within its sub-block only.  Pruned entries
  are zeroed once per block: no later column reads a finished one.
- A finished sub-block updates the rest of its block with one matrix
  product of its OBS errors and the factor's rows; a finished block
  updates every later column the same way.

Columns past a sub-block (or block) are never read inside it, so deferring
their updates changes only the rounding.  No activations are needed: the
per-block error follows in closed form from the sweep's OBS errors, and
every other error is a quadratic form in the raw Hessian,
``calibration.error_prefix``.  Every method returns a ``PruneOutcome``,
which derives its final and relative error from that per-block trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .calibration import HessianBundle, Layer, error_prefix
from .errors import ConfigError, DimensionError, NumericOverflowError
from .tensors import Permutation, PruneMask, SparsityConfig, pruned_entries


def _relative(absolute: float, energy: float) -> float:
    """Error relative to the dense output energy; a layer with none has 0."""
    return absolute / energy if energy > 0 else 0.0


@dataclass(frozen=True, eq=False)
class PruneOutcome:
    """Pruned weights, mask, error after each block and the dense output energy.

    The final error ends the trajectory and the relative error divides it by
    the energy, so neither can disagree with it.  Equality is by identity.
    """

    pruned_weights: np.ndarray
    mask: PruneMask
    block_error_trajectory: np.ndarray
    dense_energy: float

    @property
    def final_error(self) -> float:
        return float(self.block_error_trajectory[-1])

    @property
    def relative_error(self) -> float:
        return _relative(self.final_error, self.dense_energy)


def select_block_mask(
    w_block: np.ndarray, inv_diag: np.ndarray, config: SparsityConfig, dead: np.ndarray
) -> np.ndarray:
    """The boolean mask, True where pruned, of one block or n:m group of columns.

    The sweep's mask step, over float64 arrays shaped by ``block_ranges``:
    ``inv_diag`` has one entry and ``dead`` one boolean per column.
    Saliency is w**2 / inv_diag, and ``tensors.pruned_entries`` applies the
    pattern's rule to it.  Dead calibration channels get saliency -inf, so
    they are pruned first.  Any other saliency that overflows raises
    NumericOverflowError: ties at inf would leave the mask to the tie-break.
    """
    with np.errstate(over="ignore"):  # raised just below
        s = w_block * w_block / inv_diag
    s[:, dead] = -np.inf
    if np.any(s == np.inf):
        raise NumericOverflowError("saliency w**2 / inv_diag overflows to inf")
    return pruned_entries(s, config)


def _subtract_product(out: np.ndarray, upper_rows: np.ndarray, errs: np.ndarray):
    """out -= upper_rows.T @ errs, in place on the row-major ``out``.

    One ``dgemm`` on the transposes, which are column-major, accumulates
    into ``out`` without a product temporary.  f2py rejects an empty ``c``,
    which the last block's (empty) tail and a layer with no rows give.
    """
    if out.size:
        blas.dgemm(-1.0, errs.T, upper_rows, beta=1.0, c=out.T, overwrite_c=1)


def reconstruction_error(layer: Layer, w_pruned: np.ndarray) -> tuple[float, float]:
    """Squared output error ||(W - w_pruned) X.T||^2, absolute and relative."""
    if np.shape(w_pruned) != layer.w.shape:
        raise DimensionError(f"pruned shape {np.shape(w_pruned)} != {layer.w.shape}")
    absolute = float(error_prefix(layer.w - w_pruned, layer.raw)[-1])
    return absolute, _relative(absolute, layer.dense_energy)


#: below this fraction of the dampened loss, the closed-form raw error has
#: cancelled to rounding noise and is measured directly instead
CANCELLATION = 1e-6

#: columns per sub-block of the rank-1 column loop; of 8, 16 and 32, 16 was
#: at or near the fastest at both 256x1024 (2:4) and 512x2048 (unstructured)
SUB_BLOCK = 16


def _channel_order(t: np.ndarray, order: Permutation) -> np.ndarray:
    """The row-major (rows, n) matrix whose column order.forward[j] is t[j]."""
    return t[order.inverse].T.copy()


def prune_layer(bundle: HessianBundle, config: SparsityConfig) -> PruneOutcome:
    """Prune the bundle's layer block by block with OBS compensation.

    The layer was checked when it was built, so only the config is checked
    here.  The columns of W are swept in ``bundle.order``, the order its
    factor was made in; weights and mask come back in channel order.  Under
    an n:m pattern, an order that splits a group of m is rejected with a
    ConfigError before the sweep.  The error after block k is measured in
    the raw Hessian.  Every pruned weight is compensated, so the dampened
    loss equals the summed squared OBS errors, and
    raw_k = sum(E**2) - damp_lambda * ||W0 - W_k||^2.  When that closed
    form is not finite (a huge damping overflows it) or has cancelled,
    sum(d @ H_raw @ d) is computed instead; if that overflows too,
    NumericOverflowError names the block.  No rule depends on the scale
    of H: short of overflow or underflow, scaling X by 2**k leaves masks
    and weights bit for bit and scales every error by 4**k.
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
    dead = layer.dead[order.forward]
    group = config.group_width
    step = SUB_BLOCK if config.pattern is None else max(1, SUB_BLOCK // group) * group

    # the sweep runs on W.T in pruning order, so that every column it
    # touches is contiguous
    dense_t = layer.w.T[order.forward]
    cur = dense_t.copy()
    pruned_t = np.zeros((n, rows), dtype=bool)
    # a block's OBS errors, and its divisors during the column loop and
    # the squares of the error sums after it
    errs_buf, work = np.empty((2, min(config.blocksize, n), rows))
    trajectory = []
    loss = 0.0
    # ||W0 - W_k||^2 over the columns of finished blocks, which never change
    final_sq = 0.0

    for block_index, (i1, i2) in enumerate(ranges):
        errs = errs_buf[: i2 - i1]
        for s1 in range(i1, i2, step):
            s2 = min(s1 + step, i2)
            for q in range(s1, s2):
                if (q - i1) % group == 0:
                    g2 = min(q + group, i2)
                    pruned = select_block_mask(cur[q:g2].T, inv_diag[q:g2], config,
                                               dead[q:g2]).T
                    pruned_t[q:g2] = pruned
                    # x / inf is 0 with x's sign, so a kept weight's error is 0
                    work[q - i1 : g2 - i1] = np.where(pruned, diag[q:g2, None], np.inf)
                e = np.divide(cur[q], work[q - i1], out=errs[q - i1])
                # f2py rejects an empty operand: no later column, or no rows
                if q + 1 < s2 and rows:
                    blas.dger(-1.0, e, upper[q, q + 1 : s2],
                              a=cur[q + 1 : s2].T, overwrite_a=1)
            if s2 < i2:
                _subtract_product(cur[s2:i2], upper[s1:s2, s2:i2],
                                  errs[s1 - i1 : s2 - i1])
        _subtract_product(cur[i2:], upper[i1:i2, i2:], errs)
        cur[i1:i2][pruned_t[i1:i2]] = 0.0

        # a huge damping can overflow the closed form, which is then not finite
        with np.errstate(over="ignore"):
            loss += float(np.sum(np.square(errs, out=work[: i2 - i1])))
            # one block at a time, each squared in the one buffer
            tail_sq = []
            for j1, j2 in ranges[block_index:]:
                d = np.subtract(dense_t[j1:j2], cur[j1:j2], out=work[: j2 - j1])
                tail_sq.append(float(np.sum(np.square(d, out=d))))
        raw_err = loss - bundle.damp_lambda * (final_sq + sum(tail_sq))
        if not (np.isfinite(raw_err) and raw_err >= CANCELLATION * loss):
            # a non-finite weight makes the tail sum not finite; columns
            # before i1 are final and were checked with earlier blocks
            finite = np.isfinite(sum(tail_sq)) or np.all(np.isfinite(cur[i1:]))
            if finite:
                d = layer.w - _channel_order(cur, order)
                with np.errstate(over="ignore", invalid="ignore"):  # raised below
                    raw_err = float(error_prefix(d, layer.raw)[-1])
            if not np.isfinite(raw_err):
                what = "reconstruction error" if finite else "weights"
                raise NumericOverflowError(f"non-finite {what} after block "
                                           f"{block_index}", block=block_index)
        trajectory.append(raw_err)
        final_sq += tail_sq[0]

    # the sweep's copies go before the outputs are allocated
    del dense_t
    pruned_weights = _channel_order(cur, order)
    del cur
    return PruneOutcome(pruned_weights, PruneMask(~_channel_order(pruned_t, order)),
                        np.array(trajectory), layer.dense_energy)
