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
- The sweep holds one array the size of W, in pruning order: the later
  columns' update W0 - W and every finished block's weights.  A block is
  swept in a buffer of its own, loaded once as its W0, gathered from W,
  minus its update; its weights go back over its rows, and its W0 becomes
  its W0 - W.  At the end the rows move into channel order in place, one
  cycle of the order at a time, and the array is the output.
- Inside a block, the rank-1 column loop runs over sub-blocks of
  ``SUB_BLOCK`` columns (under n:m, a multiple of m, so that a group never
  straddles two sub-blocks).  A column is one divide, by the factor's
  diagonal where pruned and inf where kept, and one in-place ``dger`` along
  the factor's trailing row, within its sub-block only.  Pruned entries
  are zeroed once per block, by multiplying their bits by 0, which makes
  them +0.0 without a branch: no later column reads a finished one.
- A finished sub-block updates the rest of its block with one matrix
  product of its OBS errors and the factor's rows; a finished block adds
  its product into the later columns' update the same way, ``CHUNK``
  columns at a time.  The update then holds W0 - W_k for every later
  column, so ||W0 - W_k||^2 past a block is one ``ddot`` over the later
  rows and one over the block's W0 - W, not a subtraction per later block.

Columns past a sub-block (or block) are never read inside it, so deferring
their updates changes only the rounding.  No activations are needed: the
per-block error follows in closed form from the sweep's OBS errors, and
every other error is a quadratic form in the raw Hessian, the last entry
of ``calibration.error_prefix``.  Every method returns a ``PruneOutcome``,
which derives its final and relative error from that per-block trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .calibration import HessianBundle, Layer, error_prefix
from .errors import ConfigError, DimensionError, NumericOverflowError
from .tensors import (Permutation, PruneMask, SparsityConfig, finite_matrix,
                      pruned_entries)


def _relative(absolute: float, energy: float) -> float:
    """Error relative to the dense output energy; a layer with none has 0."""
    return absolute / energy if energy > 0 else 0.0


@dataclass(frozen=True, eq=False)
class PruneOutcome:
    """Pruned weights, mask, error after each block and the dense output energy.

    The final error ends the trajectory and the relative error divides it by
    the energy, so neither can disagree with it.  The engine's weights and
    mask may be column-major.  Equality is by identity.
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
    # in the sweep's own (width, rows) layout, as w_block is its transpose
    t = w_block.T
    with np.errstate(over="ignore"):  # raised just below
        s = np.multiply(t, t)
        s /= inv_diag[:, None]
    if dead.any():
        s[dead] = -np.inf
    if s.max(initial=-np.inf) == np.inf:
        raise NumericOverflowError("saliency w**2 / inv_diag overflows to inf")
    return pruned_entries(s.T, config)


def _squared_norm(a: np.ndarray) -> float:
    """sum(a**2) of a contiguous array, by ``ddot`` in one pass.

    f2py rejects an empty ``a``, which the last block's tail ``work[n:]`` gives.
    """
    a = a.reshape(-1)
    return blas.ddot(a, a) if a.size else 0.0


def reconstruction_error(layer: Layer, w_pruned: np.ndarray) -> tuple[float, float]:
    """Squared output error ||(W - w_pruned) X.T||^2, absolute and relative.

    ``w_pruned`` must be finite and W's shape, and the error finite.
    """
    if np.shape(w_pruned) != layer.w.shape:
        raise DimensionError(f"pruned shape {np.shape(w_pruned)} != {layer.w.shape}")
    w_pruned = finite_matrix(w_pruned, "pruned weights")
    absolute = float(error_prefix(layer.w - w_pruned, layer.raw)[-1])
    if not np.isfinite(absolute):
        raise NumericOverflowError(f"reconstruction error {absolute} is not finite")
    return absolute, _relative(absolute, layer.dense_energy)


#: below this fraction of the dampened loss, the closed-form raw error has
#: cancelled to rounding noise and is measured directly instead
CANCELLATION = 1e-6

#: columns per sub-block of the rank-1 column loop; of 8, 16 and 32, 16 was
#: at or near the fastest at both 256x1024 (2:4) and 512x2048 (unstructured)
SUB_BLOCK = 16

#: columns per product of a finished block into the later columns, so that
#: f2py copies at most blocksize x CHUNK doubles of the factor at a time
CHUNK = 256


def _into_channel_order(order: Permutation, *arrays: np.ndarray):
    """Move row j of each array to row order.forward[j], in place.

    One cycle of the order at a time, through one saved row per array, so
    the identity order moves nothing.
    """
    source = order.inverse.tolist()
    for start in np.flatnonzero(order.inverse != np.arange(order.size)).tolist():
        if source[start] < 0:
            continue  # moved with an earlier cycle
        saved = [a[start].copy() for a in arrays]
        i = start
        while (j := source[i]) != start:
            for a in arrays:
                a[i] = a[j]
            source[i], i = -1, j
        for a, row in zip(arrays, saved):
            a[i] = row
        source[i] = -1


def prune_layer(bundle: HessianBundle, config: SparsityConfig) -> PruneOutcome:
    """Prune the bundle's layer block by block with OBS compensation.

    The layer was checked when it was built, so only the config is checked
    here; a stale bundle raises StaleFactorError, and a factor diagonal
    whose square overflows NumericOverflowError naming the channel.  The
    columns of W are swept in ``bundle.order``, the order its factor was
    made in; weights and mask come back in channel order.  Under
    an n:m pattern, an order that splits a group of m is rejected with a
    ConfigError before the sweep.  The error after block k is measured in
    the raw Hessian.  Every pruned weight is compensated, so the dampened
    loss equals the summed squared OBS errors, and
    raw_k = sum(E**2) - layer.damp_lambda * ||W0 - W_k||^2.  When that closed
    form is not finite (a huge damping overflows it) or has cancelled,
    sum(d @ H_raw @ d) is computed instead, on d rebuilt from W in one
    temporary the size of W; if that overflows too, NumericOverflowError
    names the block.  Otherwise the sweep holds one array the size of W,
    the mask, and blocksize x rows buffers.  No rule depends on the scale
    of H: short of overflow or underflow, scaling X by 2**k leaves masks
    and weights bit for bit and scales every error by 4**k.
    """
    layer = bundle.valid().layer
    rows, n = layer.w.shape
    ranges = config.block_ranges(n)  # raises ConfigError for an untiled n:m
    order = bundle.order
    if config.pattern is not None:
        m = config.pattern.m
        groups = order.forward.reshape(-1, m) // m
        if np.any(groups != groups[:, :1]):
            raise ConfigError(f"the column order splits a group of m={m}: "
                              "the n:m pattern would break in channel order")

    upper, diag = bundle.chol_upper, bundle.diag
    with np.errstate(over="ignore"):  # raised just below
        inv_diag = diag * diag
    if np.isinf(inv_diag).any():
        raise NumericOverflowError("inverse Hessian diagonal overflows at channel "
                                   f"{order.forward[np.argmax(np.isinf(inv_diag))]}")
    dead = layer.dead[order.forward]
    group = config.group_width
    step = SUB_BLOCK if config.pattern is None else max(1, SUB_BLOCK // group) * group

    # the sweep runs on W.T in pruning order, so that every column it
    # touches is contiguous; one array holds the later columns' update
    # W0 - W, added in one product per block, and each finished block's
    # weights, and becomes the output
    work = np.zeros((n, rows))
    pruned_t = np.zeros((n, rows), dtype=bool)
    # the block being swept, and its OBS errors, each divided in place
    # from its divisor
    blk_buf, errs_buf = np.empty((2, min(config.blocksize, n), rows))
    trajectory = []
    loss = 0.0
    # ||W0 - W_k||^2 over the columns of finished blocks, which never change
    final_sq = 0.0

    for block_index, (i1, i2) in enumerate(ranges):
        width = i2 - i1
        # the block's W0, gathered from W; after the block, its W0 - W
        dense = layer.w.T[order.forward[i1:i2]]
        blk = np.subtract(dense, work[i1:i2], out=blk_buf[:width])
        errs = errs_buf[:width]
        ublk = upper[i1:i2, i1:i2]
        diag_b, inv_b = diag[i1:i2], inv_diag[i1:i2]
        pruned_b, dead_b = pruned_t[i1:i2], dead[i1:i2]
        for s1 in range(0, width, step):
            s2 = min(s1 + step, width)
            for q in range(s1, s2):
                if q % group == 0:
                    g = slice(q, q + group)
                    pruned = pruned_b[g]
                    pruned[...] = select_block_mask(blk[g].T, inv_b[g], config,
                                                    dead_b[g]).T
                    # diag / 1 where pruned and diag / 0 = inf where kept, with
                    # no branch; x / inf is 0, so a kept weight's error is 0
                    with np.errstate(divide="ignore"):
                        np.divide(diag_b[g, None], pruned, out=errs[g])
                e = np.divide(blk[q], errs[q], out=errs[q])
                # f2py rejects an empty operand: no later column
                if q + 1 < s2:
                    blas.dger(-1.0, e, ublk[q, q + 1 : s2],
                              a=blk[q + 1 : s2].T, overwrite_a=1)
            # dgemm adds errs.T @ U into the later rows' column-major
            # transpose in place, with no product temporary
            if s2 < width:
                blas.dgemm(-1.0, errs[s1:s2].T, ublk[s1:s2, s2:], beta=1.0,
                           c=blk[s2:].T, overwrite_c=1)
        for c in range(i2, n, CHUNK):
            blas.dgemm(1.0, errs.T, upper[i1:i2, c : c + CHUNK], beta=1.0,
                       c=work[c : c + CHUNK].T, overwrite_c=1)
        # multiplying the bits by 0 or 1 makes pruned entries +0.0, branch-free
        bits = blk.view(np.uint64)
        bits *= ~pruned_b
        dense -= blk
        work[i1:i2] = blk

        # float sums: a huge damping overflows the closed form with no warning
        loss += _squared_norm(errs)
        block_sq = _squared_norm(dense)
        tail_sq = block_sq + _squared_norm(work[i2:])
        raw_err = loss - layer.damp_lambda * (final_sq + tail_sq)
        if not (np.isfinite(raw_err) and raw_err >= CANCELLATION * loss):
            # a non-finite weight makes the tail sum not finite; columns
            # before i1 are final and were checked with earlier blocks
            finite = np.isfinite(tail_sq) or (np.all(np.isfinite(dense))
                                              and np.all(np.isfinite(work[i2:])))
            if finite:
                # W0 - W_k, rebuilt in channel order: the one W-sized temporary
                d = layer.w.T[order.forward]
                d[:i2] -= work[:i2]
                d[i2:] = work[i2:]
                _into_channel_order(order, d)
                raw_err = error_prefix(d.T, layer.raw)[-1]
                del d
            if not np.isfinite(raw_err):
                what = "reconstruction error" if finite else "weights"
                raise NumericOverflowError(f"non-finite {what} after block "
                                           f"{block_index}", block=block_index)
        trajectory.append(raw_err)
        final_sq += block_sq

    _into_channel_order(order, work, pruned_t)
    kept_t = np.logical_not(pruned_t, out=pruned_t)
    return PruneOutcome(work.T, PruneMask(kept_t.T), np.array(trajectory),
                        layer.dense_energy)
