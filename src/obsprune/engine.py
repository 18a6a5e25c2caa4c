"""Block-wise second-order pruning with Cholesky-based compensation.

Columns are processed left to right in blocks.  The mask for a block is
fixed once at block entry from the weights as they stand and the squared
diagonals of the stored upper factor.  Pruned columns are zeroed and every
row is compensated in parallel along the factor's trailing row.  Columns
beyond the block are never read inside it, so their update waits for block
end: one matrix product of the block's OBS errors and the factor's rows.

No activations are needed: every error is a quadratic form in the raw
Hessian, and the per-block error follows in closed form from the OBS
errors the sweep already computes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import DEGENERATE_DIAG, HessianBundle
from .errors import DimensionError, IndefiniteHessianError, NumericOverflowError
from .tensors import PruneMask, SparsityConfig, as_matrix, pruned_entries


@dataclass(frozen=True)
class PruneOutcome:
    """Pruned weights plus the error accounting of one layer."""

    pruned_weights: np.ndarray
    mask: PruneMask
    block_error_trajectory: np.ndarray
    final_error: float
    relative_error: float


def obs_update_row(row: np.ndarray, q: int, inv_h: np.ndarray) -> np.ndarray:
    """Remove weight q from one row and optimally compensate the rest."""
    row = np.asarray(row, dtype=np.float64)
    inv_h = as_matrix(inv_h)
    if not 0 <= q < row.size:
        raise DimensionError(f"column {q} out of range for row of size {row.size}")
    d = inv_h[q, q]
    if d <= 0:
        raise IndefiniteHessianError(
            f"inverse-Hessian diagonal at {q} must be positive, got {d}"
        )
    out = row - (row[q] / d) * inv_h[:, q]
    out[q] = 0.0
    return out


def select_block_mask(
    w_block: np.ndarray,
    inv_h_block_diag: np.ndarray,
    config: SparsityConfig,
    force_cols: Sequence[int] = (),
) -> PruneMask:
    """Choose the keep/prune mask for one block of columns.

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


def _quadratic(d: np.ndarray, hessian: np.ndarray) -> float:
    """Sum over the rows of d of d @ H @ d, i.e. ||d X.T||^2 for H = X.T X."""
    return float(np.sum((d @ hessian) * d))


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
    denom = _quadratic(w_dense, hessian)
    return PruneOutcome(
        pruned_weights=pruned,
        mask=PruneMask(kept=kept, pattern=pattern),
        block_error_trajectory=np.asarray(trajectory, dtype=np.float64),
        final_error=absolute,
        relative_error=absolute / denom if denom > 0 else 0.0,
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
    absolute = _quadratic(wd - wp, h)
    denom = _quadratic(wd, h)
    relative = absolute / denom if denom > 0 else 0.0
    return absolute, relative


#: below this fraction of the dampened loss, the closed-form raw error has
#: cancelled to rounding noise and is measured directly instead
CANCELLATION = 1e-6


def prune_layer(
    w: np.ndarray,
    bundle: HessianBundle,
    config: SparsityConfig,
) -> PruneOutcome:
    """Prune one layer block by block with OBS compensation.

    The error after block k is measured in the raw Hessian.  With every
    pruned column compensated, the dampened loss equals the summed squared
    OBS errors, so raw_k = sum(E**2) - damp_lambda * ||W0 - W_k||^2.  Once
    a column is pruned without compensation (degenerate inverse diagonal),
    or the subtraction cancels, sum(d @ H_raw @ d) is computed instead.
    """
    w_dense = as_matrix(w)
    rows, n = w_dense.shape
    if n != bundle.n:
        raise DimensionError(f"weight cols {n} != Hessian size {bundle.n}")

    upper = bundle.chol_upper
    dead = set(int(j) for j in bundle.dead_columns)
    w_cur = w_dense.copy()
    kept_full = np.ones((rows, n), dtype=bool)
    trajectory = []
    loss = 0.0
    # ||W0 - W_k||^2 over the columns of finished blocks, which never change
    final_sq = 0.0
    uncompensated = False

    for block_index, (i1, i2) in enumerate(config.block_ranges(n)):
        bw = i2 - i1
        d = upper.diagonal()[i1:i2]
        inv_diag = d * d
        degenerate = inv_diag < DEGENERATE_DIAG
        force = [j - i1 for j in range(i1, i2) if j in dead]
        mask = select_block_mask(
            w_cur[:, i1:i2],
            np.maximum(inv_diag, DEGENERATE_DIAG),
            config,
            force,
        )
        kept_full[:, i1:i2] = mask.kept

        errs = np.zeros((rows, bw))
        for c in range(bw):
            q = i1 + c
            col = w_cur[:, q]
            kept_c = mask.kept[:, c]
            if degenerate[c]:
                if not np.all(kept_c):
                    warnings.warn(
                        f"column {q}: degenerate inverse diagonal, pruning "
                        "without compensation",
                        RuntimeWarning,
                    )
                    uncompensated = True
                e = np.zeros(rows)
            else:
                e = np.where(kept_c, 0.0, col) / d[c]
            w_cur[:, q] = np.where(kept_c, col, 0.0)
            if c + 1 < bw:
                w_cur[:, q + 1 : i2] -= np.outer(e, upper[q, q + 1 : i2])
            errs[:, c] = e
        w_cur[:, i2:] -= errs @ upper[i1:i2, i2:]

        # columns before i1 are final and were checked with earlier blocks
        if not np.all(np.isfinite(w_cur[:, i1:])):
            raise NumericOverflowError(
                f"non-finite weights after block {block_index}", block=block_index
            )
        loss += float(np.sum(errs * errs))
        tail = w_dense[:, i1:] - w_cur[:, i1:]
        raw_err = loss - bundle.damp_lambda * (final_sq + float(np.sum(tail * tail)))
        if uncompensated or raw_err < CANCELLATION * loss:
            raw_err = _quadratic(w_dense - w_cur, bundle.raw)
        trajectory.append(raw_err)
        final_sq += float(np.sum(tail[:, :bw] * tail[:, :bw]))

    return outcome_from_trajectory(
        w_dense, w_cur, kept_full, config.pattern, trajectory, bundle.raw
    )
