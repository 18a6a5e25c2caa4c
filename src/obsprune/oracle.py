"""Brute-force references for the compensation engine.

These deliberately avoid the Cholesky shortcut: the exact reconstruction
solves the normal equations of the fixed-mask least-squares problem, the
one-row update compensates from an explicit inverse, and the naive pruner
re-inverts the trailing Hessian submatrix at every step and measures its
outcome's errors and dense energy on the activations.  They ship with the
library so that ``cross_check`` (``obsprune verify``) can re-run the
cross-checks on demand, but they are O(n**4) and capped at small sizes.

This is the one module that uses numpy's linear algebra (``@`` and
``np.linalg``); every other dense product runs on scipy's BLAS.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .calibration import bundle_from_hessian, checked_layer, damping, raw_hessian
from .engine import PruneOutcome, prune_layer, select_block_mask
from .errors import (
    DimensionError,
    IndefiniteHessianError,
    OracleScaleError,
    SingularOracleError,
)
from .tensors import PruneMask, SparsityConfig, as_matrix

ORACLE_MAX_COLS = 64


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


def exact_masked_reconstruction(
    w_row: np.ndarray, mask_row: np.ndarray, hessian: np.ndarray
) -> np.ndarray:
    """Best row with the given zero pattern under the layer objective.

    Minimizes ||(w - w_hat) X||^2 over rows that are zero on pruned
    entries, via the normal equations on the kept-column principal
    submatrix of H = X.T X.
    """
    w_row = np.asarray(w_row, dtype=np.float64)
    kept = np.asarray(mask_row, dtype=bool)
    h = as_matrix(hessian)
    n = w_row.size
    if kept.shape != (n,) or h.shape != (n, n):
        raise DimensionError("row, mask and Hessian sizes disagree")
    out = np.zeros(n)
    idx = np.flatnonzero(kept)
    if idx.size == 0:
        return out
    sub = h[np.ix_(idx, idx)]
    rhs = h[idx, :] @ w_row
    try:
        out[idx] = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularOracleError("kept-column submatrix is singular") from e
    return out


def naive_obs_prune(
    w: np.ndarray,
    activations: Sequence[np.ndarray],
    config: SparsityConfig,
) -> PruneOutcome:
    """Reference pruner that inverts the trailing Hessian at every step.

    Uses the same mask-selection rule and dampening as the engine (masks
    chosen at block entry, or at the first column of each n:m group), but no
    precomputed factor and no deferred updates, so agreement with
    ``prune_layer`` exercises the whole Cholesky shortcut.  Its errors and
    their denominator, the dense energy ||W X.T||^2, are measured on the
    stacked activations, independently of the engine and its Hessian.
    """
    w_dense = as_matrix(w)
    rows, n = w_dense.shape
    if n == 0:
        raise DimensionError("layer must have at least one column")
    if n > ORACLE_MAX_COLS:
        raise OracleScaleError(f"oracle capped at {ORACLE_MAX_COLS} columns, got {n}")
    raw = raw_hessian(activations, n)
    xs = np.vstack([as_matrix(a) for a in activations])
    lam = damping(raw, config.damp_fraction)
    dead = raw.diagonal() == 0.0
    h = raw + lam * np.eye(n)

    w_cur = w_dense.copy()
    pruned_full = np.zeros((rows, n), dtype=bool)
    trajectory = []

    group = config.group_width
    for i1, i2 in config.block_ranges(n):
        for q in range(i1, i2):
            if (q - i1) % group == 0:
                g2 = min(q + group, i2)
                inv_diag = np.array(
                    [np.linalg.inv(h[j:, j:])[0, 0] for j in range(q, g2)]
                )
                pruned_full[:, q:g2] = select_block_mask(
                    w_cur[:, q:g2], inv_diag, config, dead[q:g2]
                )
            col = w_cur[:, q]
            pruned_c = pruned_full[:, q]
            trailing_inv = np.linalg.inv(h[q:, q:])
            e = np.where(pruned_c, col, 0.0) / trailing_inv[0, 0]
            w_cur[:, q:] -= np.outer(e, trailing_inv[:, 0])
            w_cur[:, q] = np.where(pruned_c, 0.0, col)
        diff = (w_dense - w_cur) @ xs.T
        trajectory.append(float(np.sum(diff * diff)))

    ref = w_dense @ xs.T
    return PruneOutcome(w_cur, PruneMask(~pruned_full), np.array(trajectory),
                        float(np.sum(ref * ref)))


def cross_check(seed: int, damp: float) -> list[str]:
    """Run the oracle cross-checks at small sizes; one line per failure.

    Twenty trials compare ``obs_update_row`` with the exact reconstruction
    of one pruned column.  Fifteen compare ``prune_layer`` with
    ``naive_obs_prune`` on masks and final error: ten unstructured, and
    five 2:4 with masks chosen per group inside wider blocks.
    """
    rng = np.random.default_rng(seed)
    failures = []

    for trial in range(20):
        n = int(rng.integers(4, 17))
        X = rng.standard_normal((2 * n, n))
        h = X.T @ X + 0.05 * np.eye(n)
        inv = np.linalg.inv(h)
        row = rng.standard_normal(n)
        q = int(rng.integers(0, n))
        kept = np.ones(n, dtype=bool)
        kept[q] = False
        got = obs_update_row(row, q, inv)
        ref = exact_masked_reconstruction(row, kept, h)
        if np.max(np.abs(got - ref)) > 1e-8:
            failures.append(f"FAIL single-column compensation, trial {trial}")

    for trial, blocksize in enumerate([16] * 10 + [8, 16, 24, 32, 40]):
        nm = trial >= 10
        n = 4 * int(rng.integers(8, 17)) if nm else int(rng.integers(8, 65))
        p = float(rng.choice([0.25, 0.5, 0.75]))
        X = rng.standard_normal((2 * n, n))
        W = rng.standard_normal((max(2, n // 2), n))
        common = dict(blocksize=blocksize, damp_fraction=damp)
        config = (SparsityConfig.semi_structured(2, 4, **common) if nm
                  else SparsityConfig(sparsity=p, **common))
        layer = checked_layer(W, raw_hessian([X], n))
        fast = prune_layer(bundle_from_hessian(layer, config.damp_fraction), config)
        slow = naive_obs_prune(W, [X], config)
        if not np.array_equal(fast.mask.kept, slow.mask.kept):
            failures.append(f"FAIL mask equivalence, trial {trial}")
        denom = max(abs(slow.final_error), 1e-300)
        if abs(fast.final_error - slow.final_error) / denom > 1e-6:
            failures.append(f"FAIL error equivalence, trial {trial}")
    return failures
