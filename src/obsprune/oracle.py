"""Brute-force references for the compensation engine.

These deliberately avoid the Cholesky shortcut: the exact reconstruction
solves the normal equations of the fixed-mask least-squares problem, and
the naive pruner inverts the dampened Hessian once, removes each column
from that explicit inverse as it goes, chooses its own masks from it by
a stable sort, and measures its outcome's errors and dense energy on the
activations.  They ship with the library so that ``cross_check``
(``obsprune verify``) can re-run the cross-checks on demand; the pruner
is O(n**3) and capped at ``ORACLE_MAX_COLS`` columns.

This is the one module that uses numpy's linear algebra (``@`` and
``np.linalg``); every other dense product runs on scipy's BLAS.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .calibration import (DAMP_FRACTION, bundle_from_hessian, bundle_from_inverse,
                          checked_layer, damping, damped_inverse, raw_hessian)
from .engine import PruneOutcome, prune_layer
from .errors import (
    DimensionError,
    IndefiniteHessianError,
    OracleScaleError,
    SingularOracleError,
)
from .tensors import Permutation, PruneMask, SparsityConfig, as_matrix, finite_matrix

ORACLE_MAX_COLS = 1024


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


def _naive_mask(saliency: np.ndarray, config: SparsityConfig) -> np.ndarray:
    """True where pruned, by a stable argsort of each group of candidates.

    Unstructured: one group, the block read column by column, which loses
    its floor(p * rows * width + 0.5) smallest.  n:m: each row's groups of
    m, which lose their m - n smallest.  Ties go to the earlier candidate.
    """
    rows, width = saliency.shape
    pat = config.pattern
    if pat is None:
        groups = saliency.T.reshape(1, -1)
        drop = int(np.floor(config.sparsity * rows * width + 0.5))
    else:
        groups, drop = saliency.reshape(-1, pat.m), pat.m - pat.n
    pruned = np.zeros(groups.shape, dtype=bool)
    smallest = np.argsort(groups, axis=1, kind="stable")[:, :drop]
    np.put_along_axis(pruned, smallest, True, axis=1)
    return pruned.reshape(width, rows).T if pat is None else pruned.reshape(rows, width)


def _drop_first(inv: np.ndarray, col: int) -> np.ndarray:
    """The inverse of H[1:, 1:] from ``inv``, H's: OBC's row-removal downdate.

    The pivot inv[0, 0] is one over the Schur complement of H[1:, 1:] in
    H, so H is positive definite only if every pivot down the sweep is
    finite and positive.  ``col``, the layer column H starts at, is named
    in the ``IndefiniteHessianError`` raised for any other pivot.
    """
    d = inv[0, 0]
    if not (np.isfinite(d) and d > 0):
        raise IndefiniteHessianError(
            f"dampened Hessian is not positive definite at column {col} "
            f"(inverse pivot {d})"
        )
    return inv[1:, 1:] - np.outer(inv[1:, 0], inv[0, 1:]) / d


def naive_obs_prune(
    w: np.ndarray,
    activations: Iterable[np.ndarray],
    config: SparsityConfig,
    damp_fraction: float = DAMP_FRACTION,
) -> PruneOutcome:
    """Reference pruner that inverts the dampened H once and downdates it.

    Uses the engine's mask-selection rule (masks chosen at block entry, or at
    the first column of each n:m group) and dampening, at ``damp_fraction``,
    but no precomputed factor and no deferred updates, so agreement with
    ``prune_layer`` exercises the whole Cholesky shortcut.  Column q is
    compensated by the OBS one-row update from the inverse of H[q:, q:],
    which ``_drop_first`` then downdates; the saliency denominators come
    from the same downdate, run on the group's corner of that inverse, and
    dead channels from the oracle's own H.  Its errors and their
    denominator, the dense energy ||W X.T||^2, are measured on the stacked
    activations, independently of the engine.  The batches are read once,
    after W passes ``finite_matrix``.
    """
    w_dense = finite_matrix(w)
    rows, n = w_dense.shape
    if n > ORACLE_MAX_COLS:
        raise OracleScaleError(f"oracle capped at {ORACLE_MAX_COLS} columns, got {n}")
    batches = list(activations)
    raw = raw_hessian(batches, n)
    xs = np.vstack([as_matrix(a) for a in batches])
    lam = damping(raw.diagonal(), damp_fraction)
    dead = raw.diagonal() == 0.0
    h = np.triu(raw) + np.triu(raw, 1).T  # raw_hessian gives the upper triangle
    h[np.diag_indices(n)] += lam
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as e:
        raise IndefiniteHessianError("dampened Hessian is singular") from e

    w_cur = w_dense.copy()
    pruned_full = np.zeros((rows, n), dtype=bool)
    trajectory = []

    group = config.group_width
    for i1, i2 in config.block_ranges(n):
        for q in range(i1, i2):
            if (q - i1) % group == 0:
                g2 = min(q + group, i2)
                corner, inv_diag = inv[:g2 - q, :g2 - q], np.empty(g2 - q)
                for j in range(q, g2):
                    inv_diag[j - q] = corner[0, 0]
                    corner = _drop_first(corner, j)
                saliency = w_cur[:, q:g2] ** 2 / inv_diag
                saliency[:, dead[q:g2]] = -np.inf
                pruned_full[:, q:g2] = _naive_mask(saliency, config)
            col = w_cur[:, q]
            pruned_c = pruned_full[:, q]
            e = np.where(pruned_c, col, 0.0) / inv[0, 0]
            w_cur[:, q:] -= np.outer(e, inv[:, 0])
            w_cur[:, q] = np.where(pruned_c, 0.0, col)
            inv = _drop_first(inv, q)
        diff = (w_dense - w_cur) @ xs.T
        trajectory.append(float(np.sum(diff * diff)))

    ref = w_dense @ xs.T
    return PruneOutcome(w_cur, PruneMask(~pruned_full), np.array(trajectory),
                        float(np.sum(ref * ref)))


def cross_check(seed: int) -> list[str]:
    """Run the oracle cross-checks at small sizes; one line per failure.

    Every trial runs at ``DAMP_FRACTION``.  Fifteen
    trials compare ``prune_layer`` with ``naive_obs_prune`` on masks and
    final error, at 64 columns or fewer: ten unstructured, and five 2:4
    with masks chosen per group inside wider blocks.  Every other one has
    three dead channels with large weights.  A last trial factors H, with
    three dead channels, in a random order from its damped inverse and
    from H itself, and compares the factors.
    """
    rng = np.random.default_rng(seed)
    failures = []

    for trial, blocksize in enumerate([16] * 10 + [8, 16, 24, 32, 40]):
        nm = trial >= 10
        n = 4 * int(rng.integers(8, 17)) if nm else int(rng.integers(8, 65))
        p = float(rng.choice([0.25, 0.5, 0.75]))
        X = rng.standard_normal((2 * n, n))
        W = rng.standard_normal((max(2, n // 2), n))
        if trial % 2:
            dead = rng.choice(n, size=3, replace=False)
            X[:, dead] = 0.0
            W[:, dead] *= 100.0
        config = (SparsityConfig.semi_structured(2, 4, blocksize) if nm
                  else SparsityConfig(p, blocksize))
        layer = checked_layer(W, raw_hessian([X], n))
        fast = prune_layer(bundle_from_hessian(layer), config)
        slow = naive_obs_prune(W, [X], config)
        if not np.array_equal(fast.mask.kept, slow.mask.kept):
            failures.append(f"FAIL mask equivalence, trial {trial}")
        denom = max(abs(slow.final_error), 1e-300)
        if abs(fast.final_error - slow.final_error) / denom > 1e-6:
            failures.append(f"FAIL error equivalence, trial {trial}")

    n = int(rng.integers(8, 65))
    X = rng.standard_normal((2 * n, n))
    X[:, rng.choice(n, size=3, replace=False)] = 0.0
    layer = checked_layer(np.zeros((1, n)), raw_hessian([X], n))
    order = Permutation(rng.permutation(n))
    b = bundle_from_hessian(layer, order)
    # a copy of U, whose buffer the layer's next factor overwrites
    want = np.triu(b.chol_upper, 1) + np.diag(b.diag)
    b = bundle_from_inverse(damped_inverse(bundle_from_hessian(layer)), order)
    got = np.triu(b.chol_upper, 1) + np.diag(b.diag)
    if np.max(np.abs(got - want)) > 1e-12 * np.max(np.abs(want)):
        failures.append("FAIL factor from the damped inverse")
    return failures
