"""Magnitude and activation-weighted pruning without weight updates."""

from __future__ import annotations

import numpy as np

from .calibration import ActivationNorms
from .engine import PruneOutcome, outcome_from_trajectory
from .errors import DimensionError
from .tensors import (
    PruneMask,
    SemiStructured,
    SparsityConfig,
    as_matrix,
    pruned_count,
)


def _outcome(
    w: np.ndarray,
    kept: np.ndarray,
    config: SparsityConfig,
    hessian: np.ndarray | None,
) -> PruneOutcome:
    """Assemble a PruneOutcome for a no-compensation method.

    The trajectory records the error after masking each successive block
    left to right: with D = w - pruned, the error of the first k columns is
    the leading k x k sum of (D.T @ D) * H.  Without a raw Hessian the
    error fields are NaN.
    """
    pruned = np.where(kept, w, 0.0)
    if hessian is None:
        return PruneOutcome(
            pruned_weights=pruned,
            mask=PruneMask(kept=kept, pattern=config.pattern),
            block_error_trajectory=np.zeros(0),
            final_error=float("nan"),
            relative_error=float("nan"),
        )
    h = as_matrix(hessian)
    n = w.shape[1]
    if h.shape != (n, n):
        raise DimensionError(f"Hessian shape {h.shape} != weight cols {n}")
    d = w - pruned
    prefix = ((d.T @ d) * h).cumsum(axis=0).cumsum(axis=1)
    ends = [i2 - 1 for _, i2 in config.block_ranges(n)]
    trajectory = prefix[ends, ends]
    return outcome_from_trajectory(w, pruned, kept, config.pattern, trajectory, h)


def _nm_kept(scores: np.ndarray, pat: SemiStructured) -> np.ndarray:
    rows, n = scores.shape
    if n % pat.m != 0:
        raise DimensionError(f"cols {n} not a multiple of group size {pat.m}")
    kept = np.ones((rows, n), dtype=bool)
    groups = scores.reshape(rows, n // pat.m, pat.m)
    order = np.argsort(groups, axis=2, kind="stable")
    drop = order[:, :, : pat.m - pat.n]
    kv = kept.reshape(rows, n // pat.m, pat.m)
    np.put_along_axis(kv, drop, False, axis=2)
    return kept


def magnitude_prune(
    w: np.ndarray,
    config: SparsityConfig,
    hessian: np.ndarray | None = None,
) -> PruneOutcome:
    """Zero the layer-globally smallest |w| entries; no compensation.

    ``hessian`` is the raw X.T @ X the errors are measured in.
    """
    w = as_matrix(w)
    rows, n = w.shape
    mag = np.abs(w)
    if isinstance(config.pattern, SemiStructured):
        kept = _nm_kept(mag, config.pattern)
    else:
        kept = np.ones((rows, n), dtype=bool)
        k = pruned_count(config.sparsity, rows, n)
        if k > 0:
            ridx = np.repeat(np.arange(rows), n)
            cidx = np.tile(np.arange(n), rows)
            order = np.lexsort((ridx, cidx, mag.ravel()))
            kept.ravel()[order[:k]] = False
    return _outcome(w, kept, config, hessian)


def wanda_prune(
    w: np.ndarray,
    norms: ActivationNorms,
    config: SparsityConfig,
    hessian: np.ndarray | None = None,
) -> PruneOutcome:
    """Zero the per-row smallest |w| * activation-norm entries.

    ``hessian`` is the raw X.T @ X the errors are measured in.
    """
    w = as_matrix(w)
    rows, n = w.shape
    if norms.n != n:
        raise DimensionError(f"norms size {norms.n} != weight cols {n}")
    scores = np.abs(w) * norms.norms
    if isinstance(config.pattern, SemiStructured):
        kept = _nm_kept(scores, config.pattern)
    else:
        kept = np.ones((rows, n), dtype=bool)
        k = pruned_count(config.sparsity, 1, n)
        if k > 0:
            order = np.argsort(scores, axis=1, kind="stable")
            np.put_along_axis(kept, order[:, :k], False, axis=1)
    return _outcome(w, kept, config, hessian)
