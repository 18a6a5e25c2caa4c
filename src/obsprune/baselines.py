"""Magnitude and activation-weighted pruning without weight updates."""

from __future__ import annotations

import numpy as np

from .calibration import column_norms
from .engine import PruneOutcome, outcome_from_trajectory
from .errors import DimensionError
from .tensors import (
    SemiStructured,
    SparsityConfig,
    as_matrix,
    pruned_count,
    pruned_entries,
    smallest_per_row,
)


def _outcome(
    w: np.ndarray,
    kept: np.ndarray,
    config: SparsityConfig,
    raw: np.ndarray,
) -> PruneOutcome:
    """Assemble a PruneOutcome for a no-compensation method.

    The trajectory records the error after masking each successive block
    left to right: with D = w - pruned, the error of the first k columns is
    the leading k x k sum of (D.T @ D) * H for the raw Hessian H.
    """
    pruned = np.where(kept, w, 0.0)
    h = as_matrix(raw)
    n = w.shape[1]
    if h.shape != (n, n):
        raise DimensionError(f"Hessian shape {h.shape} != weight cols {n}")
    d = w - pruned
    prefix = ((d.T @ d) * h).cumsum(axis=0).cumsum(axis=1)
    ends = [i2 - 1 for _, i2 in config.block_ranges(n)]
    trajectory = prefix[ends, ends]
    return outcome_from_trajectory(w, pruned, kept, config.pattern, trajectory, h)


def magnitude_prune(
    w: np.ndarray,
    config: SparsityConfig,
    raw: np.ndarray,
) -> PruneOutcome:
    """Zero the layer-globally smallest |w| entries; no compensation.

    ``raw`` is the X.T @ X the errors are measured in.
    """
    w = as_matrix(w)
    return _outcome(w, ~pruned_entries(np.abs(w), config), config, raw)


def wanda_prune(
    w: np.ndarray,
    config: SparsityConfig,
    raw: np.ndarray,
) -> PruneOutcome:
    """Zero the per-row smallest |w| * activation-norm entries.

    ``raw`` is the X.T @ X the norms, sqrt(diag(raw)), come from and the
    errors are measured in.
    """
    w = as_matrix(w)
    n = w.shape[1]
    norms = column_norms(raw)
    if norms.size != n:
        raise DimensionError(f"norms size {norms.size} != weight cols {n}")
    scores = np.abs(w) * norms
    if isinstance(config.pattern, SemiStructured):
        pruned = pruned_entries(scores, config)
    else:
        pruned = smallest_per_row(scores, pruned_count(config.sparsity, 1, n))
    return _outcome(w, ~pruned, config, raw)
