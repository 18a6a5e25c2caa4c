"""Magnitude and activation-weighted pruning without weight updates."""

from __future__ import annotations

import numpy as np

from .calibration import checked_hessian, column_norms
from .engine import PruneOutcome, error_prefix, outcome_from_trajectory
from .errors import DimensionError
from .tensors import (
    SemiStructured,
    SparsityConfig,
    finite_matrix,
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
    left to right: the error prefix of D = w - pruned in the raw Hessian,
    read at the block ends.
    """
    pruned = np.where(kept, w, 0.0)
    prefix = error_prefix(w - pruned, raw)
    trajectory = prefix[[i2 for _, i2 in config.block_ranges(w.shape[1])]]
    return outcome_from_trajectory(w, pruned, kept, config.pattern, trajectory, raw)


def _checked_inputs(w, raw) -> tuple[np.ndarray, np.ndarray]:
    """W and the raw Hessian, checked against each other before any masking."""
    w = finite_matrix(w)
    raw = checked_hessian(raw)
    n = w.shape[1]
    if raw.shape != (n, n):
        raise DimensionError(f"Hessian shape {raw.shape} != weight cols {n}")
    return w, raw


def magnitude_prune(
    w: np.ndarray,
    config: SparsityConfig,
    raw: np.ndarray,
) -> PruneOutcome:
    """Zero the layer-globally smallest |w| entries; no compensation.

    ``raw`` is the X.T @ X the errors are measured in.
    """
    w, raw = _checked_inputs(w, raw)
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
    w, raw = _checked_inputs(w, raw)
    n = w.shape[1]
    scores = np.abs(w) * column_norms(raw)
    if isinstance(config.pattern, SemiStructured):
        pruned = pruned_entries(scores, config)
    else:
        pruned = smallest_per_row(scores, pruned_count(config.sparsity, 1, n))
    return _outcome(w, ~pruned, config, raw)
