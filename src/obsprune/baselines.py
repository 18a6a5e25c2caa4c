"""Magnitude and activation-weighted pruning without weight updates."""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas

from .calibration import checked_hessian, column_norms, mirror_upper
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
    d = w - pruned
    n = w.shape[1]
    # D.T @ D into the lower triangle of the column-major prefix.T, which is
    # the upper triangle of prefix; then the sums over both axes, in place,
    # so that one n x n buffer serves every step
    prefix = np.zeros((n, n))
    blas.dsyrk(1.0, d.T, c=prefix.T, lower=1, overwrite_c=1)
    mirror_upper(prefix)
    prefix *= raw
    np.cumsum(prefix, axis=0, out=prefix)
    np.cumsum(prefix, axis=1, out=prefix)
    ends = [i2 - 1 for _, i2 in config.block_ranges(n)]
    trajectory = prefix[ends, ends]
    return outcome_from_trajectory(w, pruned, kept, config.pattern, trajectory, raw)


def _checked_inputs(w, raw) -> tuple[np.ndarray, np.ndarray]:
    """W and the raw Hessian, checked against each other before any masking."""
    w = as_matrix(w)
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
