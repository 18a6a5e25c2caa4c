"""Magnitude and activation-weighted pruning without weight updates."""

from __future__ import annotations

import numpy as np

from .calibration import Layer, error_prefix, importance_scores
from .engine import PruneOutcome
from .tensors import (
    PruneMask,
    SemiStructured,
    SparsityConfig,
    pruned_count,
    pruned_entries,
    smallest_per_row,
)


def _outcome(layer: Layer, kept: np.ndarray,
             ranges: list[tuple[int, int]]) -> PruneOutcome:
    """Assemble a PruneOutcome for a no-compensation method.

    The trajectory records the error after masking each successive block
    left to right: the error prefix of D = w - pruned in the raw Hessian,
    read at the ends of ``ranges``, the config's ``block_ranges``.
    """
    w = layer.w
    pruned = np.where(kept, w, 0.0)
    prefix = error_prefix(w - pruned, layer.raw)
    trajectory = prefix[[i2 for _, i2 in ranges]]
    return PruneOutcome(pruned, PruneMask(kept), trajectory, layer.dense_energy)


def magnitude_prune(layer: Layer, config: SparsityConfig) -> PruneOutcome:
    """Zero the layer-globally smallest |w| entries; no compensation."""
    ranges = config.block_ranges(layer.w.shape[1])  # ConfigError for an untiled n:m
    return _outcome(layer, ~pruned_entries(np.abs(layer.w), config), ranges)


def wanda_prune(layer: Layer, config: SparsityConfig) -> PruneOutcome:
    """Zero the per-row smallest |w| * activation-norm entries."""
    n = layer.w.shape[1]
    ranges = config.block_ranges(n)  # ConfigError for an untiled n:m
    scores = importance_scores(layer)
    if isinstance(config.pattern, SemiStructured):
        pruned = pruned_entries(scores, config)
    else:
        pruned = smallest_per_row(scores, pruned_count(config.sparsity, 1, n))
    return _outcome(layer, ~pruned, ranges)
