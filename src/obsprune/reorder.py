"""Loss-ordered two-level channel reordering around the pruning engine.

Before any weight moves, a pre-pruning pass marks the entries most likely
to be removed (smallest magnitude-times-activation-norm scores) and sums
their scores into per-column and per-block losses.  Layers whose block
losses fluctuate widely (relative range above a threshold) get reordered:
columns descending by column loss inside each block, then whole blocks
descending by block loss.  High-loss weights are then pruned while plenty
of later columns remain available for compensation, and the result is
mapped back to the original channel order.

The scores read the checked ``Layer``'s weights and column norms.  Every
second-order method is a column order of that layer, factored by
``bundle_from_hessian``, plus ``prune_layer``, which sweeps the columns in
the bundle's order: SparseGPT is the identity order, ROSE the order of its
reorder plan.  Under an n:m pattern an order must keep every group of m
whole, or ``prune_layer`` rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import Layer, bundle_from_hessian, checked_layer, raw_hessian
from .engine import PruneOutcome, prune_layer
from .tensors import Permutation, SparsityConfig, finite_matrix, pruned_entries


@dataclass(frozen=True, eq=False)
class LossProfile:
    """Estimated pruning losses per column and per block; equality is by identity."""

    block_losses: np.ndarray
    column_losses: np.ndarray
    relative_range: float


@dataclass(frozen=True)
class ReorderPlan:
    """The column order to prune in, and whether the gate chose it."""

    permutation: Permutation
    was_reordered: bool


def importance_scores(layer: Layer) -> np.ndarray:
    """Per-weight score |w_ij| * norm_j."""
    return np.abs(layer.w) * layer.norms


def loss_profile(scores: np.ndarray, config: SparsityConfig) -> LossProfile:
    """Column and block losses from the candidate set of finite scores.

    |w| * norm can overflow to inf, so the scores are checked here, before a
    selection that must see no NaN.
    """
    scores = finite_matrix(scores, "scores")
    rows, n = scores.shape
    ranges = config.block_ranges(n)
    col_losses = np.zeros(n)
    block_losses = np.zeros(len(ranges))
    for k, (i1, i2) in enumerate(ranges):
        sub = scores[:, i1:i2]
        sel = pruned_entries(sub, config)
        picked = np.where(sel, sub, 0.0)
        col_losses[i1:i2] = picked.sum(axis=0)
        block_losses[k] = picked.sum()
    mean = block_losses.mean() if block_losses.size else 0.0
    if mean > 0:
        rel = float((block_losses.max() - block_losses.min()) / mean)
    else:
        rel = 0.0
    return LossProfile(
        block_losses=block_losses,
        column_losses=col_losses,
        relative_range=rel,
    )


def _stable_order(values: np.ndarray, descending: bool) -> np.ndarray:
    if descending:
        return np.argsort(-values, kind="stable")
    return np.argsort(values, kind="stable")


def build_reorder_plan(
    profile: LossProfile,
    config: SparsityConfig,
    descending: bool = True,
) -> ReorderPlan:
    """Two-level permutation, gated on the relative range of block losses.

    Blocks are sorted by block loss and the columns inside each block by
    column loss; under an n:m pattern columns are sorted only inside their
    group of m, so every group stays whole and the pattern holds in the
    original channel order.  ``descending=False`` flips both sort
    directions, pruning the cheapest weights first; it exists for the
    worst-case comparison runs.
    """
    n = profile.column_losses.size
    if not profile.relative_range > config.columnar_threshold:
        return ReorderPlan(Permutation.identity(n), False)
    ranges = config.block_ranges(n)
    width = config.group_width
    forward = []
    for b in _stable_order(profile.block_losses, descending):
        for j1 in range(*ranges[b], width):
            j2 = min(j1 + width, ranges[b][1])
            forward.append(j1 + _stable_order(profile.column_losses[j1:j2], descending))
    return ReorderPlan(Permutation(np.concatenate(forward)), True)


def rose_prune_layer(
    w: np.ndarray,
    activations: Sequence[np.ndarray],
    config: SparsityConfig,
) -> tuple[PruneOutcome, ReorderPlan, LossProfile]:
    """Check W, then score, reorder if columnar, prune and restore channel order."""
    w = finite_matrix(w)
    layer = checked_layer(w, raw_hessian(activations))
    profile = loss_profile(importance_scores(layer), config)
    plan = build_reorder_plan(profile, config)
    bundle = bundle_from_hessian(layer, config.damp_fraction, plan.permutation)
    return prune_layer(bundle, config), plan, profile
