"""Loss-ordered two-level channel reordering around the pruning engine.

Before any weight moves, a pre-pruning pass marks the entries most likely
to be removed (smallest magnitude-times-activation-norm scores) and sums
their scores into per-column and per-block losses.  Layers whose block
losses fluctuate widely (relative range above a threshold) get reordered:
columns descending by column loss inside each block, then whole blocks
descending by block loss.  High-loss weights are then pruned while plenty
of later columns remain available for compensation, and the result is
mapped back to the original channel order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .calibration import bundle_from_hessian, column_norms, raw_hessian
from .engine import PruneOutcome, prune_layer
from .errors import ConfigError, DimensionError
from .tensors import (
    Permutation,
    PruneMask,
    SemiStructured,
    SparsityConfig,
    apply_column_permutation,
    as_matrix,
    compose_permutations,
    mask_pattern_valid,
    pruned_entries,
)


@dataclass(frozen=True)
class LossProfile:
    """Estimated pruning losses per column and per block."""

    block_losses: np.ndarray
    column_losses: np.ndarray
    relative_range: float

    @property
    def block_count(self) -> int:
        return self.block_losses.size


@dataclass(frozen=True)
class ReorderPlan:
    """Composed column-then-block permutation of input channels."""

    permutation: Permutation
    column_stage: Permutation
    block_stage: Permutation
    was_reordered: bool


def importance_scores(w: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Per-weight score |w_ij| * norm_j."""
    w = as_matrix(w)
    norms = np.asarray(norms, dtype=np.float64)
    if norms.shape != (w.shape[1],):
        raise DimensionError(f"weight cols {w.shape[1]} != norms shape {norms.shape}")
    return np.abs(w) * norms


def loss_profile(scores: np.ndarray, config: SparsityConfig) -> LossProfile:
    """Column and block losses from the pre-pruning candidate set."""
    scores = as_matrix(scores)
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

    ``descending=False`` flips both sort directions, pruning the cheapest
    weights first; it exists for the worst-case comparison runs.
    """
    n = profile.column_losses.size
    identity = Permutation.identity(n)
    if not profile.relative_range > config.columnar_threshold:
        return ReorderPlan(identity, identity, identity, False)

    ranges = config.block_ranges(n)
    col_forward = np.arange(n)
    for i1, i2 in ranges:
        order = _stable_order(profile.column_losses[i1:i2], descending)
        col_forward[i1:i2] = i1 + order
    block_order = _stable_order(profile.block_losses, descending)
    block_forward = np.concatenate(
        [np.arange(*ranges[b]) for b in block_order]
    )
    column_stage = Permutation(col_forward)
    block_stage = Permutation(block_forward)
    return ReorderPlan(
        permutation=compose_permutations(block_stage, column_stage),
        column_stage=column_stage,
        block_stage=block_stage,
        was_reordered=True,
    )


def _prune_permuted(
    w: np.ndarray,
    raw: np.ndarray,
    config: SparsityConfig,
    perm: Permutation,
) -> PruneOutcome:
    """Prune in permuted column order and map the result back.

    Triangular factors are not permutation-stable, so the permuted raw
    Hessian H[p][:, p] is factored afresh.  The errors need no mapping:
    they are invariant under a common permutation of W and H.
    """
    idx = perm.forward
    bundle = bundle_from_hessian(raw[np.ix_(idx, idx)], config.damp_fraction)
    out = prune_layer(apply_column_permutation(w, perm), bundle, config)
    inv = perm.inverted()
    kept_back = apply_column_permutation(out.mask.kept, inv)
    return replace(
        out,
        pruned_weights=apply_column_permutation(out.pruned_weights, inv),
        mask=PruneMask(kept=kept_back, pattern=config.pattern),
    )


def rose_prune_from_hessian(
    w: np.ndarray,
    raw: np.ndarray,
    config: SparsityConfig,
    descending: bool = True,
) -> tuple[PruneOutcome, ReorderPlan, LossProfile]:
    """``rose_prune_layer`` on an already-accumulated raw Hessian X.T @ X."""
    w = as_matrix(w)
    raw = as_matrix(raw)
    scores = importance_scores(w, column_norms(raw))
    profile = loss_profile(scores, config)
    plan = build_reorder_plan(profile, config, descending=descending)

    if not plan.was_reordered:
        bundle = bundle_from_hessian(raw, config.damp_fraction)
        outcome = prune_layer(w, bundle, config)
    else:
        outcome = _prune_permuted(w, raw, config, plan.permutation)
        if isinstance(config.pattern, SemiStructured) and not mask_pattern_valid(
            outcome.mask
        ):
            raise ConfigError(
                "reordering broke the n:m pattern in original coordinates"
            )
    return outcome, plan, profile


def rose_prune_layer(
    w: np.ndarray,
    activations: Sequence[np.ndarray],
    config: SparsityConfig,
    descending: bool = True,
) -> tuple[PruneOutcome, ReorderPlan, LossProfile]:
    """Score, reorder if columnar, prune, and restore channel order."""
    return rose_prune_from_hessian(w, raw_hessian(activations), config, descending)


def prune_with_block_order(
    w: np.ndarray,
    raw: np.ndarray,
    config: SparsityConfig,
    block_order: Sequence[int],
) -> tuple[PruneOutcome, ReorderPlan]:
    """Prune with an explicit block order, bypassing loss-based planning.

    ``raw`` is the accumulated X.T @ X.  ``block_order`` lists source block
    indices in the order they should be pruned; no column-level reordering
    is applied.
    """
    w = as_matrix(w)
    n = w.shape[1]
    ranges = config.block_ranges(n)
    order = np.asarray(block_order, dtype=np.intp)
    if not np.array_equal(np.sort(order), np.arange(len(ranges))):
        raise DimensionError(
            f"block order must be a bijection on [0, {len(ranges)})"
        )
    block_forward = np.concatenate([np.arange(*ranges[b]) for b in order])
    block_stage = Permutation(block_forward)
    identity = Permutation.identity(n)
    plan = ReorderPlan(
        permutation=block_stage,
        column_stage=identity,
        block_stage=block_stage,
        was_reordered=not block_stage.is_identity(),
    )
    outcome = _prune_permuted(w, as_matrix(raw), config, block_stage)
    return outcome, plan
