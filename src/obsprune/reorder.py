"""Loss-ordered two-level channel reordering around the pruning engine.

Before any weight moves, a pre-pruning pass marks the entries most likely
to be removed (smallest magnitude-times-activation-norm scores) and sums
their scores into per-column and per-block losses.  Layers whose block
losses per column fluctuate widely (relative range above a threshold) get
reordered: columns descending by column loss inside each block, then whole
blocks descending by block loss.  High-loss weights are then pruned while
plenty of later columns remain available for compensation, and the result
is mapped back to the original channel order.

``prune_runs`` is the one pipeline, run by ``rose_prune_layer``, the CLI
and demo 01: it turns a method name into profile, plan, factor and prune
on one checked ``Layer``.  Every second-order method is a column order of
that layer, factored by ``bundle_from_hessian``, plus ``prune_layer``,
which sweeps the columns in the bundle's order: SparseGPT is the identity
order, ROSE the order of its reorder plan.  Under an n:m pattern an order
must keep every group of m whole, or ``prune_layer`` rejects it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .baselines import magnitude_prune, wanda_prune
from .calibration import (Layer, bundle_from_hessian, checked_layer,
                          importance_scores, raw_hessian)
from .engine import PruneOutcome, prune_layer
from .errors import ConfigError
from .tensors import Permutation, SparsityConfig, finite_matrix, pruned_entries

#: every method ``prune_runs`` runs, in the order ``obsprune compare`` runs them
METHODS = ("magnitude", "wanda", "sparsegpt", "rose", "rose-ascending")


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


def loss_profile(scores: np.ndarray, config: SparsityConfig) -> LossProfile:
    """Column and block losses from the candidate set of finite scores.

    The relative range is taken over each block's loss per column, its sum
    divided by its width.  |w| * norm can overflow to inf, so the scores
    are checked here, before a selection that must see no NaN.
    """
    scores = finite_matrix(scores, "scores")
    rows, n = scores.shape
    ranges = config.block_ranges(n)
    col_losses = np.zeros(n)
    block_losses = np.zeros(len(ranges))
    # per column, so that a short last block does not read as a cheap one
    per_col = np.zeros(len(ranges))
    for k, (i1, i2) in enumerate(ranges):
        sub = scores[:, i1:i2]
        sel = pruned_entries(sub, config)
        picked = np.where(sel, sub, 0.0)
        col_losses[i1:i2] = picked.sum(axis=0)
        block_losses[k] = picked.sum()
        per_col[k] = block_losses[k] / (i2 - i1)
    mean = per_col.mean() if per_col.size else 0.0
    if mean > 0:
        rel = float((per_col.max() - per_col.min()) / mean)
    else:
        rel = 0.0
    return LossProfile(
        block_losses=block_losses,
        column_losses=col_losses,
        relative_range=rel,
    )


def build_reorder_plan(
    profile: LossProfile,
    config: SparsityConfig,
    descending: bool = True,
) -> ReorderPlan:
    """Two-level permutation, gated on the relative range of block losses.

    One stable sort: blocks by block loss, then groups in place inside
    their block, then columns by column loss.  A group is the block, or
    under an n:m pattern a group of m, so every group stays whole and the
    pattern holds in the original channel order.  Ties keep channel order.
    ``descending=False`` flips both directions, pruning the cheapest
    weights first; it exists for the worst-case comparison runs.
    """
    n = profile.column_losses.size
    if not profile.relative_range > config.columnar_threshold:
        return ReorderPlan(Permutation.identity(n), False)
    config.block_ranges(n)  # raises ConfigError for an untiled n:m
    j = np.arange(n)
    sign = -1.0 if descending else 1.0
    # tied blocks fall back on the group index, which keeps them in channel order
    forward = np.lexsort((sign * profile.column_losses, j // config.group_width,
                          sign * profile.block_losses[j // config.blocksize]))
    return ReorderPlan(Permutation(forward), True)


def prune_runs(layer: Layer, methods: Sequence[str],
               configs: Sequence[SparsityConfig]):
    """(config, method, outcome, plan, profile, wall_ms) for each config x method.

    Each config gets one loss profile.  magnitude and wanda do not
    compensate; sparsegpt sweeps in channel order, rose in its plan's order
    and rose-ascending in the flipped one.  Runs left in place share the
    channel-order factor of H, kept until a config with another damping
    needs one.  An unknown method raises ConfigError before any run.
    """
    if unknown := [m for m in methods if m not in METHODS]:
        raise ConfigError(f"unknown method {unknown[0]!r}")
    in_place = ReorderPlan(Permutation.identity(layer.w.shape[1]), False)
    factors = {}
    scores = importance_scores(layer)
    profiles = [loss_profile(scores, config) for config in configs]
    del scores  # one scoring serves every profile, and is freed before any run
    for config, profile in zip(configs, profiles):
        for method in methods:
            t0 = time.perf_counter()
            plan = in_place
            if method.startswith("rose"):
                plan = build_reorder_plan(profile, config, method == "rose")
            if method == "magnitude":
                outcome = magnitude_prune(layer, config)
            elif method == "wanda":
                outcome = wanda_prune(layer, config)
            elif plan.was_reordered:
                outcome = prune_layer(bundle_from_hessian(
                    layer, config.damp_fraction, plan.permutation), config)
            else:
                damp = config.damp_fraction
                if damp not in factors:
                    factors = {damp: bundle_from_hessian(layer, damp)}
                outcome = prune_layer(factors[damp], config)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            yield config, method, outcome, plan, profile, wall_ms


def rose_prune_layer(
    w: np.ndarray,
    activations: Sequence[np.ndarray],
    config: SparsityConfig,
) -> tuple[PruneOutcome, ReorderPlan, LossProfile]:
    """Check W, then score, reorder if columnar, prune and restore channel order."""
    w = finite_matrix(w)
    layer = checked_layer(w, raw_hessian(activations, w.shape[1]))
    [(_, _, outcome, plan, profile, _)] = prune_runs(layer, ["rose"], [config])
    return outcome, plan, profile
