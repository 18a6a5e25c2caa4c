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
that layer, factored from H or from its damped inverse, plus
``prune_layer``, which sweeps the columns in the bundle's order: SparseGPT
is the identity order, ROSE the order of its reorder plan.  Under an n:m
pattern an order must keep every group of m whole, or ``prune_layer``
rejects it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .baselines import magnitude_prune, wanda_prune
from .calibration import (Layer, bundle_from_hessian, bundle_from_inverse,
                          checked_layer, damped_inverse, importance_scores)
from .engine import PruneOutcome, prune_layer
from .errors import ConfigError
from .tensors import (Permutation, SparsityConfig, check_nonnegative, finite_matrix,
                      pruned_entries)

#: every method ``prune_runs`` runs, in the order ``obsprune compare`` lists them
METHODS = ("magnitude", "wanda", "sparsegpt", "rose", "rose-ascending")
#: the relative range of block losses above which a plan reorders, for every config
COLUMNAR_THRESHOLD = 0.5


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


@dataclass(frozen=True, eq=False)
class Run:
    """A ``prune_runs`` run; ``index`` is its place in config x method order."""

    index: int
    config: SparsityConfig
    method: str
    outcome: PruneOutcome
    plan: ReorderPlan
    profile: LossProfile
    wall_ms: float

    def record(self) -> dict:
        """The run's scalar facts, each named once: a compare.csv row, report.json's core."""
        return dict(method=self.method, sparsity=self.config.sparsity,
                    relative_error=self.outcome.relative_error,
                    r_rel=self.profile.relative_range,
                    was_reordered=self.plan.was_reordered, wall_ms=self.wall_ms)


def loss_profile(scores: np.ndarray, config: SparsityConfig) -> LossProfile:
    """Column and block losses from the candidate set of finite scores.

    The relative range is taken over each block's loss per column, its sum
    divided by its width.  The scores must be finite, as
    ``importance_scores`` makes them for every checked layer: a selection
    must see no NaN.
    """
    rows, n = scores.shape
    ranges = config.block_ranges(n)
    col_losses = np.zeros(n)
    block_losses = np.zeros(len(ranges))
    # per column, so that a short last block does not read as a cheap one
    per_col = np.zeros(len(ranges))
    for k, (i1, i2) in enumerate(ranges):
        sub = scores[:, i1:i2]
        sel = pruned_entries(sub, config)
        # the scores are finite and >= 0, so a product with the mask is exact
        picked = np.multiply(sub, sel)
        col_losses[i1:i2] = picked.sum(axis=0)
        block_losses[k] = picked.sum()
        per_col[k] = block_losses[k] / (i2 - i1)
    mean = per_col.mean() if per_col.size else 0.0
    rel = float((per_col.max() - per_col.min()) / mean) if mean > 0 else 0.0
    return LossProfile(block_losses, col_losses, rel)


def build_reorder_plan(profile: LossProfile, config: SparsityConfig, *,
                       threshold: float = COLUMNAR_THRESHOLD,
                       descending: bool = True) -> ReorderPlan:
    """Two-level permutation, if the block losses' relative range exceeds ``threshold``.

    One stable sort: blocks by block loss, then groups in place inside
    their block, then columns by column loss.  A group is the block, or
    under an n:m pattern a group of m, so every group stays whole and the
    pattern holds in the original channel order.  Ties keep channel order.
    ``descending=False`` flips both directions, pruning the cheapest
    weights first; it exists for the worst-case comparison runs.
    """
    n = profile.column_losses.size
    if not profile.relative_range > threshold:
        return ReorderPlan(Permutation.identity(n), False)
    j = np.arange(n)
    sign = -1.0 if descending else 1.0
    # tied blocks fall back on the group index, which keeps them in channel order
    forward = np.lexsort((sign * profile.column_losses, j // config.group_width,
                          sign * profile.block_losses[j // config.blocksize]))
    return ReorderPlan(Permutation(forward), True)


def check_runs(n: int, methods: Sequence[str], configs: Sequence[SparsityConfig], *,
               threshold: float = COLUMNAR_THRESHOLD):
    """Raise ConfigError unless ``prune_runs`` can run this list on n columns.

    Every method is in METHODS, the threshold is finite and >= 0, and each
    config's ``block_ranges`` tiles n columns.
    """
    if unknown := [m for m in methods if m not in METHODS]:
        raise ConfigError(f"unknown method {unknown[0]!r}")
    check_nonnegative(threshold, "threshold")
    for config in configs:
        config.block_ranges(n)  # raises ConfigError for an untiled n:m


def prune_runs(layer: Layer, methods: Sequence[str], configs: Sequence[SparsityConfig],
               *, threshold: float = COLUMNAR_THRESHOLD):
    """One ``Run`` for each config x method, in the order the runs finish.

    ``check_runs`` checks the list first.  Each config gets one loss
    profile.  magnitude and wanda do not compensate; sparsegpt sweeps in
    channel order, rose in its plan's order and rose-ascending in the
    flipped one.  Every run is planned first, in config x method order,
    then the runs are sorted stably by whether their plan reorders, and
    yielded in that order as they finish; each run's ``index`` gives its
    place in config x method order.  The runs left in place share the
    channel-order factor of H.  If it was made, the first reordered run
    turns it into the damped inverse in place (``damped_inverse``), which
    leaves it stale, and each reordered run is factored from the inverse's
    packed triangle (``bundle_from_inverse``); otherwise each factors H itself.
    wall_ms covers a run's plan, factor and prune, and the first reordered
    run's inversion.  Once the caller asks for the next run, the generator
    holds no outcome: a caller that drops each run holds one at a time.
    Every plan gates on the one ``threshold``.
    """
    check_runs(layer.w.shape[1], methods, configs, threshold=threshold)
    in_place = ReorderPlan(Permutation.identity(layer.w.shape[1]), False)
    scores = importance_scores(layer.w, layer.norms)
    runs = []
    for config in configs:
        profile = loss_profile(scores, config)
        for method in methods:
            t0 = time.perf_counter()
            plan = in_place
            if method.startswith("rose"):
                plan = build_reorder_plan(profile, config, threshold=threshold,
                                          descending=method == "rose")
            runs.append((len(runs), config, method, plan, profile,
                         time.perf_counter() - t0))
    del scores  # one scoring serves every profile, and is freed before any run
    runs.sort(key=lambda run: run[3].was_reordered)
    channel = inverse = None
    for index, config, method, plan, profile, plan_s in runs:
        t0 = time.perf_counter() - plan_s
        if method == "magnitude":
            outcome = magnitude_prune(layer, config)
        elif method == "wanda":
            outcome = wanda_prune(layer, config)
        elif not plan.was_reordered:
            if channel is None:
                channel = bundle_from_hessian(layer)
            outcome = prune_layer(channel, config)
        else:
            if channel is not None:
                inverse, channel = damped_inverse(channel), None
            order = plan.permutation
            # the factor is bound to no name, so it is freed before the next one
            outcome = prune_layer(bundle_from_hessian(layer, order)
                                  if inverse is None
                                  else bundle_from_inverse(inverse, order), config)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        yield Run(index, config, method, outcome, plan, profile, wall_ms)
        del outcome  # the caller's to keep, not the next run's


def rose_prune_layer(
    w: np.ndarray,
    activations: Iterable[np.ndarray],
    config: SparsityConfig,
) -> tuple[PruneOutcome, ReorderPlan, LossProfile]:
    """Check W and config, then score, reorder if columnar, prune and restore order.

    ``prune_runs``'s one ``"rose"`` run, as (outcome, plan, profile), at the
    default damping and threshold.  ``checked_layer`` reads ``activations``,
    any iterable of batches, once, batch by batch, after W and config pass.
    """
    w = finite_matrix(w)
    check_runs(w.shape[1], ["rose"], [config])
    layer = checked_layer(w, activations)
    [run] = prune_runs(layer, ["rose"], [config])
    return run.outcome, run.plan, run.profile
