"""End-to-end acceptance checks.

Each criterion prints exactly one PASS/FAIL line.  The expensive 20-seed
columnar/uniform sweeps are computed once and shared across criteria.
"""

import time

import numpy as np
import pytest

from obsprune import (
    Permutation,
    SparsityConfig,
    apply_column_permutation,
    build_reorder_plan,
    bundle_from_hessian,
    checked_layer,
    exact_masked_reconstruction,
    gen_activations,
    gen_columnar,
    gen_uniform,
    naive_obs_prune,
    prune_layer,
    reconstruction_error,
    rose_prune_layer,
)
from obsprune.tensors import pruned_count

from hessian_helpers import (
    block_order,
    cholesky_inverse_identity_check,
    factor,
    gram_root,
)

SEEDS = range(20)
SPARSITIES = (0.6, 0.7, 0.8, 0.9)
ROWS, COLS, BLOCK = 64, 256, 128
ACT_SEED_OFFSET = 1000003

# trajectories from every run in criteria 3-6, checked by criterion 7
TRAJECTORIES = []


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {tag} ({detail})"


def columnar_fixture(seed):
    w = gen_columnar(ROWS, COLS, BLOCK, COLS // BLOCK - 1, 10.0, seed)
    x = gen_activations(384, COLS, 0.3, seed + ACT_SEED_OFFSET)
    return w, x


def uniform_fixture(seed):
    w = gen_uniform(ROWS, COLS, seed)
    x = gen_activations(384, COLS, 0.3, seed + ACT_SEED_OFFSET)
    return w, x


@pytest.fixture(scope="module")
def columnar_runs():
    """method -> {(seed, sparsity): (outcome, plan)} on the columnar fixture."""
    runs = {"rose": {}, "rose-ascending": {}, "sparsegpt": {}}
    for seed in SEEDS:
        w, x = columnar_fixture(seed)
        bundle = factor([x], 0.01, w)
        for p in SPARSITIES:
            cfg = SparsityConfig(sparsity=p, blocksize=BLOCK)
            out, plan, prof = rose_prune_layer(w, [x], cfg)
            runs["rose"][(seed, p)] = (out, plan, prof, w, x)
            # rose's scores and gate with both sorts flipped
            aplan = build_reorder_plan(prof, cfg, descending=False)
            asc = prune_layer(
                bundle_from_hessian(bundle.layer, aplan.permutation), cfg
            )
            runs["rose-ascending"][(seed, p)] = (asc, aplan, None, w, x)
            # the reordered factor above overwrote the channel-order one
            plain = prune_layer(bundle_from_hessian(bundle.layer), cfg)
            runs["sparsegpt"][(seed, p)] = (plain, None, None, w, x)
            TRAJECTORIES.extend(
                [out.block_error_trajectory, asc.block_error_trajectory,
                 plain.block_error_trajectory]
            )
    return runs


def test_criterion_1_trailing_cholesky_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = (8, 16, 32, 64)[trial % 4]
        cond = float(np.exp(rng.uniform(0, np.log(1e6))))
        eigs = np.exp(rng.uniform(0, np.log(cond), n))
        eigs -= eigs.min() - 1.0
        eigs *= cond / eigs.max()
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        h = (q * eigs) @ q.T
        bundle = factor([gram_root((h + h.T) / 2)], 0.0)
        for i in range(n):
            worst = max(worst, cholesky_inverse_identity_check(bundle, i))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-7 and elapsed < 10.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_single_column_compensation():
    # a 1-row layer in one block at sparsity 1/n, undamped, loses exactly
    # one weight q; the oracle's sweep must leave the columns before q as
    # they are and give q: the best row under H[q:, q:]
    rng = np.random.default_rng(202)
    worst = 0.0
    held = True
    for _ in range(200):
        n = int(rng.integers(2, 17))
        x = rng.standard_normal((2 * n + 4, n))
        row = rng.standard_normal(n)
        cfg = SparsityConfig(sparsity=1 / n, blocksize=n)
        out = naive_obs_prune(row[None, :], [x], cfg, damp_fraction=0.0)
        got, kept = out.pruned_weights[0], out.mask.kept[0]
        q = int(np.argmin(kept))
        held &= bool(kept.sum() == n - 1 and np.array_equal(got[:q], row[:q]))
        want = exact_masked_reconstruction(row[q:], kept[q:], (x.T @ x)[q:, q:])
        worst = max(worst, float(np.max(np.abs(got[q:] - want))))
    report(2, held and worst <= 1e-8,
           f"one weight pruned, earlier columns unchanged: {held}, "
           f"max abs deviation {worst:.2e}")


def test_criterion_3_engine_matches_naive_oracle():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    masks_equal = True
    worst_rel = 0.0
    for trial in range(50):
        n = (16, 32, 48, 64)[trial % 4]
        p = (0.25, 0.5, 0.75)[trial % 3]
        x = rng.standard_normal((2 * n, n))
        w = rng.standard_normal((max(4, n // 2), n))
        cfg = SparsityConfig(sparsity=p, blocksize=16)
        bundle = factor([x], w=w)
        fast = prune_layer(bundle, cfg)
        slow = naive_obs_prune(w, [x], cfg)
        masks_equal &= bool(np.array_equal(fast.mask.kept, slow.mask.kept))
        denom = max(abs(slow.final_error), 1e-300)
        worst_rel = max(worst_rel,
                        abs(fast.final_error - slow.final_error) / denom)
        TRAJECTORIES.append(fast.block_error_trajectory)
    elapsed = time.perf_counter() - t0
    report(3, masks_equal and worst_rel <= 1e-6 and elapsed < 60.0,
           f"masks bitwise equal: {masks_equal}, "
           f"worst error rel diff {worst_rel:.2e}, {elapsed:.1f}s")


def test_criterion_4_directional_reconstruction_error(columnar_runs):
    ok = True
    details = []
    for p in SPARSITIES:
        rose = np.mean([columnar_runs["rose"][(s, p)][0].relative_error
                        for s in SEEDS])
        asc = np.mean([
            columnar_runs["rose-ascending"][(s, p)][0].relative_error
            for s in SEEDS
        ])
        plain = np.mean([columnar_runs["sparsegpt"][(s, p)][0].relative_error
                         for s in SEEDS])
        ok &= rose < plain < asc
        details.append(f"p={p}: {rose:.4f} < {plain:.4f} < {asc:.4f}")
    report(4, ok, "; ".join(details))


def test_criterion_5_gate_behavior(columnar_runs):
    col_rels = [columnar_runs["rose"][(s, 0.7)][2].relative_range
                for s in SEEDS]
    columnar_ok = all(r > 0.5 for r in col_rels)

    uniform_ok = True
    bitwise_ok = True
    uni_rels = []
    cfg = SparsityConfig(sparsity=0.7, blocksize=BLOCK)
    for seed in SEEDS:
        w, x = uniform_fixture(seed)
        out, plan, prof = rose_prune_layer(w, [x], cfg)
        uni_rels.append(prof.relative_range)
        uniform_ok &= prof.relative_range < 0.5 and not plan.was_reordered
        bundle = factor([x], w=w)
        plain = prune_layer(bundle, cfg)
        bitwise_ok &= bool(
            np.array_equal(out.pruned_weights, plain.pruned_weights)
        )
        TRAJECTORIES.append(out.block_error_trajectory)
    report(
        5,
        columnar_ok and uniform_ok and bitwise_ok,
        f"columnar R_rel in [{min(col_rels):.3f}, {max(col_rels):.3f}], "
        f"uniform R_rel in [{min(uni_rels):.4f}, {max(uni_rels):.4f}], "
        f"identity-gate output bitwise equal: {bitwise_ok}",
    )


def test_criterion_6_sparsity_and_pattern_exactness(columnar_runs):
    # unstructured: exact per-block zero counts on every criterion-4 run
    unstructured_ok = True
    for method in ("rose", "rose-ascending", "sparsegpt"):
        for (seed, p), entry in columnar_runs[method].items():
            out = entry[0]
            kept = out.mask.kept
            plan = entry[1]
            if plan is not None and plan.was_reordered:
                kept = apply_column_permutation(kept, plan.permutation)
            want = pruned_count(p, ROWS, BLOCK)
            for i1 in range(0, COLS, BLOCK):
                got = int(np.count_nonzero(~kept[:, i1:i1 + BLOCK]))
                unstructured_ok &= got == want

    # semi-structured: exact group counts in original and permuted coords
    semi_ok = True
    for n_keep, m in ((2, 4), (4, 8)):
        cfg = SparsityConfig.semi_structured(n_keep, m)
        for seed in range(5):
            w = gen_columnar(32, 64, m, 64 // m - 1, 10.0, seed)
            x = gen_activations(256, 64, 0.3, seed + ACT_SEED_OFFSET)
            out, plan, _ = rose_prune_layer(w, [x], cfg)
            for kept in (
                out.mask.kept,
                apply_column_permutation(out.mask.kept, plan.permutation),
            ):
                groups = kept.reshape(32, 64 // m, m)
                semi_ok &= bool(np.all(groups.sum(axis=2) == n_keep))
            semi_ok &= bool(
                np.all(out.pruned_weights[~out.mask.kept] == 0.0)
            )
            TRAJECTORIES.append(out.block_error_trajectory)
    report(6, unstructured_ok and semi_ok,
           f"unstructured exact: {unstructured_ok}, n:m exact: {semi_ok}")


def test_criterion_7_monotone_trajectories(columnar_runs):
    assert TRAJECTORIES, "criteria 3-6 must run first"
    ok = True
    worst = 0.0
    for traj in TRAJECTORIES:
        diffs = np.diff(traj)
        slack = 1e-9 * max(1.0, float(traj[-1]))
        if diffs.size:
            worst = max(worst, float(-diffs.min()))
            ok &= bool(np.all(diffs >= -slack))
    report(7, ok, f"{len(TRAJECTORIES)} trajectories, "
                  f"worst decrease {worst:.2e}")


def test_criterion_8_permutation_soundness(columnar_runs):
    ok = True
    worst = 0.0
    checked = 0
    for (seed, p), (out, plan, _, w, x) in columnar_runs["rose"].items():
        if not plan.was_reordered:
            continue
        checked += 1
        # zero-pattern round trip: forward then inverse is the identity
        fwd = apply_column_permutation(out.mask.kept, plan.permutation)
        back = apply_column_permutation(fwd, Permutation(plan.permutation.inverse))
        ok &= bool(np.array_equal(back, out.mask.kept))
        ok &= bool(np.all(out.pruned_weights[~out.mask.kept] == 0.0))
        # objective invariance under the permutation
        wp = apply_column_permutation(w, plan.permutation)
        xp = apply_column_permutation(x, plan.permutation)
        wpp = apply_column_permutation(out.pruned_weights, plan.permutation)
        a1, r1 = reconstruction_error(checked_layer(w, [x]), out.pruned_weights)
        a2, r2 = reconstruction_error(checked_layer(wp, [xp]), wpp)
        dev = max(abs(a1 - a2) / max(1.0, abs(a1)), abs(r1 - r2))
        worst = max(worst, dev)
        ok &= dev <= 1e-9
    report(8, ok and checked == len(SEEDS) * len(SPARSITIES),
           f"{checked} reordered runs, worst objective deviation {worst:.2e}")


def test_criterion_9_hot_block_position_sweep():
    k_blocks = 8
    cfg = SparsityConfig(sparsity=0.7, blocksize=32)
    hot = 7
    errors = np.zeros((10, k_blocks))
    for s, seed in enumerate(range(10)):
        w = gen_columnar(64, 256, 32, hot, 10.0, seed)
        x = gen_activations(384, 256, 0.3, seed + ACT_SEED_OFFSET)
        layer = checked_layer(w, [x])
        rest = [b for b in range(k_blocks) if b != hot]
        for pos in range(k_blocks):
            perm = block_order(cfg, 256, rest[:pos] + [hot] + rest[pos:])
            out = prune_layer(bundle_from_hessian(layer, perm), cfg)
            errors[s, pos] = out.final_error
    medians = np.median(errors, axis=0)
    ok = bool(np.all(np.diff(medians) >= -1e-12))
    report(9, ok, "medians " + ", ".join(f"{m:.3e}" for m in medians))
