import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from obsprune import (
    ConfigError,
    DimensionError,
    NumericOverflowError,
    Permutation,
    SparsityConfig,
    apply_column_permutation,
    build_reorder_plan,
    bundle_from_hessian,
    checked_layer,
    gen_activations,
    gen_columnar,
    gen_uniform,
    importance_scores,
    loss_profile,
    magnitude_prune,
    prune_layer,
    prune_runs,
    raw_hessian,
    reconstruction_error,
    rose_prune_layer,
    wanda_prune,
)
from obsprune import calibration, cli, engine, reorder
from obsprune.calibration import damped_inverse

from hessian_helpers import block_order, factor


def pattern_holds(kept, pattern):
    """Every group of m consecutive columns in a row keeps exactly n."""
    groups = kept.reshape(kept.shape[0], -1, pattern.m).sum(axis=2)
    return bool(np.all(groups == pattern.n))


def scores_with_norms(w, norms):
    """``importance_scores`` of the layer whose column norms are ``norms``."""
    layer = checked_layer(w, [np.diag(norms)])
    return importance_scores(layer.w, layer.norms)


class TestScores:
    def test_unit_norms(self):
        w = np.array([[1.0, -2.0], [3.0, -4.0]])
        s = scores_with_norms(w, [1.0, 1.0])
        np.testing.assert_array_equal(s, np.abs(w))

    def test_scalar_case(self):
        s = scores_with_norms(np.array([[-2.0]]), [3.0])
        np.testing.assert_array_equal(s, [[6.0]])

    def test_dead_channel_zero_scores(self):
        w = np.array([[5.0, 7.0]])
        s = scores_with_norms(w, [0.0, 1.0])
        np.testing.assert_array_equal(s[:, 0], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        """No input whose score would be NaN or inf reaches a scoring.

        ``importance_scores`` trusts its layer, so ``checked_layer`` rejects
        each such input first: a non-finite weight, a non-finite activation,
        and finite ones whose score |w| sqrt(H_jj) overflows.
        """
        w = np.ones((2, 8))
        w[1, 2] = bad
        with pytest.raises(NumericOverflowError, match="weights not finite"):
            checked_layer(w, [np.eye(8)])
        x = np.eye(8)
        x[5, 5] = bad
        with pytest.raises(NumericOverflowError, match="activation batch 0 is not finite"):
            checked_layer(np.ones((2, 8)), [x])
        w = np.ones((2, 8))
        w[0, 5] = 1e300
        x = np.eye(8)
        x[5, 5] = 1e150
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.abs(w) * np.linalg.norm(x, axis=0)).all()
        with pytest.raises(NumericOverflowError, match="dense output energy"):
            checked_layer(w, [x])

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 6),
        w_exp=st.integers(-20, 308),
        h_exp=st.integers(-300, 308),
        rho=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_checked_layer_scores_finite(self, n, w_exp, h_exp, rho, seed):
        """A selection must see no NaN, and no layer that passed gives one.

        |W| ~ 10**w_exp and H_jj ~ 10**h_exp range up to overflow, and
        H = S ((1 - rho) I + rho J) S correlates the columns fully at rho = 1,
        where W's signs can cancel the dense energy.  A score overflows only
        where |w| H_jj, and so the energy's diagonal term, overflows first.
        H is X.T @ X for X, the rows of sqrt(1 - rho) S over sqrt(rho) s.
        """
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.5, 2.0, n) * 10.0 ** (h_exp / 2)
        signs = rng.choice([-1.0, 1.0], (3, n))
        # checked_layer rejects an inf
        with np.errstate(over="ignore"):
            w = signs * rng.uniform(0.5, 2.0, (3, n)) * 10.0 ** w_exp
        x = np.vstack([np.sqrt(1.0 - rho) * np.diag(s), np.sqrt(rho) * s])
        try:
            layer = checked_layer(w, [x])
        except NumericOverflowError:
            return
        scores = importance_scores(layer.w, layer.norms)
        assert np.all(np.isfinite(scores))
        # steer the search toward the largest scores a checked layer can have
        target(float(np.log10(scores.max())))


class TestLossProfile:
    def test_zero_sparsity(self):
        cfg = SparsityConfig(sparsity=0.0, blocksize=2)
        prof = loss_profile(np.arange(8.0).reshape(2, 4), cfg)
        assert np.all(prof.block_losses == 0)
        assert np.all(prof.column_losses == 0)
        assert prof.relative_range == 0.0

    def test_smallest_half_by_hand(self):
        cfg = SparsityConfig(sparsity=0.5, blocksize=2)
        s = np.array([[1.0, 2.0], [3.0, 4.0]])
        prof = loss_profile(s, cfg)
        np.testing.assert_allclose(prof.column_losses, [1.0, 2.0])
        np.testing.assert_allclose(prof.block_losses, [3.0])

    def test_relative_range_arithmetic(self):
        cfg = SparsityConfig(sparsity=0.5, blocksize=1)
        # two one-column blocks with block losses 3 and 1
        s = np.array([[3.0, 1.0], [6.0, 9.0]])
        prof = loss_profile(s, cfg)
        np.testing.assert_allclose(prof.block_losses, [3.0, 1.0])
        assert prof.relative_range == pytest.approx(1.0)

    def test_relative_range_divides_by_the_mean(self):
        # block sums 2, 2, 8 over two columns each are 1, 1, 4 per column:
        # (4 - 1) / mean 2 is 1.5, where the median, 1, would give 3.0
        cfg = SparsityConfig(sparsity=0.5, blocksize=2)
        s = np.array([[1.0, 1.0, 1.0, 1.0, 4.0, 4.0], [9.0] * 6])
        prof = loss_profile(s, cfg)
        np.testing.assert_array_equal(prof.block_losses, [2.0, 2.0, 8.0])
        assert prof.relative_range == 1.5

    def test_block_losses_sum_columns(self):
        rng = np.random.default_rng(0)
        cfg = SparsityConfig(sparsity=0.6, blocksize=8)
        prof = loss_profile(rng.random((5, 24)), cfg)
        for k in range(3):
            seg = prof.column_losses[8 * k : 8 * (k + 1)]
            assert prof.block_losses[k] == pytest.approx(seg.sum(), abs=1e-9)
        assert prof.block_losses.size == 3


    def test_relative_range_of_a_short_last_block_by_hand(self):
        # block sums 2, 2, 1 over widths 2, 2, 1 are 1 per column in every
        # block; the sums alone would give R_rel = (2 - 1) / (5 / 3)
        cfg = SparsityConfig(sparsity=0.5, blocksize=2)
        s = np.array([[1.0, 1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0, 9.0]])
        prof = loss_profile(s, cfg)
        np.testing.assert_array_equal(prof.block_losses, [2.0, 2.0, 1.0])
        assert prof.relative_range == 0.0

    @pytest.mark.parametrize("config", [SparsityConfig(0.5, blocksize=8),
                                        SparsityConfig.semi_structured(2, 4, 8)],
                             ids=["unstructured", "2:4"])
    @pytest.mark.parametrize("blocks", [2, 8, 16])
    @pytest.mark.parametrize("gain", [1.5, 2.0, 4.0, 10.0])
    def test_relative_range_of_one_hot_block(self, config, blocks, gain):
        """One hot block of gain g among B gives r_rel = B (g - 1) / (B - 1 + g).

        W is block 0 copied B - 1 times, then g times block 0, on unit
        norms: every block prunes the same entries, so the cool blocks lose
        L per column and the hot one g L, whose mean is (B - 1 + g) L / B.
        """
        block = np.random.default_rng(blocks).standard_normal((16, config.blocksize))
        w = np.hstack([block] * (blocks - 1) + [gain * block])
        profile = loss_profile(importance_scores(w, np.ones(w.shape[1])), config)
        want = blocks * (gain - 1.0) / (blocks - 1.0 + gain)
        assert profile.relative_range == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_short_last_block_gates_on_loss_per_column(self, columnar):
        """A 300-wide layer has a 44-column last block, whose sum reads low."""
        cfg = SparsityConfig(0.7)
        w = (gen_columnar(64, 300, 128, 2, 10.0, seed=0) if columnar
             else gen_uniform(64, 300, seed=0))
        x = gen_activations(384, 300, 0.3, seed=1000003)
        layer = checked_layer(w, [x])
        prof = loss_profile(importance_scores(layer.w, layer.norms), cfg)
        assert (prof.relative_range > reorder.COLUMNAR_THRESHOLD) == columnar
        if not columnar:
            # the sums alone would open the gate
            sums = prof.block_losses
            assert (sums.max() - sums.min()) / sums.mean() > reorder.COLUMNAR_THRESHOLD


class TestReorderPlan:
    def test_gate_below_threshold_identity(self):
        cfg = SparsityConfig(sparsity=0.5, blocksize=4)
        prof = loss_profile(np.random.default_rng(1).random((3, 8)), cfg)
        plan = build_reorder_plan(prof, cfg, threshold=10.0)
        assert not plan.was_reordered
        np.testing.assert_array_equal(plan.permutation.forward, np.arange(8))

    def test_descending_columns_within_block(self):
        cfg = SparsityConfig(sparsity=0.99, blocksize=3)
        # first block column losses [1, 3, 2]; second block differs so the
        # gate fires
        s = np.array([[1.0, 3.0, 2.0, 9.0, 8.0, 7.0]])
        prof = loss_profile(s, cfg)
        plan = build_reorder_plan(prof, cfg, threshold=0.0)
        # the second block (loss 24) goes first, then the first block's
        # columns by descending loss
        np.testing.assert_array_equal(plan.permutation.forward, [3, 4, 5, 1, 2, 0])

    def test_block_order_descending(self):
        cfg = SparsityConfig(sparsity=0.99, blocksize=2)
        # block losses 1, 9, 5 over three 2-column blocks
        s = np.array([[0.5, 0.5, 4.5, 4.5, 2.5, 2.5]])
        prof = loss_profile(s, cfg)
        np.testing.assert_allclose(prof.block_losses, [1.0, 9.0, 5.0])
        plan = build_reorder_plan(prof, cfg, threshold=0.0)
        np.testing.assert_array_equal(plan.permutation.forward, [2, 3, 4, 5, 0, 1])

    def test_column_stage_stays_within_blocks(self):
        cfg = SparsityConfig(sparsity=0.7, blocksize=8)
        scores = np.random.default_rng(3).random((6, 40))
        plan = build_reorder_plan(loss_profile(scores, cfg), cfg, threshold=0.0)
        # every destination block holds one whole source block
        for i1 in range(0, 40, 8):
            seg = plan.permutation.forward[i1 : i1 + 8]
            start = seg.min()
            assert start % 8 == 0 and seg.max() < start + 8


def nested_loop_plan(profile, config, descending):
    """The two-level plan as a nested loop: the reference for the one sort.

    Blocks in the stable order of their losses; inside each, every group
    of ``group_width`` columns in channel order, its columns in the stable
    order of their losses.
    """
    def stable_order(values):
        return np.argsort(-values if descending else values, kind="stable")

    ranges = config.block_ranges(profile.column_losses.size)
    width = config.group_width
    forward = []
    for b in stable_order(profile.block_losses):
        for j1 in range(*ranges[b], width):
            j2 = min(j1 + width, ranges[b][1])
            forward.append(j1 + stable_order(profile.column_losses[j1:j2]))
    return np.concatenate(forward)


@st.composite
def gated_profiles(draw):
    """A config and a profile that opens its gate at 0, with losses that tie.

    Losses come from a few values, zero among them; the last block may be
    short, and n:m groups sit inside blocks up to four groups wide.
    """
    m = draw(st.sampled_from([None, 2, 4, 8]))
    unit = 1 if m is None else m
    blocksize = unit * draw(st.integers(1, 4))
    cols = unit * draw(st.integers(1, 24 // unit + 4))
    if m is None:
        config = SparsityConfig(0.5, blocksize)
    else:
        config = SparsityConfig.semi_structured(m // 2, m, blocksize)
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    n_blocks = len(config.block_ranges(cols))
    profile = reorder.LossProfile(
        block_losses=np.array(draw(st.lists(values, min_size=n_blocks,
                                             max_size=n_blocks))),
        column_losses=np.array(draw(st.lists(values, min_size=cols, max_size=cols))),
        relative_range=1.0,
    )
    return config, profile


@settings(deadline=None, max_examples=300)
@given(gated_profiles(), st.booleans())
def test_one_sort_matches_nested_loop(case, descending):
    config, profile = case
    plan = build_reorder_plan(profile, config, threshold=0.0, descending=descending)
    assert plan.was_reordered
    np.testing.assert_array_equal(plan.permutation.forward,
                                  nested_loop_plan(profile, config, descending))


class TestPruneInOrder:
    @settings(deadline=None, max_examples=60)
    @given(st.booleans(), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_equals_prune_layer_on_permuted_inputs(self, nm, rows, groups, seed):
        rng = np.random.default_rng(seed)
        n = 4 * groups
        w = rng.standard_normal((rows, n))
        # fewer samples than columns half of the time: H is rank deficient
        samples = int(rng.choice([n // 2 + 1, 3 * n]))
        x = rng.standard_normal((samples, n))
        if nm:
            cfg = SparsityConfig.semi_structured(
                2, 4, blocksize=4 * int(rng.integers(1, groups + 1))
            )
            # whole groups move, shuffled inside, so 2:4 holds in both orders
            p = np.concatenate([4 * g + rng.permutation(4)
                                for g in rng.permutation(groups)])
        else:
            cfg = SparsityConfig(sparsity=float(rng.choice([0.3, 0.5, 0.7])),
                                 blocksize=int(rng.integers(1, n + 1)))
            p = rng.permutation(n)
        bundle = bundle_from_hessian(checked_layer(w, [x]), Permutation(p))
        # the damping of the pre-permuted H comes from a diagonal summed in
        # another order, so the two runs agree to rounding, masks exactly
        pre_permuted = bundle_from_hessian(checked_layer(w[:, p], [x[:, p]]))

        got = prune_layer(bundle, cfg)
        direct = prune_layer(pre_permuted, cfg)
        weights = np.empty_like(w)
        weights[:, p] = direct.pruned_weights
        kept = np.empty(w.shape, dtype=bool)
        kept[:, p] = direct.mask.kept
        assert np.array_equal(got.mask.kept, kept)
        assert np.max(np.abs(got.pruned_weights - weights)) <= 1e-12 * np.max(np.abs(w))
        np.testing.assert_allclose(got.block_error_trajectory,
                                   direct.block_error_trajectory, rtol=1e-9)
        assert got.relative_error == pytest.approx(direct.relative_error, rel=1e-9)
        assert not nm or pattern_holds(got.mask.kept, cfg.pattern)

    @pytest.mark.parametrize("nm", [False, True])
    def test_identity_order_is_prune_layer(self, nm):
        w = gen_uniform(16, 64, seed=20)
        x = gen_activations(128, 64, 0.3, seed=21)
        cfg = (SparsityConfig.semi_structured(2, 4) if nm
               else SparsityConfig(sparsity=0.6, blocksize=16))
        identity = Permutation.identity(64)
        layer = checked_layer(w, [x])
        got = prune_layer(bundle_from_hessian(layer, identity), cfg)
        plain = prune_layer(bundle_from_hessian(layer), cfg)
        assert np.array_equal(got.pruned_weights, plain.pruned_weights)
        assert np.array_equal(got.mask.kept, plain.mask.kept)
        assert np.array_equal(got.block_error_trajectory,
                              plain.block_error_trajectory)

    def test_group_breaking_order_rejected(self, monkeypatch):
        # the first group of the order takes columns 0, 1 of the first 2:4
        # group and 4, 5 of the second; the smallest weights are 0, 1, 2, 3
        order = Permutation([0, 1, 4, 5, 2, 3, 6, 7])
        cfg = SparsityConfig.semi_structured(2, 4)

        def sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(engine, "select_block_mask", sweep)
        layer = checked_layer(np.arange(1.0, 9.0).reshape(1, 8), [np.eye(8)])
        bundle = bundle_from_hessian(layer, order)
        with pytest.raises(ConfigError, match="n:m"):
            prune_layer(bundle, cfg)

    def test_order_size_checked(self):
        layer = checked_layer(np.ones((1, 8)), [np.eye(8)])
        with pytest.raises(DimensionError, match="order size 4"):
            bundle_from_hessian(layer, Permutation.identity(4))


def columnar_fixture(seed, rows=64, cols=256, blocksize=128):
    w = gen_columnar(rows, cols, blocksize, cols // blocksize - 1, 10.0, seed)
    x = gen_activations(384, cols, 0.3, seed + 1000003)
    return w, x


class TestRosePruneLayer:
    def test_identity_gate_bitwise_equal_to_plain(self):
        w = gen_uniform(16, 64, seed=4)
        x = gen_activations(128, 64, 0.3, seed=5)
        cfg = SparsityConfig(sparsity=0.7, blocksize=16)
        out, plan, prof = rose_prune_layer(w, [x], cfg)
        assert not plan.was_reordered
        bundle = factor([x], w=w)
        plain = prune_layer(bundle, cfg)
        assert np.array_equal(out.pruned_weights, plain.pruned_weights)
        assert np.array_equal(out.mask.kept, plain.mask.kept)

    @pytest.mark.parametrize("part", ["outcome", "mask", "profile"])
    def test_results_compare_by_identity(self, part):
        """Two equal runs' results are unequal without raising, and hashable."""
        w = gen_uniform(16, 64, seed=4)
        x = gen_activations(128, 64, 0.3, seed=5)
        cfg = SparsityConfig(sparsity=0.5, blocksize=16)
        pick = {"outcome": lambda r: r[0], "mask": lambda r: r[0].mask,
                "profile": lambda r: r[2]}[part]
        a, b = (pick(rose_prune_layer(w, [x], cfg)) for _ in range(2))
        assert a == a and hash(a) == hash(a)
        assert (a == b) is False
        assert len({a, b}) == 2

    def test_columnar_beats_plain_engine(self):
        w, x = columnar_fixture(seed=7)
        cfg = SparsityConfig(sparsity=0.7, blocksize=128)
        out, plan, prof = rose_prune_layer(w, [x], cfg)
        assert plan.was_reordered
        bundle = factor([x], w=w)
        plain = prune_layer(bundle, cfg)
        assert out.relative_error <= plain.relative_error

    def test_reordered_bundle_shares_callers_raw(self, monkeypatch):
        """The reordered factor is built in the buffer ``raw_hessian`` returned.

        So H was never copied: the layer holds that very buffer.
        """
        w, x = columnar_fixture(seed=7)
        cfg = SparsityConfig(sparsity=0.7, blocksize=128)
        raws, bundles = [], []

        def hessian(activations, width):
            raws.append(raw_hessian(activations, width))
            return raws[-1]

        def spy(bundle, config):
            bundles.append(bundle)
            return prune_layer(bundle, config)

        monkeypatch.setattr(calibration, "raw_hessian", hessian)
        monkeypatch.setattr(reorder, "prune_layer", spy)
        _, plan, _ = rose_prune_layer(w, [x], cfg)
        assert plan.was_reordered
        [raw], [bundle] = raws, bundles
        assert bundle.layer.raw is raw
        assert np.shares_memory(bundle.chol_upper, raw)
        assert bundle.order is plan.permutation

    def test_ascending_worse_than_plain(self):
        w, x = columnar_fixture(seed=7)
        cfg = SparsityConfig(sparsity=0.7, blocksize=128)
        layer = checked_layer(w, [x])
        profile = loss_profile(importance_scores(layer.w, layer.norms), cfg)
        plan = build_reorder_plan(profile, cfg, descending=False)
        assert plan.was_reordered
        asc = prune_layer(bundle_from_hessian(layer, plan.permutation), cfg)
        plain = prune_layer(bundle_from_hessian(layer), cfg)
        assert asc.relative_error >= plain.relative_error

    def test_reorder_back_round_trip_exact(self):
        w, x = columnar_fixture(seed=9)
        cfg = SparsityConfig(sparsity=0.6, blocksize=128)
        out, plan, _ = rose_prune_layer(w, [x], cfg)
        assert plan.was_reordered
        # zero pattern in original order, viewed through the permutation,
        # is exactly the permuted-space pattern
        perm_view = apply_column_permutation(out.mask.kept, plan.permutation)
        wp = apply_column_permutation(w, plan.permutation)
        xp = apply_column_permutation(x, plan.permutation)
        bundle = factor([xp], w=wp)
        direct = prune_layer(bundle, cfg)
        assert np.array_equal(perm_view, direct.mask.kept)
        inverse = Permutation(plan.permutation.inverse)
        back = apply_column_permutation(direct.pruned_weights, inverse)
        assert np.array_equal(back, out.pruned_weights)

    def test_objective_permutation_invariance(self):
        w, x = columnar_fixture(seed=10)
        cfg = SparsityConfig(sparsity=0.7, blocksize=128)
        out, plan, _ = rose_prune_layer(w, [x], cfg)
        wp = apply_column_permutation(w, plan.permutation)
        xp = apply_column_permutation(x, plan.permutation)
        wpp = apply_column_permutation(out.pruned_weights, plan.permutation)
        layer = checked_layer(w, [x])
        a1, r1 = reconstruction_error(layer, out.pruned_weights)
        a2, r2 = reconstruction_error(
            checked_layer(wp, [xp]), wpp)
        assert abs(a1 - a2) <= 1e-9 * max(1.0, a1)
        assert abs(r1 - r2) <= 1e-9
        assert out.final_error == pytest.approx(a1)

    def test_semi_structured_pattern_survives_reorder(self):
        for seed in range(3):
            w = gen_columnar(32, 64, 4, 15, 10.0, seed)
            x = gen_activations(128, 64, 0.3, seed + 41)
            cfg = SparsityConfig.semi_structured(2, 4, blocksize=4)
            out, plan, _ = rose_prune_layer(w, [x], cfg)
            assert plan.was_reordered
            assert pattern_holds(out.mask.kept, cfg.pattern)

    def test_semi_structured_groups_stay_whole_in_wide_blocks(self):
        w = gen_columnar(16, 64, 16, 3, 10.0, seed=3)
        x = gen_activations(128, 64, 0.3, seed=44)
        cfg = SparsityConfig.semi_structured(2, 4, blocksize=16)
        out, plan, _ = rose_prune_layer(w, [x], cfg)
        assert plan.was_reordered
        groups = plan.permutation.forward.reshape(16, 4)
        assert np.all(groups // 4 == groups[:, :1] // 4)
        assert pattern_holds(out.mask.kept, cfg.pattern)

    def test_gate_strictness(self):
        cfg = SparsityConfig(sparsity=0.5, blocksize=1)
        # two blocks with losses 3, 1 give relative range exactly 1.0
        s = np.array([[3.0, 1.0], [6.0, 9.0]])
        prof = loss_profile(s, cfg)
        assert prof.relative_range == pytest.approx(1.0)
        plan = build_reorder_plan(prof, cfg, threshold=1.0)
        assert not plan.was_reordered  # strict inequality required


def assert_same_outcome(a, b):
    np.testing.assert_array_equal(a.pruned_weights, b.pruned_weights)
    np.testing.assert_array_equal(a.mask.kept, b.mask.kept)
    np.testing.assert_array_equal(a.block_error_trajectory, b.block_error_trajectory)
    assert (a.final_error, a.relative_error) == (b.final_error, b.relative_error)


def assert_close_outcome(a, b, w0):
    """The same masks; weights within 1e-12 max|W0| and errors within rtol 1e-9.

    What a factor made from the damped inverse, not from H, may move.
    """
    np.testing.assert_array_equal(a.mask.kept, b.mask.kept)
    np.testing.assert_allclose(a.pruned_weights, b.pruned_weights, rtol=0,
                               atol=1e-12 * np.abs(w0).max())
    np.testing.assert_allclose(a.block_error_trajectory, b.block_error_trajectory,
                               rtol=1e-9, atol=0)
    assert a.relative_error == pytest.approx(b.relative_error, rel=1e-9, abs=0)


class TestPruneRuns:
    def test_every_method_runs_its_own_pipeline(self):
        w, x = columnar_fixture(seed=3, rows=16, cols=64, blocksize=16)
        layer = checked_layer(w, [x])
        configs = [SparsityConfig(0.5, 16), SparsityConfig(0.7, 16)]
        runs = list(prune_runs(layer, reorder.METHODS, configs))
        # the runs left in place go first, then the reordered ones, each
        # in config x method order
        grid = [(c, m) for c in configs for m in reorder.METHODS]
        assert [(run.config, run.method) for run in runs] == (
            [(c, m) for c, m in grid if not m.startswith("rose")]
            + [(c, m) for c, m in grid if m.startswith("rose")])
        for run in runs:
            config, method, outcome, plan, profile = (
                run.config, run.method, run.outcome, run.plan, run.profile)
            assert run.wall_ms >= 0.0
            assert profile.relative_range == loss_profile(
                importance_scores(layer.w, layer.norms), config).relative_range
            if method.startswith("rose"):
                want = build_reorder_plan(profile, config, descending=method == "rose")
                assert plan.was_reordered
                np.testing.assert_array_equal(plan.permutation.forward,
                                              want.permutation.forward)
            else:
                assert not plan.was_reordered
                np.testing.assert_array_equal(plan.permutation.forward, np.arange(64))
            direct = {
                "magnitude": lambda: magnitude_prune(layer, config),
                "wanda": lambda: wanda_prune(layer, config),
            }.get(method, lambda: prune_layer(bundle_from_hessian(
                layer, plan.permutation), config))
            # a reordered plan is factored from the damped inverse
            if plan.was_reordered:
                assert_close_outcome(outcome, direct(), w)
            else:
                assert_same_outcome(outcome, direct())

    @pytest.mark.parametrize("semi", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reordered_runs_match_the_direct_factor(self, seed, semi):
        # after sparsegpt's channel factor, both rose runs factor their
        # orders from the damped inverse; dead channels carry large weights
        w, x = columnar_fixture(seed, rows=32, cols=128, blocksize=32)
        dead = np.random.default_rng(seed).choice(128, size=3, replace=False)
        x[:, dead] = 0.0
        w[:, dead] *= 100.0
        layer = checked_layer(w, [x])
        configs = ([SparsityConfig.semi_structured(2, 4, blocksize=32)] if semi
                   else [SparsityConfig(p, 32) for p in (0.5, 0.7)])
        reordered = 0
        for run in prune_runs(layer, ["sparsegpt", "rose", "rose-ascending"], configs):
            if run.plan.was_reordered:
                reordered += 1
                assert_close_outcome(run.outcome, prune_layer(bundle_from_hessian(
                    layer, run.plan.permutation),
                    run.config), w)
        assert reordered == 2 * len(configs)

    def test_rose_prune_layer_is_the_rose_run(self):
        w, x = columnar_fixture(seed=8, rows=16, cols=64, blocksize=16)
        cfg = SparsityConfig(0.6, 16)
        out, plan, profile = rose_prune_layer(w, [x], cfg)
        layer = checked_layer(w, [x])
        [run] = prune_runs(layer, ["rose"], [cfg])
        assert run.method == "rose"
        assert plan.was_reordered == run.plan.was_reordered
        assert_same_outcome(out, run.outcome)
        np.testing.assert_array_equal(plan.permutation.forward,
                                      run.plan.permutation.forward)
        np.testing.assert_array_equal(profile.block_losses, run.profile.block_losses)
        assert profile.relative_range == run.profile.relative_range

    def test_index_is_the_grid_place(self):
        """Each run's index is its place in config x method order.

        A repeated sparsity, and reordered runs that the schedule moves
        behind the runs left in place, put the runs out of grid order.
        """
        w, x = columnar_fixture(seed=5, rows=16, cols=64, blocksize=16)
        layer = checked_layer(w, [x])
        configs = [SparsityConfig(p, 16) for p in (0.5, 0.7, 0.5)]
        methods = ["rose", "sparsegpt", "rose", "magnitude"]
        runs = list(prune_runs(layer, methods, configs))
        assert [run.index for run in runs] != list(range(12))
        assert sorted(run.index for run in runs) == list(range(12))
        for run in runs:
            assert run.config is configs[run.index // 4]
            assert run.method == methods[run.index % 4]

    def test_cli_runs_the_library_methods(self):
        assert cli.METHODS is reorder.METHODS

    def test_unknown_method_rejected(self):
        layer = checked_layer(gen_uniform(4, 8, seed=0), [np.eye(8)])
        with pytest.raises(ConfigError, match="sparsegtp"):
            list(prune_runs(layer, ["sparsegtp"], [SparsityConfig(0.5, 4)]))

    @pytest.mark.parametrize("threshold", [-1.0, np.nan, np.inf])
    def test_bad_threshold_rejected_before_any_scoring(self, monkeypatch, threshold):
        def scored(w, norms):
            raise AssertionError("the layer was scored")

        monkeypatch.setattr(reorder, "importance_scores", scored)
        layer = checked_layer(gen_uniform(4, 8, seed=0), [np.eye(8)])
        with pytest.raises(ConfigError,
                           match=f"threshold must be finite and >= 0, got {threshold}"):
            next(prune_runs(layer, ["rose"], [SparsityConfig(0.5, 4)],
                            threshold=threshold))

    @pytest.mark.parametrize("threshold, reordered", [(0.0, True), (10.0, False)])
    def test_one_threshold_gates_every_config(self, threshold, reordered):
        """Both configs' rose runs open at 0 and none at 10, whatever each R_rel."""
        w, x = columnar_fixture(seed=3, rows=16, cols=64, blocksize=16)
        layer = checked_layer(w, [x])
        configs = [SparsityConfig(0.5, 16), SparsityConfig.semi_structured(2, 4, 16)]
        runs = list(prune_runs(layer, ["rose", "rose-ascending"], configs,
                               threshold=threshold))
        assert sorted(run.index for run in runs) == [0, 1, 2, 3]
        assert all(0.0 < run.profile.relative_range < 10.0 for run in runs)
        assert [run.plan.was_reordered for run in runs] == [reordered] * 4

    def test_scores_are_checked_once(self, monkeypatch):
        """One scoring serves every loss profile.

        wanda is left out: it scores the layer itself, once per run.
        """
        scored = []

        def counted(w, norms):
            scored.append((w, norms))
            return importance_scores(w, norms)

        monkeypatch.setattr(reorder, "importance_scores", counted)
        layer = checked_layer(gen_columnar(8, 32, 8, 3, 10.0, seed=2),
                              [gen_activations(64, 32, 0.3, seed=3)])
        configs = [SparsityConfig(p, 8) for p in (0.5, 0.6, 0.7, 0.8)]
        methods = [m for m in reorder.METHODS if m != "wanda"]
        assert len(list(prune_runs(layer, methods, configs))) == 16
        [(w, norms)] = scored
        assert w is layer.w and norms is layer.norms

    def test_one_channel_factor_then_one_inverse(self, monkeypatch):
        """The runs left in place share one channel factor, the reordered its inverse.

        The runs left in place come first, then the one inversion, then the
        reordered runs, each group in config order.
        """
        w, x = columnar_fixture(seed=4, rows=32, cols=128, blocksize=32)
        layer = checked_layer(w, [x])
        events = []

        def factored(layer, order=None):
            events.append(("factor", order is None))
            return bundle_from_hessian(layer, order)

        def inverted(bundle):
            events.append(("invert",))
            return damped_inverse(bundle)

        monkeypatch.setattr(reorder, "bundle_from_hessian", factored)
        monkeypatch.setattr(reorder, "damped_inverse", inverted)
        configs = [SparsityConfig(p, 32) for p in (0.5, 0.6, 0.7)]
        outcomes = []
        for run in prune_runs(layer, ["sparsegpt", "rose"], configs):
            assert run.plan.was_reordered == (run.method == "rose")
            events.append((run.method, run.config.sparsity))
            outcomes.append((run.config, run.plan, run.outcome))
        assert events == [
            ("factor", True),
            ("sparsegpt", 0.5), ("sparsegpt", 0.6), ("sparsegpt", 0.7),
            ("invert",),
            ("rose", 0.5), ("rose", 0.6), ("rose", 0.7)]
        for config, plan, outcome in outcomes:
            direct = prune_layer(bundle_from_hessian(
                layer, plan.permutation), config)
            if plan.was_reordered:
                assert_close_outcome(outcome, direct, w)
            else:
                assert_same_outcome(outcome, direct)


def prune_blocks_in_order(w, activations, config, blocks):
    order = block_order(config, w.shape[1], blocks)
    layer = checked_layer(w, activations)
    return prune_layer(bundle_from_hessian(layer, order), config)


class TestManualBlockOrder:
    def test_identity_order_matches_plain(self):
        w = gen_uniform(8, 32, seed=12)
        x = gen_activations(64, 32, 0.0, seed=13)
        cfg = SparsityConfig(sparsity=0.5, blocksize=8)
        np.testing.assert_array_equal(block_order(cfg, 32, [0, 1, 2, 3]).forward,
                                      np.arange(32))
        out = prune_blocks_in_order(w, [x], cfg, [0, 1, 2, 3])
        bundle = factor([x], w=w)
        plain = prune_layer(bundle, cfg)
        assert np.array_equal(out.pruned_weights, plain.pruned_weights)

    def test_earlier_hot_block_reduces_error(self):
        cfg = SparsityConfig(sparsity=0.7, blocksize=32)
        w = gen_columnar(64, 128, 32, 3, 10.0, seed=14)
        x = gen_activations(256, 128, 0.3, seed=15)
        first = prune_blocks_in_order(w, [x], cfg, [3, 0, 1, 2])
        last = prune_blocks_in_order(w, [x], cfg, [0, 1, 2, 3])
        assert first.final_error < last.final_error

    def test_rejects_non_bijection(self):
        w = gen_uniform(4, 16, seed=16)
        x = gen_activations(32, 16, 0.0, seed=17)
        cfg = SparsityConfig(sparsity=0.5, blocksize=8)
        with pytest.raises(ValueError, match="bijection"):
            prune_blocks_in_order(w, [x], cfg, [0, 0])

