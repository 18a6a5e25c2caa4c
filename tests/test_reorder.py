import numpy as np
import pytest

from obsprune import (
    SparsityConfig,
    accumulate_hessian,
    apply_column_permutation,
    build_reorder_plan,
    compose_permutations,
    gen_activations,
    gen_columnar,
    gen_uniform,
    importance_scores,
    loss_profile,
    mask_pattern_valid,
    prune_layer,
    prune_with_block_order,
    raw_hessian,
    reconstruction_error,
    rose_prune_layer,
)


class TestScores:
    def test_unit_norms(self):
        w = np.array([[1.0, -2.0], [3.0, -4.0]])
        s = importance_scores(w, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(s, np.abs(w))

    def test_scalar_case(self):
        s = importance_scores(np.array([[-2.0]]), np.array([3.0]))
        np.testing.assert_array_equal(s, [[6.0]])

    def test_dead_channel_zero_scores(self):
        w = np.array([[5.0, 7.0]])
        s = importance_scores(w, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(s[:, 0], [0.0])


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

    def test_block_losses_sum_columns(self):
        rng = np.random.default_rng(0)
        cfg = SparsityConfig(sparsity=0.6, blocksize=8)
        prof = loss_profile(rng.random((5, 24)), cfg)
        for k in range(3):
            seg = prof.column_losses[8 * k : 8 * (k + 1)]
            assert prof.block_losses[k] == pytest.approx(seg.sum(), abs=1e-9)
        assert prof.block_count == 3


class TestReorderPlan:
    def test_gate_below_threshold_identity(self):
        cfg = SparsityConfig(sparsity=0.5, blocksize=4, columnar_threshold=10.0)
        prof = loss_profile(np.random.default_rng(1).random((3, 8)), cfg)
        plan = build_reorder_plan(prof, cfg)
        assert not plan.was_reordered
        assert plan.permutation.is_identity()

    def test_descending_columns_within_block(self):
        cfg = SparsityConfig(sparsity=0.99, blocksize=3, columnar_threshold=0.0)
        # first block column losses [1, 3, 2]; second block differs so the
        # gate fires
        s = np.array([[1.0, 3.0, 2.0, 9.0, 8.0, 7.0]])
        prof = loss_profile(s, cfg)
        plan = build_reorder_plan(prof, cfg)
        np.testing.assert_array_equal(plan.column_stage.forward[:3], [1, 2, 0])

    def test_block_order_descending(self):
        cfg = SparsityConfig(sparsity=0.99, blocksize=2, columnar_threshold=0.0)
        # block losses 1, 9, 5 over three 2-column blocks
        s = np.array([[0.5, 0.5, 4.5, 4.5, 2.5, 2.5]])
        prof = loss_profile(s, cfg)
        np.testing.assert_allclose(prof.block_losses, [1.0, 9.0, 5.0])
        plan = build_reorder_plan(prof, cfg)
        np.testing.assert_array_equal(plan.block_stage.forward, [2, 3, 4, 5, 0, 1])

    def test_composition_invariant(self):
        cfg = SparsityConfig(sparsity=0.7, blocksize=8, columnar_threshold=0.0)
        scores = np.random.default_rng(2).random((6, 24))
        plan = build_reorder_plan(loss_profile(scores, cfg), cfg)
        combined = compose_permutations(plan.block_stage, plan.column_stage)
        np.testing.assert_array_equal(plan.permutation.forward, combined.forward)

    def test_column_stage_stays_within_blocks(self):
        cfg = SparsityConfig(sparsity=0.7, blocksize=8, columnar_threshold=0.0)
        scores = np.random.default_rng(3).random((6, 40))
        plan = build_reorder_plan(loss_profile(scores, cfg), cfg)
        for i1 in range(0, 40, 8):
            seg = plan.column_stage.forward[i1 : i1 + 8]
            assert seg.min() >= i1 and seg.max() < i1 + 8


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
        bundle = accumulate_hessian([x], cfg.damp_fraction)
        plain = prune_layer(w, bundle, cfg)
        assert np.array_equal(out.pruned_weights, plain.pruned_weights)
        assert np.array_equal(out.mask.kept, plain.mask.kept)

    def test_columnar_beats_plain_engine(self):
        w, x = columnar_fixture(seed=7)
        cfg = SparsityConfig(sparsity=0.7, blocksize=128)
        out, plan, prof = rose_prune_layer(w, [x], cfg)
        assert plan.was_reordered
        bundle = accumulate_hessian([x], cfg.damp_fraction)
        plain = prune_layer(w, bundle, cfg)
        assert out.relative_error <= plain.relative_error

    def test_ascending_worse_than_plain(self):
        w, x = columnar_fixture(seed=7)
        cfg = SparsityConfig(sparsity=0.7, blocksize=128)
        asc, plan, _ = rose_prune_layer(w, [x], cfg, descending=False)
        assert plan.was_reordered
        bundle = accumulate_hessian([x], cfg.damp_fraction)
        plain = prune_layer(w, bundle, cfg)
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
        bundle = accumulate_hessian([xp], cfg.damp_fraction)
        direct = prune_layer(wp, bundle, cfg)
        assert np.array_equal(perm_view, direct.mask.kept)
        back = apply_column_permutation(direct.pruned_weights, plan.permutation.inverted())
        assert np.array_equal(back, out.pruned_weights)

    def test_objective_permutation_invariance(self):
        w, x = columnar_fixture(seed=10)
        cfg = SparsityConfig(sparsity=0.7, blocksize=128)
        out, plan, _ = rose_prune_layer(w, [x], cfg)
        wp = apply_column_permutation(w, plan.permutation)
        xp = apply_column_permutation(x, plan.permutation)
        wpp = apply_column_permutation(out.pruned_weights, plan.permutation)
        a1, r1 = reconstruction_error(w, out.pruned_weights, raw_hessian([x]))
        a2, r2 = reconstruction_error(wp, wpp, raw_hessian([xp]))
        assert abs(a1 - a2) <= 1e-9 * max(1.0, a1)
        assert abs(r1 - r2) <= 1e-9
        assert out.final_error == pytest.approx(a1)

    def test_semi_structured_pattern_survives_reorder(self):
        for seed in range(3):
            w = gen_columnar(32, 64, 4, 15, 10.0, seed)
            x = gen_activations(128, 64, 0.3, seed + 41)
            cfg = SparsityConfig.semi_structured(2, 4)
            out, plan, _ = rose_prune_layer(w, [x], cfg)
            assert plan.was_reordered
            assert mask_pattern_valid(out.mask)

    def test_gate_strictness(self):
        cfg = SparsityConfig(sparsity=0.5, blocksize=1, columnar_threshold=1.0)
        # two blocks with losses 3, 1 give relative range exactly 1.0
        s = np.array([[3.0, 1.0], [6.0, 9.0]])
        prof = loss_profile(s, cfg)
        assert prof.relative_range == pytest.approx(1.0)
        plan = build_reorder_plan(prof, cfg)
        assert not plan.was_reordered  # strict inequality required


class TestManualBlockOrder:
    def test_identity_order_matches_plain(self):
        w = gen_uniform(8, 32, seed=12)
        x = gen_activations(64, 32, 0.0, seed=13)
        cfg = SparsityConfig(sparsity=0.5, blocksize=8)
        out, plan = prune_with_block_order(w, raw_hessian([x]), cfg, [0, 1, 2, 3])
        assert not plan.was_reordered
        bundle = accumulate_hessian([x], cfg.damp_fraction)
        plain = prune_layer(w, bundle, cfg)
        assert np.array_equal(out.pruned_weights, plain.pruned_weights)

    def test_earlier_hot_block_reduces_error(self):
        cfg = SparsityConfig(sparsity=0.7, blocksize=32)
        w = gen_columnar(64, 128, 32, 3, 10.0, seed=14)
        x = gen_activations(256, 128, 0.3, seed=15)
        h = raw_hessian([x])
        first, _ = prune_with_block_order(w, h, cfg, [3, 0, 1, 2])
        last, _ = prune_with_block_order(w, h, cfg, [0, 1, 2, 3])
        assert first.final_error < last.final_error

    def test_rejects_non_bijection(self):
        w = gen_uniform(4, 16, seed=16)
        x = gen_activations(32, 16, 0.0, seed=17)
        cfg = SparsityConfig(sparsity=0.5, blocksize=8)
        with pytest.raises(Exception):
            prune_with_block_order(w, raw_hessian([x]), cfg, [0, 0])

