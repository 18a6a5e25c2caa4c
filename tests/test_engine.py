import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsprune import (
    DimensionError,
    HessianBundle,
    IndefiniteHessianError,
    METHODS,
    NumericOverflowError,
    SparsityConfig,
    Permutation,
    PruneOutcome,
    bundle_from_hessian,
    checked_layer,
    exact_masked_reconstruction,
    gen_columnar,
    naive_obs_prune,
    prune_layer,
    prune_runs,
    raw_hessian,
    reconstruction_error,
    rose_prune_layer,
)
from obsprune import engine, oracle
from obsprune.calibration import error_prefix
from obsprune.engine import CANCELLATION, select_block_mask
from obsprune.tensors import SemiStructured

from hessian_helpers import accumulate_hessian, dampened_hessian, symmetric


def random_layer(seed, rows=8, n=16, samples=None):
    rng = np.random.default_rng(seed)
    samples = samples or 4 * n
    return rng.standard_normal((rows, n)), rng.standard_normal((samples, n))


def prune_one_weight(row, x):
    """``naive_obs_prune`` of the 1-row layer ``row`` in one block at
    sparsity 1/n, undamped: it prunes exactly one weight."""
    n = row.size
    cfg = SparsityConfig(sparsity=1 / n, blocksize=n)
    out = naive_obs_prune(row[None, :], [x], cfg, damp_fraction=0.0)
    assert out.mask.kept.sum() == n - 1
    return out.pruned_weights[0], out.mask.kept[0]


class TestUpdateRow:
    """The oracle's OBS one-row update, on a layer of one row."""

    def test_zero_weight_no_change(self):
        row = np.array([1.0, 0.0, 3.0])
        got, kept = prune_one_weight(row, random_layer(1, n=3)[1])
        np.testing.assert_array_equal(kept, [True, False, True])
        np.testing.assert_array_equal(got, row)

    def test_identity_hessian_decouples(self):
        got, _ = prune_one_weight(np.array([2.0, 1.0, 3.0]), np.eye(3))
        np.testing.assert_array_equal(got, [2.0, 0.0, 3.0])

    def test_matches_normal_equations_oracle(self):
        # columns before the pruned q stay; q: is the best row with q
        # pruned under H[q:, q:], the earlier columns held fixed
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 6
            x = rng.standard_normal((3 * n, n))
            row = rng.standard_normal(n)
            got, kept = prune_one_weight(row, x)
            q = int(np.argmin(kept))
            np.testing.assert_array_equal(got[:q], row[:q])
            want = exact_masked_reconstruction(row[q:], kept[q:], (x.T @ x)[q:, q:])
            assert np.max(np.abs(got[q:] - want)) < 1e-8

    def test_nonpositive_diag(self):
        for pivot in [-1.0, 0.0, np.nan, np.inf]:
            inv = np.eye(2)
            inv[0, 0] = pivot
            with pytest.raises(IndefiniteHessianError, match="at column 7"):
                oracle._drop_first(inv, 7)


class TestBlockMask:
    def test_zero_sparsity_keeps_all(self):
        cfg = SparsityConfig(sparsity=0.0, blocksize=4)
        pruned = select_block_mask(np.ones((3, 4)), np.ones(4), cfg, np.zeros(4, bool))
        assert pruned.dtype == bool and pruned.shape == (3, 4)
        assert not pruned.any()

    def test_two_four_prunes_smallest(self):
        cfg = SparsityConfig.semi_structured(2, 4)
        w = np.array([[1.0, 5.0, 2.0, 4.0]])
        pruned = select_block_mask(w, np.ones(4), cfg, np.zeros(4, bool))
        np.testing.assert_array_equal(pruned, [[True, False, True, False]])

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((4, 8))
        inv = rng.uniform(0.5, 2.0, 8)
        cfg = SparsityConfig(sparsity=0.5, blocksize=8)
        pruned = select_block_mask(w, inv, cfg, np.zeros(8, bool))
        sal = (w * w / inv).ravel()
        expect_pruned = set(np.argsort(sal, kind="stable")[:16])
        got_pruned = set(np.flatnonzero(pruned.ravel()))
        assert got_pruned == expect_pruned

    def test_tie_break_lower_column_then_row(self):
        cfg = SparsityConfig(sparsity=0.5, blocksize=2)
        w = np.ones((2, 2))
        pruned = select_block_mask(w, np.ones(2), cfg, np.zeros(2, bool))
        # all saliencies tie: column 0 goes first, rows top to bottom
        np.testing.assert_array_equal(pruned, [[True, False], [True, False]])

    @pytest.mark.parametrize("config", [SparsityConfig(0.5, blocksize=8),
                                        SparsityConfig(0.0, blocksize=8),
                                        SparsityConfig.semi_structured(2, 4, 8)])
    @pytest.mark.parametrize("dead", [[], [1, 6]])
    def test_same_mask_in_either_layout(self, config, dead):
        # the sweep passes a transposed view of its own row-major buffer
        rng = np.random.default_rng(14)
        w = rng.standard_normal((6, 8))
        inv = rng.uniform(0.5, 2.0, 8)
        is_dead = np.isin(np.arange(8), dead)
        c = select_block_mask(np.ascontiguousarray(w), inv, config, is_dead)
        f = select_block_mask(np.asfortranarray(w), inv, config, is_dead)
        np.testing.assert_array_equal(c, f)
        if config.sparsity:
            # fewer dead weights than pruned ones, and one per group of 4
            assert c[:, dead].all()
        else:
            assert not c.any()

    def test_overflowing_saliency_raises(self):
        # 1e200**2 overflows: every such weight would tie at inf and the
        # mask among them would fall to the tie-break
        cfg = SparsityConfig(sparsity=0.5, blocksize=2)
        w = np.array([[1e200, 1.0], [1.0, 1e200]])
        with pytest.raises(NumericOverflowError, match="saliency"):
            select_block_mask(w, np.ones(2), cfg, np.zeros(2, bool))
        # a forced column is pruned first whatever its saliency
        pruned = select_block_mask(np.array([[1e200, 1.0]]), np.ones(2), cfg,
                                   np.array([True, False]))
        np.testing.assert_array_equal(pruned, [[True, False]])


class TestReconstructionError:
    def test_equal_weights(self):
        w, x = random_layer(0)
        layer = checked_layer(w, raw_hessian([x], w.shape[1]))
        assert reconstruction_error(layer, w) == (0.0, 0.0)

    def test_zero_pruned(self):
        w, x = random_layer(1)
        absolute, relative = reconstruction_error(
            checked_layer(w, raw_hessian([x], w.shape[1])), np.zeros_like(w)
        )
        assert relative == pytest.approx(1.0)
        assert absolute > 0

    def test_hand_arithmetic(self):
        w = np.array([[1.0, 1.0]])
        x = np.eye(2)
        wp = np.array([[1.0, 0.0]])
        layer = checked_layer(w, raw_hessian([x], w.shape[1]))
        assert reconstruction_error(layer, wp) == (1.0, 0.5)

    def test_zero_denominator(self):
        w = np.zeros((2, 2))
        assert reconstruction_error(checked_layer(w, np.eye(2)), w) == (0.0, 0.0)

    def test_pruned_shape_checked(self):
        layer = checked_layer(np.ones((2, 3)), np.eye(3))
        for bad in (np.ones((1, 3)), np.ones(3), np.ones((2, 2))):
            with pytest.raises(DimensionError, match="pruned shape"):
                reconstruction_error(layer, bad)

    def test_pruned_weights_checked(self):
        layer = checked_layer(np.ones((2, 2)), np.eye(2))
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericOverflowError, match="pruned weights not finite"):
                reconstruction_error(layer, np.array([[1.0, bad], [1.0, 1.0]]))
        # finite weights whose error overflows
        with pytest.raises(NumericOverflowError, match="reconstruction error inf"):
            reconstruction_error(layer, np.array([[1e300, 0.0], [0.0, 0.0]]))

    def test_nan_denominator_raises(self):
        # reconstruction_error and every PruneOutcome divide by the
        # layer's dense energy, so a layer whose energy is NaN or inf is
        # rejected where it is built
        for w in (np.array([[np.nan, 1.0]]), np.array([[1e200, 1.0]])):
            with pytest.raises(NumericOverflowError):
                checked_layer(w, np.eye(2))


class TestOutcome:
    """Every method's final and relative error derive from its trajectory."""

    @pytest.mark.parametrize("config", [SparsityConfig(0.5, blocksize=16),
                                        SparsityConfig.semi_structured(2, 4, 16)])
    @pytest.mark.parametrize("gain", [10.0, 0.0])
    def test_errors_derive_from_trajectory(self, config, gain):
        # a columnar layer, so that rose reorders; gain 0 is an all-zero W
        w = gain * gen_columnar(8, 48, 16, 2, 10.0, seed=4)
        x = np.random.default_rng(4).standard_normal((96, 48))
        layer = checked_layer(w, raw_hessian([x], 48))
        outcomes = [run.outcome for run in prune_runs(layer, METHODS, [config])]
        assert all(o.dense_energy == layer.dense_energy for o in outcomes)
        # the oracle measures its energy on the stacked activations
        oracle = naive_obs_prune(w, [x], config)
        assert oracle.dense_energy == pytest.approx(layer.dense_energy, rel=1e-12)
        for out in [*outcomes, oracle]:
            assert len(out.block_error_trajectory) == len(config.block_ranges(48))
            assert out.final_error == out.block_error_trajectory[-1]
            if gain:
                assert out.relative_error == out.final_error / out.dense_energy
            else:
                assert out.relative_error == 0.0

    @pytest.mark.parametrize("config", [SparsityConfig(0.5, blocksize=16),
                                        SparsityConfig.semi_structured(2, 4, 16)])
    def test_pruned_weights_are_positive_zero(self, config):
        # the sweep clears a pruned entry's bits, so a negative weight leaves
        # +0.0 with its sign bit clear, as the baselines' np.where does
        w = gen_columnar(8, 48, 16, 2, 10.0, seed=5)
        x = np.random.default_rng(5).standard_normal((96, 48))
        layer = checked_layer(w, raw_hessian([x], 48))
        for run in prune_runs(layer, METHODS, [config]):
            method, out = run.method, run.outcome
            pruned = ~out.mask.kept
            assert (w[pruned] < 0).any(), method
            lost = out.pruned_weights[pruned]
            assert not lost.any() and not np.signbit(lost).any(), method

    def test_errors_are_not_stored(self):
        out, _, _ = rose_prune_layer(np.eye(4), [np.eye(4)],
                                     SparsityConfig(0.5, blocksize=4))
        with pytest.raises(TypeError):
            PruneOutcome(out.pruned_weights, out.mask, out.block_error_trajectory,
                         out.dense_energy, final_error=0.0)
        for name in ("final_error", "relative_error"):
            with pytest.raises(AttributeError):
                setattr(out, name, 0.0)


class TestErrorPrefix:
    """``error_prefix`` against a long-double sum, on every layout of d."""

    @settings(deadline=None, max_examples=80)
    @given(
        rows=st.integers(0, 6),
        n=st.integers(0, 24),
        dead=st.lists(st.integers(0, 23), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_long_double(self, rows, n, dead, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2 * n + 3, n)) * rng.uniform(0.1, 10, n)
        x[:, [j for j in dead if j < n]] = 0.0  # dead channels
        h = raw_hessian([x], n)
        d = rng.standard_normal((rows, n)) * rng.uniform(0.01, 100, n)
        spread = np.zeros((rows, 2 * n))
        spread[:, ::2] = d
        layouts = [d, np.asfortranarray(d), spread[:, ::2]]
        got = error_prefix(layouts[0], h)
        for other in layouts[1:]:
            assert np.array_equal(error_prefix(other, h), got)

        dl, hl = d.astype(np.longdouble), symmetric(h).astype(np.longdouble)
        assert got.shape == (n + 1,)
        for e in range(n + 1):
            de, he = dl[:, :e], hl[:e, :e]
            want = np.sum((de @ he) * de)
            scale = np.sum((np.abs(de) @ np.abs(he)) * np.abs(de))
            assert abs(got[e] - want) <= 1e-12 * scale

    def test_reads_only_the_upper_triangle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 9))
        h = raw_hessian([x], 9)
        d = rng.standard_normal((4, 9))
        upper = np.triu(h)
        assert np.array_equal(error_prefix(d, upper), error_prefix(d, h))


class TestPruneLayer:
    def test_zero_sparsity_is_identity(self):
        # every block keeps every weight, a dead channel's too: each OBS
        # error is 0, and no weight changes by a single bit
        w, x = random_layer(2)
        x[:, 5] = 0.0
        cfg = SparsityConfig(sparsity=0.0, blocksize=4)
        b = accumulate_hessian([x], w=w)
        out = prune_layer(b, cfg)
        assert np.ascontiguousarray(out.pruned_weights).tobytes() == w.tobytes()
        assert out.relative_error <= 1e-10
        assert out.mask.kept.all()

    def test_diagonal_hessian_closed_form(self):
        # orthogonal activation columns: no compensation cross-talk and the
        # error is the sum of pruned w**2 scaled by the column norms
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((12, 6)))
        scales = np.array([2.0, 0.5, 1.0, 3.0, 0.7, 1.5])
        x = q * scales
        w = rng.standard_normal((5, 6))
        cfg = SparsityConfig(sparsity=0.5, blocksize=3)
        b = accumulate_hessian([x], 0.0, w)
        out = prune_layer(b, cfg)
        pruned = ~out.mask.kept
        expected = float(np.sum((w * w * scales**2)[pruned]))
        assert out.final_error == pytest.approx(expected, abs=1e-8)
        # kept weights barely move without cross-talk
        assert np.max(np.abs(out.pruned_weights[out.mask.kept]
                             - w[out.mask.kept])) < 1e-8

    def test_mask_respect_and_sparsity(self):
        w, x = random_layer(3, rows=10, n=24)
        cfg = SparsityConfig(sparsity=0.5, blocksize=8)
        b = accumulate_hessian([x], w=w)
        out = prune_layer(b, cfg)
        assert np.all(out.pruned_weights[~out.mask.kept] == 0.0)
        pruned = np.count_nonzero(~out.mask.kept) / out.mask.kept.size
        assert pruned == pytest.approx(0.5, abs=1 / (10 * 8))
        assert np.all(np.isfinite(out.pruned_weights))

    def test_trajectory_monotone_and_final(self):
        w, x = random_layer(4, rows=6, n=32)
        cfg = SparsityConfig(sparsity=0.75, blocksize=8)
        b = accumulate_hessian([x], w=w)
        out = prune_layer(b, cfg)
        traj = out.block_error_trajectory
        assert traj.size == 4
        assert np.all(np.diff(traj) >= 0)
        assert traj[-1] == out.final_error

    def test_semi_structured_group_constraint(self):
        w, x = random_layer(6, rows=9, n=32)
        for n_keep, m in ((2, 4), (4, 8)):
            cfg = SparsityConfig.semi_structured(n_keep, m)
            b = accumulate_hessian([x], w=w)
            out = prune_layer(b, cfg)
            groups = out.mask.kept.reshape(9, 32 // m, m)
            assert np.all(groups.sum(axis=2) == n_keep)

    def test_dimension_mismatch(self):
        w, x = random_layer(7)
        with pytest.raises(DimensionError):
            checked_layer(w[:, :-1], raw_hessian([x], w.shape[1]))

    def test_dead_column_pruned_first(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((40, 8))
        x[:, 3] = 0.0
        w = rng.standard_normal((4, 8))
        w[:, 3] = 50.0  # huge weight on a dead channel
        cfg = SparsityConfig(sparsity=0.25, blocksize=8)
        b = accumulate_hessian([x], w=w)
        out = prune_layer(b, cfg)
        assert not out.mask.kept[:, 3].any()

    @pytest.mark.parametrize("cycles", [True, False], ids=["cycles", "identity"])
    def test_outputs_come_back_in_channel_order(self, cycles):
        # the sweep's rows move into channel order in place, one cycle of
        # the order at a time: pruning in order p is, bit for bit, pruning
        # w[:, p] with H[p][:, p] in channel order, mapped back.  Integer
        # activations make H exact, so its mean diagonal, and the damping,
        # are the same bits in either column order
        rng = np.random.default_rng(46)
        rows, n = 8, 64
        w = rng.standard_normal((rows, n))
        h = symmetric(raw_hessian([rng.integers(-3, 4, (3 * n, n)).astype(float)], n))
        p = np.arange(n)
        if cycles:
            p[[3, 10]] = p[[10, 3]]  # a 2-cycle
            p[20:60] = np.roll(p[20:60], 1)  # a cycle of 40; the rest stay put
        cfg = SparsityConfig(0.5, blocksize=16)
        out = prune_layer(bundle_from_hessian(checked_layer(w, h), Permutation(p)), cfg)
        ref = prune_layer(bundle_from_hessian(checked_layer(w[:, p], h[p][:, p])), cfg)
        assert out.pruned_weights.flags.f_contiguous
        assert out.mask.kept.flags.f_contiguous
        assert out.pruned_weights[:, p].tobytes() == ref.pruned_weights.tobytes()
        np.testing.assert_array_equal(out.mask.kept[:, p], ref.mask.kept)
        assert out.block_error_trajectory.tobytes() == ref.block_error_trajectory.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_dead_column_pruned_first_in_any_order(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 8))
        x[:, 3] = 0.0
        w = rng.standard_normal((4, 8))
        w[:, 3] = 50.0
        cfg = SparsityConfig(sparsity=0.25, blocksize=4)
        order = Permutation(rng.permutation(8))
        layer = checked_layer(w, raw_hessian([x], w.shape[1]))
        b = bundle_from_hessian(layer, order)
        np.testing.assert_array_equal(np.flatnonzero(b.layer.dead), [3])
        out = prune_layer(b, cfg)
        assert not out.mask.kept[:, 3].any()


def block_state(w0, w_final, bundle, i2):
    """Weights after the block ending at column i2, from optimality alone.

    Columns before i2 are final.  Every pruned column was compensated over
    the columns after it, so the trailing weights minimize the dampened
    loss given the leading ones: D_t = -D_l H_lt inv(H_tt).
    """
    h = dampened_hessian(bundle)
    d_lead = w0[:, :i2] - w_final[:, :i2]
    d_trail = -np.linalg.solve(h[i2:, i2:], (d_lead @ h[:i2, i2:]).T).T
    return np.hstack([w_final[:, :i2], w0[:, i2:] - d_trail])


class TestClosedFormTrajectory:
    @settings(deadline=None, max_examples=40)
    @given(
        rows=st.integers(1, 8),
        n_blocks=st.integers(1, 6),
        blocksize=st.sampled_from([1, 3, 4, 8]),
        sparsity=st.floats(0.0, 0.9),
        semi=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_activations_every_block(
        self, rows, n_blocks, blocksize, sparsity, semi, seed
    ):
        n = n_blocks * blocksize
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, n))
        x = rng.standard_normal((3 * n, n))
        if semi and blocksize % 4 == 0:
            cfg = SparsityConfig.semi_structured(2, 4, blocksize=blocksize)
        else:
            cfg = SparsityConfig(sparsity=sparsity, blocksize=blocksize)
        b = accumulate_hessian([x], w=w)
        out = prune_layer(b, cfg)
        measured = []
        for _, i2 in cfg.block_ranges(n):
            d = (w - block_state(w, out.pruned_weights, b, i2)) @ x.T
            measured.append(float(np.sum(d * d)))
        np.testing.assert_allclose(
            out.block_error_trajectory, measured, rtol=1e-9, atol=0
        )

    def test_huge_columns_are_compensated(self):
        # columns 4-7 scaled by 1e16 have inverse diagonals near 1e-32, and
        # their pruned weights are compensated like every other column's
        rng = np.random.default_rng(40)
        x = rng.standard_normal((64, 16))
        x[:, 4:8] *= 1e16
        w = rng.standard_normal((6, 16))
        cfg = SparsityConfig.semi_structured(2, 4)
        b = accumulate_hessian([x], 0.0, w)
        assert np.all(b.diag[4:8] ** 2 < 1e-30)
        out = prune_layer(b, cfg)
        d = (w - out.pruned_weights) @ x.T
        assert out.final_error == pytest.approx(float(np.sum(d * d)), rel=1e-9)
        assert out.block_error_trajectory[-1] == out.final_error
        slow = naive_obs_prune(w, [x], cfg, damp_fraction=0.0)
        np.testing.assert_array_equal(out.mask.kept, slow.mask.kept)

    def test_huge_damping_falls_back_to_the_direct_error(self):
        # lambda * ||W0 - W_k||^2 and sum(E**2) overflow: the closed form is
        # not finite, and the error is measured in the raw Hessian instead
        rng = np.random.default_rng(42)
        x = rng.standard_normal((256, 64))
        w = rng.uniform(-1.0, 1.0, (16, 64))
        cfg = SparsityConfig(sparsity=0.5, blocksize=16)
        b = accumulate_hessian([x], 4e304, w)
        out = prune_layer(b, cfg)
        lam = b.layer.damp_lambda
        assert lam * float(np.sum(np.square(w - out.pruned_weights))) == np.inf
        assert np.all(np.isfinite(out.block_error_trajectory))
        # the fallback's own kernel, on the weights' final difference
        assert out.final_error == error_prefix(w - out.pruned_weights, b.layer.raw)[-1]

    @pytest.mark.parametrize("semi", [False, True])
    def test_fallback_in_a_middle_block_measures_the_rebuilt_tail(
        self, monkeypatch, semi
    ):
        # with the closed form always refused, every block's error is the
        # error_prefix total of W0 - W_k, whose later columns the sweep holds
        # only as the updates added into W0 - W; in a shuffled order W_k must
        # come back in channel order, as optimality alone gives it
        rng = np.random.default_rng(44)
        rows, n = 6, 48
        w = rng.standard_normal((rows, n))
        x = rng.standard_normal((3 * n, n))
        if semi:
            cfg = SparsityConfig.semi_structured(2, 4, blocksize=16)
            p = np.concatenate([4 * g + rng.permutation(4)
                                for g in rng.permutation(n // 4)])
        else:
            cfg = SparsityConfig(0.5, blocksize=16)
            p = rng.permutation(n)
        order = Permutation(p)
        layer = checked_layer(w, raw_hessian([x], n))
        b = bundle_from_hessian(layer, order)
        monkeypatch.setattr(engine, "CANCELLATION", np.inf)
        measured = []

        def recorded(d, hessian):
            measured.append(np.array(d))
            return error_prefix(d, hessian)

        monkeypatch.setattr(engine, "error_prefix", recorded)
        out = prune_layer(b, cfg)
        assert len(measured) == 3

        w0, final = w[:, p], out.pruned_weights[:, p]
        for k, (_, i2) in enumerate(cfg.block_ranges(n)):
            w_k = block_state(w0, final, b, i2)[:, order.inverse]
            np.testing.assert_allclose(measured[k], w - w_k, rtol=0,
                                       atol=WEIGHT_ATOL * np.abs(w).max())
            assert out.block_error_trajectory[k] == pytest.approx(
                error_prefix(w - w_k, layer.raw)[-1], rel=1e-9)
        # the closed form, had it been taken, agrees with each entry
        monkeypatch.undo()
        again = prune_layer(b, cfg)
        np.testing.assert_array_equal(again.mask.kept, out.mask.kept)
        np.testing.assert_allclose(again.block_error_trajectory,
                                   out.block_error_trajectory, rtol=1e-9, atol=0)

    def test_dead_block_error_is_exactly_zero(self):
        # pruning a block of dead channels costs nothing in the raw Hessian,
        # while the closed form would cancel to rounding noise
        rng = np.random.default_rng(41)
        x = rng.standard_normal((48, 16))
        x[:, :8] = 0.0
        w = rng.standard_normal((5, 16))
        cfg = SparsityConfig(sparsity=0.5, blocksize=8)
        out = prune_layer(accumulate_hessian([x], w=w), cfg)
        assert out.block_error_trajectory[0] == 0.0
        d = (w - out.pruned_weights) @ x.T
        assert out.final_error == pytest.approx(float(np.sum(d * d)), rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_dead_block_error_is_exactly_zero_in_any_order(self, seed):
        # the dead channels 8-15 are swept first; the direct error that
        # replaces the cancelled closed form is measured in channel order
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((48, 16))
        x[:, 8:] = 0.0
        w = rng.standard_normal((5, 16))
        cfg = SparsityConfig(sparsity=0.5, blocksize=8)
        order = Permutation(np.r_[8 + rng.permutation(8), rng.permutation(8)])
        layer = checked_layer(w, raw_hessian([x], w.shape[1]))
        b = bundle_from_hessian(layer, order)
        out = prune_layer(b, cfg)
        assert out.block_error_trajectory[0] == 0.0
        d = (w - out.pruned_weights) @ x.T
        assert out.final_error == pytest.approx(float(np.sum(d * d)), rel=1e-9)


def rank1_reference(w, bundle, config):
    """The engine's schedule with every update applied column by column.

    Masks are chosen at block entry (unstructured) or at the first column
    of each group of m (n:m).  Each pruned column's OBS error is subtracted
    from all later columns as a rank-1 update at once, and the trajectory
    recomputes ||W0 - W_k||^2 over the whole layer after every block.
    ``prune_layer`` defers the updates past a sub-block or a block into one
    matrix product and keeps a running sum, which changes only the rounding.
    """
    rows, n = w.shape
    upper, d = bundle.chol_upper, bundle.diag
    w_cur = w.copy()
    kept = np.ones((rows, n), dtype=bool)
    trajectory = []
    loss = 0.0
    for i1, i2 in config.block_ranges(n):
        for q in range(i1, i2):
            if (q - i1) % config.group_width == 0:
                g2 = min(q + config.group_width, i2)
                kept[:, q:g2] = ~select_block_mask(
                    w_cur[:, q:g2], d[q:g2] ** 2, config, bundle.layer.dead[q:g2]
                )
            e = np.where(kept[:, q], 0.0, w_cur[:, q]) / d[q]
            w_cur[:, q] = np.where(kept[:, q], w_cur[:, q], 0.0)
            w_cur[:, q + 1 :] -= np.outer(e, upper[q, q + 1 :])
            loss += float(e @ e)
        delta = w - w_cur
        raw_err = loss - bundle.layer.damp_lambda * float(np.sum(delta * delta))
        if not (np.isfinite(raw_err) and raw_err >= CANCELLATION * loss):
            raw_err = float(np.sum((delta @ symmetric(bundle.layer.raw)) * delta))
        trajectory.append(raw_err)
    return w_cur, kept, np.array(trajectory)


#: |prune_layer - reference| per weight, as a multiple of max |W0|; the two
#: sum each later column's updates in a different order
WEIGHT_ATOL = 1e-12


def corner_bundle(coupling):
    """A 3x8 layer whose factor couples the tiny column 0 to column 5.

    H = I with a dead channel 0, and U = I but for U[0, 0] = 1e-10 and
    U[0, 5] = ``coupling``: pruning column 0 moves column 5 by about
    1e10 * coupling, in the first block's update of the later columns.
    """
    w = np.random.default_rng(0).standard_normal((3, 8))
    h = np.eye(8)
    h[0, 0] = 0.0
    u = np.eye(8)
    u[0, 0] = 1e-10
    u[0, 5] = coupling
    return HessianBundle(checked_layer(w, h, 0.0), u, u.diagonal().copy(),
                         Permutation.identity(8))


class TestOverflow:
    def test_overflowing_direct_error_names_the_block(self):
        # the weights stay finite near 1e210, but neither the closed form
        # nor the direct error sum(d @ H @ d) fits a double
        b = corner_bundle(1e200)
        with pytest.raises(NumericOverflowError,
                           match="non-finite reconstruction error after block 0") as info:
            prune_layer(b, SparsityConfig(0.5, blocksize=4))
        assert info.value.block == 0

    def test_non_finite_weights_name_the_block(self):
        # column 5 overflows to -inf in block 0's update of the later columns
        b = corner_bundle(1e308)
        with pytest.raises(NumericOverflowError,
                           match="non-finite weights after block 0") as info:
            prune_layer(b, SparsityConfig(0.5, blocksize=4))
        assert info.value.block == 0


class TestRank1Reference:
    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.integers(1, 8),
        n_blocks=st.integers(1, 6),
        # 1, 3, 20, 33 and 130 end blocks inside a sub-block of the engine
        blocksize=st.sampled_from([1, 3, 4, 8, 16, 20, 33, 130]),
        sparsity=st.floats(0.0, 0.9),
        semi=st.booleans(),
        n_dead=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(
        self, rows, n_blocks, blocksize, sparsity, semi, n_dead, seed
    ):
        n = n_blocks * blocksize
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, n))
        x = rng.standard_normal((3 * n, n))
        # dead channels, with one live channel left so that lambda > 0
        x[:, rng.choice(n, size=min(n_dead, n - 1), replace=False)] = 0.0
        if semi and blocksize % 4 == 0:
            cfg = SparsityConfig.semi_structured(2, 4, blocksize=blocksize)
        else:
            cfg = SparsityConfig(sparsity=sparsity, blocksize=blocksize)
        b = accumulate_hessian([x], w=w)
        out = prune_layer(b, cfg)
        ref_w, ref_kept, ref_traj = rank1_reference(w, b, cfg)

        np.testing.assert_array_equal(out.mask.kept, ref_kept)
        np.testing.assert_allclose(
            out.pruned_weights, ref_w, rtol=0, atol=WEIGHT_ATOL * np.abs(w).max()
        )
        np.testing.assert_allclose(
            out.block_error_trajectory, ref_traj, rtol=1e-9, atol=0
        )
        again = prune_layer(b, cfg)
        np.testing.assert_array_equal(again.pruned_weights, out.pruned_weights)
        np.testing.assert_array_equal(again.mask.kept, out.mask.kept)
        np.testing.assert_array_equal(
            again.block_error_trajectory, out.block_error_trajectory
        )


def scaled_run(method, k):
    """``method`` on one 16x64 layer whose activations are scaled by 2**k.

    Returns the outcome and the loss profile's R_rel (None without one).
    Every layer has a dead channel; the rose layer is columnar, so that it
    is reordered.  "rose" factors H in its plan's order; "rose-inverse"
    runs after sparsegpt, so its factor comes from the damped inverse.
    """
    rng = np.random.default_rng(43)
    x = rng.standard_normal((256, 64)) * 2.0**k
    x[:, 5] = 0.0
    unstructured = SparsityConfig(sparsity=0.5, blocksize=16)
    if method.startswith("rose"):
        w = gen_columnar(16, 64, 16, 2, 10.0, seed=43)
        if method == "rose":
            out, plan, profile = rose_prune_layer(w, [x], unstructured)
        else:
            layer = checked_layer(w, raw_hessian([x], 64))
            [_, run] = prune_runs(layer, ["sparsegpt", "rose"], [unstructured])
            out, plan, profile = run.outcome, run.plan, run.profile
        assert plan.was_reordered
        return out, profile.relative_range
    w = rng.standard_normal((16, 64))
    if method == "oracle":
        return naive_obs_prune(w, [x], unstructured), None
    cfg = (SparsityConfig.semi_structured(2, 4, blocksize=16) if method == "2:4"
           else unstructured)
    return prune_layer(accumulate_hessian([x], w=w), cfg), None


class TestScale:
    # no rule depends on the scale of X, so a power of two scales every
    # error exactly and moves nothing else
    @pytest.mark.parametrize("method", ["unstructured", "2:4", "rose", "oracle",
                                        "rose-inverse"])
    @pytest.mark.parametrize("k", [-200, 50, 200])
    def test_power_of_two_scales_errors_exactly(self, method, k):
        self.assert_scales_exactly(method, k)

    # diag(H) near 2**-1008 and 2**1008, the widest range over which the
    # direct route stays exact; at the top, the damped inverse's entries
    # would underflow unscaled
    @pytest.mark.parametrize("method", ["rose", "rose-inverse"])
    @pytest.mark.parametrize("k", [-508, 500])
    def test_both_factor_routes_scale_exactly_at_the_extremes(self, method, k):
        self.assert_scales_exactly(method, k)

    # X * 2**-513 leaves the dead channel 5 a dampened diagonal, lambda, so
    # small that its OBS denominator U_55**2 overflows: once a bare warning
    @pytest.mark.parametrize("method", ["rose", "rose-inverse"])
    def test_an_overflowing_inverse_diagonal_names_its_channel(self, method):
        with pytest.raises(NumericOverflowError, match="overflows at channel 5"):
            scaled_run(method, -513)

    @staticmethod
    def assert_scales_exactly(method, k):
        base, base_r_rel = scaled_run(method, 0)
        out, r_rel = scaled_run(method, k)
        np.testing.assert_array_equal(out.mask.kept, base.mask.kept)
        np.testing.assert_array_equal(out.pruned_weights, base.pruned_weights)
        assert out.final_error == base.final_error * 4.0**k
        np.testing.assert_array_equal(
            out.block_error_trajectory, base.block_error_trajectory * 4.0**k
        )
        assert out.relative_error == base.relative_error
        assert r_rel == base_r_rel


class TestMaskGroups:
    @settings(deadline=None, max_examples=40)
    @given(
        rows=st.integers(1, 8),
        groups=st.integers(1, 80),
        nm=st.sampled_from([(2, 4), (1, 2), (4, 8)]),
        groups_per_block=st.sampled_from([None, 1, 2, 3, 5, 33]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocksize_moves_rounding_only(
        self, rows, groups, nm, groups_per_block, seed
    ):
        # n:m masks are chosen per group at its first column, so the width
        # of the lazy batch (None: the default) changes no mask
        n_keep, m = nm
        n = groups * m
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, n))
        x = rng.standard_normal((int(rng.choice([n // 2 + 1, 3 * n])), n))
        blocksize = None if groups_per_block is None else groups_per_block * m
        cfg = SparsityConfig.semi_structured(n_keep, m, blocksize=blocksize)
        narrow = SparsityConfig.semi_structured(n_keep, m, blocksize=m)
        b = accumulate_hessian([x], w=w)
        out = prune_layer(b, cfg)
        ref = prune_layer(b, narrow)

        np.testing.assert_array_equal(out.mask.kept, ref.mask.kept)
        np.testing.assert_allclose(
            out.pruned_weights, ref.pruned_weights,
            rtol=0, atol=WEIGHT_ATOL * np.abs(w).max(),
        )
        assert out.final_error == pytest.approx(ref.final_error, rel=1e-9)
        assert out.block_error_trajectory.size == len(cfg.block_ranges(n))


def strided(a):
    """A non-contiguous view holding the values of ``a``."""
    room = np.zeros((a.shape[0], 2 * a.shape[1]))
    room[:, ::2] = a
    return room[:, ::2]


class TestLayout:
    @settings(deadline=None, max_examples=30)
    @given(
        rows=st.integers(1, 12),
        groups=st.integers(1, 24),
        semi=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_errors_depend_on_values_only(self, rows, groups, semi, seed):
        n = 4 * groups
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((rows, n))
        raw = raw_hessian([rng.standard_normal((3 * n, n))], n)
        if semi:
            cfg = SparsityConfig.semi_structured(2, 4, blocksize=16)
            p = np.concatenate([4 * g + rng.permutation(4)
                                for g in rng.permutation(groups)])
        else:
            cfg = SparsityConfig(sparsity=0.6, blocksize=16)
            p = rng.permutation(n)
        order = Permutation(p)

        def errors(a, pruned):
            layer = checked_layer(a, raw)
            direct = prune_layer(bundle_from_hessian(layer), cfg)
            ordered = prune_layer(
                bundle_from_hessian(layer, order), cfg
            )
            return [
                direct.relative_error,
                direct.final_error,
                *direct.block_error_trajectory,
                ordered.relative_error,
                *ordered.block_error_trajectory,
                *reconstruction_error(layer, pruned),
            ]

        plain = bundle_from_hessian(checked_layer(w, raw))
        pruned = prune_layer(plain, cfg).pruned_weights
        want = errors(w, pruned)
        for layout in (np.asfortranarray, strided):
            assert errors(layout(w), layout(pruned)) == want
