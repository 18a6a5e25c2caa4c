import numpy as np
import pytest

from obsprune import (
    DimensionError,
    IndefiniteHessianError,
    NumericOverflowError,
    OracleScaleError,
    Permutation,
    SingularOracleError,
    SparsityConfig,
    exact_masked_reconstruction,
    naive_obs_prune,
    prune_layer,
    raw_hessian,
)
from obsprune import oracle
from obsprune.cli import main

from hessian_helpers import accumulate_hessian, factor


def test_nothing_pruned_returns_row():
    row = np.array([1.0, -2.0, 0.5])
    h = np.eye(3)
    np.testing.assert_array_equal(
        exact_masked_reconstruction(row, np.ones(3, dtype=bool), h), row
    )


def test_all_pruned_returns_zero():
    row = np.array([1.0, -2.0])
    out = exact_masked_reconstruction(row, np.zeros(2, dtype=bool), np.eye(2))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_singular_kept_submatrix():
    h = np.array([[1.0, 1.0], [1.0, 1.0]])
    kept = np.array([True, True])
    with pytest.raises(SingularOracleError):
        exact_masked_reconstruction(np.ones(2), kept, h)


@pytest.mark.parametrize("kept, h", [
    (np.ones(2, dtype=bool), np.eye(3)),
    (np.ones(3, dtype=bool), np.eye(2)),
    (np.ones(3, dtype=bool), np.ones((3, 2))),
], ids=["mask", "hessian", "non-square"])
def test_reconstruction_sizes_must_agree(kept, h):
    with pytest.raises(DimensionError, match="row, mask and Hessian sizes disagree"):
        exact_masked_reconstruction(np.ones(3), kept, h)


def test_optimality_against_perturbations():
    rng = np.random.default_rng(17)
    n = 8
    x = rng.standard_normal((3 * n, n))
    h = x.T @ x
    w = rng.standard_normal(n)
    kept = rng.random(n) > 0.4
    kept[0] = True  # keep at least one
    best = exact_masked_reconstruction(w, kept, h)

    def layer_err(row):
        d = (w - row) @ x.T
        return np.sum(d * d)

    base = layer_err(best)
    for _ in range(100):
        trial = best.copy()
        trial[kept] += 0.05 * rng.standard_normal(kept.sum())
        assert layer_err(trial) >= base - 1e-9


def test_naive_zero_sparsity_identity():
    rng = np.random.default_rng(18)
    w = rng.standard_normal((4, 12))
    x = rng.standard_normal((30, 12))
    cfg = SparsityConfig(sparsity=0.0, blocksize=4)
    out = naive_obs_prune(w, [x], cfg)
    np.testing.assert_array_equal(out.pruned_weights, w)
    assert out.final_error <= 1e-18


def test_naive_diagonal_hessian_closed_form():
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((12, 6)))
    scales = np.array([1.0, 2.0, 0.5, 1.5, 3.0, 0.8])
    x = q * scales
    w = rng.standard_normal((4, 6))
    cfg = SparsityConfig(sparsity=0.5, blocksize=3)
    out = naive_obs_prune(w, [x], cfg, damp_fraction=0.0)
    pruned = ~out.mask.kept
    expected = float(np.sum((w * w * scales**2)[pruned]))
    assert out.final_error == pytest.approx(expected, abs=1e-8)


def test_naive_agrees_with_engine():
    rng = np.random.default_rng(20)
    w = rng.standard_normal((8, 16))
    x = rng.standard_normal((48, 16))
    cfg = SparsityConfig(sparsity=0.5, blocksize=4)
    bundle = accumulate_hessian([x], w=w)
    fast = prune_layer(bundle, cfg)
    slow = naive_obs_prune(w, [x], cfg)
    assert np.array_equal(fast.mask.kept, slow.mask.kept)
    rel = abs(fast.final_error - slow.final_error) / slow.final_error
    assert rel < 1e-6


@pytest.mark.parametrize("cfg", [SparsityConfig(0.5, blocksize=8),
                                 SparsityConfig.semi_structured(2, 4, 8)])
def test_naive_agrees_with_engine_on_dead_channels(cfg):
    # the dead channels hold the largest weights, so only forcing their
    # saliency to -inf prunes them; the oracle forces them from its own H
    rng = np.random.default_rng(22)
    w = rng.standard_normal((8, 32))
    x = rng.standard_normal((96, 32))
    dead = [3, 9, 17, 30]
    x[:, dead] = 0.0
    w[:, dead] *= 100.0
    fast = prune_layer(accumulate_hessian([x], w=w), cfg)
    slow = naive_obs_prune(w, [x], cfg)
    assert not slow.mask.kept[:, dead].any()
    np.testing.assert_array_equal(fast.mask.kept, slow.mask.kept)
    np.testing.assert_allclose(fast.pruned_weights, slow.pruned_weights,
                               rtol=0, atol=1e-12 * np.abs(w).max())
    np.testing.assert_allclose(fast.block_error_trajectory,
                               slow.block_error_trajectory, rtol=1e-9, atol=0)


@pytest.mark.parametrize("case", ["p0.7", "2:4", "dead"])
def test_naive_agrees_with_engine_at_128x512(case):
    rng = np.random.default_rng(23)
    w = rng.standard_normal((128, 512))
    x = rng.standard_normal((1024, 512))
    if case == "dead":
        dead = rng.choice(512, size=3, replace=False)
        x[:, dead] = 0.0
        w[:, dead] *= 100.0
    cfg = (SparsityConfig.semi_structured(2, 4, 128) if case == "2:4"
           else SparsityConfig(0.7, blocksize=128))
    fast = prune_layer(accumulate_hessian([x], w=w), cfg)
    slow = naive_obs_prune(w, [x], cfg)
    np.testing.assert_array_equal(fast.mask.kept, slow.mask.kept)
    np.testing.assert_allclose(fast.pruned_weights, slow.pruned_weights,
                               rtol=0, atol=1e-12 * np.abs(w).max())
    np.testing.assert_allclose(fast.block_error_trajectory,
                               slow.block_error_trajectory, rtol=1e-9, atol=0)


def bench_scale_layer():
    """W (256 x 1024), 2048 activations of its width, and the generator after them."""
    rng = np.random.default_rng(0)
    return rng, rng.standard_normal((256, 1024)), rng.standard_normal((2048, 1024))


@pytest.mark.parametrize("case", ["2:4", "p0.7"])
def test_naive_agrees_with_engine_at_bench_scale(case):
    """The oracle agrees with prune_layer at 256x1024, with the tolerances above.

    The dense energy and the relative error agree to rtol 1e-9; the oracle
    measures both on the stacked activations, not in H.
    """
    _, w, x = bench_scale_layer()
    cfg = (SparsityConfig.semi_structured(2, 4, 128) if case == "2:4"
           else SparsityConfig(0.7, blocksize=128))
    fast = prune_layer(accumulate_hessian([x], w=w), cfg)
    slow = naive_obs_prune(w, [x], cfg)
    np.testing.assert_array_equal(fast.mask.kept, slow.mask.kept)
    np.testing.assert_allclose(fast.pruned_weights, slow.pruned_weights,
                               rtol=0, atol=1e-12 * np.abs(w).max())
    np.testing.assert_allclose(fast.block_error_trajectory,
                               slow.block_error_trajectory, rtol=1e-9, atol=0)
    for name in ("dense_energy", "relative_error"):
        np.testing.assert_allclose(getattr(fast, name), getattr(slow, name),
                                   rtol=1e-9, atol=0, err_msg=name)


def test_block_permuted_sweep_at_bench_scale():
    """Pruning in a block-permuted order p is, bit for bit, pruning w[:, p].

    That is, with H[p][:, p] in channel order, mapped back: the sweep's rows
    move into channel order in place.  Integer activations make H, and so
    the damping, exact in either order.
    """
    rng, w, _ = bench_scale_layer()
    h = raw_hessian([rng.integers(-3, 4, (2048, 1024)).astype(float)], 1024)
    h = np.triu(h) + np.triu(h, 1).T
    p = (128 * rng.permutation(8)[:, None] + np.arange(128)).ravel()
    cfg = SparsityConfig(0.7, blocksize=128)
    out = prune_layer(factor(h, 0.01, Permutation(p), w), cfg)
    ref = prune_layer(factor(h[p][:, p], 0.01, w=w[:, p]), cfg)
    assert out.pruned_weights.flags.f_contiguous and out.mask.kept.flags.f_contiguous
    assert out.pruned_weights[:, p].tobytes() == ref.pruned_weights.tobytes()
    assert np.array_equal(out.mask.kept[:, p], ref.mask.kept)
    assert out.block_error_trajectory.tobytes() == ref.block_error_trajectory.tobytes()


def test_downdate_is_the_trailing_inverse_at_every_step():
    rng = np.random.default_rng(24)
    for n in (1, 7, 32):
        x = rng.standard_normal((2 * n, n))
        h = x.T @ x
        inv = np.linalg.inv(h)
        for q in range(n):
            want = np.linalg.inv(h[q:, q:])
            np.testing.assert_allclose(inv, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())
            inv = oracle._drop_first(inv, q)
        assert inv.shape == (0, 0)


def test_batches_are_read_once():
    rng = np.random.default_rng(25)
    w = rng.standard_normal((4, 16))
    x = rng.standard_normal((64, 16))
    cfg = SparsityConfig(0.5, blocksize=8)
    listed = naive_obs_prune(w, [x[:32], x[32:]], cfg)
    once = naive_obs_prune(w, iter([x[:32], x[32:]]), cfg)
    np.testing.assert_array_equal(once.pruned_weights, listed.pruned_weights)
    np.testing.assert_array_equal(once.mask.kept, listed.mask.kept)
    np.testing.assert_array_equal(once.block_error_trajectory,
                                  listed.block_error_trajectory)
    assert once.dense_energy == listed.dense_energy


def test_singular_hessian_raises():
    # undamped, a channel no sample reaches makes H exactly singular
    rng = np.random.default_rng(26)
    x = rng.standard_normal((32, 16))
    x[:, 5] = 0.0
    with pytest.raises(IndefiniteHessianError, match="singular"):
        naive_obs_prune(rng.standard_normal((4, 16)), [x],
                        SparsityConfig(0.5, blocksize=8), damp_fraction=0.0)


def test_rank_deficient_hessian_raises():
    # 8 samples for 16 channels: H inverts without error, but the sweep
    # meets a non-positive pivot, as rose_prune_layer's factor does
    for seed in range(5):
        rng = np.random.default_rng(seed)
        with pytest.raises(IndefiniteHessianError, match="not positive definite"):
            naive_obs_prune(rng.standard_normal((4, 16)),
                            [rng.standard_normal((8, 16))],
                            SparsityConfig(0.5, blocksize=8), damp_fraction=0.0)


def test_overflowing_damping_raises():
    # lambda = 1e308 * mean(diag H) overflows; a numpy warning would fail
    # the test under the suite's filterwarnings = error
    rng = np.random.default_rng(21)
    w = rng.standard_normal((4, 8))
    x = rng.standard_normal((16, 8))
    cfg = SparsityConfig(0.5, blocksize=4)
    with pytest.raises(NumericOverflowError, match="damping lambda = inf"):
        naive_obs_prune(w, [x], cfg, damp_fraction=1e308)


def test_size_cap():
    with pytest.raises(OracleScaleError):
        naive_obs_prune(
            np.zeros((2, 1025)),
            [np.ones((4, 1025))],
            SparsityConfig(sparsity=0.5, blocksize=16),
        )


def test_no_columns_rejected_before_hessian(monkeypatch):
    # the library's finite_matrix rejects n = 0; the oracle must too, before
    # raw_hessian and damping, whose mean of an empty diagonal would warn
    built = []
    monkeypatch.setattr(oracle, "raw_hessian", lambda *a: built.append(a))
    with pytest.raises(DimensionError, match="must have a row and a column"):
        naive_obs_prune(np.zeros((2, 0)), [np.zeros((3, 0))], SparsityConfig(0.5, 4))
    assert built == []


@pytest.mark.parametrize("w,error,match", [
    pytest.param(np.where(np.arange(64).reshape(4, 16) == 37, np.nan, 1.0),
                 NumericOverflowError, "not finite", id="nan"),
    pytest.param(np.zeros((0, 16)), DimensionError, "must have a row and a column",
                 id="no-rows"),
])
def test_bad_weights_rejected_before_hessian(monkeypatch, w, error, match):
    """The oracle checks W as every entry point does, not into a nan or 0.0 error."""
    built = []
    monkeypatch.setattr(oracle, "raw_hessian", lambda *a: built.append(a))
    with pytest.raises(error, match=match):
        naive_obs_prune(w, [np.ones((8, 16))], SparsityConfig(0.5, 4))
    assert built == []


def test_verify_prints_each_failure_and_exits_1(monkeypatch, capsys):
    # a downdate that drops the column without its rank-one correction
    # fails all 15 engine comparisons on masks and on error, and nothing else
    monkeypatch.setattr(oracle, "_drop_first", lambda inv, col: inv[1:, 1:])
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        *(f"FAIL {what} equivalence, trial {t}"
          for t in range(15) for what in ("mask", "error")),
        "verify: 30 failure(s)",
    ]
