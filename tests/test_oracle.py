import numpy as np
import pytest

from obsprune import (
    DimensionError,
    NumericOverflowError,
    OracleScaleError,
    SingularOracleError,
    SparsityConfig,
    exact_masked_reconstruction,
    naive_obs_prune,
    prune_layer,
)
from obsprune import oracle
from obsprune.cli import main

from hessian_helpers import accumulate_hessian


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
    cfg = SparsityConfig(sparsity=0.5, blocksize=3, damp_fraction=0.0)
    out = naive_obs_prune(w, [x], cfg)
    pruned = ~out.mask.kept
    expected = float(np.sum((w * w * scales**2)[pruned]))
    assert out.final_error == pytest.approx(expected, abs=1e-8)


def test_naive_agrees_with_engine():
    rng = np.random.default_rng(20)
    w = rng.standard_normal((8, 16))
    x = rng.standard_normal((48, 16))
    cfg = SparsityConfig(sparsity=0.5, blocksize=4)
    bundle = accumulate_hessian([x], cfg.damp_fraction, w)
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
    fast = prune_layer(accumulate_hessian([x], cfg.damp_fraction, w), cfg)
    slow = naive_obs_prune(w, [x], cfg)
    assert not slow.mask.kept[:, dead].any()
    np.testing.assert_array_equal(fast.mask.kept, slow.mask.kept)
    np.testing.assert_allclose(fast.pruned_weights, slow.pruned_weights,
                               rtol=0, atol=1e-12 * np.abs(w).max())
    np.testing.assert_allclose(fast.block_error_trajectory,
                               slow.block_error_trajectory, rtol=1e-9, atol=0)


def test_overflowing_damping_raises():
    # lambda = 1e308 * mean(diag H) overflows; a numpy warning would fail
    # the test under the suite's filterwarnings = error
    rng = np.random.default_rng(21)
    w = rng.standard_normal((4, 8))
    x = rng.standard_normal((16, 8))
    cfg = SparsityConfig(0.5, blocksize=4, damp_fraction=1e308)
    with pytest.raises(NumericOverflowError, match="damping lambda = inf"):
        naive_obs_prune(w, [x], cfg)


def test_size_cap():
    with pytest.raises(OracleScaleError):
        naive_obs_prune(
            np.zeros((2, 65)),
            [np.ones((4, 65))],
            SparsityConfig(sparsity=0.5, blocksize=16),
        )


def test_no_columns_rejected_before_hessian(monkeypatch):
    # the library's checked_layer rejects n = 0; the oracle must too, before
    # raw_hessian and damping, whose mean of an empty diagonal would warn
    built = []
    monkeypatch.setattr(oracle, "raw_hessian", lambda *a: built.append(a))
    with pytest.raises(DimensionError, match="at least one column"):
        naive_obs_prune(np.zeros((2, 0)), [np.zeros((3, 0))], SparsityConfig(0.5, 4))
    assert built == []


def test_verify_prints_each_failure_and_exits_1(monkeypatch, capsys):
    # a one-row update that compensates nothing fails all 20 comparisons
    # with the exact reconstruction, and nothing else
    monkeypatch.setattr(oracle, "obs_update_row", lambda row, q, inv: row)
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        *(f"FAIL single-column compensation, trial {t}" for t in range(20)),
        "verify: 20 failure(s)",
    ]
