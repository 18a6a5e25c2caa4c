import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsprune import (
    ConfigError,
    SparsityConfig,
    checked_layer,
    column_norms,
    magnitude_prune,
    reconstruction_error,
    wanda_prune,
)
from obsprune import tensors


def test_magnitude_zero_sparsity():
    w = np.random.default_rng(0).standard_normal((3, 8))
    cfg = SparsityConfig(sparsity=0.0, blocksize=4)
    out = magnitude_prune(checked_layer(w, [np.eye(8)]), cfg)
    np.testing.assert_array_equal(out.pruned_weights, w)


def test_magnitude_smallest_two():
    w = np.array([[1.0, -4.0, 2.0, 3.0]])
    cfg = SparsityConfig(sparsity=0.5, blocksize=4)
    out = magnitude_prune(checked_layer(w, [np.eye(4)]), cfg)
    np.testing.assert_array_equal(out.mask.kept, [[False, True, False, True]])


def test_magnitude_error_matches_direct_evaluation():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((6, 16))
    x = rng.standard_normal((40, 16))
    cfg = SparsityConfig(sparsity=0.5, blocksize=8)
    layer = checked_layer(w, [x])
    out = magnitude_prune(layer, cfg)
    diff = (w - out.pruned_weights) @ x.T
    assert out.final_error == pytest.approx(float(np.sum(diff * diff)))
    absolute, relative = reconstruction_error(layer, out.pruned_weights)
    assert out.final_error == pytest.approx(absolute)
    assert out.relative_error == pytest.approx(relative)


@pytest.mark.parametrize("prune", [magnitude_prune, wanda_prune])
@pytest.mark.parametrize("config", [
    SparsityConfig(sparsity=0.6, blocksize=8),
    SparsityConfig.semi_structured(2, 4, blocksize=8),
], ids=["unstructured", "2:4"])
def test_trajectory_is_error_at_each_block_end(prune, config):
    """Entry k is ||D[:, :e] X[:, :e].T||^2 at the end e of block k."""
    rng = np.random.default_rng(7)
    w = rng.standard_normal((6, 36))
    x = rng.standard_normal((50, 36)) * rng.uniform(0.1, 10, 36)
    out = prune(checked_layer(w, [x]), config)
    d = w - out.pruned_weights
    ends = [i2 for _, i2 in config.block_ranges(36)]
    assert ends[-1] - ends[-2] == 4  # a partial last block
    want = [np.sum(np.square(d[:, :e] @ x[:, :e].T)) for e in ends]
    np.testing.assert_allclose(out.block_error_trajectory, want, rtol=1e-10)


def test_wanda_zero_sparsity():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((3, 8))
    x = np.diag(rng.uniform(0.5, 2, 8))
    out = wanda_prune(checked_layer(w, [x]), SparsityConfig(sparsity=0.0, blocksize=4))
    np.testing.assert_array_equal(out.pruned_weights, w)


def test_wanda_equal_norms_is_per_row_magnitude():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 8))
    x = np.diag(np.full(8, 2.5))
    out = wanda_prune(checked_layer(w, [x]), SparsityConfig(sparsity=0.5, blocksize=8))
    for r in range(4):
        drop = set(np.argsort(np.abs(w[r]), kind="stable")[:4])
        assert set(np.flatnonzero(~out.mask.kept[r])) == drop


def test_wanda_matches_per_row_sort_oracle():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((8, 8))
    x = rng.standard_normal((32, 8))
    out = wanda_prune(checked_layer(w, [x]), SparsityConfig(sparsity=0.5, blocksize=8))
    scores = np.abs(w) * column_norms([x], 8)
    for r in range(8):
        drop = set(np.argsort(scores[r], kind="stable")[:4])
        assert set(np.flatnonzero(~out.mask.kept[r])) == drop


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**32 - 1))
def test_wanda_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((3, 8))
    base = rng.uniform(0.1, 2.0, 8)
    cfg = SparsityConfig(sparsity=0.5, blocksize=8)
    m1 = wanda_prune(checked_layer(w, [np.diag(base)]), cfg).mask.kept
    m2 = wanda_prune(checked_layer(w, [np.diag(scale * base)]), cfg).mask.kept
    assert np.array_equal(m1, m2)


@pytest.mark.parametrize("pattern", [(2, 4), (4, 8)])
def test_baselines_semi_structured(pattern):
    n_keep, m = pattern
    rng = np.random.default_rng(5)
    w = rng.standard_normal((5, 32))
    x = rng.standard_normal((64, 32))
    cfg = SparsityConfig.semi_structured(n_keep, m)
    layer = checked_layer(w, [x])
    for out in (magnitude_prune(layer, cfg), wanda_prune(layer, cfg)):
        groups = out.mask.kept.reshape(5, 32 // m, m)
        assert np.all(groups.sum(axis=2) == n_keep)


@pytest.mark.parametrize("prune", [magnitude_prune, wanda_prune])
def test_untiled_semi_structured_rejected_before_selection(monkeypatch, prune):
    """6 columns under 2:4 fail in block_ranges, as in prune_layer, before selection."""

    def selected(*args, **kwargs):
        raise AssertionError("selection ran on an untiled n:m layer")

    monkeypatch.setattr(tensors, "smallest_per_row", selected)
    layer = checked_layer(np.ones((2, 6)), [np.eye(6)])
    with pytest.raises(ConfigError, match="6 columns do not split into groups of m=4"):
        prune(layer, SparsityConfig.semi_structured(2, 4))


def test_mask_respect_and_sparsity_invariants():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((10, 24))
    x = rng.standard_normal((50, 24))
    cfg = SparsityConfig(sparsity=0.5, blocksize=8)
    layer = checked_layer(w, [x])
    for out in (magnitude_prune(layer, cfg), wanda_prune(layer, cfg)):
        assert np.all(out.pruned_weights[~out.mask.kept] == 0.0)
        pruned = np.count_nonzero(~out.mask.kept) / out.mask.kept.size
        assert pruned == pytest.approx(0.5, abs=1 / 24)
        assert np.all(np.diff(out.block_error_trajectory) >= 0)
        assert out.block_error_trajectory[-1] == out.final_error
