import math
import tracemalloc

import numpy as np
import pytest

from obsprune import ConfigError, gen_activations, gen_columnar, gen_uniform


def test_columnar_reproducible():
    a = gen_columnar(8, 32, 8, 1, 10.0, seed=42)
    b = gen_columnar(8, 32, 8, 1, 10.0, seed=42)
    assert np.array_equal(a, b)


def test_columnar_differs_by_seed():
    a = gen_columnar(8, 32, 8, 1, 10.0, seed=1)
    b = gen_columnar(8, 32, 8, 1, 10.0, seed=2)
    assert not np.array_equal(a, b)


def test_columnar_hot_block_is_scaled_base():
    base = gen_uniform(8, 32, seed=7)
    hot = gen_columnar(8, 32, 8, 2, 10.0, seed=7)
    np.testing.assert_allclose(hot[:, 16:24], 10.0 * base[:, 16:24])
    np.testing.assert_array_equal(hot[:, :16], base[:, :16])
    np.testing.assert_array_equal(hot[:, 24:], base[:, 24:])


def test_columnar_rejects_bad_hot_index():
    with pytest.raises(ValueError):
        gen_columnar(4, 16, 4, 4, 10.0, seed=0)


def test_uniform_shape_and_moments():
    w = gen_uniform(200, 100, seed=3)
    assert w.shape == (200, 100)
    assert abs(w.mean()) < 0.02
    assert abs(w.std() - 1.0) < 0.02


def test_activations_zero_correlation_iid():
    x = gen_activations(5000, 8, 0.0, seed=11)
    c = np.corrcoef(x.T)
    off = c[~np.eye(8, dtype=bool)]
    assert np.max(np.abs(off)) < 0.08


def test_activations_correlation_matches_target():
    x = gen_activations(20000, 6, 0.6, seed=12)
    c = np.corrcoef(x.T)
    off = c[~np.eye(6, dtype=bool)]
    assert abs(off.mean() - 0.6) < 0.03


def test_activations_unit_variance():
    x = gen_activations(20000, 4, 0.4, seed=13)
    assert np.max(np.abs(x.var(axis=0) - 1.0)) < 0.05


def test_activations_rejects_bad_correlation():
    with pytest.raises(ValueError):
        gen_activations(10, 4, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_activations(10, 4, -0.1, seed=0)


@pytest.mark.parametrize("generate", [
    lambda: gen_columnar(0, 16, 4, 0, 10.0, seed=0),
    lambda: gen_columnar(4, 0, 4, 0, 10.0, seed=0),
    lambda: gen_uniform(-1, 16, seed=0),
    lambda: gen_uniform(4, 0, seed=0),
    lambda: gen_activations(0, 4, 0.0, seed=0),
    lambda: gen_activations(10, -2, 0.3, seed=0),
])
def test_rejects_empty_sizes(generate):
    with pytest.raises(ConfigError, match="must be >= 1"):
        generate()


@pytest.mark.parametrize("seed", [0, 7, 1000003])
@pytest.mark.parametrize("c", [0.0, 0.3, 0.9])
def test_activations_are_the_scaled_noise_plus_the_shared_factor(seed, c):
    rng = np.random.Generator(np.random.Philox(seed))
    base = rng.standard_normal((300, 40))
    # at c = 0, 1.0 * noise + 0.0 * shared is the noise, bit for bit
    want = base
    if c:
        want = math.sqrt(1.0 - c) * base + math.sqrt(c) * rng.standard_normal((300, 1))
    assert gen_activations(300, 40, c, seed).tobytes() == want.tobytes()


@pytest.mark.parametrize("c", [0.0, 0.3])
def test_activations_made_in_one_copy(c):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = gen_activations(2000, 300, c, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * x.nbytes
