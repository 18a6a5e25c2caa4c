"""Deterministic generators for synthetic weights and calibration data.

All generators draw from numpy's Philox4x64-10 counter-based generator, so
a given seed reproduces the same matrix bit for bit on any platform.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _check_sizes(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise ConfigError(f"{name} must be >= 1, got {size}")
    if math.prod(sizes.values()) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"float64 shape {tuple(sizes.values())} is too big for numpy")


def gen_columnar(
    rows: int,
    cols: int,
    blocksize: int,
    hot_block_index: int,
    hot_gain: float,
    seed: int,
) -> np.ndarray:
    """Standard-normal matrix with one column block scaled by ``hot_gain``."""
    _check_sizes(rows=rows, cols=cols)
    n_blocks = math.ceil(cols / blocksize)
    if not 0 <= hot_block_index < n_blocks:
        raise ConfigError(
            f"hot_block_index {hot_block_index} out of range [0, {n_blocks})"
        )
    w = _rng(seed).standard_normal((rows, cols))
    i1 = hot_block_index * blocksize
    with np.errstate(over="ignore"):  # an overflow gives inf; callers check
        w[:, i1 : i1 + blocksize] *= hot_gain
    return w


def gen_uniform(rows: int, cols: int, seed: int) -> np.ndarray:
    """Standard-normal matrix with no block structure."""
    _check_sizes(rows=rows, cols=cols)
    return _rng(seed).standard_normal((rows, cols))


def gen_activations(
    samples: int, cols: int, correlation: float, seed: int
) -> np.ndarray:
    """Rows drawn from N(0, (1-c) I + c J) for equicorrelated columns.

    Realized as sqrt(1-c) * iid noise plus a shared sqrt(c) * common factor
    per row, which has exactly that covariance.  The noise is scaled and the
    factor added in place, so the output is the one samples x cols array
    made.
    """
    _check_sizes(samples=samples, cols=cols)
    if not 0.0 <= correlation < 1.0:
        raise ConfigError(f"correlation must be in [0, 1), got {correlation}")
    rng = _rng(seed)
    base = rng.standard_normal((samples, cols))
    shared = rng.standard_normal((samples, 1))
    base *= math.sqrt(1.0 - correlation)
    base += math.sqrt(correlation) * shared
    return base
