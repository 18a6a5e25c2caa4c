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


def gen_columnar(
    rows: int,
    cols: int,
    blocksize: int,
    hot_block_index: int,
    hot_gain: float,
    seed: int,
    ramp: float = 0.0,
) -> np.ndarray:
    """Standard-normal matrix with one column block scaled by ``hot_gain``.

    ``ramp`` adds a smooth per-block gain increase (block k scaled by
    1 + ramp * k) for multi-tier structure on top of the single hot block.
    """
    n_blocks = math.ceil(cols / blocksize)
    if not 0 <= hot_block_index < n_blocks:
        raise ConfigError(
            f"hot_block_index {hot_block_index} out of range [0, {n_blocks})"
        )
    w = _rng(seed).standard_normal((rows, cols))
    for k in range(n_blocks):
        i1, i2 = k * blocksize, min((k + 1) * blocksize, cols)
        gain = 1.0 + ramp * k
        if k == hot_block_index:
            gain *= hot_gain
        if gain != 1.0:
            w[:, i1:i2] *= gain
    return w


def gen_uniform(rows: int, cols: int, seed: int) -> np.ndarray:
    """Standard-normal matrix with no block structure."""
    return _rng(seed).standard_normal((rows, cols))


def gen_activations(
    samples: int, cols: int, correlation: float, seed: int
) -> np.ndarray:
    """Rows drawn from N(0, (1-c) I + c J) for equicorrelated columns.

    Realized as sqrt(1-c) * iid noise plus a shared sqrt(c) * common factor
    per row, which has exactly that covariance.
    """
    if not 0.0 <= correlation < 1.0:
        raise ConfigError(f"correlation must be in [0, 1), got {correlation}")
    rng = _rng(seed)
    base = rng.standard_normal((samples, cols))
    if correlation == 0.0:
        return base
    shared = rng.standard_normal((samples, 1))
    return math.sqrt(1.0 - correlation) * base + math.sqrt(correlation) * shared
