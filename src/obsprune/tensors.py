"""Dense matrices, column permutations, pruning masks and sparsity configs.

Matrices are plain 2-D float64 numpy arrays in row-major order; every
operation in the library treats them as immutable and returns fresh arrays.
Permutations act on columns (input channels) only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericOverflowError


def as_matrix(a, what: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, widening f32 input; ``what`` names it."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{what} must be 2-D, got ndim={m.ndim}")
    return m


def finite_matrix(a, what: str = "weights") -> np.ndarray:
    """``as_matrix(a, what)``, once it has a row, a column and no NaN or infinity.

    Else DimensionError for the shape, NumericOverflowError for an entry.
    """
    m = as_matrix(a, what)
    if 0 in m.shape:
        raise DimensionError(f"{what} must have a row and a column, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericOverflowError(f"{what} not finite")
    return m


def _integer(x) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_nonnegative(x, what: str):
    """Raise ConfigError, naming ``what``, unless ``x`` is finite and >= 0."""
    if not 0.0 <= x < np.inf:
        raise ConfigError(f"{what} must be finite and >= 0, got {x}")


# ---------------------------------------------------------------------------
# Sparsity patterns


@dataclass(frozen=True)
class SemiStructured:
    """Keep exactly ``n`` entries in every contiguous row group of ``m``."""

    n: int
    m: int

    def __post_init__(self):
        if not (_integer(self.n) and _integer(self.m)):
            raise ConfigError(f"n and m must be integers, got {self.n!r}:{self.m!r}")
        if not (0 < self.n < self.m):
            raise ConfigError(f"need 0 < n < m, got {self.n}:{self.m}")

    @property
    def sparsity(self) -> float:
        return (self.m - self.n) / self.m


#: columns per block when a config names none
BLOCKSIZE = 128


@dataclass(frozen=True)
class SparsityConfig:
    """Pruning configuration shared by all methods.

    ``blocksize`` is the number of consecutive input channels masked and
    compensated together.  ``pattern`` None prunes unstructured.
    """

    sparsity: float
    blocksize: int = BLOCKSIZE
    pattern: SemiStructured | None = None

    def __post_init__(self):
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigError(f"sparsity must be in [0, 1), got {self.sparsity}")
        if not (_integer(self.blocksize) and self.blocksize >= 1):
            raise ConfigError(f"blocksize must be an integer >= 1: {self.blocksize!r}")
        p = self.pattern
        if p is not None:
            if not isinstance(p, SemiStructured):
                raise ConfigError(f"pattern must be SemiStructured or None, got {p!r}")
            if self.blocksize % p.m != 0:
                raise ConfigError(
                    f"blocksize {self.blocksize} is not a multiple of m={p.m}"
                )
            if abs(self.sparsity - p.sparsity) > 1e-12:
                raise ConfigError(
                    f"sparsity {self.sparsity} inconsistent with {p.n}:{p.m} pattern"
                )

    @classmethod
    def semi_structured(cls, n: int, m: int, blocksize: int | None = None):
        """Config for an n:m pattern.

        ``blocksize`` defaults to the largest multiple of m up to BLOCKSIZE,
        or m when m is larger.  Masks are chosen per group of m either way;
        the blocksize sets how many columns share one lazy update.
        """
        pat = SemiStructured(n, m)
        if blocksize is None:
            blocksize = max(m, BLOCKSIZE // m * m)
        return cls(pat.sparsity, blocksize, pat)

    @property
    def group_width(self) -> int:
        """Columns one mask choice covers: the block, or a group of m."""
        return self.blocksize if self.pattern is None else self.pattern.m

    def block_ranges(self, n: int) -> list[tuple[int, int]]:
        """(start, stop) column ranges of each block of width blocksize.

        Raises ConfigError when an n:m pattern's groups do not tile n columns.
        """
        p = self.pattern
        if isinstance(p, SemiStructured) and n % p.m != 0:
            raise ConfigError(f"{n} columns do not split into groups of m={p.m}")
        return [
            (start, min(start + self.blocksize, n))
            for start in range(0, n, self.blocksize)
        ]


# ---------------------------------------------------------------------------
# Permutations


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection on column indices with its precomputed inverse.

    ``forward[j]`` is the source column placed at destination ``j`` when the
    permutation is applied to a matrix.  Equality and hash are by identity.
    """

    forward: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        fwd = np.asarray(self.forward)
        if fwd.dtype.kind not in "iu":
            raise ConfigError(f"forward must hold integer indices, got {fwd.dtype}")
        fwd = fwd.astype(np.intp, copy=False)
        object.__setattr__(self, "forward", fwd)
        n = fwd.size
        if not np.array_equal(np.sort(fwd), np.arange(n)):
            raise ConfigError("forward is not a bijection on [0, size)")
        inv = np.empty(n, dtype=np.intp)
        inv[fwd] = np.arange(n)
        object.__setattr__(self, "inverse", inv)

    @property
    def size(self) -> int:
        return self.forward.size

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(np.arange(size))


def apply_column_permutation(m: np.ndarray, p: Permutation) -> np.ndarray:
    """Return a copy of ``m`` with columns reordered by ``p``."""
    m = np.asarray(m)
    if p.size != m.shape[1]:
        raise DimensionError(
            f"permutation size {p.size} != matrix cols {m.shape[1]}"
        )
    return m[:, p.forward].copy()


# ---------------------------------------------------------------------------
# Pruning masks


@dataclass(frozen=True, eq=False)
class PruneMask:
    """Boolean keep/prune matrix, True where kept; equality is by identity."""

    kept: np.ndarray


def pruned_count(sparsity: float, rows: int, block_width: int) -> int:
    """Entries to prune in one block: floor(p * rows * width + 0.5).

    Ties at .5 round up; the fixed rule keeps masks deterministic.
    """
    return int(np.floor(sparsity * rows * block_width + 0.5))


def smallest_per_row(v: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries in each row of ``v``.

    Ties at the threshold go to the lower index, broken only in the rows
    whose ties overflow k.  ``v`` must hold no NaN; -inf entries are the
    first chosen.
    """
    if k <= 0:
        return np.zeros(v.shape, dtype=bool)
    threshold = np.partition(v, k - 1, axis=1)[:, k - 1 : k]
    pruned = v <= threshold
    over = np.count_nonzero(pruned, axis=1) > k
    if over.any():
        v, threshold = v[over], threshold[over]
        below, at = v < threshold, v == threshold
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        pruned[over] = below | (at & (np.cumsum(at, axis=1) <= room))
    return pruned


def pruned_entries(scores: np.ndarray, config: SparsityConfig) -> np.ndarray:
    """Boolean mask of the entries one block of scores loses under ``config``.

    No pattern: the pruned_count smallest of the whole block, ties to the
    lower column, then the lower row (the block read column by column).
    The threshold, the k-th smallest score, is taken in the block's memory
    order, which it does not depend on; the mask has the layout of
    ``scores <= threshold``.  Only when ties at the threshold overflow k
    is the block read column by column, transposed, to break them.
    n:m: the m - n smallest of every group of m consecutive columns in a
    row, ties to the lower column, in a block that ``block_ranges`` tiled.
    """
    rows, width = scores.shape
    pat = config.pattern
    if isinstance(pat, SemiStructured):
        groups = scores.reshape(rows * width // pat.m, pat.m)
        return smallest_per_row(groups, pat.m - pat.n).reshape(rows, width)
    k = pruned_count(config.sparsity, rows, width)
    if k <= 0:
        return np.zeros(scores.shape, dtype=bool)
    flat = scores.flatten(order="K")
    flat.partition(k - 1)
    pruned = scores <= flat[k - 1]
    if np.count_nonzero(pruned) > k:
        by_column = smallest_per_row(scores.T.reshape(1, -1), k)
        pruned[...] = by_column.reshape(width, rows).T
    return pruned
