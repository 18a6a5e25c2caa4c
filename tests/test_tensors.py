import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsprune import (
    ConfigError,
    DimensionError,
    Permutation,
    PruneMask,
    SemiStructured,
    SparsityConfig,
    apply_column_permutation,
)
from obsprune import checked_layer, loss_profile, magnitude_prune, wanda_prune
from obsprune import tensors
from obsprune.engine import select_block_mask
from obsprune.tensors import pruned_count, pruned_entries, smallest_per_row


def test_apply_permutation_direct():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    p = Permutation(np.array([2, 0, 1]))
    out = apply_column_permutation(m, p)
    np.testing.assert_array_equal(out, [[3.0, 1.0, 2.0], [6.0, 4.0, 5.0]])
    assert out.shape == m.shape


def test_permutation_equality_and_hash_are_by_identity():
    p, q = Permutation([1, 0, 2]), Permutation([1, 0, 2])
    assert p == p and hash(p) == hash(p)
    assert (p == q) is False
    assert len({p, q}) == 2


def test_apply_identity():
    m = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(apply_column_permutation(m, Permutation.identity(4)), m)


def test_apply_size_mismatch():
    with pytest.raises(DimensionError):
        apply_column_permutation(np.zeros((2, 3)), Permutation.identity(4))


def test_forward_not_bijection():
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 2]))


@pytest.mark.parametrize("forward", [[1.7, 0.2], [1.0, 0.0], [True, False],
                                     np.array([0, 0]), [0, 2], [-1, 0]],
                         ids=["float", "whole-float", "bool", "repeat", "gap",
                              "negative"])
def test_permutation_rejects_what_is_no_index_bijection(forward):
    with pytest.raises(ConfigError, match="integer indices|bijection"):
        Permutation(forward)


@pytest.mark.parametrize("make", [
    lambda: SparsityConfig(0.5, blocksize=16.0),
    lambda: SparsityConfig(0.5, blocksize=True),
    lambda: SemiStructured(2.5, 4),
    lambda: SemiStructured(2, 4.0),
    lambda: SemiStructured(True, 4),
    lambda: SparsityConfig.semi_structured(2, 4, blocksize=8.0),
], ids=["blocksize-float", "blocksize-bool", "n-float", "m-float", "n-bool",
        "nm-blocksize-float"])
def test_config_sizes_must_be_integers(make):
    with pytest.raises(ConfigError, match="integer"):
        make()


def test_config_sizes_take_numpy_integers():
    cfg = SparsityConfig.semi_structured(np.int64(2), np.int32(4), np.int64(8))
    assert cfg.blocksize == 8 and cfg.pattern == SemiStructured(2, 4)
    assert Permutation(np.array([1, 0], dtype=np.uint8)).forward.dtype == np.intp


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_permutation_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, n))
    p = Permutation(rng.permutation(n))
    back = apply_column_permutation(apply_column_permutation(m, p), Permutation(p.inverse))
    assert np.array_equal(back, m)
    assert np.array_equal(p.inverse[p.forward], np.arange(n))


@settings(deadline=None, max_examples=30)
@given(
    st.integers(1, 6),
    st.sampled_from([(1, 2), (2, 4), (4, 8), (3, 4)]),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_semi_structured_sparsity_exact(rows, nm, groups, seed):
    n, m = nm
    rng = np.random.default_rng(seed)
    kept = np.zeros((rows, groups * m), dtype=bool)
    for r in range(rows):
        for g in range(groups):
            idx = rng.choice(m, size=n, replace=False)
            kept[r, g * m + idx] = True
    mask = PruneMask(kept)
    assert np.count_nonzero(~mask.kept) / mask.kept.size == (m - n) / m


def test_pruned_count_rounding():
    assert pruned_count(0.5, 4, 4) == 8
    assert pruned_count(0.7, 1, 10) == 7
    # half rounds up
    assert pruned_count(0.5, 1, 3) == 2
    assert pruned_count(0.0, 10, 10) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        SparsityConfig(sparsity=1.0)
    with pytest.raises(ValueError):
        SparsityConfig(sparsity=0.5, blocksize=0)
    with pytest.raises(ValueError):
        SparsityConfig(sparsity=0.5, blocksize=6, pattern=SemiStructured(2, 4))
    with pytest.raises(ValueError):
        SparsityConfig(sparsity=0.4, blocksize=4, pattern=SemiStructured(2, 4))
    cfg = SparsityConfig.semi_structured(2, 4)
    assert cfg.blocksize == 128 and cfg.sparsity == 0.5
    cfg8 = SparsityConfig.semi_structured(4, 8)
    assert cfg8.blocksize == 128 and cfg8.sparsity == 0.5


@pytest.mark.parametrize("m, blocksize", [(3, 126), (128, 128), (200, 200)])
def test_semi_structured_default_blocksize(m, blocksize):
    # the largest multiple of m up to 128, or m itself past 128
    assert SparsityConfig.semi_structured(1, m).blocksize == blocksize


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -0.1, 0.5])
def test_config_rejects_bad_columnar_threshold(threshold):
    # the reorder gate's threshold is one setting of a run (prune_runs), so
    # no config takes one, bad or good
    with pytest.raises(TypeError, match="columnar_threshold"):
        SparsityConfig(sparsity=0.5, columnar_threshold=threshold)
    with pytest.raises(TypeError, match="columnar_threshold"):
        SparsityConfig.semi_structured(2, 4, columnar_threshold=threshold)


def test_default_pattern_is_unstructured():
    cfg = SparsityConfig(sparsity=0.3)
    assert cfg.pattern is None
    assert cfg.sparsity == 0.3


def test_config_rejects_unknown_pattern():
    with pytest.raises(ConfigError, match="pattern"):
        SparsityConfig(sparsity=0.5, pattern="2:4")


# ---------------------------------------------------------------------------
# The selection kernel against the sort-based rules it replaced


def reference_pruned(scores, config, per_row=False):
    """Pruned entries by lexsort / stable argsort, one rule at a time."""
    rows, width = scores.shape
    pruned = np.zeros((rows, width), dtype=bool)
    pat = config.pattern
    if isinstance(pat, SemiStructured):
        groups = scores.reshape(rows, width // pat.m, pat.m)
        drop = np.argsort(groups, axis=2, kind="stable")[:, :, : pat.m - pat.n]
        np.put_along_axis(
            pruned.reshape(rows, width // pat.m, pat.m), drop, True, axis=2
        )
    elif per_row:
        k = pruned_count(config.sparsity, 1, width)
        drop = np.argsort(scores, axis=1, kind="stable")[:, :k]
        np.put_along_axis(pruned, drop, True, axis=1)
    else:
        # smallest score first, ties to the lower column, then the lower row
        k = pruned_count(config.sparsity, rows, width)
        ridx, cidx = np.indices((rows, width))
        order = np.lexsort((ridx.ravel(), cidx.ravel(), scores.ravel()))
        pruned.ravel()[order[:k]] = True
    return pruned


def tie_heavy(draw, rows, width):
    """Small-integer scores, so most rows hold ties."""
    values = draw(st.lists(st.integers(0, 3), min_size=rows * width,
                           max_size=rows * width))
    return np.array(values, dtype=np.float64).reshape(rows, width)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_smallest_per_row_matches_stable_argsort(data):
    rows = data.draw(st.integers(1, 6))
    width = data.draw(st.integers(1, 12))
    v = tie_heavy(data.draw, rows, width)
    forced = data.draw(st.sets(st.integers(0, width - 1)))
    v[:, sorted(forced)] = -np.inf
    k = data.draw(st.integers(0, width))  # includes none and every entry
    expect = np.zeros((rows, width), dtype=bool)
    np.put_along_axis(expect, np.argsort(v, axis=1, kind="stable")[:, :k],
                      True, axis=1)
    np.testing.assert_array_equal(smallest_per_row(v, k), expect)


def test_smallest_per_row_breaks_only_overflowing_ties():
    # rows 0-2 hold more entries at or below the threshold than k: a
    # +0.0/-0.0 tie, four -inf for three places, four 1.0 for two; rows 3-4
    # fill k exactly, row 3 with -inf and a +0.0/-0.0 pair of its own
    k = 3
    v = np.array([
        [2.0, 0.0, -1.0, -0.0, 0.0, 5.0],
        [-np.inf, 3.0, -np.inf, -np.inf, -np.inf, 1.0],
        [1.0, 1.0, 1.0, 1.0, 0.5, 2.0],
        [-np.inf, 4.0, 0.0, -0.0, 9.0, 7.0],
        [3.0, 2.0, 1.0, 0.0, -1.0, -2.0],
    ])
    at_or_below = v <= np.sort(v, axis=1)[:, k - 1 : k]
    assert (at_or_below.sum(axis=1) > k).tolist() == [True] * 3 + [False] * 2
    expect = np.zeros(v.shape, dtype=bool)
    np.put_along_axis(expect, np.argsort(v, axis=1, kind="stable")[:, :k],
                      True, axis=1)
    np.testing.assert_array_equal(smallest_per_row(v, k), expect)
    np.testing.assert_array_equal(np.flatnonzero(expect[0]), [1, 2, 3])


CONFIGS = [
    SparsityConfig(sparsity=0.0, blocksize=8),
    SparsityConfig(sparsity=0.3, blocksize=8),
    SparsityConfig(sparsity=0.5, blocksize=8),
    SparsityConfig(sparsity=0.99, blocksize=8),
    SparsityConfig.semi_structured(2, 4),
    SparsityConfig.semi_structured(1, 4),
    SparsityConfig.semi_structured(1, 2),
    SparsityConfig.semi_structured(3, 4),
    SparsityConfig.semi_structured(2, 8),
]


@settings(deadline=None, max_examples=200)
@given(st.data(), st.sampled_from(CONFIGS))
def test_every_rule_matches_sort_reference(data, cfg):
    rows = data.draw(st.integers(1, 6))
    step = 4 if cfg.pattern is None else cfg.pattern.m
    width = step * data.draw(st.integers(1, 3))
    w = tie_heavy(data.draw, rows, width) * data.draw(st.sampled_from([1.0, -1.0]))
    mag = np.abs(w)

    # engine block rule: saliency w**2 / inv_diag, dead columns forced first
    forced = np.zeros(width, dtype=bool)
    forced[sorted(data.draw(st.sets(st.integers(0, width - 1))))] = True
    saliency = w * w
    saliency[:, forced] = -np.inf
    block = select_block_mask(w, np.ones(width), cfg, forced)
    assert block.dtype == bool
    np.testing.assert_array_equal(block, reference_pruned(saliency, cfg))

    # the layer-global magnitude rule and the per-row (Wanda) rule
    layer = checked_layer(w, np.eye(width))
    np.testing.assert_array_equal(
        ~magnitude_prune(layer, cfg).mask.kept, reference_pruned(mag, cfg)
    )
    np.testing.assert_array_equal(
        ~wanda_prune(layer, cfg).mask.kept,
        reference_pruned(mag, cfg, per_row=True),
    )

    # the loss profile's pre-pruning candidates, block by block
    expect = np.zeros(width)
    for i1, i2 in cfg.block_ranges(width):
        sub = mag[:, i1:i2]
        expect[i1:i2] = np.where(reference_pruned(sub, cfg), sub, 0.0).sum(axis=0)
    np.testing.assert_array_equal(loss_profile(mag, cfg).column_losses, expect)


def column_major_pruned(scores, k):
    """The k smallest scores by stable argsort, the block read column by column."""
    rows, width = scores.shape
    pruned = np.zeros(width * rows, dtype=bool)
    pruned[np.argsort(scores.T.ravel(), kind="stable")[:k]] = True
    return pruned.reshape(width, rows).T


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_block_selection_matches_stable_argsort_in_every_layout(data):
    # the threshold is taken in memory order, and the ties it leaves are
    # broken column by column, so C- and F-ordered blocks and a column
    # slice of a wider C matrix all give the reference's mask
    rows = data.draw(st.integers(1, 6))
    width = data.draw(st.integers(1, 12))
    if data.draw(st.booleans()):
        scores = tie_heavy(data.draw, rows, width)
    else:
        # no ties but at -inf
        scores = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))
                                       ).permutation(rows * width).reshape(rows, width)
        scores = scores.astype(np.float64)
    forced = data.draw(st.sets(st.integers(0, rows * width - 1)))
    scores.ravel()[sorted(forced)] = -np.inf
    cfg = SparsityConfig(data.draw(st.floats(0.0, 0.99)), blocksize=width)
    k = pruned_count(cfg.sparsity, rows, width)
    expect = column_major_pruned(scores, k)
    wide = np.zeros((rows, width + 5))
    wide[:, 2 : 2 + width] = scores
    for block in (np.ascontiguousarray(scores), np.asfortranarray(scores),
                  wide[:, 2 : 2 + width]):
        got = pruned_entries(block, cfg)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, expect)


def test_block_selection_breaks_ties_only_when_they_overflow(monkeypatch):
    calls = []

    def counted(v, k):
        calls.append(k)
        return smallest_per_row(v, k)

    monkeypatch.setattr(tensors, "smallest_per_row", counted)
    cfg = SparsityConfig(0.5, blocksize=4)  # k = 4 of 8
    # four entries at the threshold 1.0 fill k exactly
    exact = np.array([[1.0, 1.0, 3.0, 4.0], [1.0, 1.0, 5.0, 6.0]])
    np.testing.assert_array_equal(pruned_entries(exact, cfg),
                                  column_major_pruned(exact, 4))
    assert calls == []
    # five entries at 1.0 for four places: the four in columns 0 and 1 go
    # before the one in column 2
    over = np.array([[1.0, 1.0, 1.0, 4.0], [1.0, 1.0, 5.0, 6.0]])
    got = pruned_entries(np.asfortranarray(over), cfg)
    np.testing.assert_array_equal(got, column_major_pruned(over, 4))
    np.testing.assert_array_equal(got, [[True, True, False, False],
                                        [True, True, False, False]])
    assert calls == [4]
