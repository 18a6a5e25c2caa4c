import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsprune import (
    DimensionError,
    Permutation,
    PruneMask,
    SemiStructured,
    SparsityConfig,
    Unstructured,
    apply_column_permutation,
    compose_permutations,
    mask_sparsity,
)
from obsprune import loss_profile, magnitude_prune, select_block_mask, wanda_prune
from obsprune.tensors import pruned_count, smallest_per_row


def test_apply_permutation_direct():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    p = Permutation(np.array([2, 0, 1]))
    out = apply_column_permutation(m, p)
    np.testing.assert_array_equal(out, [[3.0, 1.0, 2.0], [6.0, 4.0, 5.0]])
    assert out.shape == m.shape


def test_apply_identity():
    m = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(apply_column_permutation(m, Permutation.identity(4)), m)


def test_apply_size_mismatch():
    with pytest.raises(DimensionError):
        apply_column_permutation(np.zeros((2, 3)), Permutation.identity(4))


def test_forward_not_bijection():
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 2]))


def test_compose_identity_and_inverse_laws():
    p = Permutation(np.array([1, 3, 0, 2]))
    ident = Permutation.identity(4)
    np.testing.assert_array_equal(compose_permutations(ident, p).forward, p.forward)
    np.testing.assert_array_equal(compose_permutations(p, ident).forward, p.forward)
    np.testing.assert_array_equal(
        compose_permutations(p, p.inverted()).forward, ident.forward
    )


def test_compose_involution():
    swap = Permutation(np.array([1, 0]))
    assert compose_permutations(swap, swap).is_identity()


def test_compose_size_mismatch():
    with pytest.raises(DimensionError):
        compose_permutations(Permutation.identity(2), Permutation.identity(3))


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_permutation_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, n))
    p = Permutation(rng.permutation(n))
    back = apply_column_permutation(apply_column_permutation(m, p), p.inverted())
    assert np.array_equal(back, m)
    assert np.array_equal(p.inverse[p.forward], np.arange(n))


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_composition_associativity(n, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (Permutation(rng.permutation(n)) for _ in range(3))
    left = compose_permutations(compose_permutations(a, b), c)
    right = compose_permutations(a, compose_permutations(b, c))
    np.testing.assert_array_equal(left.forward, right.forward)


def test_mask_sparsity_counts():
    dense = PruneMask(np.ones((4, 4), dtype=bool), Unstructured(0.0))
    assert mask_sparsity(dense) == 0.0

    kept = np.ones((4, 4), dtype=bool)
    kept.ravel()[:8] = False
    assert mask_sparsity(PruneMask(kept, Unstructured(0.5))) == 0.5

    kept24 = np.array([[True, False, True, False] * 2])
    assert mask_sparsity(PruneMask(kept24, SemiStructured(2, 4))) == 0.5


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
    assert mask_sparsity(PruneMask(kept, SemiStructured(n, m))) == (m - n) / m


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
    assert cfg.blocksize == 4 and cfg.sparsity == 0.5
    cfg8 = SparsityConfig.semi_structured(4, 8)
    assert cfg8.blocksize == 8 and cfg8.sparsity == 0.5


def test_default_pattern_is_unstructured():
    cfg = SparsityConfig(sparsity=0.3)
    assert isinstance(cfg.pattern, Unstructured)
    assert cfg.pattern.sparsity == 0.3


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


CONFIGS = [
    SparsityConfig(sparsity=0.0, blocksize=8),
    SparsityConfig(sparsity=0.3, blocksize=8),
    SparsityConfig(sparsity=0.5, blocksize=8),
    SparsityConfig(sparsity=0.99, blocksize=8),
    SparsityConfig.semi_structured(2, 4),
    SparsityConfig.semi_structured(1, 4),
]


@settings(deadline=None, max_examples=200)
@given(st.data(), st.sampled_from(CONFIGS))
def test_every_rule_matches_sort_reference(data, cfg):
    rows = data.draw(st.integers(1, 6))
    width = 4 * data.draw(st.integers(1, 3))
    w = tie_heavy(data.draw, rows, width) * data.draw(st.sampled_from([1.0, -1.0]))
    mag = np.abs(w)

    # engine block rule: saliency w**2 / inv_diag, dead columns forced first
    forced = sorted(data.draw(st.sets(st.integers(0, width - 1))))
    saliency = w * w
    saliency[:, forced] = -np.inf
    block = select_block_mask(w, np.ones(width), cfg, forced)
    np.testing.assert_array_equal(~block.kept, reference_pruned(saliency, cfg))

    # the layer-global magnitude rule and the per-row (Wanda) rule
    identity = np.eye(width)
    np.testing.assert_array_equal(
        ~magnitude_prune(w, cfg, identity).mask.kept, reference_pruned(mag, cfg)
    )
    np.testing.assert_array_equal(
        ~wanda_prune(w, cfg, identity).mask.kept,
        reference_pruned(mag, cfg, per_row=True),
    )

    # the loss profile's pre-pruning candidates, block by block
    expect = np.zeros(width)
    for i1, i2 in cfg.block_ranges(width):
        sub = mag[:, i1:i2]
        expect[i1:i2] = np.where(reference_pruned(sub, cfg), sub, 0.0).sum(axis=0)
    np.testing.assert_array_equal(loss_profile(mag, cfg).column_losses, expect)
