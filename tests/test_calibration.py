import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, lapack

from obsprune import (
    ConfigError,
    DimensionError,
    IndefiniteHessianError,
    NumericOverflowError,
    Permutation,
    PruneError,
    SparsityConfig,
    StaleFactorError,
    bundle_from_hessian,
    bundle_from_inverse,
    checked_layer,
    column_norms,
    damped_inverse,
    gen_activations,
    gen_columnar,
    magnitude_prune,
    naive_obs_prune,
    prune_layer,
    raw_hessian,
    reorder,
    rose_prune_layer,
    wanda_prune,
)
from obsprune import baselines, calibration, engine
from obsprune.calibration import (DAMP_FRACTION, PANEL, SQUARED_ROWS, DampedInverse,
                                 error_prefix)

from hessian_helpers import (
    OUTSIDE,
    cholesky_inverse_identity_check,
    dampened_hessian,
    factor,
    gram_root,
    outside_the_domain,
    symmetric,
    upper_factor,
)


def gauss_inverse(a):
    """Independent dense inverse via Gauss-Jordan with partial pivoting."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        if aug[pivot, col] == 0:
            raise ZeroDivisionError("singular")
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for r in range(n):
            if r != col:
                aug[r] -= aug[r, col] * aug[col]
    return aug[:, n:]


def random_spd(n, seed, cond=1e3):
    rng = np.random.default_rng(seed)
    eigs = np.exp(rng.uniform(0, np.log(cond), n))
    eigs[0], eigs[-1] = 1.0, cond
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = (q * eigs) @ q.T
    return (h + h.T) / 2


def inverse(bundle):
    """The dampened inverse Hessian that the bundle's factor encodes."""
    u = upper_factor(bundle)
    return u.T @ u


def test_identity_activations():
    b = factor([np.eye(2)], damp_fraction=0.0, width=2)
    np.testing.assert_allclose(dampened_hessian(b), np.eye(2))
    np.testing.assert_allclose(inverse(b), np.eye(2))
    np.testing.assert_allclose(upper_factor(b), np.eye(2))
    assert b.layer.damp_lambda == 0.0


def test_diagonal_case():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = factor([x], damp_fraction=0.0, width=2)
    np.testing.assert_allclose(dampened_hessian(b), np.diag([4.0, 1.0]))
    np.testing.assert_allclose(inverse(b), np.diag([0.25, 1.0]))


def test_inverse_matches_gauss_oracle():
    x = np.random.default_rng(3).standard_normal((16, 8))
    b = factor([x], damp_fraction=0.01, width=8)
    expected = gauss_inverse(dampened_hessian(b))
    assert np.max(np.abs(inverse(b) - expected)) < 1e-8


def test_bundle_invariants():
    x = np.random.default_rng(4).standard_normal((40, 12))
    b = factor([x], damp_fraction=0.01, width=12)
    assert np.max(np.abs(dampened_hessian(b) @ inverse(b) - np.eye(12))) < 1e-8
    low = upper_factor(b).T
    assert np.max(np.abs(low @ low.T - gauss_inverse(dampened_hessian(b)))) < 1e-8


def test_dampening_uses_mean_diagonal():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = factor([x], damp_fraction=0.1, width=2)
    # raw diag (4, 1), mean 2.5
    assert b.layer.damp_lambda == pytest.approx(0.25)
    np.testing.assert_allclose(dampened_hessian(b), np.diag([4.25, 1.25]))


def test_dead_columns_recorded():
    x = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]])
    b = factor([x], damp_fraction=0.01, width=3)
    np.testing.assert_array_equal(np.flatnonzero(b.layer.dead), [1])


def test_indefinite_failure_names_pivot():
    x = np.zeros((2, 3))
    with pytest.raises(IndefiniteHessianError) as exc:
        factor([x], damp_fraction=0.0, width=3)
    assert exc.value.pivot is not None


@pytest.mark.parametrize("first,second", [(0, 7), (2, 5), (3, 4), (6, 7)])
def test_indefinite_pivot_in_original_coordinates(first, second):
    # channels first < second are dead, and H is undamped:
    # H[second + 1:, second + 1:] is positive definite and H[second:, second:]
    # is not, while the leading block first fails at first; reversed, the
    # failing pivot sits at 7 - second, which no case names
    x = np.random.default_rng(first).standard_normal((16, 8))
    x[:, [first, second]] = 0.0
    with pytest.raises(IndefiniteHessianError) as exc:
        factor([x], 0.0)
    assert exc.value.pivot == second
    assert f"pivot {second}" in str(exc.value)


def factor_of_inverse(h):
    """Upper U with inv(h) = U.T @ U: factor h, invert it, factor the inverse."""
    c, info = lapack.dpotrf(h, lower=1, clean=1)
    assert info == 0
    inv, info = lapack.dpotri(c, lower=1)
    assert info == 0
    inv = np.tril(inv) + np.tril(inv, -1).T
    low, info = lapack.dpotrf(inv, lower=1, clean=1)
    assert info == 0
    return low.T


@pytest.mark.parametrize("seed", range(4))
def test_factor_matches_inverse_then_factor_route(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 97))
    x = rng.standard_normal((int(rng.integers(n, 3 * n + 1)), n))
    b = factor([x], damp_fraction=0.01, width=n)
    want = factor_of_inverse(dampened_hessian(b))
    assert np.max(np.abs(upper_factor(b) - want)) <= 1e-12 * np.max(np.abs(want))


def test_requires_batches_and_consistent_cols():
    with pytest.raises(DimensionError):
        factor([], width=3)
    with pytest.raises(DimensionError, match="batch 0 has 4 columns, expected 3"):
        factor([np.ones((2, 4)), np.ones((2, 3))], width=3)
    with pytest.raises(DimensionError, match="activation batch 1"):
        factor([np.ones((2, 3)), np.ones((2, 4))], width=3)


def test_column_norms_345():
    norms = column_norms([np.array([[3.0, 0.0], [4.0, 0.0]])], 2)
    np.testing.assert_allclose(norms, [5.0, 0.0])


def test_column_norms_identity():
    norms = column_norms([np.eye(3)], 3)
    np.testing.assert_allclose(norms, [1.0, 1.0, 1.0])


def test_column_norms_batches_match_stacked():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((7, 4)), rng.standard_normal((9, 4))
    split = column_norms([a, b], 4)
    stacked = column_norms([np.vstack([a, b])], 4)
    np.testing.assert_allclose(split, stacked, rtol=1e-12)


def test_column_norms_row_permutation_invariant():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 5))
    shuffled = x[rng.permutation(20)]
    np.testing.assert_allclose(
        column_norms([x], 5),
        column_norms([shuffled], 5),
        rtol=1e-12,
    )


def test_zero_rows_batch_changes_nothing():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((15, 6))
    zeros = np.zeros((4, 6))
    b1 = factor([x], 0.01, width=6)
    b2 = factor([x, zeros], 0.01, width=6)
    np.testing.assert_array_equal(dampened_hessian(b1), dampened_hessian(b2))
    np.testing.assert_array_equal(b1.layer.norms, b2.layer.norms)


def test_cholesky_identity_trivial_cases():
    x = np.random.default_rng(8).standard_normal((30, 6))
    b = factor([x], 0.01, width=6)
    full_dev = cholesky_inverse_identity_check(b, 0)
    assert full_dev <= 1e-8

    bd = factor([np.diag([2.0, 1.0])], 0.0)
    assert cholesky_inverse_identity_check(bd, 1) == 0.0


def test_cholesky_identity_every_index():
    b = factor([gram_root(random_spd(32, seed=9, cond=1e4))], 0.0)
    for i in range(32):
        assert cholesky_inverse_identity_check(b, i) <= 1e-7


def test_cholesky_identity_index_range():
    b = factor([np.eye(3)], 0.0)
    with pytest.raises(DimensionError):
        cholesky_inverse_identity_check(b, 3)


@pytest.mark.parametrize("seed", range(6))
def test_indefinite_pivot_names_channel_in_any_order(seed):
    # channels a and b are dead, and H is undamped; H[order][:, order] is
    # factored from its last column backwards, so it fails at whichever of
    # the two comes last in the order
    rng = np.random.default_rng(seed)
    a, b = (int(c) for c in rng.choice(8, 2, replace=False))
    x = rng.standard_normal((16, 8))
    x[:, [a, b]] = 0.0
    order = Permutation(rng.permutation(8))
    last = a if order.inverse[a] > order.inverse[b] else b
    with pytest.raises(IndefiniteHessianError) as exc:
        factor([x], 0.0, order=order)
    assert exc.value.pivot == last
    assert f"pivot {last}" in str(exc.value)


@pytest.mark.parametrize("seed", range(3))
def test_any_order_factors_the_permuted_hessian(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((60, 24))
    h = symmetric(raw_hessian([x], 24))
    order = Permutation(rng.permutation(24))
    b = factor([x], 0.01, order=order)
    f = order.forward
    assert b.order is order
    want = factor_of_inverse(h[np.ix_(f, f)] + b.layer.damp_lambda * np.eye(24))
    assert np.max(np.abs(upper_factor(b) - want)) <= 1e-12 * np.max(np.abs(want))
    # U's strict upper triangle lies in H's own buffer, whose upper one
    # still holds H
    assert np.shares_memory(b.chol_upper, b.layer.raw)
    assert np.array_equal(np.triu(b.layer.raw), np.triu(h))


def test_panel_gather_factors_the_direct_gather_bitwise():
    # H[q][:, q] is gathered by rows, then by column panels of 64 rows, an
    # exact copy: n = 300 ends in a partial panel
    n = 300
    rng = np.random.default_rng(13)
    layer = checked_layer(np.zeros((1, n)), [rng.standard_normal((n + 20, n))])
    order = Permutation(rng.permutation(n))
    h_before = layer.raw.copy()
    b = bundle_from_hessian(layer, order)
    q = order.forward[::-1]
    h = symmetric(h_before)[np.ix_(q, q)]
    h.reshape(-1)[:: n + 1] += layer.damp_lambda
    up, info = lapack.dpotrf(h.T, lower=0, overwrite_a=1)
    assert info == 0
    inv_up, info = lapack.dtrtri(up, lower=0, overwrite_c=1)
    assert info == 0
    np.testing.assert_array_equal(upper_factor(b), inv_up.T[::-1, ::-1])
    # built in H's free triangle: H's triangle and diagonal are as they were
    assert np.array_equal(np.triu(layer.raw), np.triu(h_before))


def layer_with_dead(n, dead, seed):
    """A layer of one zero row whose H has ``dead`` zero channels."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((int(rng.integers(n, 3 * n + 1)), n))
    x[:, rng.choice(n, size=dead, replace=False)] = 0.0
    return checked_layer(np.zeros((1, n)), [x])


def group_keeping_order(n, m, seed):
    """A random order that keeps each group of m columns whole, as a 2:4 plan must."""
    rng = np.random.default_rng(seed)
    groups = rng.permutation(n // m)[:, None] * m
    return Permutation((groups + rng.permuted(np.tile(np.arange(m), (n // m, 1)),
                                              axis=1)).reshape(-1))


def packed(m):
    """LAPACK's packed upper triangle of the column-major ``m``."""
    ap, info = lapack.dtrttp(np.asfortranarray(m))
    assert info == 0
    return ap


def mirrored(upper):
    """The symmetric matrix whose upper triangle is that of ``upper``, zeros signed."""
    return np.where(np.tri(upper.shape[0], dtype=bool), upper.T, upper)


@pytest.mark.parametrize("n,dead", [(1, 0), (37, 0), (130, 3), (200, 5)])
def test_inverse_in_place_is_the_damped_inverse(n, dead):
    layer = layer_with_dead(n, dead, seed=n)
    b = bundle_from_hessian(layer)
    h_before = layer.raw.copy()
    inv = damped_inverse(b)
    # made in H's workspace, over the factor, and packed out of it
    assert not np.shares_memory(inv.upper, layer.raw)
    with pytest.raises(StaleFactorError):
        b.valid()
    assert np.array_equal(np.triu(layer.raw), np.triu(h_before))
    assert inv.layer is layer
    want = np.linalg.inv(dampened_hessian(b))
    upper, info = lapack.dtpttr(n, inv.upper)
    assert info == 0
    got = np.ldexp(mirrored(upper)[::-1, ::-1], -2 * inv.shift)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_upper_is_the_packed_triangle_of_the_inverse(n):
    # the inverse as it was made whole before it was packed: dlauum of the
    # scaled R^-1 in a buffer of its own
    layer = layer_with_dead(n, n // 20, seed=n)
    b = bundle_from_hessian(layer)
    r_inv = np.asfortranarray(np.triu(layer.raw.T, 1))
    inv = damped_inverse(b)
    np.ldexp(r_inv, inv.shift, out=r_inv)
    np.fill_diagonal(r_inv, np.ldexp(b.diag[::-1], inv.shift))
    want, info = lapack.dlauum(r_inv, lower=0, overwrite_c=1)
    assert info == 0
    # its upper triangle, packed: no entry besides
    assert inv.upper.size == n * (n + 1) // 2
    assert np.array_equal(inv.upper.view(np.uint64), packed(want).view(np.uint64))


@pytest.mark.parametrize("dead", [0, 3])
@pytest.mark.parametrize("kind,n", [
    # past two panels, and inside the first and across its edge, where a
    # wrong packed index fails first; 2:4 needs n a multiple of 4
    *(pytest.param(kind, 2 * PANEL + 12, id=kind)
      for kind in ("identity", "random", "2:4 groups")),
    *(pytest.param(kind, n, id=f"{kind}-n{n}")
      for n in (PANEL - 1, PANEL + 1) for kind in ("identity", "random")),
    *(pytest.param(kind, PANEL + 4, id=f"{kind}-n{PANEL + 4}")
      for kind in ("identity", "random", "2:4 groups")),
])
def test_factor_from_inverse_matches_factor_of_h(kind, n, dead):
    layer = layer_with_dead(n, dead, seed=dead)
    order = {"identity": Permutation.identity(n),
             "random": Permutation(np.random.default_rng(5).permutation(n)),
             "2:4 groups": group_keeping_order(n, 4, seed=6)}[kind]
    want = bundle_from_hessian(layer, order)
    want_u = upper_factor(want)
    got = bundle_from_inverse(damped_inverse(bundle_from_hessian(layer)), order)
    assert got.layer is layer and got.order is order
    # LAPACK's buffer itself, the layer's H buffer read column-major
    assert got.chol_upper.flags.f_contiguous
    assert np.shares_memory(got.chol_upper, layer.raw)
    u = upper_factor(got)
    assert np.max(np.abs(u - want_u)) <= 1e-12 * np.max(np.abs(want_u))
    for i in (0, n // 3, n - 1):
        assert cholesky_inverse_identity_check(got, i) <= 1e-12 * np.max(
            np.abs(u.T @ u))


def test_only_a_channel_order_factor_is_inverted():
    layer = layer_with_dead(8, 0, seed=1)
    b = bundle_from_hessian(layer, Permutation(np.arange(8)[::-1].copy()))
    with pytest.raises(ValueError, match="channel-order") as info:
        damped_inverse(b)
    assert isinstance(info.value, PruneError)


def test_indefinite_inverse_names_the_channel_in_its_order():
    # an inverse that is not positive definite fails in dpotrf at column 2
    # of the order, which is channel 5; the reversed matrix is read at n-1-j
    n = 6
    layer = layer_with_dead(n, 0, seed=2)
    m = np.eye(n)
    m[5, 5] = -1.0
    order = Permutation(np.array([1, 0, 5, 2, 3, 4]))
    inverse = DampedInverse(layer, packed(m[::-1, ::-1]), 0)
    with pytest.raises(IndefiniteHessianError) as exc:
        bundle_from_inverse(inverse, order)
    assert exc.value.pivot == 5


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, PANEL + 40),
    cuts=st.lists(st.integers(0, 40), max_size=5),
    layouts=st.lists(st.sampled_from(["C", "F", "f32"]), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_raw_hessian_any_split(n, cuts, layouts, seed):
    rng = np.random.default_rng(seed)
    # float32 values, so that a float32 batch holds exactly the rows of X
    x = rng.standard_normal((40, n)).astype(np.float32).astype(np.float64)
    bounds = [0, *sorted(cuts), 40]
    batches = []
    for (r1, r2), layout in zip(zip(bounds, bounds[1:]), layouts):
        b = x[r1:r2]
        if layout == "F":
            b = np.asfortranarray(b)
        elif layout == "f32":
            b = b.astype(np.float32)
        batches.append(b)
    h = raw_hessian(batches, n)
    # H in the upper triangle, the free workspace below it zero
    assert np.array_equal(h, np.triu(h))
    # the streamed squares are H's diagonal, so detect's norms are a layer's
    assert np.array_equal(column_norms(batches, n), np.sqrt(h.diagonal()))
    h = symmetric(h)
    want = x.T @ x
    # the rounding of each entry scales with sqrt(H_ii H_jj)
    scale = np.sqrt(np.outer(want.diagonal(), want.diagonal()))
    assert np.all(np.abs(h - want) <= 1e-12 * scale)


def batch_in_layout(b, layout):
    """``b`` as a row-major, column-major or float32 batch."""
    if layout == "F":
        return np.asfortranarray(b)
    return b.astype(np.float32) if layout == "f32" else b


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(1, 40),
    rows=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    which=st.integers(0, 3),
    layout=st.sampled_from(["C", "F", "f32"]),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_finite_batch_named_before_factoring(n, rows, which, layout, bad, seed):
    """A NaN or infinity anywhere in any batch fails on H's diagonal.

    Batch ``which`` holds one bad entry in a random row and column; the
    batches before it are finite, some with no rows, and the None after it
    is never read.  The error names the batch, and nothing is factored.
    """
    rng = np.random.default_rng(seed)
    which = min(which, len(rows) - 1)
    rows[which] = max(rows[which], 1)
    batches = [batch_in_layout(rng.standard_normal((r, n)), layout) for r in rows]
    x = rng.standard_normal((rows[which], n))
    x[rng.integers(rows[which]), rng.integers(n)] = bad
    batches[which] = batch_in_layout(x, layout)

    def never(*args, **kwargs):
        raise AssertionError("factored")

    with mock.patch.object(lapack, "dpotrf", never), pytest.raises(
        NumericOverflowError, match=f"activation batch {which} is not finite"
    ):
        rose_prune_layer(np.ones((2, n)), iter([*batches[: which + 1], None]),
                         SparsityConfig(0.5, blocksize=8))


@pytest.mark.parametrize("batches,which", [
    # one square overflows
    ([np.ones((3, 4)), np.diag([1.0, 1e200, 1.0, 1.0])], 1),
    # no square overflows, but the running sum does, in the second batch
    ([np.full((1, 4), 1e154), np.full((2, 4), 1e154)], 1),
    ([np.full((2, 4), 1e154)], 0),
], ids=["square", "sum-across-batches", "sum-in-batch"])
def test_finite_batch_whose_squares_overflow_is_named(batches, which):
    for one_pass in (raw_hessian, column_norms):
        with pytest.raises(NumericOverflowError, match=f"activation batch {which} "):
            one_pass(batches, 4)


def test_zero_row_batches_and_dead_columns_pass():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 5))
    x[:, [1, 4]] = 0.0
    empty = np.zeros((0, 5))
    h = raw_hessian([empty, x[:7], empty, x[7:], empty], 5)
    np.testing.assert_array_equal(h.diagonal()[[1, 4]], 0.0)
    np.testing.assert_array_equal(h, raw_hessian([x[:7], x[7:]], 5))


def dsyrk_sum(batches, n, lower):
    """The column-major sum of the batches' Gram matrices in one triangle."""
    acc = np.zeros((n, n), order="F")
    for b in batches:
        acc = blas.dsyrk(1.0, b.T, beta=1.0, c=acc, lower=lower, overwrite_c=1)
    return acc


@pytest.mark.parametrize("n,rows", [(1, 4), (65, 70), (77, 300), (130, 135)])
def test_raw_hessian_holds_the_lower_dsyrk_as_its_upper_triangle(n, rows):
    """Bit for bit off the diagonal, with the strict lower triangle zero.

    The diagonal is the streamed squares, whose root is ``column_norms``
    bit for bit; dsyrk's own diagonal sums in another order.  The upper
    variant of dsyrk, which ``raw_hessian`` once mirrored, does too: here
    they differ by up to 6.4e-14 at n = 77, within the bound below, and at
    the bench's shapes they were equal.
    """
    rng = np.random.default_rng(n)
    batches = [rng.standard_normal((r, n)) for r in (rows, 5)]
    got = raw_hessian(batches, n)
    assert got.flags.c_contiguous
    want = dsyrk_sum(batches, n, lower=1).T
    strict = np.triu(np.ones((n, n), dtype=bool), 1)
    assert np.array_equal(got[strict].view(np.uint64), want[strict].view(np.uint64))
    assert np.array_equal(np.sqrt(got.diagonal()).view(np.uint64),
                          column_norms(batches, n).view(np.uint64))
    assert not np.tril(got, -1).any()
    upper = dsyrk_sum(batches, n, lower=0)
    scale = np.sqrt(np.outer(got.diagonal(), got.diagonal()))
    assert np.all(np.abs(np.triu(got) - np.triu(upper)) <= 1e-13 * scale)


@pytest.mark.parametrize("layout", ["C", "F", "f32", "zero-rows"])
def test_column_norms_are_the_root_of_raw_hessians_diagonal(layout):
    """Bit for bit, from 3 batches of 128 rows at n = 256, as CI's manifest.

    dsyrk's own diagonal differs from the streamed squares in the last bit
    of some columns there, so norms read off it would not be detect's.
    """
    x = gen_activations(384, 256, 0.3, seed=1)
    batches = [batch_in_layout(x[128 * i : 128 * (i + 1)], layout) for i in range(3)]
    if layout == "zero-rows":
        batches[1:1] = [np.zeros((0, 256))]
    h = raw_hessian(batches, 256)
    assert np.array_equal(np.sqrt(h.diagonal()).view(np.uint64),
                          column_norms(batches, 256).view(np.uint64))
    assert not np.array_equal(h.diagonal(), dsyrk_sum(batches, 256, lower=1).diagonal())


def traced_bytes(fn):
    """(result, peak bytes, bytes still held) of one call, beyond those before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


def test_memory_budget():
    """H is the one n x n buffer: the factor is built in its free triangle.

    At n = 512, ``raw_hessian`` peaked 2.3 KB past its n^2, the column
    sums, and the squares of ``SQUARED_ROWS`` rows and their sum, holding
    n^2 and the n norms; before it streamed the sums, 1.9 KB past n^2.
    ``checked_layer`` of one row peaked 4.0 KB past ``raw_hessian``: its
    domain check reads H's diagonal, not H.  When it checked that all of H
    was finite, an n x n bool temporary put it 224 KB past ``raw_hessian``.  A factor in a shuffled
    order peaked at 2.7 gather panels of 64 rows, holding only its diagonal
    and order after it returns.  When the factor was a copy of H beside it,
    the peak was n^2 + 1 panel and n^2 was held.
    """
    n = 512
    square = 8 * n * n
    panel = 8 * PANEL * n
    rng = np.random.default_rng(11)
    batches = [rng.standard_normal((64, n)) for _ in range(8)]
    _, peak, held = traced_bytes(lambda: raw_hessian(batches, n))
    assert peak <= square + (SQUARED_ROWS + 2) * 8 * n + 4096
    assert held <= square + 8 * n + 4096

    layer, peak, _ = traced_bytes(lambda: checked_layer(np.zeros((1, n)), batches))
    assert peak <= square + (SQUARED_ROWS + 2) * 8 * n + 4096 + 4 * 8 * n
    for order in (None, Permutation(rng.permutation(n))):
        _, peak, held = traced_bytes(lambda: bundle_from_hessian(layer, order))
        assert peak <= 3 * panel
        # the diagonal, and an identity order's two index arrays
        assert held <= 3 * 8 * n + 4096


def test_prune_layer_memory_budget():
    """prune_layer's peak at 64 x 512 with 128-column blocks, in a shuffled order.

    The sweep holds one array of W's size in pruning order, which becomes
    the output, the mask, and three blocks of 64 x 128 doubles: the block's
    W0, gathered from W, the block it sweeps and its OBS errors.  f2py's
    copy of 128 x ``engine.CHUNK`` doubles of the factor's rows, in a
    finished block's product into the later columns, sets the peak, beside
    the squared diagonal and the dead channels (9 bytes a channel) and
    4 KiB for Python objects.  Measured: 761,552 bytes.  When the sweep
    held W0 and W0 - W, and copied all of the factor's rows past a block,
    the peak was 1,154,784 bytes.
    """
    rows, n = 64, 512
    rng = np.random.default_rng(13)
    w = rng.standard_normal((rows, n))
    layer = checked_layer(w, [rng.standard_normal((2 * n, n))])
    b = bundle_from_hessian(layer, Permutation(rng.permutation(n)))
    config = SparsityConfig(0.5)
    prune_layer(b, config)
    _, peak, _ = traced_bytes(lambda: prune_layer(b, config))
    blocks = 3 * 8 * rows * config.blocksize
    chunk = 8 * config.blocksize * engine.CHUNK
    assert peak <= w.nbytes + rows * n + blocks + chunk + 9 * n + 4096


def test_prune_layer_memory_at_bench_scale():
    """At 512 x 2048, prune_layer peaks under 1.5 times W's size.

    Measured 1.45 W; when the sweep held W0 and W0 - W beside the output
    it allocated in channel order, 2.55 W.
    """
    rows, n = 512, 2048
    rng = np.random.default_rng(14)
    w = rng.standard_normal((rows, n))
    layer = checked_layer(w, [rng.standard_normal((512, n))])
    b = bundle_from_hessian(layer, Permutation(rng.permutation(n)))
    config = SparsityConfig(0.7)
    _, peak, _ = traced_bytes(lambda: prune_layer(b, config))
    assert peak <= 1.5 * w.nbytes


def test_error_prefix_memory_budget():
    """Past its rows x n product G, the error kernel holds rows of n.

    G's buffer is refilled with d^2 for the square terms.  Measured 28 KB
    past d.nbytes at 256 x 1024; with a second rows x n temporary, as the
    prefix once made, the peak was 2.04 d.nbytes.
    """
    rows, n = 256, 1024
    rng = np.random.default_rng(15)
    h = raw_hessian([rng.standard_normal((64, n))], n)
    d = rng.standard_normal((rows, n))
    error_prefix(d, h)
    _, peak, _ = traced_bytes(lambda: error_prefix(d, h))
    assert peak <= d.nbytes + 2**16


@pytest.mark.parametrize("prune", [magnitude_prune, wanda_prune])
def test_baseline_memory_budget(prune):
    """The baselines' error trajectory allocates nothing of n x n doubles.

    It is read off ``error_prefix``, whose temporaries are rows x n, and the
    baselines check nothing: the layer was checked when it was built.
    Measured 0.17 n^2 (magnitude) and 0.20 n^2 (wanda) at n=512 with 16
    rows; an n x n buffer of D.T @ D, as the prefix sums once used, peaked
    at 1.41 n^2.
    """
    n = 512
    rng = np.random.default_rng(12)
    layer = checked_layer(rng.standard_normal((16, n)), [rng.standard_normal((1024, n))])
    _, peak, _ = traced_bytes(lambda: prune(layer, SparsityConfig(0.5)))
    assert peak <= 0.5 * 8 * n * n


def test_prune_runs_memory_budget():
    """Every method at four sparsities holds about half an n x n beyond H.

    The damped inverse is made in H's workspace and kept as its packed
    upper triangle, and every factor is built in H's workspace, so the
    peak is the triangle, one sweep and a gather panel: no run's outcome
    outlives the next run's start.  When the inverse was a whole n x n
    buffer, the bound held n x n where it holds the triangle, and when it
    was row panels from each panel's first column on, 1,179,648 bytes; when
    each reordered factor was gathered beside it, the peak was two n x n
    buffers and 0.4 of the inverse past the rest, and until the generator
    dropped each outcome it also held the run before's.
    """
    rows, n = 64, 512
    triangle = 8 * n * (n + 1) // 2
    rng = np.random.default_rng(14)
    w = gen_columnar(rows, n, 128, 3, 10.0, seed=14)
    layer = checked_layer(w, [rng.standard_normal((2 * n, n))])
    configs = [SparsityConfig(p) for p in (0.5, 0.6, 0.7, 0.8)]
    inverse = damped_inverse(bundle_from_hessian(layer))
    b = bundle_from_inverse(inverse, Permutation(rng.permutation(n)))
    outcome, sweep, _ = traced_bytes(lambda: prune_layer(b, configs[0]))
    assert inverse.upper.nbytes == triangle
    del inverse, b, outcome

    def every_run():
        reordered = 0
        for run in reorder.prune_runs(layer, reorder.METHODS, configs):
            reordered += run.plan.was_reordered
            del run  # dropped before the next run starts
        return reordered

    reordered, peak, _ = traced_bytes(every_run)
    assert reordered == 8
    assert triangle == 1_050_624
    assert peak <= triangle + 8 * PANEL * n + sweep + 2**16


def test_rose_prune_layer_memory_budget():
    """A reordered rose run at 64 x 512 holds H and one sweep at a time.

    Its factor is built in H's buffer, so past H's n^2 the peak is the
    sweep's, measured on the same factor, and at most one gather panel:
    0.1 panels were measured.  When the factor was a copy of H, the peak
    was 2.56 n^2.
    """
    rows, n = 64, 512
    rng = np.random.default_rng(15)
    w = gen_columnar(rows, n, 128, 3, 10.0, seed=15)
    x = rng.standard_normal((2 * n, n))
    batches, config = [x[:n], x[n:]], SparsityConfig(0.7)
    (_, plan, _), peak, _ = traced_bytes(lambda: rose_prune_layer(w, batches, config))
    assert plan.was_reordered
    b = bundle_from_hessian(checked_layer(w, batches), plan.permutation)
    _, sweep, _ = traced_bytes(lambda: prune_layer(b, config))
    assert peak <= 8 * n * n + sweep + 8 * PANEL * n


def stale_after(refactor):
    """A channel-order bundle, and its layer once ``refactor`` has run on it."""
    layer = layer_with_dead(16, 2, seed=4)
    b = bundle_from_hessian(layer)
    before = layer.raw.copy()
    refactor(b)
    # H's triangle and diagonal are as they were, whatever became of the factor
    assert np.array_equal(np.triu(layer.raw).view(np.uint64),
                          np.triu(before).view(np.uint64))
    return b


def refactor_from_inverse(b):
    bundle_from_inverse(damped_inverse(b), Permutation(np.arange(16)[::-1].copy()))


def refactor_and_fail(b):
    # an inverse that is not positive definite fails in dpotrf, after its
    # gather has written over the workspace
    inverse = damped_inverse(b)
    inverse.upper[...] = packed(-np.eye(16))
    with pytest.raises(IndefiniteHessianError):
        bundle_from_inverse(inverse, b.order)


@pytest.mark.parametrize("use", [
    pytest.param(lambda b: prune_layer(b, SparsityConfig(0.5, blocksize=8)),
                 id="prune_layer"),
    pytest.param(damped_inverse, id="damped_inverse"),
])
@pytest.mark.parametrize("refactor", [
    pytest.param(lambda b: bundle_from_hessian(b.layer), id="from-hessian"),
    pytest.param(refactor_from_inverse, id="from-inverse"),
    pytest.param(refactor_and_fail, id="failed"),
])
def test_a_stale_bundle_is_rejected(use, refactor):
    b = stale_after(refactor)
    with pytest.raises(StaleFactorError, match="factored again") as info:
        use(b)
    assert isinstance(info.value, PruneError)


def test_each_layer_owns_its_hessian():
    # two layers on the same batches, as a library caller may build the
    # weights that read the same inputs: each holds an H of its own, so a
    # factor of one leaves the other's bundle valid
    n = 16
    x = np.random.default_rng(3).standard_normal((40, n))
    first = checked_layer(np.ones((2, n)), [x])
    second = checked_layer(np.zeros((1, n)), [x])
    assert not np.shares_memory(first.raw, second.raw)
    assert np.array_equal(first.raw, second.raw)
    b = bundle_from_hessian(first)
    bundle_from_hessian(second, Permutation(np.arange(n)[::-1].copy()))
    damped_inverse(bundle_from_hessian(second))
    assert b.valid() is b
    prune_layer(b, SparsityConfig(0.5))


def test_a_failed_factor_from_h_keeps_h_and_stales_the_other_layers_bundle():
    """A failed factor stales the bundle its layer held before it.

    The patched ``dpotrf`` reports a failed pivot once the real call has
    written over the workspace, as an indefinite H would.
    """
    def fail_directly(b):
        potrf = lapack.dpotrf

        def failing(*args, **kwargs):
            c, _ = potrf(*args, **kwargs)
            return c, 1

        with mock.patch.object(lapack, "dpotrf", failing), pytest.raises(
            IndefiniteHessianError, match="pivot 15"
        ):
            bundle_from_hessian(b.layer)

    b = stale_after(fail_directly)
    with pytest.raises(StaleFactorError):
        b.valid()


def test_a_bundle_stays_valid_until_its_layer_is_factored_again():
    layer = layer_with_dead(16, 2, seed=4)
    b = bundle_from_hessian(layer)
    config = SparsityConfig(0.5, blocksize=8)
    first = prune_layer(b, config)
    again = prune_layer(b, config)
    np.testing.assert_array_equal(again.pruned_weights, first.pruned_weights)
    # the damped inverse is made over the factor it was made from
    inverse = damped_inverse(b)
    with pytest.raises(StaleFactorError):
        prune_layer(b, config)
    assert damped_inverse(bundle_from_hessian(layer)).shift == inverse.shift


@pytest.mark.parametrize("prune", [rose_prune_layer, naive_obs_prune])
@pytest.mark.parametrize("shape", [(2, 4096), (2, 24), (4096,)],
                         ids=["wide", "narrow", "one-dim"])
def test_batch_not_as_wide_as_w_rejected_before_h_is_sized(prune, shape):
    """Batch 0 is checked against W's 32 columns before H is allocated.

    Sizing H from a 2 x 4096 batch first, as ``raw_hessian`` once did,
    peaked at 144 MB in ``rose_prune_layer`` and 129 MB in the oracle.
    """
    w, x = np.ones((8, 32)), np.ones(shape)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="activation batch 0"):
            prune(w, [x], SparsityConfig(0.5, blocksize=16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def batch_with(value):
    """One 4 x 32 batch of ones with ``value`` at [3, 7]."""
    x = np.ones((4, 32))
    x[3, 7] = value
    return [x]


def ones_layer(batches):
    """``checked_layer`` of a 2 x 32 W of ones on ``batches``."""
    return checked_layer(np.ones((2, 32)), batches)


def run_baseline(fn):
    return lambda batches: fn(ones_layer(batches), SparsityConfig(0.5, blocksize=4))


ENTRY_POINTS = {
    "factor": lambda batches: bundle_from_hessian(ones_layer(batches)),
    "factor-reordered": lambda batches: bundle_from_hessian(
        ones_layer(batches), Permutation(np.arange(32)[::-1])
    ),
    "rose": lambda batches: rose_prune_layer(
        np.ones((2, 32)), batches, SparsityConfig(0.5, blocksize=4)
    ),
    "magnitude": run_baseline(magnitude_prune),
    "wanda": run_baseline(wanda_prune),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("make,error", [
    pytest.param(lambda: batch_with(np.nan), NumericOverflowError, id="nan"),
    pytest.param(lambda: batch_with(np.inf), NumericOverflowError, id="inf"),
    pytest.param(lambda: batch_with(1e200), NumericOverflowError, id="overflow"),
    pytest.param(lambda: [], DimensionError, id="empty"),
    pytest.param(lambda: [np.ones((4, 8))], DimensionError, id="other-width"),
])
def test_bad_raw_hessian_rejected_before_factoring(
    monkeypatch, capfd, entry, make, error
):
    """Batches that cannot make a finite H as wide as W fail before LAPACK.

    A NaN, an infinity or a square past the largest double, no batch at
    all, or a batch of another width.
    """
    factored = []
    for name in ("dpotrf", "dtrtri"):
        monkeypatch.setattr(
            lapack, name, lambda *a, _name=name, **k: factored.append(_name)
        )
    with pytest.raises(error):
        ENTRY_POINTS[entry](make())
    assert factored == []
    assert capfd.readouterr() == ("", "")


def test_a_hessian_at_the_edge_of_the_margin(monkeypatch, capfd):
    """H's largest dampened diagonal must stay below 2**1023, so no entry is inf.

    X = [[a, a]] makes every entry of H a**2: the largest a whose square is
    below 2**1023 passes undamped, and the next double up, or the same a
    at the default damping, fails before any factoring.  The off-diagonal
    entries are bounded by the diagonal (Cauchy-Schwarz), so H needs no
    n x n check.
    """
    a = np.sqrt(calibration.TOP)
    while a * a >= calibration.TOP:
        a = np.nextafter(a, 0.0)
    layer = checked_layer(np.zeros((1, 2)), [np.full((1, 2), a)], 0.0)
    assert np.all(layer.raw[np.triu_indices(2)] == a * a) and a * a < calibration.TOP
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **k: pytest.fail("factored"))
    for x, damp in [(np.nextafter(a, np.inf), 0.0), (a, DAMP_FRACTION)]:
        with pytest.raises(NumericOverflowError, match="outside the numeric domain"):
            bundle_from_hessian(checked_layer(np.zeros((1, 2)), [np.full((1, 2), x)], damp))
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("w,damp,error", [
    pytest.param(np.full((2, 8), np.nan), DAMP_FRACTION, NumericOverflowError,
                 id="nan-w"),
    pytest.param(np.zeros((0, 8)), DAMP_FRACTION, DimensionError, id="empty-w"),
    pytest.param(np.ones((2, 8)), -1.0, ConfigError, id="negative-damp"),
    pytest.param(np.ones((2, 8)), np.nan, ConfigError, id="nan-damp"),
    pytest.param(np.ones((2, 8)), np.inf, ConfigError, id="inf-damp"),
])
def test_checked_layer_fails_before_any_batch_is_read(w, damp, error):
    read = []

    def batches():
        for i in range(3):
            read.append(i)
            yield np.ones((4, 8))

    with pytest.raises(error):
        checked_layer(w, batches(), damp)
    assert read == []


def identity_layer(w):
    """``checked_layer`` of ``w`` with H = I."""
    return checked_layer(w, [np.eye(w.shape[1])])


def run_engine(w):
    bundle = bundle_from_hessian(identity_layer(w))
    return prune_layer(bundle, SparsityConfig(0.5, blocksize=4))


WEIGHT_ENTRY_POINTS = {
    "prune_layer": run_engine,
    "rose": lambda w: rose_prune_layer(
        w, [np.ones((4, w.shape[1]))], SparsityConfig(0.5, blocksize=4)
    ),
    "magnitude": lambda w: magnitude_prune(identity_layer(w), SparsityConfig(0.5)),
    "wanda": lambda w: wanda_prune(identity_layer(w), SparsityConfig(0.5)),
}


@pytest.mark.parametrize("entry", list(WEIGHT_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected_at_entry(monkeypatch, entry, bad):
    """Non-finite W fails before activations, Hessian or any mask is touched."""

    def started(*args, **kwargs):
        raise AssertionError("work started on non-finite weights")

    monkeypatch.setattr(calibration, "raw_hessian", started)
    monkeypatch.setattr(engine, "select_block_mask", started)
    monkeypatch.setattr(baselines, "pruned_entries", started)
    monkeypatch.setattr(baselines, "smallest_per_row", started)
    w = np.ones((2, 8))
    w[1, 3] = bad
    with pytest.raises(NumericOverflowError, match="weights not finite"):
        WEIGHT_ENTRY_POINTS[entry](w)


@pytest.mark.parametrize("entry", ["checked_layer", "rose"])
def test_dense_energy_overflow_rejected_before_factoring(monkeypatch, capfd, entry):
    """A W inside the numeric domain whose output energy overflows fails where
    the layer is built: each w**2 (H_jj + lambda) is 1.01 * 2**1020, their sum
    over 64 entries is not finite."""
    factored = []
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **k: factored.append(1))
    w = np.full((4, 16), 2.0**510)
    with pytest.raises(NumericOverflowError, match="dense output energy inf"):
        if entry == "rose":
            rose_prune_layer(w, [np.eye(16)], SparsityConfig(0.5, blocksize=4))
        else:
            checked_layer(w, [np.eye(16)])
    assert factored == []
    assert capfd.readouterr() == ("", "")


def test_dense_energy_of_a_huge_weight_on_a_dead_or_tiny_channel(capfd):
    """A dead channel's weight counts 0 in the dense energy, however large.

    Once its square overflows, on a dead channel or on a live one however
    tiny its H_jj, the column's sum of w**2 (H_jj + lambda) is not finite,
    so the layer is outside the numeric domain: ``error_prefix`` never
    squares a checked layer's weight past the largest double.
    """
    w = np.array([[2.0**500, 1.0]])
    assert checked_layer(w, [np.diag([0.0, 1.0])]).dense_energy == 1.0
    for h in (0.0, 2.0**-500):
        with pytest.raises(NumericOverflowError, match="channel 0 is outside the numeric"):
            checked_layer(np.array([[2.0**600, 1.0]]), [np.diag([h, 1.0])])
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("case", list(OUTSIDE))
def test_outside_the_domain_fails_before_any_lapack_call(monkeypatch, capfd, case):
    """Each layer outside the numeric domain fails in ``checked_layer``.

    Through every method and the oracle, with no ``dpotrf``, ``dtrtri`` or
    ``dlauum`` call and no warning.
    """
    calls = []
    for name in ("dpotrf", "dtrtri", "dlauum"):
        monkeypatch.setattr(lapack, name, lambda *a, _name=name, **k: calls.append(_name))
    w, x, damp = outside_the_domain(case)
    config = SparsityConfig(0.5, blocksize=8)
    with pytest.raises(NumericOverflowError, match="outside the numeric domain"):
        checked_layer(w, [x], damp)
    with pytest.raises(NumericOverflowError, match="outside the numeric domain"):
        list(reorder.prune_runs(checked_layer(w, [x], damp), reorder.METHODS, [config]))
    with pytest.raises(NumericOverflowError, match="outside the numeric domain"):
        naive_obs_prune(w, [x], config, damp)
    assert calls == []
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("damp,root", [
    pytest.param(1e308, 2.0, id="lambda"),
    # lambda = 15 * 2**1020 is finite, the dampened diagonal 2**1024 is not
    pytest.param(15.0, 2.0**510, id="dampened-diagonal"),
])
def test_overflowing_damping_rejected_before_factoring(monkeypatch, capfd, damp, root):
    """A finite damping fraction whose lambda overflows fails in checked_layer."""
    factored = []
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **k: factored.append(1))
    with pytest.raises(NumericOverflowError, match="damping lambda"):
        checked_layer(np.zeros((2, 8)), [np.eye(8) * root], damp)
    assert factored == []
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("damp", [np.nan, np.inf, -0.1])
def test_checked_layer_rejects_bad_damp_fraction(damp):
    with pytest.raises(ConfigError, match="damp_fraction"):
        checked_layer(np.ones((2, 8)), [np.eye(8)], damp)
    assert checked_layer(np.ones((2, 8)), [np.eye(8)], 0.0).damp_lambda == 0.0


def test_checked_layer_derives_once():
    """W row-major, the norms, dead channels, dense energy and damping of (W, H)."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((20, 6))
    x[:, 2] = 0.0
    w = np.asfortranarray(rng.standard_normal((3, 6)))
    raw = raw_hessian([x], 6)
    layer = checked_layer(w, [x])
    assert layer.w.flags.c_contiguous and np.array_equal(layer.w, w)
    assert np.array_equal(layer.raw.view(np.uint64), raw.view(np.uint64))
    np.testing.assert_array_equal(layer.norms, column_norms([x], 6))
    np.testing.assert_array_equal(np.flatnonzero(layer.dead), [2])
    assert layer.dense_energy == pytest.approx(np.sum(np.square(w @ x.T)), rel=1e-12)
    assert layer.damp_lambda == DAMP_FRACTION * raw.diagonal().mean()
    # numpy fields: equality and hash are by identity, as for Permutation
    bundles = [bundle_from_hessian(layer) for _ in range(2)]
    assert layer == layer and layer != checked_layer(w, [x])
    assert bundles[0] == bundles[0] and len(set(bundles)) == 2
