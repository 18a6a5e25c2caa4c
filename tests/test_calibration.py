import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from obsprune import (
    DimensionError,
    IndefiniteHessianError,
    NumericOverflowError,
    Permutation,
    SparsityConfig,
    bundle_from_hessian,
    checked_layer,
    column_norms,
    magnitude_prune,
    naive_obs_prune,
    prune_layer,
    raw_hessian,
    reorder,
    rose_prune_layer,
    wanda_prune,
)
from obsprune import baselines, engine
from obsprune.calibration import MIRROR_PANEL

from hessian_helpers import (
    accumulate_hessian,
    cholesky_inverse_identity_check,
    dampened_hessian,
    factor,
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
    return bundle.chol_upper.T @ bundle.chol_upper


def test_identity_activations():
    b = accumulate_hessian([np.eye(2)], damp_fraction=0.0, width=2)
    np.testing.assert_allclose(dampened_hessian(b), np.eye(2))
    np.testing.assert_allclose(inverse(b), np.eye(2))
    np.testing.assert_allclose(b.chol_upper, np.eye(2))
    assert b.damp_lambda == 0.0


def test_diagonal_case():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = accumulate_hessian([x], damp_fraction=0.0, width=2)
    np.testing.assert_allclose(dampened_hessian(b), np.diag([4.0, 1.0]))
    np.testing.assert_allclose(inverse(b), np.diag([0.25, 1.0]))


def test_inverse_matches_gauss_oracle():
    x = np.random.default_rng(3).standard_normal((16, 8))
    b = accumulate_hessian([x], damp_fraction=0.01, width=8)
    expected = gauss_inverse(dampened_hessian(b))
    assert np.max(np.abs(inverse(b) - expected)) < 1e-8


def test_bundle_invariants():
    x = np.random.default_rng(4).standard_normal((40, 12))
    b = accumulate_hessian([x], damp_fraction=0.01, width=12)
    assert np.max(np.abs(dampened_hessian(b) @ inverse(b) - np.eye(12))) < 1e-8
    low = b.chol_upper.T
    assert np.allclose(low, np.tril(low))
    assert np.max(np.abs(low @ low.T - gauss_inverse(dampened_hessian(b)))) < 1e-8


def test_dampening_uses_mean_diagonal():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = accumulate_hessian([x], damp_fraction=0.1, width=2)
    # raw diag (4, 1), mean 2.5
    assert b.damp_lambda == pytest.approx(0.25)
    np.testing.assert_allclose(dampened_hessian(b), np.diag([4.25, 1.25]))


def test_dead_columns_recorded():
    x = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]])
    b = accumulate_hessian([x], damp_fraction=0.01, width=3)
    np.testing.assert_array_equal(np.flatnonzero(b.layer.dead), [1])


def test_indefinite_failure_names_pivot():
    x = np.zeros((2, 3))
    with pytest.raises(IndefiniteHessianError) as exc:
        accumulate_hessian([x], damp_fraction=0.0, width=3)
    assert exc.value.pivot is not None


@pytest.mark.parametrize("first,second", [(0, 7), (2, 5), (3, 4), (6, 7)])
def test_indefinite_pivot_in_original_coordinates(first, second):
    # columns first < second couple only to each other, through an
    # indefinite 2 x 2 block: H[first + 1:, first + 1:] is positive definite
    # and H[first:, first:] is not, while the leading block first fails at
    # second
    h = random_spd(8, seed=first)
    for j in (first, second):
        h[j, :] = h[:, j] = 0.0
        h[j, j] = 1.0
    h[first, second] = h[second, first] = 2.0
    with pytest.raises(IndefiniteHessianError) as exc:
        factor(h, 0.0)
    assert exc.value.pivot == first
    assert f"pivot {first}" in str(exc.value)


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
    b = accumulate_hessian([x], damp_fraction=0.01, width=n)
    want = factor_of_inverse(dampened_hessian(b))
    assert np.max(np.abs(b.chol_upper - want)) <= 1e-12 * np.max(np.abs(want))


def test_requires_batches_and_consistent_cols():
    with pytest.raises(DimensionError):
        accumulate_hessian([], width=3)
    with pytest.raises(DimensionError, match="batch 0 has 4 columns, expected 3"):
        accumulate_hessian([np.ones((2, 4)), np.ones((2, 3))], width=3)
    with pytest.raises(DimensionError, match="activation batch 1"):
        accumulate_hessian([np.ones((2, 3)), np.ones((2, 4))], width=3)


def test_column_norms_345():
    norms = column_norms(raw_hessian([np.array([[3.0, 0.0], [4.0, 0.0]])], 2))
    np.testing.assert_allclose(norms, [5.0, 0.0])


def test_column_norms_identity():
    norms = column_norms(raw_hessian([np.eye(3)], 3))
    np.testing.assert_allclose(norms, [1.0, 1.0, 1.0])


def test_column_norms_batches_match_stacked():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((7, 4)), rng.standard_normal((9, 4))
    split = column_norms(raw_hessian([a, b], 4))
    stacked = column_norms(raw_hessian([np.vstack([a, b])], 4))
    np.testing.assert_allclose(split, stacked, rtol=1e-12)


def test_column_norms_row_permutation_invariant():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 5))
    shuffled = x[rng.permutation(20)]
    np.testing.assert_allclose(
        column_norms(raw_hessian([x], 5)),
        column_norms(raw_hessian([shuffled], 5)),
        rtol=1e-12,
    )


def test_zero_rows_batch_changes_nothing():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((15, 6))
    zeros = np.zeros((4, 6))
    b1 = accumulate_hessian([x], 0.01, width=6)
    b2 = accumulate_hessian([x, zeros], 0.01, width=6)
    np.testing.assert_array_equal(dampened_hessian(b1), dampened_hessian(b2))
    np.testing.assert_array_equal(
        column_norms(b1.layer.raw), column_norms(b2.layer.raw)
    )


def test_cholesky_identity_trivial_cases():
    x = np.random.default_rng(8).standard_normal((30, 6))
    b = accumulate_hessian([x], 0.01, width=6)
    full_dev = cholesky_inverse_identity_check(b, 0)
    assert full_dev <= 1e-8

    bd = factor(np.diag([4.0, 1.0]), 0.0)
    assert cholesky_inverse_identity_check(bd, 1) == 0.0


def test_cholesky_identity_every_index():
    h = random_spd(32, seed=9, cond=1e4)
    b = factor(h, 0.0)
    for i in range(32):
        assert cholesky_inverse_identity_check(b, i) <= 1e-7


def test_cholesky_identity_index_range():
    b = factor(np.eye(3), 0.0)
    with pytest.raises(DimensionError):
        cholesky_inverse_identity_check(b, 3)


@pytest.mark.parametrize("seed", range(6))
def test_indefinite_pivot_names_channel_in_any_order(seed):
    # channels a and b couple only to each other, through an indefinite
    # 2 x 2 block; H[order][:, order] is factored from its last column
    # backwards, so it fails at whichever of the two comes first in the order
    rng = np.random.default_rng(seed)
    a, b = (int(c) for c in rng.choice(8, 2, replace=False))
    h = random_spd(8, seed=seed)
    for j in (a, b):
        h[j, :] = h[:, j] = 0.0
        h[j, j] = 1.0
    h[a, b] = h[b, a] = 2.0
    order = Permutation(rng.permutation(8))
    first = a if order.inverse[a] < order.inverse[b] else b
    with pytest.raises(IndefiniteHessianError) as exc:
        factor(h, 0.0, order)
    assert exc.value.pivot == first
    assert f"pivot {first}" in str(exc.value)


@pytest.mark.parametrize("seed", range(3))
def test_any_order_factors_the_permuted_hessian(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((60, 24))
    raw = raw_hessian([x], 24)
    order = Permutation(rng.permutation(24))
    b = factor(raw, 0.01, order)
    f = order.forward
    assert b.order is order
    assert b.damp_lambda == factor(raw, 0.01).damp_lambda
    want = factor_of_inverse(raw[np.ix_(f, f)] + b.damp_lambda * np.eye(24))
    assert np.max(np.abs(b.chol_upper - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(b.chol_upper, np.triu(b.chol_upper))


def test_panel_gather_factors_the_direct_gather_bitwise():
    # H[q][:, q] is gathered by rows, then by column panels of 64 rows, an
    # exact copy: n = 300 ends in a partial panel
    n = 300
    rng = np.random.default_rng(13)
    layer = checked_layer(np.zeros((1, n)),
                          raw_hessian([rng.standard_normal((n + 20, n))], n))
    order = Permutation(rng.permutation(n))
    b = bundle_from_hessian(layer, 0.01, order)
    q = order.forward[::-1]
    h = layer.raw[np.ix_(q, q)]
    h.reshape(-1)[:: n + 1] += b.damp_lambda
    low, info = lapack.dpotrf(h.T, lower=1, overwrite_a=1)
    assert info == 0
    inv_low, info = lapack.dtrtri(low, lower=1, overwrite_c=1)
    assert info == 0
    np.testing.assert_array_equal(b.chol_upper, inv_low[::-1, ::-1])


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, MIRROR_PANEL + 40),
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
    assert np.array_equal(h, h.T)
    want = x.T @ x
    # the rounding of each entry scales with sqrt(H_ii H_jj)
    scale = np.sqrt(np.outer(want.diagonal(), want.diagonal()))
    assert np.all(np.abs(h - want) <= 1e-12 * scale)


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
    n = 512
    square = 8 * n * n
    rng = np.random.default_rng(11)
    batches = [rng.standard_normal((64, n)) for _ in range(8)]
    raw, peak, _ = traced_bytes(lambda: raw_hessian(batches, n))
    assert peak <= square + 8 * MIRROR_PANEL * n

    order = Permutation(rng.permutation(n))
    layer = checked_layer(np.zeros((1, n)), raw)
    # one n x n buffer, gathered by rows then by 64-row column panels
    # (n^2 + 64 n), factored in place and held as it lies
    _, peak, held = traced_bytes(lambda: bundle_from_hessian(layer, 0.01, order))
    assert peak <= 1.25 * square
    assert held <= 1.1 * square


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
    layer = checked_layer(rng.standard_normal((16, n)),
                          raw_hessian([rng.standard_normal((1024, n))], n))
    _, peak, _ = traced_bytes(lambda: prune(layer, SparsityConfig(0.5)))
    assert peak <= 0.5 * 8 * n * n


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


def nan_hessian():
    h = random_spd(32, seed=10)
    h[3, 7] = np.nan
    return h


def inf_hessian():
    h = random_spd(32, seed=10)
    h[5, 5] = np.inf
    return h


def negative_diagonal_hessian():
    """A symmetric H whose diagonal goes negative at columns 5 and 9."""
    h = random_spd(32, seed=10)
    h[5, 5] = h[9, 9] = -1.0
    return h


def ones_layer(h):
    """``checked_layer`` of a W of ones with ``h`` as its Hessian."""
    return checked_layer(np.ones((2, h.shape[1])), h)


def run_baseline(fn):
    return lambda h: fn(ones_layer(h), SparsityConfig(0.5, blocksize=4))


def run_rose(h):
    """``rose_prune_layer`` with ``h`` in place of the Hessian of its batches."""
    with mock.patch.object(reorder, "raw_hessian", lambda activations, width: h):
        return rose_prune_layer(
            np.ones((2, h.shape[1])), [], SparsityConfig(0.5, blocksize=4)
        )


ENTRY_POINTS = {
    "factor": lambda h: bundle_from_hessian(ones_layer(h), 0.01),
    "factor-reordered": lambda h: bundle_from_hessian(
        ones_layer(h), 0.01, Permutation(np.arange(h.shape[0])[::-1])
    ),
    "rose": run_rose,
    "magnitude": run_baseline(magnitude_prune),
    "wanda": run_baseline(wanda_prune),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("make,error", [
    pytest.param(nan_hessian, NumericOverflowError, id="nan"),
    pytest.param(inf_hessian, NumericOverflowError, id="inf"),
    pytest.param(lambda: np.zeros((0, 0)), DimensionError, id="empty"),
    pytest.param(lambda: np.ones((4, 8)), DimensionError, id="non-square"),
    pytest.param(negative_diagonal_hessian, IndefiniteHessianError,
                 id="negative-diagonal"),
])
def test_bad_raw_hessian_rejected_before_factoring(
    monkeypatch, capfd, entry, make, error
):
    factored = []
    for name in ("dpotrf", "dtrtri"):
        monkeypatch.setattr(
            lapack, name, lambda *a, _name=name, **k: factored.append(_name)
        )
    with pytest.raises(error) as exc:
        ENTRY_POINTS[entry](make())
    if error is IndefiniteHessianError:
        # the first negative diagonal, in channel order whatever the order
        assert exc.value.pivot == 5
    assert factored == []
    assert capfd.readouterr() == ("", "")


def identity_layer(w):
    """``checked_layer`` of ``w`` with H = I."""
    return checked_layer(w, np.eye(w.shape[1]))


def run_engine(w):
    bundle = bundle_from_hessian(identity_layer(w), 0.01)
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

    monkeypatch.setattr(reorder, "raw_hessian", started)
    monkeypatch.setattr(engine, "select_block_mask", started)
    monkeypatch.setattr(baselines, "pruned_entries", started)
    monkeypatch.setattr(baselines, "smallest_per_row", started)
    w = np.ones((2, 8))
    w[1, 3] = bad
    with pytest.raises(NumericOverflowError, match="weights not finite"):
        WEIGHT_ENTRY_POINTS[entry](w)


@pytest.mark.parametrize("entry", ["checked_layer", "rose"])
def test_dense_energy_overflow_rejected_before_factoring(monkeypatch, capfd, entry):
    """A finite W whose output energy overflows fails where the layer is built."""
    factored = []
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **k: factored.append(1))
    w = np.full((2, 8), 1e200)
    with pytest.raises(NumericOverflowError, match="dense output energy inf"):
        if entry == "rose":
            with mock.patch.object(reorder, "raw_hessian", lambda acts, width: np.eye(8)):
                rose_prune_layer(w, [], SparsityConfig(0.5, blocksize=4))
        else:
            checked_layer(w, np.eye(8))
    assert factored == []
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("damp,diagonal", [
    pytest.param(1e308, 4.0, id="lambda"),
    # lambda = 0.75e308 is finite, the dampened diagonal 2.25e308 is not
    pytest.param(0.5, 1.5e308, id="dampened-diagonal"),
])
def test_overflowing_damping_rejected_before_factoring(monkeypatch, capfd, damp, diagonal):
    """A finite damping fraction whose lambda overflows fails before dpotrf."""
    factored = []
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **k: factored.append(1))
    layer = checked_layer(np.zeros((2, 8)), np.eye(8) * diagonal)
    with pytest.raises(NumericOverflowError, match="damping lambda"):
        bundle_from_hessian(layer, damp)
    assert factored == []
    assert capfd.readouterr() == ("", "")


def test_checked_layer_derives_once():
    """W row-major, the norms, dead channels and dense energy of (W, H)."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((20, 6))
    x[:, 2] = 0.0
    w = np.asfortranarray(rng.standard_normal((3, 6)))
    raw = raw_hessian([x], 6)
    layer = checked_layer(w, raw)
    assert layer.w.flags.c_contiguous and np.array_equal(layer.w, w)
    assert layer.raw is raw
    np.testing.assert_array_equal(layer.norms, column_norms(raw))
    np.testing.assert_array_equal(np.flatnonzero(layer.dead), [2])
    assert layer.dense_energy == pytest.approx(np.sum(np.square(w @ x.T)), rel=1e-12)
    # numpy fields: equality and hash are by identity, as for Permutation
    bundles = [bundle_from_hessian(layer, 0.01) for _ in range(2)]
    assert layer == layer and layer != checked_layer(w, raw)
    assert bundles[0] == bundles[0] and len(set(bundles)) == 2
