import numpy as np
import pytest

from obsprune import (
    DimensionError,
    IndefiniteHessianError,
    accumulate_hessian,
    bundle_from_hessian,
    cholesky_inverse_identity_check,
    column_norms,
    raw_hessian,
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


def test_identity_activations():
    b = accumulate_hessian([np.eye(2)], damp_fraction=0.0)
    np.testing.assert_allclose(b.hessian, np.eye(2))
    np.testing.assert_allclose(b.inv_hessian, np.eye(2))
    np.testing.assert_allclose(b.chol_upper, np.eye(2))
    assert b.damp_lambda == 0.0


def test_diagonal_case():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = accumulate_hessian([x], damp_fraction=0.0)
    np.testing.assert_allclose(b.hessian, np.diag([4.0, 1.0]))
    np.testing.assert_allclose(b.inv_hessian, np.diag([0.25, 1.0]))


def test_inverse_matches_gauss_oracle():
    x = np.random.default_rng(3).standard_normal((16, 8))
    b = accumulate_hessian([x], damp_fraction=0.01)
    expected = gauss_inverse(b.hessian)
    assert np.max(np.abs(b.inv_hessian - expected)) < 1e-8


def test_bundle_invariants():
    x = np.random.default_rng(4).standard_normal((40, 12))
    b = accumulate_hessian([x], damp_fraction=0.01)
    assert np.max(np.abs(b.hessian @ b.inv_hessian - np.eye(12))) < 1e-8
    low = b.chol_upper.T
    assert np.allclose(low, np.tril(low))
    assert np.max(np.abs(low @ low.T - b.inv_hessian)) < 1e-8


def test_dampening_uses_mean_diagonal():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = accumulate_hessian([x], damp_fraction=0.1)
    # raw diag (4, 1), mean 2.5
    assert b.damp_lambda == pytest.approx(0.25)
    np.testing.assert_allclose(b.hessian, np.diag([4.25, 1.25]))


def test_dead_columns_recorded():
    x = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0]])
    b = accumulate_hessian([x], damp_fraction=0.01)
    np.testing.assert_array_equal(b.dead_columns, [1])


def test_indefinite_failure_names_pivot():
    x = np.zeros((2, 3))
    with pytest.raises(IndefiniteHessianError) as exc:
        accumulate_hessian([x], damp_fraction=0.0)
    assert exc.value.pivot is not None


def test_requires_batches_and_consistent_cols():
    with pytest.raises(DimensionError):
        accumulate_hessian([])
    with pytest.raises(DimensionError):
        accumulate_hessian([np.ones((2, 3)), np.ones((2, 4))])


def test_column_norms_345():
    norms = column_norms(raw_hessian([np.array([[3.0, 0.0], [4.0, 0.0]])]))
    np.testing.assert_allclose(norms, [5.0, 0.0])


def test_column_norms_identity():
    norms = column_norms(raw_hessian([np.eye(3)]))
    np.testing.assert_allclose(norms, [1.0, 1.0, 1.0])


def test_column_norms_batches_match_stacked():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((7, 4)), rng.standard_normal((9, 4))
    split = column_norms(raw_hessian([a, b]))
    stacked = column_norms(raw_hessian([np.vstack([a, b])]))
    np.testing.assert_allclose(split, stacked, rtol=1e-12)


def test_column_norms_row_permutation_invariant():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 5))
    shuffled = x[rng.permutation(20)]
    np.testing.assert_allclose(
        column_norms(raw_hessian([x])),
        column_norms(raw_hessian([shuffled])),
        rtol=1e-12,
    )


def test_zero_rows_batch_changes_nothing():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((15, 6))
    zeros = np.zeros((4, 6))
    b1 = accumulate_hessian([x], 0.01)
    b2 = accumulate_hessian([x, zeros], 0.01)
    np.testing.assert_array_equal(b1.hessian, b2.hessian)
    np.testing.assert_array_equal(
        column_norms(b1.raw), column_norms(b2.raw)
    )


def test_cholesky_identity_trivial_cases():
    x = np.random.default_rng(8).standard_normal((30, 6))
    b = accumulate_hessian([x], 0.01)
    full_dev = cholesky_inverse_identity_check(b, 0)
    assert full_dev <= 1e-8

    bd = bundle_from_hessian(np.diag([4.0, 1.0]))
    assert cholesky_inverse_identity_check(bd, 1) == 0.0


def test_cholesky_identity_every_index():
    h = random_spd(32, seed=9, cond=1e4)
    b = bundle_from_hessian(h)
    for i in range(32):
        assert cholesky_inverse_identity_check(b, i) <= 1e-7


def test_cholesky_identity_index_range():
    b = bundle_from_hessian(np.eye(3))
    with pytest.raises(DimensionError):
        cholesky_inverse_identity_check(b, 3)
