"""Test-only helpers: HessianBundle construction and views, and column orders."""

import numpy as np

from obsprune import (
    DimensionError,
    IndefiniteHessianError,
    Permutation,
    bundle_from_hessian,
    raw_hessian,
)


def accumulate_hessian(activations, damp_fraction=0.01):
    """The bundle of X.T @ X over ``activations``, factored in channel order."""
    return bundle_from_hessian(raw_hessian(activations), damp_fraction)


def block_order(config, n, blocks):
    """The column order that prunes whole blocks in the order ``blocks``."""
    ranges = config.block_ranges(n)
    return Permutation(np.concatenate([np.arange(*ranges[b]) for b in blocks]))


def dampened_hessian(bundle):
    """The matrix the bundle factored: raw + damp_lambda * I, in its order."""
    f = bundle.order.forward
    h = bundle.raw[np.ix_(f, f)]
    h[np.diag_indices(bundle.n)] += bundle.damp_lambda
    return h


def cholesky_inverse_identity_check(bundle, i):
    """Max-abs gap between inv(H[i:, i:]) and the trailing factor product.

    A zero-ish return for every i is the numerical witness that one
    Cholesky factorization of the inverse Hessian encodes the inverses of
    all trailing submatrices.
    """
    if not 0 <= i < bundle.n:
        raise DimensionError(f"index {i} out of range [0, {bundle.n})")
    trailing = dampened_hessian(bundle)[i:, i:]
    try:
        direct = np.linalg.inv(trailing)
    except np.linalg.LinAlgError as e:
        raise IndefiniteHessianError(f"trailing submatrix at {i} is singular") from e
    low = bundle.chol_upper.T
    prod = low[i:, i:] @ low[i:, i:].T
    return float(np.max(np.abs(direct - prod)))
