"""Test-only helpers: HessianBundle construction and views, and column orders."""

import numpy as np

from obsprune import (
    DimensionError,
    IndefiniteHessianError,
    Permutation,
    bundle_from_hessian,
    checked_layer,
    raw_hessian,
)
from obsprune.calibration import DAMP_FRACTION


def factor(raw, damp_fraction, order=None, w=None):
    """The bundle of the layer (w, raw), dampened at ``damp_fraction``, in ``order``.

    ``w`` defaults to one zero row, for tests of the factor alone.
    """
    w = np.zeros((1, np.shape(raw)[-1])) if w is None else w
    return bundle_from_hessian(checked_layer(w, raw, damp_fraction), order)


def accumulate_hessian(activations, damp_fraction=DAMP_FRACTION, w=None, width=None):
    """The bundle of X.T @ X over ``activations``, factored in channel order.

    The batches must be ``width`` wide, W's width by default.
    """
    width = w.shape[1] if width is None else width
    return factor(raw_hessian(activations, width), damp_fraction, w=w)


def block_order(config, n, blocks):
    """The column order that prunes whole blocks in the order ``blocks``."""
    ranges = config.block_ranges(n)
    return Permutation(np.concatenate([np.arange(*ranges[b]) for b in blocks]))


def symmetric(raw):
    """The whole H of a buffer that holds it in its upper triangle."""
    return np.triu(raw) + np.triu(raw, 1).T


def upper_factor(bundle):
    """A copy of the bundle's U: chol_upper's strict upper triangle, and diag.

    A stale bundle raises StaleFactorError: its buffer holds another factor.
    """
    return np.triu(bundle.valid().chol_upper, 1) + np.diag(bundle.diag)


def dampened_hessian(bundle):
    """The matrix the bundle factored: raw + damp_lambda * I, in its order."""
    f = bundle.order.forward
    h = symmetric(bundle.layer.raw)[np.ix_(f, f)]
    h[np.diag_indices(f.size)] += bundle.layer.damp_lambda
    return h


def cholesky_inverse_identity_check(bundle, i):
    """Max-abs gap between inv(H[i:, i:]) and the trailing factor product.

    A zero-ish return for every i is the numerical witness that one
    Cholesky factorization of the inverse Hessian encodes the inverses of
    all trailing submatrices.
    """
    n = bundle.order.size
    if not 0 <= i < n:
        raise DimensionError(f"index {i} out of range [0, {n})")
    trailing = dampened_hessian(bundle)[i:, i:]
    try:
        direct = np.linalg.inv(trailing)
    except np.linalg.LinAlgError as e:
        raise IndefiniteHessianError(f"trailing submatrix at {i} is singular") from e
    low = upper_factor(bundle).T
    prod = low[i:, i:] @ low[i:, i:].T
    return float(np.max(np.abs(direct - prod)))
