"""Test-only helpers: HessianBundle construction and views, column orders, and
layers outside the numeric domain."""

import numpy as np

from obsprune import (
    DimensionError,
    IndefiniteHessianError,
    Permutation,
    bundle_from_hessian,
    checked_layer,
)
from obsprune.calibration import DAMP_FRACTION
from obsprune.synth import gen_activations, gen_columnar, gen_uniform


def factor(activations, damp_fraction=DAMP_FRACTION, w=None, order=None, width=None):
    """The bundle of the layer of ``w`` and X.T @ X over ``activations``, in ``order``.

    Dampened at ``damp_fraction``, and factored in channel order by default.
    ``w`` defaults to one zero row ``width`` wide, for tests of the factor
    alone; ``width`` defaults to batch 0's.
    """
    if w is None:
        w = np.zeros((1, np.shape(activations[0])[1] if width is None else width))
    return bundle_from_hessian(checked_layer(w, activations, damp_fraction), order)


def gram_root(h):
    """One batch X with X.T @ X = h to rounding, for a symmetric positive definite h."""
    return np.linalg.cholesky(h).T


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


#: (scale of W, scale of X, damp_fraction) of the 8 x 32 layer of
#: ``outside_the_domain``, each outside the numeric domain; "damp-1e305" is
#: ``obsprune prune --synth uniform --rows 16 --cols 64 --damp 1e305``'s layer
OUTSIDE = {
    "x*2**-515": (1.0, 2.0**-515, DAMP_FRACTION),
    "x*1e-160": (1.0, 1e-160, DAMP_FRACTION),
    "w*2**-540": (2.0**-540, 1.0, DAMP_FRACTION),
    "w*2**-560": (2.0**-560, 1.0, DAMP_FRACTION),
    "w,x*2**-300": (2.0**-300, 2.0**-300, DAMP_FRACTION),
    "damp-1e305": (1.0, 1.0, 1e305),
}


def outside_the_domain(case):
    """(W, X, damp_fraction) of the ``OUTSIDE`` case named ``case``.

    At 8 x 32 with 64 samples, blocksize 8 and p = 0.5, sparsegpt once gave
    W * 2**-540 a relative error of 0.200 where W gives 0.068, and both
    W and X * 2**-300 an error of 0.0.
    """
    w_scale, x_scale, damp = OUTSIDE[case]
    if case == "damp-1e305":
        return gen_uniform(16, 64, 0), gen_activations(384, 64, 0.3, 1000003), damp
    rng = np.random.default_rng(0)
    w, x = rng.standard_normal((8, 32)), rng.standard_normal((64, 32))
    return w * w_scale, x * x_scale, damp


def collinear_inputs():
    """16 x 64 columnar W, and X * 2**-495 whose channels 4 and 5 are nearly collinear.

    Inside the numeric domain, but undamped the Schur complement of either
    channel in H is near 2**-1026, so the OBS denominator [H^-1]_qq of the
    first one pruned overflows.
    """
    rng = np.random.default_rng(43)
    x = rng.standard_normal((256, 64))
    x[:, 5] = x[:, 4] + 2.0**-22 * rng.standard_normal(256)
    return gen_columnar(16, 64, 16, 2, 10.0, seed=43), x * 2.0**-495


def collinear_layer():
    """The undamped layer of ``collinear_inputs``."""
    w, x = collinear_inputs()
    return checked_layer(w, [x], 0.0)
