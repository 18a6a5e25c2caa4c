"""Hessian accumulation from calibration batches, and what derives from it.

The Hessian of the layer-wise reconstruction objective is the Gram matrix
H = X.T @ X of the input activations.  ``raw_hessian`` is the one place the
activation batches are read: it streams them with ``dsyrk`` into one
triangle and mirrors it once.  Column norms, the factor and every error are
derived from H.  For pruning, H is dampened by a multiple of its mean
diagonal, and the upper Cholesky factor of its inverse, which drives the
compensation engine, comes from one in-place factorization: the Cholesky
factor of H in pruning order with rows and columns reversed, inverted as a
triangle and reversed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DimensionError, IndefiniteHessianError
from .tensors import Permutation, finite_matrix

#: Squared inverse-factor diagonals below this are treated as degenerate.
DEGENERATE_DIAG = 1e-30

#: columns per panel when ``raw_hessian`` mirrors its triangle
MIRROR_PANEL = 256


@dataclass(frozen=True)
class HessianBundle:
    """Raw Hessian and the inverse factor used for pruning.

    ``chol_upper`` is the upper triangular U with inv(H) = U.T @ U for the
    dampened Hessian H[order][:, order]; its trailing blocks reproduce the
    inverses of all trailing Hessian submatrices, which is what lets one
    factorization serve the whole left-to-right pruning sweep.  ``raw`` is
    the caller's X.T @ X in channel order, without dampening, the matrix
    every reconstruction error is measured in; ``dead_columns`` are the
    channels whose diagonal in it is zero.
    """

    n: int
    raw: np.ndarray
    chol_upper: np.ndarray
    damp_lambda: float
    order: Permutation
    dead_columns: np.ndarray


def checked_hessian(raw) -> np.ndarray:
    """``raw`` as a float64 matrix, once it is a finite, non-empty Gram matrix.

    Called where a caller's raw Hessian enters (the factor, the column norms
    and the baselines), so a bad H fails before any factoring or scoring.
    A Gram matrix's diagonal is >= 0: the first negative one is the pivot.
    """
    raw = finite_matrix(raw, "hessian")
    n = raw.shape[0]
    if n == 0 or raw.shape[1] != n:
        raise DimensionError(f"hessian must be square and non-empty, got {raw.shape}")
    pivot = int(np.argmax(raw.diagonal() < 0))
    if raw[pivot, pivot] < 0:
        raise IndefiniteHessianError(f"hessian has a negative diagonal (pivot {pivot})",
                                     pivot=pivot)
    return raw


def raw_hessian(activations: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of per-batch Gram matrices X.T @ X, without dampening.

    One pass: each batch is checked as it arrives and added by ``dsyrk``
    into the upper triangle of one column-major buffer, which is mirrored
    once at the end, in place one panel of columns at a time, so the result
    is exactly symmetric and no temporary outgrows a panel.
    """
    acc = None
    for i, b in enumerate(activations):
        b = finite_matrix(b, f"activation batch {i}")
        if acc is None:
            acc = np.zeros((b.shape[1], b.shape[1]), order="F")
        elif b.shape[1] != acc.shape[0]:
            raise DimensionError(
                f"batch has {b.shape[1]} columns, expected {acc.shape[0]}"
            )
        if b.size:
            # a row-major batch is the column-major b.T that BLAS reads uncopied
            acc = blas.dsyrk(1.0, b.T, beta=1.0, c=acc, overwrite_c=1)
    if acc is None:
        raise DimensionError("need at least one activation batch")
    n = acc.shape[0]
    for j1 in range(0, n, MIRROR_PANEL):
        j2 = min(j1 + MIRROR_PANEL, n)
        acc[j2:, j1:j2] = acc[j1:j2, j2:].T
        diagonal = acc[j1:j2, j1:j2]
        diagonal += np.triu(diagonal, 1).T
    # symmetric, so the row-major view holds the same matrix
    return acc.T


def bundle_from_hessian(
    raw: np.ndarray, damp_fraction: float = 0.0, order: Permutation | None = None
) -> HessianBundle:
    """Factor the dampened H[order][:, order] (channel order by default).

    The one copy of H made here is h = H[q][:, q] for q the order reversed,
    whose leading k x k block is the trailing block of H[order][:, order]
    reversed.  It is factored and inverted in place, and only the inverse
    factor, reversed back, outlives the call.  The damping comes from the
    diagonal in channel order, so every order of a layer gets the same one.
    """
    raw = checked_hessian(raw)
    n = raw.shape[0]
    if order is None:
        order = Permutation.identity(n)
    elif order.size != n:
        raise DimensionError(f"order size {order.size} != Hessian size {n}")
    diag = raw.diagonal()
    lam = float(damp_fraction * diag.mean())
    q = order.forward[::-1]
    h = raw[np.ix_(q, q)]
    h.reshape(-1)[:: n + 1] += lam
    # h is symmetric, so h.T is the column-major matrix LAPACK overwrites
    low, info = lapack.dpotrf(h.T, lower=1, overwrite_a=1, clean=0)
    if info > 0:
        pivot = int(order.forward[n - info])
        raise IndefiniteHessianError(
            f"dampened Hessian is not positive definite (pivot {pivot})",
            pivot=pivot,
        )
    if info < 0:
        raise IndefiniteHessianError(f"invalid argument {-info} to dpotrf")
    inv_low, info = lapack.dtrtri(low, lower=1, overwrite_c=1)
    if info != 0:
        raise IndefiniteHessianError(f"dtrtri failed with info={info}")
    # the strict upper triangle still holds the dampened H
    for j in range(1, n):
        inv_low[:j, j] = 0.0
    return HessianBundle(
        n=n,
        raw=raw,
        chol_upper=inv_low[::-1, ::-1].copy(),
        damp_lambda=lam,
        order=order,
        dead_columns=np.flatnonzero(diag == 0.0),
    )


def column_norms(raw: np.ndarray) -> np.ndarray:
    """l2 norm of each activation column: the root of the raw Hessian's diagonal."""
    return np.sqrt(checked_hessian(raw).diagonal())
