"""The checked layer: W, the raw Hessian of its inputs, and what derives from them.

The Hessian of the layer-wise reconstruction objective is the Gram matrix
H = X.T @ X of the input activations.  ``raw_hessian`` is the one place the
activation batches are read and checked against the layer's width: it
streams them with ``dsyrk`` into one triangle and mirrors it once.
``checked_layer`` is the one place W and H are checked against each other;
the ``Layer`` it returns holds them with the column norms, the dead
channels and the dense output energy, derived once, and every method reads
them from it.  Every error is a quadratic form in H, ``error_prefix``.  For
pruning, H is dampened by a multiple of its mean diagonal, and the upper
Cholesky factor of its inverse, which drives the compensation engine, comes
from one in-place factorization: the Cholesky factor of H in pruning order
with rows and columns reversed, inverted as a triangle and read in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DimensionError, IndefiniteHessianError, NumericOverflowError
from .tensors import Permutation, as_matrix, finite_matrix

#: columns per panel when ``raw_hessian`` mirrors its triangle
MIRROR_PANEL = 256
#: rows per panel when ``bundle_from_hessian`` gathers H's columns
GATHER_PANEL = 64


@dataclass(frozen=True, eq=False)
class Layer:
    """One layer's weights and the raw Hessian of its inputs, checked together.

    Built only by ``checked_layer``; equality is by identity.  ``w`` is
    finite and row-major, so every sum over it runs in one order whatever
    the caller's layout; ``raw`` is the caller's X.T @ X in channel order,
    without dampening, the matrix every reconstruction error is measured
    in.  ``norms`` are the column norms, ``dead`` is True for each channel
    whose diagonal in H is zero, and ``dense_energy`` is the dense layer's
    output energy sum(W @ H @ W.T).
    """

    w: np.ndarray
    raw: np.ndarray
    norms: np.ndarray
    dead: np.ndarray
    dense_energy: float


@dataclass(frozen=True, eq=False)
class HessianBundle:
    """A layer and the inverse factor used to prune it; equality is by identity.

    ``chol_upper`` is the upper triangular U, zeros below, with inv(H) =
    U.T @ U for the dampened Hessian H[order][:, order], held as LAPACK's
    buffer read in reverse, a view that is not C-contiguous.  Its trailing
    blocks reproduce the inverses of all trailing Hessian submatrices, which
    is what lets one factorization serve the whole left-to-right sweep.
    """

    layer: Layer
    chol_upper: np.ndarray
    damp_lambda: float
    order: Permutation


def error_prefix(d: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Entry e is the sum over the rows of d[:, :e] @ H[:e, :e] @ d[:, :e].

    That is ||d[:, :e] X[:, :e].T||^2 for H = X.T X; the last entry is the
    whole error.  One ``dtrmm`` makes G = 2 d triu(H), reading only the upper
    triangle of H, and column j adds sum_rows d_j (G_j - H_jj d_j).  Both
    operands are made row-major, whose transposes BLAS reads uncopied, so
    the sums run in one order and the error depends on the values alone.
    """
    d = np.ascontiguousarray(d)
    h = np.ascontiguousarray(hessian)
    prefix = np.zeros(d.shape[1] + 1)
    # f2py rejects an empty operand, which a layer with no rows gives
    if d.size:
        g = blas.dtrmm(2.0, h.T, d.T, lower=1).T
        g -= h.diagonal() * d
        g *= d
        np.cumsum(g.sum(axis=0), out=prefix[1:])
    return prefix


def checked_layer(w, raw) -> Layer:
    """The layer (W, H), once W and H pass every check, before any scoring.

    W must be finite.  H must be finite, square, non-empty and as wide as
    W, with a non-negative diagonal, as a Gram matrix's is: the first
    negative entry is the pivot.  The dense output energy must be finite,
    so that every relative error has a denominator.
    """
    w = np.ascontiguousarray(finite_matrix(w))
    raw = finite_matrix(raw, "hessian")
    n = raw.shape[0]
    if n == 0 or raw.shape[1] != n:
        raise DimensionError(f"hessian must be square and non-empty, got {raw.shape}")
    if w.shape[1] != n:
        raise DimensionError(f"weight cols {w.shape[1]} != Hessian size {n}")
    diag = raw.diagonal()
    pivot = int(np.argmax(diag < 0))
    if diag[pivot] < 0:
        raise IndefiniteHessianError(f"hessian has a negative diagonal (pivot {pivot})",
                                     pivot=pivot)
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        energy = float(error_prefix(w, raw)[-1])
    if not np.isfinite(energy):
        raise NumericOverflowError(f"dense output energy {energy} is not finite")
    return Layer(w, raw, column_norms(raw), diag == 0.0, energy)


def raw_hessian(activations: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Sum of per-batch Gram matrices X.T @ X, without dampening.

    ``width`` is the layer's: W's column count.  One pass: each batch is
    checked as it arrives, 2-D, ``width`` columns wide and finite, before
    anything is allocated for it, so the width x width buffer is sized only
    once batch 0 has passed.  Each batch is added by ``dsyrk`` into the
    upper triangle of that column-major buffer, which is mirrored once at
    the end, in place one panel of columns at a time, so the result is
    exactly symmetric and no temporary outgrows a panel.
    """
    acc = None
    for i, b in enumerate(activations):
        what = f"activation batch {i}"
        b = as_matrix(b, what)
        if b.shape[1] != width:
            raise DimensionError(f"{what} has {b.shape[1]} columns, expected {width}")
        b = finite_matrix(b, what)
        if acc is None:
            acc = np.zeros((width, width), order="F")
        if b.size:
            # a row-major batch is the column-major b.T that BLAS reads uncopied
            acc = blas.dsyrk(1.0, b.T, beta=1.0, c=acc, overwrite_c=1)
    if acc is None:
        raise DimensionError("need at least one activation batch")
    for j1 in range(0, width, MIRROR_PANEL):
        j2 = min(j1 + MIRROR_PANEL, width)
        acc[j2:, j1:j2] = acc[j1:j2, j2:].T
        diagonal = acc[j1:j2, j1:j2]
        diagonal += np.triu(diagonal, 1).T
    # symmetric, so the row-major view holds the same matrix
    return acc.T


def damping(raw: np.ndarray, damp_fraction: float) -> float:
    """lambda = damp_fraction * mean(diag H), the same in every column order.

    One that overflows H + lambda I raises NumericOverflowError, with no warning.
    """
    diag = raw.diagonal()
    with np.errstate(over="ignore"):  # raised just below
        lam = float(damp_fraction * diag.mean())
        top = float(diag.max()) + lam
    if not np.isfinite(top):
        raise NumericOverflowError(f"damping lambda = {lam} overflows the dampened "
                                   f"diagonal (largest entry {top})")
    return lam


def bundle_from_hessian(
    layer: Layer, damp_fraction: float, order: Permutation | None = None
) -> HessianBundle:
    """Factor the layer's dampened H[order][:, order] (channel order by default).

    The one copy of H made here is h = H[q][:, q] for q the order reversed,
    whose leading k x k block is the trailing block of H[order][:, order]
    reversed.  Gathered by rows, then by column panels of 64 rows (a peak
    of n**2 + 64 n doubles), it is factored and inverted in place; U is
    that buffer read in reverse.  ``damping`` is checked before H is copied.
    """
    raw = layer.raw
    n = raw.shape[0]
    if order is None:
        order = Permutation.identity(n)
    elif order.size != n:
        raise DimensionError(f"order size {order.size} != Hessian size {n}")
    lam = damping(raw, damp_fraction)
    q = order.forward[::-1]
    h = raw.take(q, axis=0)
    for i in range(0, n, GATHER_PANEL):
        h[i : i + GATHER_PANEL] = h[i : i + GATHER_PANEL].take(q, axis=1)
    h.reshape(-1)[:: n + 1] += lam
    # h is symmetric, so h.T is the column-major matrix LAPACK overwrites;
    # the default clean=1 zeroes its strict upper triangle, which dtrtri keeps
    low, info = lapack.dpotrf(h.T, lower=1, overwrite_a=1)
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
    return HessianBundle(layer, inv_low[::-1, ::-1], lam, order)


def column_norms(raw: np.ndarray) -> np.ndarray:
    """l2 norm of each activation column: the root of the raw Hessian's diagonal."""
    return np.sqrt(raw.diagonal())


def importance_scores(layer: Layer) -> np.ndarray:
    """Per-weight score |w_ij| * norm_j."""
    return np.abs(layer.w) * layer.norms
