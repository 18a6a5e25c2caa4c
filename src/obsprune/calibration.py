"""The checked layer: W, the raw Hessian of its inputs, and what derives from them.

The Hessian of the layer-wise reconstruction objective is the Gram matrix
H = X.T @ X of the input activations.  ``raw_hessian`` is the one place the
activation batches are read and checked: it streams them with ``dsyrk``
into one triangle, reads each batch's finiteness off H's diagonal, and
mirrors the triangle once.  ``checked_layer`` is the one place W and H are
checked against each other; the ``Layer`` it returns holds them with the
column norms, the dead channels and the dense output energy, derived once,
and every method reads them from it.  Every error is a quadratic form in
H: ``error_total`` gives the whole of one, ``error_prefix`` its running
sum over the columns.  For pruning, H is dampened by a multiple of its mean
diagonal, and the upper Cholesky factor of its inverse drives the
compensation engine.  It is made one of two ways.  ``bundle_from_hessian``
factors H in pruning order with rows and columns reversed, inverts the
factor as a triangle and reads it transposed and in reverse.  Once a
channel-order factor exists, ``invert_in_place`` turns its buffer into the
whole inverse, and ``bundle_from_inverse`` gathers that inverse in another
order and factors it with one ``dpotrf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DimensionError, IndefiniteHessianError, NumericOverflowError
from .tensors import Permutation, as_matrix, finite_matrix

#: rows per panel when ``raw_hessian`` mirrors its triangle; of 32, 64, 128
#: and 256, 64 mirrored fastest at n = 1024 and 2048 (at 2048: 11.5, 8.2,
#: 10.3 and 18.0 ms, 2 BLAS threads)
MIRROR_PANEL = 64
#: rows per panel when a factor gathers the columns of H or of its inverse
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
    U.T @ U for the dampened Hessian H[order][:, order].  From
    ``bundle_from_hessian`` it is LAPACK's buffer transposed and read in
    reverse, a view with strides (-8n, -8); from ``bundle_from_inverse`` it
    is LAPACK's buffer itself, a plain column-major array.  Its trailing
    blocks reproduce the inverses of all trailing Hessian submatrices,
    which is what lets one factorization serve the whole left-to-right
    sweep.
    """

    layer: Layer
    chol_upper: np.ndarray
    damp_lambda: float
    order: Permutation


@dataclass(frozen=True, eq=False)
class DampedInverse:
    """A layer's inverse dampened Hessian, made once per damping; equality is by identity.

    ``reversed`` is 4**shift * inv(H + damp_lambda I) in channel order with
    rows and columns reversed, whole and exactly symmetric.  The power of
    two, set by H's largest dampened diagonal, keeps its entries near the
    scale of 1, so that they neither underflow nor overflow where the
    factors made from them do not.
    """

    layer: Layer
    reversed: np.ndarray
    damp_lambda: float
    shift: int


def error_prefix(d: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Entry e is the sum over the rows of d[:, :e] @ H[:e, :e] @ d[:, :e].

    That is ||d[:, :e] X[:, :e].T||^2 for H = X.T X, for the baselines'
    error at each block end; ``error_total`` gives the last entry alone.
    One ``dtrmm`` makes G = 2 d triu(H), reading only the upper triangle of
    H, and column j adds sum_rows d_j (G_j - H_jj d_j).  Both operands are
    made row-major, whose transposes BLAS reads uncopied, so the sums run
    in one order and the error depends on the values alone.
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


def error_total(d: np.ndarray, hessian: np.ndarray) -> float:
    """The sum over the rows of d @ H @ d, ||d X.T||^2 for H = X.T X.

    ``error_prefix``'s G = 2 d triu(H), then <d, G> - sum_j H_jj ||d_j||^2
    by two ``ddot``s, the second over G's buffer refilled with d H_jj: no
    prefix and no temporary beyond G.  <d, G> holds the second term, so
    where it overflows the total is inf, not inf - inf, with no warning.
    """
    d = np.ascontiguousarray(d)
    h = np.ascontiguousarray(hessian)
    # f2py rejects an empty operand, which a layer with no rows gives
    if not d.size:
        return 0.0
    g = blas.dtrmm(2.0, h.T, d.T, lower=1).T
    flat_d, flat_g = d.reshape(-1), g.reshape(-1)
    cross = blas.ddot(flat_d, flat_g)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(d, h.diagonal(), out=g)
    return cross if np.isinf(cross) else cross - blas.ddot(flat_d, flat_g)


def checked_layer(w, raw) -> Layer:
    """The layer (W, H), once W and H pass every check, before any scoring.

    W must be finite.  H must be finite, square, non-empty and as wide as
    W, with a non-negative diagonal, as a Gram matrix's is: the first
    negative entry is the pivot.  The dense output energy, ``error_total``
    of W, must be finite, so that every relative error has a denominator.
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
    energy = error_total(w, raw)
    if not np.isfinite(energy):
        raise NumericOverflowError(f"dense output energy {energy} is not finite")
    return Layer(w, raw, column_norms(raw), diag == 0.0, energy)


def raw_hessian(activations: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Sum of per-batch Gram matrices X.T @ X, without dampening.

    ``width`` is the layer's: W's column count.  One pass: each batch is
    checked as it arrives, 2-D and ``width`` columns wide, before anything
    is allocated for it, so the width x width buffer is sized only once
    batch 0 has passed.  Each batch is added by ``dsyrk`` into the upper
    triangle of that column-major buffer, and then checked on its diagonal:
    a NaN or infinity in column j, or squares that overflow, make H_jj NaN
    or inf, so one O(width) read names the batch.  The triangle is mirrored
    once at the end, in place one panel of rows at a time, so the result is
    exactly symmetric and no temporary outgrows a panel.
    """
    acc = None
    for i, b in enumerate(activations):
        what = f"activation batch {i}"
        b = as_matrix(b, what)
        if b.shape[1] != width:
            raise DimensionError(f"{what} has {b.shape[1]} columns, expected {width}")
        if acc is None:
            acc = np.zeros((width, width), order="F")
        if b.size:
            # a row-major batch is the column-major b.T that BLAS reads uncopied
            acc = blas.dsyrk(1.0, b.T, beta=1.0, c=acc, overwrite_c=1)
            if not np.isfinite(acc.diagonal()).all():
                raise NumericOverflowError(f"{what} is not finite or overflows "
                                           "the Hessian")
    if acc is None:
        raise DimensionError("need at least one activation batch")
    _mirror_upper(acc)
    # symmetric, so the row-major view holds the same matrix
    return acc.T


def _mirror_upper(a: np.ndarray):
    """Copy the upper triangle of ``a``, whose strict lower one is zero, below it.

    In place, one panel of ``MIRROR_PANEL`` rows at a time, so the result
    is exactly symmetric and no temporary outgrows a panel.
    """
    n = a.shape[0]
    for j1 in range(0, n, MIRROR_PANEL):
        j2 = min(j1 + MIRROR_PANEL, n)
        a[j1:j2, :j1] = a[:j1, j1:j2].T
        diagonal = a[j1:j2, j1:j2]
        diagonal += np.triu(diagonal, 1).T


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
    reversed.  It is gathered by ``_gather_lower``, factored and inverted
    in place; U is that buffer transposed and read in reverse.  ``damping``
    is checked before H is copied.
    """
    raw = layer.raw
    n = raw.shape[0]
    if order is None:
        order = Permutation.identity(n)
    elif order.size != n:
        raise DimensionError(f"order size {order.size} != Hessian size {n}")
    lam = damping(raw, damp_fraction)
    q = order.forward[::-1]
    h = _gather_lower(raw, q)
    h.reshape(-1)[:: n + 1] += lam
    inv_up, info = lapack.dtrtri(_upper_cholesky(h, q), lower=0, overwrite_c=1)
    if info != 0:
        raise IndefiniteHessianError(f"dtrtri failed with info={info}")
    return HessianBundle(layer, inv_up.T[::-1, ::-1], lam, order)


def invert_in_place(bundle: HessianBundle) -> DampedInverse:
    """The damped inverse, written over the channel-order bundle's own factor.

    The bundle's buffer holds inv(R) for the reversed H + lambda I = R.T R,
    so one ``dlauum``, inv(R) inv(R).T, makes the inverse of H in reversed
    order, and the panel mirror makes it whole.  inv(R) is first scaled by
    2**shift, a power of two that grows by k when H grows by 4**k, so no
    bit of the result depends on the scale of H.  The bundle must not be
    used afterwards.
    """
    if not np.array_equal(bundle.order.forward, np.arange(bundle.order.size)):
        raise ValueError("only a channel-order factor can be inverted in place")
    # the column-major buffer dtrtri wrote, upper inv(R) and zeros below
    buf = bundle.chol_upper[::-1, ::-1].T
    top = bundle.layer.raw.diagonal().max() + bundle.damp_lambda
    shift = int(np.frexp(top)[1]) // 2
    np.ldexp(buf, shift, out=buf)
    buf, info = lapack.dlauum(buf, lower=0, overwrite_c=1)
    if info != 0:
        raise IndefiniteHessianError(f"dlauum failed with info={info}")
    _mirror_upper(buf)
    # symmetric, so the row-major view, whose rows gather fastest, is the same
    return DampedInverse(bundle.layer, buf.T, bundle.damp_lambda, shift)


def bundle_from_inverse(inverse: DampedInverse, order: Permutation) -> HessianBundle:
    """Factor the dampened H[order][:, order] from the layer's damped inverse.

    inv(H)[order][:, order] is gathered from the reversed inverse by
    ``_gather_lower`` and factored by one upper ``dpotrf``, which is U
    itself: no reversal and no triangular inverse.  Scaling back by
    2**-shift is exact, so U matches ``bundle_from_hessian``'s to rounding.
    """
    n = inverse.reversed.shape[0]
    if order.size != n:
        raise DimensionError(f"order size {order.size} != Hessian size {n}")
    # channel j is row and column n - 1 - j of the reversed inverse
    h = _gather_lower(inverse.reversed, (n - 1) - order.forward)
    up = _upper_cholesky(h, order.forward)
    np.ldexp(up, -inverse.shift, out=up)
    return HessianBundle(inverse.layer, up, inverse.damp_lambda, order)


def _gather_lower(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The lower triangle of m[q][:, q], row-major, in one new buffer.

    Only the triangle the upper ``dpotrf`` reads of its transpose is
    gathered: each panel of 64 rows takes its rows of m, then its first
    columns in the order q (a peak of n**2 + 64 n doubles).
    """
    n = q.size
    h = np.empty((n, n))
    for i in range(0, n, GATHER_PANEL):
        j = min(i + GATHER_PANEL, n)
        # q is a permutation, so no index clips; the default mode="raise"
        # would buffer the rows before writing them into h
        m.take(q[i:j], axis=0, out=h[i:j], mode="clip")
        h[i:j, :j] = h[i:j].take(q[:j], axis=1)
    return h


def _upper_cholesky(h: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """LAPACK's upper Cholesky factor of h.T, in h's buffer, zeros below.

    h.T is the column-major matrix LAPACK overwrites, where the upper
    variant runs faster than the lower.  It reads only the upper triangle
    of h.T, the one ``_gather_lower`` gathers, and its default clean=1
    zeroes the strict lower one, left ungathered.  ``channels[j]`` names
    the channel of h's column j, the pivot an IndefiniteHessianError
    reports.
    """
    up, info = lapack.dpotrf(h.T, lower=0, overwrite_a=1)
    if info > 0:
        pivot = int(channels[info - 1])
        raise IndefiniteHessianError(
            f"dampened Hessian is not positive definite (pivot {pivot})",
            pivot=pivot,
        )
    if info < 0:
        raise IndefiniteHessianError(f"invalid argument {-info} to dpotrf")
    return up


def column_norms(raw: np.ndarray) -> np.ndarray:
    """l2 norm of each activation column: the root of the raw Hessian's diagonal."""
    return np.sqrt(raw.diagonal())


def importance_scores(layer: Layer) -> np.ndarray:
    """Per-weight score |w_ij| * norm_j, made in place on one copy of |W|.

    Finite for every checked layer: a score overflows only where H_jj > 1,
    and there |w_ij| H_jj, a factor of the dense energy's diagonal term,
    overflows first, so ``checked_layer`` has rejected the layer.
    """
    scores = np.abs(layer.w)
    scores *= layer.norms
    return scores
