"""The checked layer: W, the raw Hessian of its inputs, and what derives from them.

The Hessian of the layer-wise reconstruction objective is the Gram matrix
H = X.T @ X of the input activations.  One step reads and checks each
activation batch and sums its columns' squares: ``raw_hessian`` runs it
beside the ``dsyrk`` that streams the batch into one row-major buffer's
upper triangle, and puts the sums on its diagonal; ``column_sums`` runs
it alone for ``detect``, which builds no H.  ``checked_layer``, the one
way to a ``Layer``, checks W, streams the batches into an H no other layer
holds and checks both against one numeric domain (``numeric_domain``),
once; the layer keeps them with the norms, the root of H's diagonal, the
dead channels and the dense output energy, and every method reads them
from it.  Every error is a quadratic form in H read
from its upper triangle, and one kernel, ``error_prefix``, gives its
running sum over the columns, whose last entry is the whole.
For pruning, H is dampened by the layer's lambda, a multiple of its mean
diagonal, and the upper Cholesky factor of its inverse drives the engine.
Every factor is built in the strict lower triangle of H's own buffer,
with its diagonal kept apart, so one n x n buffer serves a layer.  It is
made one of two ways.  ``bundle_from_hessian`` factors H in pruning order
with rows and columns reversed, inverts the factor as a triangle and
reads it transposed and in reverse.  Once a channel-order factor exists,
``damped_inverse`` turns it into the inverse in place and packs its upper
triangle with one ``dtrttp``, and ``bundle_from_inverse`` gathers the
inverse from that in another order and factors it with one ``dpotrf``.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import blas, lapack

from .errors import (ConfigError, DimensionError, IndefiniteHessianError,
                     NumericOverflowError, StaleFactorError)
from .tensors import Permutation, as_matrix, check_nonnegative, finite_matrix

#: rows per panel wherever a triangle is gathered or scaled; of 32, 64, 128
#: and 256, 64 gathered a shuffled order from H fastest or within about 10%
#: of it at n = 1024 and 2048 (at 2048: 24.7, 21.9, 25.7 and 30.0 ms, 2 BLAS
#: threads); from the packed inverse, all four were within run-to-run noise
PANEL = 64
#: the fraction of H's mean diagonal that dampens it, SparseGPT's 1%
DAMP_FRACTION = 0.01
#: H's largest dampened diagonal stays below this, one binade under the
#: largest double (``numeric_domain``)
TOP = 2.0**1023
#: the least nonzero lambda and live H_jj + lambda, and the least w**2 H_jj,
#: each measured (``numeric_domain``)
LOW, FLOOR = 2.0**-1016, 2.0**-1038
#: the strict lower triangle of a diagonal block of up to PANEL rows
_BELOW = np.tri(PANEL, k=-1, dtype=bool)

#: rows of a batch squared at a time
SQUARED_ROWS = 8

#: the ``diag`` of the bundle whose factor each H buffer holds, by address
_HOLDERS = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class Layer:
    """One layer's weights and the raw Hessian of its inputs, checked together.

    Built only by ``checked_layer``; equality is by identity.  ``w`` has
    at least one row, and is finite and row-major, so every sum over it
    runs in one order whatever the caller's layout.  ``raw`` is X.T @ X
    in channel order, without dampening, the matrix every reconstruction
    error is measured in, in its upper triangle and diagonal; the strict
    lower triangle is the workspace the layer's factors are built in, a
    buffer no other layer holds.  ``norms`` are the root of H's diagonal,
    the column norms of its batches bit for bit.  ``dead`` is True for each
    channel whose diagonal in H is zero, ``dense_energy`` is the dense output
    energy sum(W @ H @ W.T), and ``damp_lambda`` is every factor's lambda in
    H + lambda I.
    """

    w: np.ndarray
    raw: np.ndarray
    norms: np.ndarray
    dead: np.ndarray
    dense_energy: float
    damp_lambda: float


@dataclass(frozen=True, eq=False)
class HessianBundle:
    """A layer and the inverse factor used to prune it; equality is by identity.

    The upper triangular U, with inv(H) = U.T @ U for the dampened Hessian
    H[order][:, order], is the strict upper triangle of ``chol_upper`` and
    the diagonal ``diag``.  ``chol_upper`` views the layer's H buffer, whose
    other triangle holds H: from ``bundle_from_hessian`` transposed and
    read in reverse, with strides (-8n, -8), and from
    ``bundle_from_inverse`` as the column-major buffer LAPACK wrote.  Its
    trailing blocks reproduce the inverses of all trailing Hessian
    submatrices, which is what lets one factorization serve the whole
    left-to-right sweep.  The bundle is valid until its layer builds a
    factor again; ``valid`` raises StaleFactorError after that.
    """

    layer: Layer
    chol_upper: np.ndarray
    diag: np.ndarray
    order: Permutation

    def valid(self) -> "HessianBundle":
        """The bundle itself, unless its factor lay in H's buffer and was overwritten."""
        raw = self.layer.raw
        if (np.may_share_memory(self.chol_upper, raw)
                and _HOLDERS.get(raw.ctypes.data) is not self.diag):
            raise StaleFactorError("the layer was factored again, over this factor")
        return self


@dataclass(frozen=True, eq=False)
class DampedInverse:
    """A layer's inverse dampened Hessian; equality is by identity.

    The matrix is 4**shift * inv(H + lambda I) in channel order with
    rows and columns reversed, exactly symmetric.  ``upper`` is its upper
    triangle in LAPACK's column-major packed storage, n (n + 1) / 2 doubles
    with m[a, b], a <= b, at a + b (b + 1) / 2.  The power of two, set by
    H's largest dampened diagonal, keeps its entries near the scale of 1,
    so that they neither underflow nor overflow where the factors made
    from them do not.
    """

    layer: Layer
    upper: np.ndarray
    shift: int


def error_prefix(d: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Entry e is the sum over the rows of d[:, :e] @ H[:e, :e] @ d[:, :e].

    That is ||d[:, :e] X[:, :e].T||^2 for H = X.T X: the baselines' error
    at each block end, and in its last entry every total.  One ``dtrmm``
    makes G = 2 d triu(H), reading only the upper triangle of H; column j
    adds sum_rows d_j G_j - H_jj sum_rows d_j^2, the second sum over G's
    buffer refilled with d^2, so no temporary outgrows a row of n.  A
    column's cross term holds its square term, so where it overflows the
    column is inf, not inf - inf, and where only d**2 does it is -inf or
    NaN, with no warning.  Inside the numeric domain this can still happen in
    ``checked_layer``'s dense energy, in ``reconstruction_error`` on a
    caller's weights and in the engine's fallback at damp_fraction 0, and
    each of them checks.
    Both operands are made row-major, whose transposes BLAS reads uncopied,
    so the sums run in one order and the error depends on the values alone.
    """
    d = np.ascontiguousarray(d)
    h = np.ascontiguousarray(hessian)
    prefix = np.zeros(d.shape[1] + 1)
    g = blas.dtrmm(2.0, h.T, d.T, lower=1).T
    with np.errstate(over="ignore", invalid="ignore"):
        g *= d
        cross = g.sum(axis=0)
        square = np.multiply(d, d, out=g).sum(axis=0)
        square *= h.diagonal()
        np.subtract(cross, square, out=cross, where=~np.isinf(cross))
        np.cumsum(cross, out=prefix[1:])
    return prefix


def checked_layer(w, activations, damp_fraction: float = DAMP_FRACTION) -> Layer:
    """The layer of W and H = X.T @ X over ``activations``, once both pass every check.

    W must be finite with a row and a column (``finite_matrix``), and
    ``damp_fraction`` finite and >= 0 (ConfigError), before any batch is
    read.  ``raw_hessian`` then streams the batches, each checked as wide
    as W, into a buffer only this layer holds and builds its factors in.
    ``numeric_domain`` checks W, H's diagonal and lambda before any score,
    energy or factor is made; the dense output energy, the last entry of
    W's ``error_prefix``, must be finite too, so that every relative error
    has a denominator.  H is read from its upper triangle and diagonal,
    whose root is the norms.
    """
    w = np.ascontiguousarray(finite_matrix(w))
    check_nonnegative(damp_fraction, "damp_fraction")
    raw = raw_hessian(activations, w.shape[1])
    diag = raw.diagonal()
    lam = numeric_domain(w, diag, damp_fraction)
    energy = float(error_prefix(w, raw)[-1])
    if not np.isfinite(energy):
        raise NumericOverflowError(f"dense output energy {energy} is not finite")
    return Layer(w, raw, np.sqrt(diag), diag == 0.0, energy, lam)


def numeric_domain(w: np.ndarray, diag: np.ndarray, damp_fraction: float) -> float:
    """lambda = damp_fraction * mean(diag), once W, H and lambda are in the numeric domain.

    ``diag`` is H's diagonal and ``w`` finite.  Saliencies w**2 / [H^-1]_qq
    and errors, quadratic forms in H, mean something only while their terms
    are normal doubles, so NumericOverflowError, before any score or factor,
    unless max H_jj + lambda < ``TOP`` and lambda is 0 or at least ``LOW``;
    every channel's sum over rows of w**2 (H_jj + lambda), which bounds its
    weights' first saliencies and its diagonal error terms, is finite; and
    on each live channel (H_jj > 0) H_jj + lambda >= ``LOW``, and each
    nonzero w**2 is normal and w**2 H_jj >= ``FLOOR``.  By Cauchy-Schwarz
    |H_ij| <= sqrt(H_ii H_jj) up to dsyrk's rounding, relative (1 + m u)
    for m samples, so below ``TOP`` no entry of H is inf and H needs no
    n x n check.  W is read ``PANEL`` rows at a time.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        lam = float(damp_fraction * diag.mean())
        top = float(diag.max()) + lam
    if not (top < TOP and (lam == 0.0 or lam >= LOW)):
        raise NumericOverflowError(f"damping lambda = {lam} and H's largest dampened "
                                   f"diagonal {top} are outside the numeric domain")
    sums, least = np.zeros(diag.size), np.full(diag.size, np.inf)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for r in range(0, w.shape[0], PANEL):
            a = np.abs(w[r : r + PANEL])
            np.minimum(least, a.min(axis=0, initial=np.inf, where=a > 0), out=least)
            sums += np.square(a, out=a).sum(axis=0)
        least *= least
        out = ~np.isfinite(sums * (diag + lam)) | (diag > 0) & (
            (diag + lam < LOW) | (least < np.finfo(float).tiny) | (least * diag < FLOOR))
    if out.any():
        j = int(np.argmax(out))
        raise NumericOverflowError(
            f"channel {j} is outside the numeric domain: sum of w**2 {sums[j]}, least "
            f"w**2 {least[j]}, H_jj = {diag[j]}, damping lambda = {lam}")
    return lam


def raw_hessian(activations: Iterable[np.ndarray], width: int) -> np.ndarray:
    """Sum of per-batch Gram matrices X.T @ X, without dampening, in its upper triangle.

    ``width`` is W's column count.  ``_summed_batches`` reads and checks
    each batch and sums its columns' squares; then ``dsyrk`` adds the batch
    into the lower triangle of one column-major buffer, sized once batch 0
    has passed, the upper one of the row-major view returned.  The sums
    replace dsyrk's diagonal, whose root is then ``column_norms``'s, bit for
    bit.  The strict lower triangle is zero, the free workspace of the
    factors of the layer ``checked_layer`` builds on it.
    """
    sums = np.zeros(width)
    acc = None
    for b in _summed_batches(activations, width, sums):
        if acc is None:
            acc = np.zeros((width, width), order="F")
        if b.size:
            # a row-major batch is the column-major b.T that BLAS reads uncopied
            acc = blas.dsyrk(1.0, b.T, beta=1.0, c=acc, lower=1, overwrite_c=1)
        del b
    h = acc.T
    np.fill_diagonal(h, sums)
    return h


def column_sums(activations: Iterable[np.ndarray], width: int) -> np.ndarray:
    """Each activation column's sum of squares, a layer's H diagonal bit for bit."""
    sums = np.zeros(width)
    for b in _summed_batches(activations, width, sums):
        del b  # held by no name while the next batch is read
    return sums


def column_norms(activations: Iterable[np.ndarray], width: int) -> np.ndarray:
    """l2 norm of each activation column, bit for bit a layer's on the same batches."""
    return np.sqrt(column_sums(activations, width))


def _summed_batches(activations: Iterable[np.ndarray], width: int, sums: np.ndarray):
    """Each batch, checked and row-major float64, once its columns' squares are in ``sums``.

    One pass over any iterable, such as ``read_manifest``'s: each batch is
    dropped before the next is asked for, so a lazy source is held one
    batch at a time.  Each is checked 2-D and ``width`` wide as it arrives,
    then its squares are summed ``SQUARED_ROWS`` rows at a time, in one
    order whatever its layout: a NaN or infinity in column j, or squares
    that overflow, make sums[j] NaN or inf, so one O(width) read names it.
    """
    # counted by hand: enumerate's reused tuple would hold a batch while
    # the next one is read
    i = 0
    for b in activations:
        what = f"activation batch {i}"
        b = as_matrix(b, what)
        if b.shape[1] != width:
            raise DimensionError(f"{what} has {b.shape[1]} columns, expected {width}")
        b = np.ascontiguousarray(b)
        with np.errstate(over="ignore"):  # raised just below
            for r in range(0, b.shape[0], SQUARED_ROWS):
                sums += np.square(b[r : r + SQUARED_ROWS]).sum(axis=0)
        if not np.isfinite(sums).all():
            raise NumericOverflowError(f"{what} is not finite or its squares overflow")
        yield b
        del b
        i += 1
    if i == 0:
        raise DimensionError("need at least one activation batch")


def bundle_from_hessian(layer: Layer, order: Permutation | None = None) -> HessianBundle:
    """Factor the layer's dampened H[order][:, order] (channel order by default).

    ``_factor`` factors H[q][:, q] for q the order reversed, whose leading
    k x k block is the trailing block of H[order][:, order] reversed, and
    inverts the factor; U is the row-major view read in reverse.
    """
    raw = layer.raw
    order = Permutation.identity(raw.shape[0]) if order is None else order
    q = order.forward[::-1]
    diag = _factor(raw, q, q, raw.diagonal() + layer.damp_lambda)[::-1].copy()
    _HOLDERS[raw.ctypes.data] = diag
    return HessianBundle(layer, raw[::-1, ::-1], diag, order)


def damped_inverse(bundle: HessianBundle) -> DampedInverse:
    """The damped inverse, made in place from the channel-order bundle's factor.

    The layer's workspace, read column-major, holds inv(R) for the reversed
    H + lambda I = R.T R, whose diagonal is ``diag`` reversed.  There it is
    scaled by 2**shift, a power of two that grows by k when H grows by
    4**k, so no bit of the result depends on the scale of H, and its
    diagonal goes in place of H's.  One ``dlauum``, inv(R) inv(R).T, makes
    the inverse of H in reversed order in the same triangle, and one
    ``dtrttp`` packs it.
    """
    if not np.array_equal(bundle.order.forward, np.arange(bundle.order.size)):
        raise ConfigError("only a channel-order factor gives the damped inverse")
    raw = bundle.valid().layer.raw
    top = raw.diagonal().max() + bundle.layer.damp_lambda
    shift = int(np.frexp(top)[1]) // 2
    with _rewrite(raw, np.ldexp(bundle.diag[::-1], shift)):
        _scale_lower(raw, shift)
        _, info = lapack.dlauum(raw.T, lower=0, overwrite_c=1)
        if info != 0:
            raise IndefiniteHessianError(f"dlauum failed with info={info}")
        upper, info = lapack.dtrttp(raw.T)
        if info != 0:
            raise IndefiniteHessianError(f"dtrttp failed with info={info}")
    return DampedInverse(bundle.layer, upper, shift)


def bundle_from_inverse(inverse: DampedInverse, order: Permutation) -> HessianBundle:
    """Factor the dampened H[order][:, order] from the layer's damped inverse.

    ``_factor`` factors inv(H)[order][:, order], gathered from the reversed
    inverse's packed triangle, where channel j is at n - 1 - j and pivot j
    at j (j + 3) / 2, by one upper ``dpotrf``, which is U itself: no
    reversal and no triangular inverse.  Scaling U back by 2**-shift is
    exact, so it matches ``bundle_from_hessian``'s to rounding.
    """
    raw, upper = inverse.layer.raw, inverse.upper
    n = raw.shape[0]
    j = np.arange(n)
    pivots = upper[j * (j + 3) // 2]
    diag = _factor(raw, (n - 1) - order.forward, order.forward, pivots, upper)
    _scale_lower(raw, -inverse.shift)
    diag = np.ldexp(diag, -inverse.shift)
    _HOLDERS[raw.ctypes.data] = diag
    return HessianBundle(inverse.layer, raw.T, diag, order)


def _panels(n: int):
    """The row slice of each panel of ``PANEL`` rows of an n x n matrix, the last first."""
    for i1 in reversed(range(0, n, PANEL)):
        yield slice(i1, min(i1 + PANEL, n))


def _below(rows: slice) -> np.ndarray:
    """True in the strict lower triangle of the diagonal block of ``rows``."""
    k = rows.stop - rows.start
    return _BELOW[:k, :k]


def _scale_lower(raw: np.ndarray, shift: int):
    """Scale the strict lower triangle of ``raw`` by 2**shift, exactly, in place."""
    for rows in _panels(raw.shape[0]):
        np.ldexp(raw[rows, : rows.start], shift, out=raw[rows, : rows.start])
        np.ldexp(raw[rows, rows], shift, out=raw[rows, rows], where=_below(rows))


@contextmanager
def _rewrite(raw: np.ndarray, pivots: np.ndarray):
    """Rewrite raw's workspace with ``pivots`` on its diagonal, yielded as a view.

    Every bundle over raw is stale from the first write, and H's diagonal
    goes back on exit, also on failure.
    """
    _HOLDERS.pop(raw.ctypes.data, None)
    h_diag = raw.diagonal().copy()
    try:
        np.fill_diagonal(raw, pivots)
        yield raw.diagonal()
    finally:
        np.fill_diagonal(raw, h_diag)


def _factor(raw: np.ndarray, idx: np.ndarray, channels: np.ndarray,
            pivots: np.ndarray, upper: np.ndarray | None = None) -> np.ndarray:
    """Factor m[idx][:, idx], its diagonal pivots[idx], in raw's workspace; U's diagonal.

    m is H, or the damped inverse when its packed triangle ``upper`` is given.
    ``_gather`` fills the workspace, which is the upper triangle of the
    column-major buffer LAPACK overwrites, since H keeps the other one;
    upper ``dpotrf`` with clean=0, which leaves H's triangle as it is,
    factors it, naming a failed pivot by ``channels``.  When m is H, the
    factor is of H, not of its inverse, and ``dtrtri`` inverts it.
    """
    n = raw.shape[0]
    if idx.size != n:
        raise DimensionError(f"order size {idx.size} != Hessian size {n}")
    with _rewrite(raw, pivots[idx]) as diagonal:
        _gather(raw, idx, upper)
        _, info = lapack.dpotrf(raw.T, lower=0, clean=0, overwrite_a=1)
        if info > 0:
            pivot = int(channels[info - 1])
            raise IndefiniteHessianError(
                f"dampened Hessian is not positive definite (pivot {pivot})",
                pivot=pivot,
            )
        if info < 0:
            raise IndefiniteHessianError(f"invalid argument {-info} to dpotrf")
        if upper is None:
            _, info = lapack.dtrtri(raw.T, lower=0, overwrite_c=1)
            if info != 0:
                raise IndefiniteHessianError(f"dtrtri failed with info={info}")
        return diagonal.copy()


def _gather(raw: np.ndarray, idx: np.ndarray, upper: np.ndarray | None):
    """Write the strict lower triangle of m[idx][:, idx] over that of ``raw``.

    m is symmetric and read from one triangle only: m[a, b] for a <= b is
    at n a + b in H's own buffer, or at a + b (b + 1) / 2 in the damped
    inverse's packed triangle ``upper``.  Panel by panel, the last first,
    each reads every entry of its rows' leading columns: a peak of two
    panels of indices and values.
    """
    n = idx.size
    j = np.arange(n)
    # for a <= b, at starts[a] + b in H and at starts[b] + a packed
    m, starts, key, other = ((raw.reshape(-1), n * j, np.minimum, np.maximum)
                             if upper is None else
                             (upper, j * (j + 1) // 2, np.maximum, np.minimum))
    for rows in _panels(n):
        i1, i2 = rows.start, rows.stop
        at = starts.take(key(idx[rows, None], idx[:i2]))
        at += other(idx[rows, None], idx[:i2])
        got = m.take(at)
        raw[rows, :i1] = got[:, :i1]
        np.copyto(raw[rows, rows], got[:, i1:], where=_below(rows))
        del at, got  # freed before the next panel's are made


def importance_scores(w: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Per-weight score |w_ij| * norm_j, made in place on one copy of |W|.

    Finite inside ``numeric_domain``, where w**2 H_jj is finite on every live channel.
    """
    scores = np.abs(w)
    scores *= norms
    return scores
