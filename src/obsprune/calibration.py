"""Hessian accumulation from calibration batches, and what derives from it.

The Hessian of the layer-wise reconstruction objective is the Gram matrix
H = X.T @ X of the input activations.  ``raw_hessian`` is the one place the
activation batches are read; column norms, the factor and every error are
derived from H.  For pruning, H is dampened by a multiple of its mean
diagonal and inverted via two stable Cholesky factorizations: factor H,
invert through triangular solves, then factor the inverse itself.  The
upper transpose of that second factor drives the compensation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionError, IndefiniteHessianError, NumericOverflowError
from .tensors import as_matrix

#: Squared inverse-factor diagonals below this are treated as degenerate.
DEGENERATE_DIAG = 1e-30


@dataclass(frozen=True)
class HessianBundle:
    """Raw Hessian, the dampened inverse, and the factor used for pruning.

    ``chol_upper`` is L.T where inv_hessian = L @ L.T with L lower
    triangular; its trailing blocks reproduce the inverses of all trailing
    Hessian submatrices, which is what lets one factorization serve the
    whole left-to-right pruning sweep.  ``raw`` is X.T @ X without
    dampening, the matrix every reconstruction error is measured in.
    """

    n: int
    raw: np.ndarray
    inv_hessian: np.ndarray
    chol_upper: np.ndarray
    damp_lambda: float
    dead_columns: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))

    @property
    def hessian(self) -> np.ndarray:
        """The dampened Hessian raw + damp_lambda * I that was factored."""
        return self.raw + self.damp_lambda * np.eye(self.n)


def _check_batches(activations: Sequence[np.ndarray]) -> list[np.ndarray]:
    batches = [as_matrix(b) for b in activations]
    if not batches:
        raise DimensionError("need at least one activation batch")
    n = batches[0].shape[1]
    for i, b in enumerate(batches):
        if b.shape[1] != n:
            raise DimensionError(
                f"batch has {b.shape[1]} columns, expected {n}"
            )
        if not np.all(np.isfinite(b)):
            raise NumericOverflowError(f"activation batch {i} is not finite")
    return batches


def raw_hessian(activations: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of per-batch Gram matrices X.T @ X, without dampening."""
    batches = _check_batches(activations)
    n = batches[0].shape[1]
    raw = np.zeros((n, n))
    for b in batches:
        raw += b.T @ b
    return raw


def _cholesky_lower(a: np.ndarray, what: str) -> np.ndarray:
    c, info = lapack.dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise IndefiniteHessianError(
            f"{what} is not positive definite (pivot {info - 1})",
            pivot=info - 1,
        )
    if info < 0:
        raise IndefiniteHessianError(f"invalid argument {-info} to dpotrf")
    return c


def bundle_from_hessian(raw: np.ndarray, damp_fraction: float = 0.0) -> HessianBundle:
    """Build a HessianBundle from an already-accumulated raw Hessian."""
    raw = as_matrix(raw)
    n = raw.shape[0]
    if raw.shape[1] != n:
        raise DimensionError("hessian must be square")
    diag = raw.diagonal()
    lam = float(damp_fraction * diag.mean()) if n else 0.0
    dead = np.flatnonzero(diag == 0.0)

    c = _cholesky_lower(raw + lam * np.eye(n), "dampened Hessian")
    inv, info = lapack.dpotri(c, lower=1)
    if info != 0:
        raise IndefiniteHessianError(f"dpotri failed with info={info}")
    # dpotri fills one triangle only
    inv = np.tril(inv) + np.tril(inv, -1).T

    low = _cholesky_lower(inv, "inverse Hessian")
    return HessianBundle(
        n=n,
        raw=raw,
        inv_hessian=inv,
        chol_upper=low.T.copy(),
        damp_lambda=lam,
        dead_columns=dead,
    )


def accumulate_hessian(
    activations: Sequence[np.ndarray], damp_fraction: float = 0.01
) -> HessianBundle:
    """Accumulate X.T @ X over batches, dampen, invert, and factor."""
    return bundle_from_hessian(raw_hessian(activations), damp_fraction)


def column_norms(raw: np.ndarray) -> np.ndarray:
    """l2 norm of each activation column: the root of the raw Hessian's diagonal."""
    raw = as_matrix(raw)
    if raw.shape[0] != raw.shape[1]:
        raise DimensionError("hessian must be square")
    return np.sqrt(raw.diagonal())


def cholesky_inverse_identity_check(bundle: HessianBundle, i: int) -> float:
    """Max-abs gap between inv(H[i:, i:]) and the trailing factor product.

    A zero-ish return for every i is the numerical witness that one
    Cholesky factorization of the inverse Hessian encodes the inverses of
    all trailing submatrices.
    """
    if not 0 <= i < bundle.n:
        raise DimensionError(f"index {i} out of range [0, {bundle.n})")
    trailing = bundle.hessian[i:, i:]
    try:
        direct = np.linalg.inv(trailing)
    except np.linalg.LinAlgError as e:
        raise IndefiniteHessianError(f"trailing submatrix at {i} is singular") from e
    low = bundle.chol_upper.T
    prod = low[i:, i:] @ low[i:, i:].T
    return float(np.max(np.abs(direct - prod)))
