"""Exponential of skew-Hermitian matrices and its Maurer-Cartan derivative.

Every matrix csforms exponentiates lies in so(n), u(n) or su(n), so it is
skew-Hermitian: i X is Hermitian, and one eigh(i X) = U diag(lam) U^H gives

    exp(X)                  = U diag(e^(-i lam)) U^H
    exp(-X) dexp_X[dX]      = U (G o U^H dX U) U^H,
    G_jk = int_0^1 e^(-s (mu_j - mu_k)) ds,   mu = -i lam,

where o is the entrywise product (Daleckii-Krein; Higham, Functions of
Matrices, SIAM 2008, ch. 3).  With d = lam_j - lam_k the integral is
e^(i d/2) sin(d/2)/(d/2), which np.sinc evaluates without a case split at
equal eigenvalues (repeated pairs are the rule on so(4)).

Both functions take a single matrix (n, n) or a stack (..., n, n); every
matrix of a stack is checked and exponentiated on its own.  Both take the
eigh_skew(x) a caller already has, so exp and dexp at one x share one eigh.

This leaf module belongs to none of the package's layers (rationals, liealg,
invariants, calculus, bundles, zoo), so a per-layer profiler that counts the
expm bound in bundles sees it as a callee outside every layer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigh_skew", "expm", "expm_maurer_cartan"]

_SKEW_TOL = 1e-10


def _frobenius2(x: np.ndarray) -> np.ndarray:
    """|x|^2 of each matrix of a stack (..., n, n)."""
    return np.einsum("...ij,...ij->...", x.conj(), x).real


def eigh_skew(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, U) with i x = U diag(lam) U^H; ValueError unless every matrix
    of x (..., n, n) is skew-Hermitian.

    The test compares Frobenius norms per matrix, |x + x^H|^2 <= tol^2 (1 + |x|^2);
    a stack whose whole |x + x^H|^2 is at most tol^2 passes it at once.
    """
    herm = x + x.conj().swapaxes(-1, -2)
    if np.vdot(herm, herm).real > _SKEW_TOL**2 and np.any(
        _frobenius2(herm) > _SKEW_TOL**2 * (1.0 + _frobenius2(x))
    ):
        raise ValueError("matrix is not skew-Hermitian")
    return np.linalg.eigh(1j * x)


def expm(x: np.ndarray, eig=None) -> np.ndarray:
    """exp(x) for a skew-Hermitian matrix or stack x (eig: its eigh_skew);
    real output for real input."""
    lam, u = eigh_skew(x) if eig is None else eig
    out = (u * np.exp(-1j * lam)[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return out if np.iscomplexobj(x) else out.real


def expm_maurer_cartan(x: np.ndarray, dxs: np.ndarray, eig=None) -> np.ndarray:
    """exp(-x) dexp_x[dx] for a stack dxs (m, ..., n, n) of directions at
    x (..., n, n) (eig: its eigh_skew).

    This is g^-1 dg along g = exp(x + s dx) at s = 0; real for real input.
    """
    lam, u = eigh_skew(x) if eig is None else eig
    d = lam[..., :, None] - lam[..., None, :]
    weights = np.exp(0.5j * d) * np.sinc(d / (2 * np.pi))
    uh = u.conj().swapaxes(-1, -2)
    out = u @ (weights * (uh @ dxs @ u)) @ uh
    return out if np.iscomplexobj(x) or np.iscomplexobj(dxs) else out.real
