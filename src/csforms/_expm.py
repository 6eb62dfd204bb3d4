"""Exponential of real skew-symmetric matrices and its Maurer-Cartan derivative.

Every matrix csforms exponentiates lies in so(n) or in a realified u(n) or
su(n) (csforms.liealg), so it is real and skew-symmetric, and both functions
here are scaled Taylor series in real arithmetic (Higham, Functions of
Matrices, SIAM 2008, ch. 10; Al-Mohy and Higham, SIAM J. Matrix Anal. Appl.
30, 2009):

    exp(X)               = exp(Z)^(2^s),                  Z = X / 2^s
    exp(-Z) dexp_Z[W]    = phi(ad_Z) W,   phi(a) = (1 - e^-a)/a
                         = sum_j (-ad_Z)^j W / (j+1)!,

each truncated after degree q and summed by Horner's rule.  The scaling
is undone by s squarings for exp, and for the Maurer-Cartan term
MC(X; W) = exp(-X) dexp_X[W] by s doublings

    MC(2Z; 2W) = MC(Z; W) + Ad_{exp(-Z)} MC(Z; W),

where exp(-Z) = exp(Z)^T, since exp(Z) is orthogonal.

expm_scaling chooses (s, q) once for a whole stack, from its largest
Frobenius norm |X|: s is the least s >= 0 with |X / 2^s| < theta = 1, and
q the least degree with nu^(q+1)/(q+1)! <= 2^-53 for nu = |X / 2^s|, the
leading term of the truncation error.  The finite-difference stencils of
the package exponentiate |X| near 1e-4, where s = 0 and q is 3 or 4.  A
zero member of a stack gives exactly I and exactly its direction W.

Both functions take a single matrix (n, n) or a stack (..., n, n), and the
scaling a caller already has, so exp and dexp at one X share one check.

This leaf module belongs to none of the package's layers (rationals, liealg,
invariants, calculus, bundles, zoo), so a per-layer profiler that counts the
expm bound in bundles sees it as a callee outside every layer.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expm_scaling", "expm", "expm_maurer_cartan"]

_SKEW_TOL = 1e-10
# strict bound on the Frobenius norm of X / 2^s
_THETA = 1.0
_UNIT_ROUNDOFF = 2.0**-53


def _check_skew(xs: np.ndarray, tol: float = _SKEW_TOL) -> None:
    """Raise unless every matrix of the stack xs (..., n, n) is finite and
    skew within tol, relative to its own largest entry when that is above 1.

    Each comparison is written so that NaN fails it; an infinite entry makes
    its asymmetry inf or NaN and its scale inf, whose ratio is NaN (and
    numpy warns of the NaN that inf - inf makes).  A complex array fails
    whatever its entries, before any cast could drop an imaginary part:
    u(n) and su(n) are realified (csforms.liealg), so no caller needs one.
    """
    if np.iscomplexobj(xs):
        raise ValueError("matrix is complex, not real skew-symmetric")
    asym = np.abs(xs + xs.swapaxes(-1, -2))
    if asym.max(initial=0.0) <= tol:
        return  # within tol of every matrix's bound
    scale = np.maximum(1.0, np.abs(xs).max(axis=(-2, -1), initial=0.0))
    with np.errstate(invalid="ignore"):
        ratio = asym.max(axis=(-2, -1)) / scale
    if not np.all(ratio <= tol):
        raise ValueError("matrix is not skew-symmetric within tolerance")


def expm_scaling(x: np.ndarray) -> tuple[int, int]:
    """(s, q) for a real skew-symmetric matrix or stack x (..., n, n), as in
    the module docstring; ValueError unless every matrix of x is
    skew-symmetric and finite (_check_skew, which csforms.invariants applies
    to the arguments of the Euler and Chern forms as well).
    """
    x = np.asarray(x)
    _check_skew(x)
    nu = math.sqrt(np.einsum("...ij,...ij->...", x, x).max(initial=0.0))
    s = max(0, math.frexp(nu / _THETA)[1])
    nu = math.ldexp(nu, -s)
    q, term = 0, nu  # term = nu^(q+1)/(q+1)!
    while term > _UNIT_ROUNDOFF:
        q += 1
        term *= nu / (q + 1)
    return s, q


def _halve(x: np.ndarray, s: int) -> np.ndarray:
    """x / 2^s, exact; x itself at s = 0."""
    return x * 0.5**s if s else x


def _taylor_exp(z: np.ndarray, q: int) -> np.ndarray:
    """sum_{j <= q} z^j / j! by Horner's rule, for a stack z (..., n, n)."""
    eye = np.eye(z.shape[-1])
    if q == 0:
        return np.broadcast_to(eye, z.shape).copy()
    e = z / q
    e += eye
    for j in range(q - 1, 0, -1):
        e = z @ e
        e /= j
        e += eye
    return e


def expm(x: np.ndarray, scaling: tuple[int, int] | None = None) -> np.ndarray:
    """exp(x) for a real skew-symmetric matrix or stack x (scaling: its
    expm_scaling)."""
    s, q = expm_scaling(x) if scaling is None else scaling
    e = _taylor_exp(_halve(np.asarray(x), s), q)
    for _ in range(s):
        e = e @ e
    return e


def expm_maurer_cartan(x: np.ndarray, dxs: np.ndarray, scaling: tuple[int, int] | None = None) -> np.ndarray:
    """exp(-x) dexp_x[dx] for a stack dxs (m, ..., n, n) of directions at
    x (..., n, n) (scaling: its expm_scaling).

    This is g^-1 dg along g = exp(x + s dx) at s = 0.
    """
    s, q = expm_scaling(x) if scaling is None else scaling
    z, w = _halve(np.asarray(x), s), _halve(np.asarray(dxs), s)
    # Horner's rule on phi(ad_Z) W = W + ad_{-Z}(W + ad_{-Z}(W + ...)/3)/2
    mc = w
    for j in range(q, 0, -1):
        zj = z / (j + 1)
        mc = mc @ zj - zj @ mc
        mc += w
    if s:
        # MC(2Z; 2W) = MC(Z; W) + exp(Z)^T MC(Z; W) exp(Z), s times
        e = _taylor_exp(z, q)
        for _ in range(s):
            mc = mc + e.swapaxes(-1, -2) @ mc @ e
            e = e @ e
    return mc
