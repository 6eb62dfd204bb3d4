"""Ad-invariant polynomials, polarization, and evaluation on form values.

A degree-k invariant polynomial is used as a symmetric multilinear functional
on g^k, obtained from the homogeneous evaluator by inclusion-exclusion
polarization.  Applied to Lie-algebra-valued alternating tensors of degrees
p_1..p_k it produces a scalar (p_1+...+p_k)-form through the shuffle
convention

    P(a_1,...,a_k)(X_1..X_p) =
        (1/(p_1! ... p_k!)) sum_{s in S_p} sgn(s) P(a_1(X_s..), ..., a_k(X_s..)),

the same normalization under which dx^dy has value 1 on (e_x, e_y).  Since
every a_i is alternating, each shuffle (increasing index blocks) stands for
p_1!...p_k! equal terms, so the sum is taken once per shuffle with weight 1;
calculus.wedge and calculus.bracket_wedge use the same shuffles.  All
shipped normalizations are fixed here once:

    euler        e(X)   = Pf(X) / (2 pi)^k           on so(2k)
    chern_j      c_j(X) = [det(I - (i/2 pi) X)]_j    on u(n)
    pontryagin_1 P1(X)  = -tr(X^2) / (8 pi^2)        on so(n)
    trace_power  t_k(X) = Re tr(X^k)

The chern sign is pinned by c_1(i theta) = theta/(2 pi) and by c_j on
diagonal u(1)^n elements equalling elementary symmetric functions of
(theta_m / 2 pi); the curvature sign of the shipped degree-one line bundle is
chosen to match, giving integral 1 over the base sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, pi
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "InvariantPolynomial",
    "pfaffian",
    "make_polynomial",
    "polarize_eval",
    "eval_on_forms",
    "eval_on_forms_indexed",
    "invariance_identity_residual",
]


def pfaffian(x: np.ndarray, tol: float = 1e-10) -> float:
    """Pfaffian of a real skew-symmetric matrix by first-row expansion.

    Intended for the small matrices appearing here (n <= 8).  Odd dimension
    gives 0, the empty matrix gives 1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x + x.T)) > tol * scale:
        raise ValueError("matrix is not skew-symmetric within tolerance")
    return _pf(x)


def _pf(x: np.ndarray) -> float:
    n = x.shape[0]
    if n == 0:
        return 1.0
    if n % 2 == 1:
        return 0.0
    if n == 2:
        return float(x[0, 1])
    total = 0.0
    rest = list(range(1, n))
    for col_pos, j in enumerate(rest):
        keep = [i for i in rest if i != j]
        sub = x[np.ix_(keep, keep)]
        total += (-1) ** col_pos * x[0, j] * _pf(sub)
    return total


@dataclass(frozen=True)
class InvariantPolynomial:
    """Named homogeneous invariant polynomial with its degree and algebra tag."""

    name: str
    degree: int
    algebra_tag: str
    value: Callable[[np.ndarray], float]

    def __call__(self, x: np.ndarray) -> float:
        return self.value(x)


def _principal_minor_sum(x: np.ndarray, j: int) -> complex:
    n = x.shape[0]
    total = 0.0 + 0.0j
    for rows in combinations(range(n), j):
        sub = x[np.ix_(rows, rows)]
        total += np.linalg.det(sub)
    return total


def make_polynomial(name: str, k: int, algebra_tag: str) -> InvariantPolynomial:
    """Construct one of the shipped invariant polynomials.

    name is one of "euler", "chern_j" (degree j passed as k), "pontryagin_1"
    (k must be 2), "trace_power_k" (any k >= 1).  Compatibility between name,
    degree and algebra is checked.
    """
    from .liealg import algebra_from_tag

    alg = algebra_from_tag(algebra_tag)

    if name == "euler":
        if alg.name != "so" or alg.n != 2 * k:
            raise ValueError(f"euler of degree {k} needs so({2 * k}), got {alg.tag}")

        def ev_euler(x: np.ndarray) -> float:
            return pfaffian(x) / (2 * pi) ** k

        return InvariantPolynomial("euler", k, alg.tag, ev_euler)

    if name == "chern_j":
        if alg.name not in ("u", "su") or k > alg.n:
            raise ValueError(f"chern_{k} needs u(n) with n >= {k}, got {alg.tag}")

        def ev_chern(x: np.ndarray) -> float:
            v = (-1j / (2 * pi)) ** k * _principal_minor_sum(np.asarray(x, complex), k)
            if abs(v.imag) > 1e-8 * max(1.0, abs(v.real)):
                raise ValueError(f"chern_{k} value unexpectedly complex: {v}")
            return float(v.real)

        return InvariantPolynomial(f"chern_{k}", k, alg.tag, ev_chern)

    if name == "pontryagin_1":
        if alg.name != "so" or k != 2:
            raise ValueError("pontryagin_1 is the degree-2 polynomial on so(n)")

        def ev_p1(x: np.ndarray) -> float:
            return float(-np.real(np.trace(x @ x))) / (8 * pi**2)

        return InvariantPolynomial("pontryagin_1", 2, alg.tag, ev_p1)

    if name.startswith("trace_power"):
        def ev_tp(x: np.ndarray) -> float:
            return float(np.real(np.trace(np.linalg.matrix_power(x, k))))

        return InvariantPolynomial(f"trace_power_{k}", k, alg.tag, ev_tp)

    raise ValueError(f"unknown polynomial {name!r}")


def polarize_eval(P: InvariantPolynomial, args: Sequence[np.ndarray]) -> float:
    """Symmetric multilinear functional of P on k matrices.

    Inclusion-exclusion over non-empty subsets (2^k - 1 homogeneous
    evaluations); agrees with P on the diagonal.
    """
    k = P.degree
    if len(args) != k:
        raise ValueError(f"{P.name} takes {k} arguments, got {len(args)}")
    total = 0.0
    for mask in range(1, 1 << k):
        m = None
        bits = 0
        for i in range(k):
            if mask >> i & 1:
                bits += 1
                m = args[i] if m is None else m + args[i]
        total += (-1) ** (k - bits) * P.value(m)
    return total / factorial(k)


def _shuffles(degs: Sequence[int]):
    """Signed shuffles of range(sum(degs)) into increasing blocks.

    Yields (sign, blocks) with len(blocks[i]) == degs[i]; sign is the parity
    of the permutation that lists the blocks one after another.  On
    alternating arguments the weight-1/(p_1!...p_k!) sum over S_n collapses
    to the weight-1 sum over these shuffles.
    """

    def rec(rest: tuple[int, ...], degs: tuple[int, ...]):
        if not degs:
            yield 1, ()
            return
        p = degs[0]
        for pos in combinations(range(len(rest)), p):
            block = tuple(rest[i] for i in pos)
            remaining = tuple(r for i, r in enumerate(rest) if i not in pos)
            # each block entry jumps over the remaining entries below it
            sign = -1 if (sum(pos) - p * (p - 1) // 2) & 1 else 1
            for s, tail in rec(remaining, degs[1:]):
                yield sign * s, (block,) + tail

    yield from rec(tuple(range(sum(degs))), tuple(degs))


def eval_on_forms_indexed(
    P: InvariantPolynomial,
    args: Sequence[tuple[Callable[..., np.ndarray], int]],
    n_tangents: int,
) -> float:
    """Shuffle-alternating evaluation with index-based argument callables.

    Each entry of ``args`` is (f, p) where f(i_1..i_p) returns the value of an
    alternating p-tensor on tangents number i_1..i_p.  Every f is called on
    increasing index tuples only, once per shuffle that uses it.
    """
    degs = [p for _, p in args]
    if sum(degs) != n_tangents:
        raise ValueError(f"form degrees sum to {sum(degs)}, got {n_tangents} tangents")
    total = 0.0
    for sign, blocks in _shuffles(degs):
        total += sign * polarize_eval(P, [f(*b) for (f, _), b in zip(args, blocks)])
    return total


def eval_on_forms(
    P: InvariantPolynomial,
    args: Sequence[tuple[Callable[..., np.ndarray], int]],
    tangents: Sequence[np.ndarray],
) -> float:
    """As eval_on_forms_indexed but with callables taking tangent vectors."""
    wrapped = [
        (lambda *idx, f=f: f(*[tangents[i] for i in idx]), p) for f, p in args
    ]
    return eval_on_forms_indexed(P, wrapped, len(tangents))


def invariance_identity_residual(
    P: InvariantPolynomial,
    forms: Sequence[tuple[Callable[..., np.ndarray], int]],
    phi: Callable[[np.ndarray], np.ndarray],
    tangents: Sequence[np.ndarray],
) -> float:
    """Alternating sum expressing infinitesimal Ad-invariance of P on forms.

        sum_i (-1)^(p_1+...+p_i) P(a_1, ..., [a_i, phi], ..., a_k)

    for a g-valued 1-form phi.  Vanishes identically when P is invariant;
    the returned value is the signed sum evaluated on the given tangents
    (one more tangent than the base degree sum).
    """
    k = len(forms)
    total = 0.0
    for i in range(k):
        degs_prefix = sum(p for _, p in forms[: i + 1])
        sign = (-1) ** degs_prefix
        new_args: list[tuple[Callable[..., np.ndarray], int]] = []
        for slot, (f, p) in enumerate(forms):
            if slot != i:
                new_args.append((f, p))
            else:
                new_args.append((_bracket_with_one_form(f, p, phi), p + 1))
        total += sign * eval_on_forms(P, new_args, tangents)
    return total


def _bracket_with_one_form(
    f: Callable[..., np.ndarray], p: int, phi: Callable[[np.ndarray], np.ndarray]
) -> Callable[..., np.ndarray]:
    """[a, phi] for a of degree p and phi of degree 1, shuffle convention."""

    def ev(*vecs: np.ndarray) -> np.ndarray:
        assert len(vecs) == p + 1
        total = None
        for drop in range(p + 1):
            rest = vecs[:drop] + vecs[drop + 1 :]
            a = f(*rest)
            b = phi(vecs[drop])
            # sign of moving slot `drop` to the end: (p - drop) transpositions
            s = (-1) ** (p - drop)
            term = s * (a @ b - b @ a)
            total = term if total is None else total + term
        return total

    return ev
