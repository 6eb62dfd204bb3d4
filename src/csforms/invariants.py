"""Ad-invariant polynomials, their multilinear forms, and evaluation on forms.

A degree-k invariant polynomial carries two evaluators: the homogeneous one,
P(X), and its symmetric multilinear form on g^k, with which it is applied to
Lie-algebra-valued alternating tensors of degrees p_1..p_k.  That gives a
scalar (p_1+...+p_k)-form through the shuffle convention

    P(a_1,...,a_k)(X_1..X_p) =
        (1/(p_1! ... p_k!)) sum_{s in S_p} sgn(s) P(a_1(X_s..), ..., a_k(X_s..)),

the same normalization under which dx^dy has value 1 on (e_x, e_y).  Since
every a_i is alternating, each shuffle (increasing index blocks) stands for
p_1!...p_k! equal terms, so the sum is taken once per shuffle with weight 1;
calculus.wedge and calculus.bracket_wedge use the same shuffles.  As P is
symmetric, eval_on_forms_indexed merges the shuffles that differ only by
permuting the blocks among slots holding one argument (one table, one
degree) into one row, weighted by the sum of their signs (two blocks of
degree p swap with sign (-1)^p): P(Omega^k) takes 3 rows, not 6, at k = 2
and 15, not 90, at k = 3.  It stacks the rows of several weighted argument
lists, such as the A_ij terms of PhiP or P(Omega) - P(Psi), and evaluates
them in one P.multilinear call, each slot gathered from its tables by one
take per run of rows.  All shipped normalizations are fixed here once:

    euler        e(X)   = Pf(X) / (2 pi)^k           on so(2k)
    chern_j      c_j(X) = [det(I - (i/2 pi) X)]_j    on u(n)
    pontryagin_1 P1(X)  = -tr(X^2) / (8 pi^2)        on so(n)
    trace_power  t_k(X) = Re tr(X^k)

Each multilinear form is evaluated directly, not by polarizing the
homogeneous one: the Pfaffian summed over perfect matchings with the k
arguments spread over the k pairs in every order, the mixed discriminant
(1/j!) sum_{s in S_j} sgn(s) prod_{cycles c of s} tr(prod_{i in c} X_i) for
c_j, and symmetrized traces for P1 and t_k.  It broadcasts over leading
batch axes: k arguments (..., n, n) give a value (...), so one call serves a
whole stack of quadrature nodes; a single set of (n, n) matrices gives a
scalar.

The chern sign is pinned by c_1(i theta) = theta/(2 pi) and by c_j on
diagonal u(1)^n elements equalling elementary symmetric functions of
(theta_m / 2 pi); the curvature sign of the shipped degree-one line bundle is
chosen to match, giving integral 1 over the base sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
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
    """Pfaffian of a real skew-symmetric matrix as a sum over perfect matchings.

    Intended for the small matrices appearing here (n <= 8).  Odd dimension
    gives 0, the empty matrix gives 1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    _check_skew(x[None], tol)
    rows, cols, signs = _matchings(x.shape[0])
    return float(signs @ np.prod(x[rows, cols], axis=1))


def _check_skew(xs: np.ndarray, tol: float = 1e-10) -> None:
    """Raise unless every matrix of the stack xs (..., n, n) is skew within
    tol, relative to its own largest entry when that is above 1."""
    asym = np.abs(xs + xs.swapaxes(-1, -2))
    if asym.max(initial=0.0) <= tol:
        return  # within tol of every matrix's bound
    scale = np.maximum(1.0, np.abs(xs).max(axis=(-2, -1), initial=0.0))
    if np.any(asym.max(axis=(-2, -1)) > tol * scale):
        raise ValueError("matrix is not skew-symmetric within tolerance")


@lru_cache(maxsize=None)
def _matchings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Perfect matchings of range(n) as (rows, cols, signs).

    rows[m], cols[m] list the pairs (a < b) of matching m, ordered by a;
    signs[m] is the parity of the permutation a_1 b_1 a_2 b_2 ..., so that
    Pf(X) = sum_m signs[m] prod_i X[rows[m, i], cols[m, i]].  Odd n has none.
    """

    def rec(rest: tuple[int, ...]):
        if not rest:
            yield 1, ()
            return
        first = rest[0]
        for pos, j in enumerate(rest[1:]):
            remaining = rest[1 : pos + 1] + rest[pos + 2 :]
            for s, tail in rec(remaining):
                yield (-1) ** pos * s, ((first, j),) + tail

    found = list(rec(tuple(range(n)))) if n % 2 == 0 else []
    pairs = np.array([m for _, m in found], dtype=int).reshape(len(found), n // 2, 2)
    return pairs[..., 0], pairs[..., 1], np.array([s for s, _ in found], dtype=float)


@lru_cache(maxsize=None)
def _spread_matchings(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, signs): every matching of range(2k) with its k pairs given to
    the k arguments in every order, for the polarized Pfaffian
    (1/k!) sum_r signs[r] prod_i X_i.flat[index[i, r]]."""
    rows, cols, signs = _matchings(2 * k)
    orders = np.array(list(permutations(range(k))), dtype=int).reshape(-1, k)
    # row (m, o) gives argument i the pair orders[o, i] of matching m
    index = (2 * k * rows + cols)[:, orders].reshape(-1, k).T
    return index, np.repeat(signs, len(orders)) / factorial(k)


def _polarized_pfaffian(args: Sequence[np.ndarray]) -> float | np.ndarray:
    """k skew arguments (..., 2k, 2k) -> (...), each argument gathered by
    one take of its entries, the rows multiplied argument by argument."""
    index, signs = _spread_matchings(len(args))
    prod = 1.0
    for x, ix in zip(args, index):
        x = np.asarray(x, dtype=float)
        _check_skew(x)
        prod = prod * x.reshape(x.shape[:-2] + (-1,)).take(ix, axis=-1)
    return prod @ signs


@lru_cache(maxsize=None)
def _cycle_table(j: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """(sgn(s), cycles of s) for every s in S_j, each cycle from its least index."""
    table = []
    for s in permutations(range(j)):
        seen: set[int] = set()
        cycles = []
        for i in range(j):
            cyc = []
            while i not in seen:
                seen.add(i)
                cyc.append(i)
                i = s[i]
            if cyc:
                cycles.append(tuple(cyc))
        table.append((-1 if (j - len(cycles)) & 1 else 1, tuple(cycles)))
    return tuple(table)


def _trace_of_product(args: Sequence[np.ndarray], order: Sequence[int]) -> np.ndarray:
    m = args[order[0]]
    for i in order[1:]:
        m = m @ args[i]
    return np.trace(m, axis1=-2, axis2=-1)


def _mixed_discriminant(args: Sequence[np.ndarray]) -> np.ndarray:
    """Polarized sum of principal j-minors, j = len(args)."""
    total = 0.0
    for sign, cycles in _cycle_table(len(args)):
        term = sign
        for c in cycles:
            term = term * _trace_of_product(args, c)
        total = total + term
    return total / factorial(len(args))


def _symmetrized_trace(args: Sequence[np.ndarray]) -> np.ndarray:
    """(1/k!) sum over orders of Re tr(X_s1 ... X_sk); rotations that keep
    the trace are summed once, the first argument fixed in front."""
    k = len(args)
    total = 0.0
    for rest in permutations(range(1, k)):
        total = total + np.real(_trace_of_product(args, (0,) + rest))
    return total / factorial(k - 1)


@dataclass(frozen=True)
class InvariantPolynomial:
    """Named invariant polynomial: degree, algebra tag, the homogeneous
    evaluator ``value`` on one matrix and its symmetric multilinear form
    ``multilinear``, which maps k arguments (..., n, n) to (...)."""

    name: str
    degree: int
    algebra_tag: str
    value: Callable[[np.ndarray], float]
    multilinear: Callable[[Sequence[np.ndarray]], float | np.ndarray]

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
    (k must be 2), "trace_power_<k>" (any k >= 1, the suffix equal to k).
    Compatibility between name, degree and algebra is checked.
    """
    from .liealg import algebra_from_tag

    alg = algebra_from_tag(algebra_tag)

    if name == "euler":
        if alg.name != "so" or alg.n != 2 * k:
            raise ValueError(f"euler of degree {k} needs so({2 * k}), got {alg.tag}")
        norm = (2 * pi) ** k

        def ev_euler(x: np.ndarray) -> float:
            return pfaffian(x) / norm

        def ml_euler(args: Sequence[np.ndarray]) -> float | np.ndarray:
            return _polarized_pfaffian(args) / norm

        return InvariantPolynomial("euler", k, alg.tag, ev_euler, ml_euler)

    if name == "chern_j":
        if alg.name not in ("u", "su") or k > alg.n:
            raise ValueError(f"chern_{k} needs u(n) with n >= {k}, got {alg.tag}")
        norm = (-1j / (2 * pi)) ** k

        def real_chern(v) -> float | np.ndarray:
            """Real part of v (...), checked value by value."""
            v = np.asarray(v, dtype=complex)
            if np.any(v.imag):
                bad = np.abs(v.imag) > 1e-8 * np.maximum(1.0, np.abs(v.real))
                if np.any(bad):
                    raise ArithmeticError(f"chern_{k} value unexpectedly complex: {v[bad].flat[0]}")
            return v.real[()]

        def ev_chern(x: np.ndarray) -> float:
            return float(real_chern(norm * _principal_minor_sum(np.asarray(x, complex), k)))

        def ml_chern(args: Sequence[np.ndarray]) -> float | np.ndarray:
            return real_chern(norm * _mixed_discriminant(args))

        return InvariantPolynomial(f"chern_{k}", k, alg.tag, ev_chern, ml_chern)

    if name == "pontryagin_1":
        if alg.name != "so" or k != 2:
            raise ValueError("pontryagin_1 is the degree-2 polynomial on so(n)")

        def ev_p1(x: np.ndarray) -> float:
            return float(-np.real(np.trace(x @ x))) / (8 * pi**2)

        def ml_p1(args: Sequence[np.ndarray]) -> float | np.ndarray:
            x, y = args
            return -np.einsum("...ij,...ji->...", x, y).real / (8 * pi**2)

        return InvariantPolynomial("pontryagin_1", 2, alg.tag, ev_p1, ml_p1)

    if name.startswith("trace_power"):
        if name != f"trace_power_{k}":
            raise ValueError(f"{name!r} does not name the degree-{k} trace power trace_power_{k}")

        def ev_tp(x: np.ndarray) -> float:
            return float(np.real(np.trace(np.linalg.matrix_power(x, k))))

        return InvariantPolynomial(f"trace_power_{k}", k, alg.tag, ev_tp, _symmetrized_trace)

    raise ValueError(f"unknown polynomial {name!r}")


def polarize_eval(P: InvariantPolynomial, args: Sequence[np.ndarray]) -> float | np.ndarray:
    """The symmetric multilinear form of P on k matrices (or k stacks
    (..., n, n), giving (...)).

    Agrees with P on the diagonal; evaluated directly by P.multilinear (see
    the module docstring), one call per argument tuple.
    """
    if len(args) != P.degree:
        raise ValueError(f"{P.name} takes {P.degree} arguments, got {len(args)}")
    return P.multilinear(args)


@lru_cache(maxsize=None)
def _shuffles(degs: tuple[int, ...]) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Signed shuffles of range(sum(degs)) into increasing blocks, cached per
    degree tuple.

    Returns (sign, blocks) pairs with len(blocks[i]) == degs[i]; sign is the
    parity of the permutation that lists the blocks one after another.  On
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

    return tuple(rec(tuple(range(sum(degs))), degs))


@lru_cache(maxsize=1024)
def _stack_plan(terms: tuple[tuple[float, tuple[tuple[int, int], ...]], ...], n: int):
    """(weights, runs) of weighted argument lists terms[t] = (c, ((source,
    degree), ...)) on n tangents: one row per merged shuffle (module
    docstring) of weight c times its summed signs, and for every slot the
    runs of rows that read one source, as (source, flat indices into its
    first p axes)."""
    rows: dict[tuple, int] = {}
    for t, (c, slots) in enumerate(terms):
        if sum(p for _, p in slots) != n:
            raise ValueError(f"form degrees sum to {sum(p for _, p in slots)}, got {n} tangents")
        for sign, blocks in _shuffles(tuple(p for _, p in slots)):
            # identical slots take their blocks in sorted order
            key = tuple(sorted(b for b, x in zip(blocks, slots) if x == a)[slots[:i].count(a)] for i, a in enumerate(slots))
            rows[t, key] = rows.get((t, key), 0) + sign
    runs = [[] for _ in terms[0][1]]
    for s, slot in enumerate(runs):
        for t, key in rows:
            src, p = terms[t][1][s]
            if not slot or slot[-1][0] != src:
                slot.append((src, []))
            slot[-1][1].append(np.ravel_multi_index(key[s], (n,) * p))
    return np.array([terms[t][0] * w for (t, _), w in rows.items()]), [[(i, np.array(f)) for i, f in slot] for slot in runs]


def _row_table(a, p: int, n: int) -> np.ndarray:
    """Argument a of degree p as a table (n^p, ...) over the flat index of
    its first p axes; a callable fills the rows of increasing index tuples."""
    if callable(a):
        blocks = list(combinations(range(n), p))
        values = np.stack([np.asarray(a(*b)) for b in blocks])
        a = np.zeros((n,) * p + values.shape[1:], values.dtype)
        a[tuple(np.array(blocks).T)] = values
    return a.reshape((-1,) + a.shape[p:])


def eval_on_forms_indexed(
    P: InvariantPolynomial,
    args: Sequence[tuple[object, int]] | Sequence[tuple[float, Sequence[tuple[object, int]]]],
    n_tangents: int,
) -> float | np.ndarray:
    """Shuffle-alternating evaluation with indexed arguments.

    ``args`` is one argument list [(a, p), ...] or weighted ones [(c, [(a,
    p), ...]), ...], whose c-weighted sum is returned.  An argument a is an
    alternating p-tensor on tangents number i_1..i_p: a table whose first p
    axes, each of length n_tangents, are those indices, or a callable
    f(i_1..i_p), called on increasing index tuples only.  Its values are
    matrices or stacks (..., n, n), the result a scalar or (...).
    """
    terms = [(1.0, args)] if not np.isscalar(args[0][0]) else args
    ids: dict[tuple[int, int], tuple[int, object]] = {}  # (id, degree) -> (source, argument)
    key = tuple((float(c), tuple((ids.setdefault((id(a), p), (len(ids), a))[0], p) for a, p in slots)) for c, slots in terms)
    weights, runs = _stack_plan(key, n_tangents)
    tables = [_row_table(a, p, n_tangents) for (_, p), (_, a) in ids.items()]
    stacks = [np.concatenate([tables[i].take(rows, axis=0) for i, rows in slot]) for slot in runs]
    values = np.asarray(polarize_eval(P, stacks))
    return weights @ values if values.ndim <= 2 else np.tensordot(weights, values, 1)


def eval_on_forms(
    P: InvariantPolynomial,
    args: Sequence[tuple[Callable[..., np.ndarray], int]],
    tangents: Sequence[np.ndarray],
) -> float:
    """As eval_on_forms_indexed but with callables taking tangent vectors."""
    wrapped = [(lambda *idx, f=f: f(*[tangents[i] for i in idx]), p) for f, p in args]
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
        total = 0.0
        for sign, (rest, (last,)) in _shuffles((p, 1)):
            a, b = f(*(vecs[i] for i in rest)), phi(vecs[last])
            total = total + sign * (a @ b - b @ a)
        return total

    return ev
