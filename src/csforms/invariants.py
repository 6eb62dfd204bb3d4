"""Ad-invariant polynomials, their multilinear forms, and evaluation on forms.

A degree-k invariant polynomial carries two evaluators: the homogeneous one,
P(X), and its symmetric multilinear form on g^k, with which it is applied to
Lie-algebra-valued alternating tensors of degrees p_1..p_k.  A tensor is a
table of its values on n tangents: a degree-p table has p leading index
axes of length n.  That gives a scalar (p_1+...+p_k)-form through the
shuffle convention

    P(a_1,...,a_k)(X_1..X_p) =
        (1/(p_1! ... p_k!)) sum_{s in S_p} sgn(s) P(a_1(X_s..), ..., a_k(X_s..)),

the same normalization under which dx^dy has value 1 on (e_x, e_y).  Since
every a_i is alternating, each shuffle (increasing index blocks) stands for
p_1!...p_k! equal terms, so the sum is taken once per shuffle with weight 1;
bracket_tables, the package's one graded bracket (of two tables), and
calculus.wedge, on scalar callable forms, use the same shuffles.  As P is
symmetric, eval_on_forms_indexed merges the shuffles that differ only by
permuting the blocks among slots holding one argument (one table, one
degree) into one row, weighted by the sum of their signs (two blocks of
degree p swap with sign (-1)^p): P(Omega^k) takes 3 rows, not 6, at k = 2
and 15, not 90, at k = 3.  It stacks the rows of several weighted argument
lists, such as the A_ij terms of PhiP or P(Omega) - P(Psi), and evaluates
them in one P.multilinear call, each slot gathered from its tables by one
take per run of rows; each list's rows are summed on their own before the
lists are added, so the call equals the sum of its lists evaluated one at
a time, to the bit.  invariance_identity_residual, the Ad-invariance
identity on tables, is one such weighted call.  All shipped normalizations
are fixed here once:

    euler        e(X)   = Pf(X) / (2 pi)^k           on so(2k)
    chern_j      c_j(X) = [det(I - (i/2 pi) X)]_j    on u(n), from J-traces
    pontryagin_1 P1(X)  = -tr(X^2) / (8 pi^2)        on so(n)
    trace_power  t_k(X) = tr(X^k)

Each multilinear form is evaluated directly, not by polarizing the
homogeneous one: the Pfaffian summed over perfect matchings with the k
arguments spread over the k pairs in every order, the mixed discriminant
(1/j!) sum_{s in S_j} sgn(s) prod_{cycles c of s} tr(prod_{i in c} X_i) for
c_j, and symmetrized traces for P1 and t_k.  It broadcasts over leading
batch axes: k arguments (..., n, n) give a value (...), so one call serves a
whole stack of quadrature nodes; a single set of (n, n) matrices gives a
scalar.

Every argument is a real skew matrix; u(n) is realified (csforms.liealg),
where t_k(X) is 2 Re tr_C(X^k).  chern_j is evaluated on the real symmetric
H = -J X / (2 pi), the realified -iX / (2 pi): the mixed discriminant takes
each cycle trace as tr_R(prod H) / 2 = Re tr_C(prod H), exactly, since a
reversed cycle keeps the permutation's sign and conjugates its trace; the
homogeneous value takes Newton's identities on tr_R(H^m) / 2.

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

from ._expm import _check_skew

__all__ = [
    "InvariantPolynomial",
    "pfaffian",
    "make_polynomial",
    "polarize_eval",
    "bracket_tables",
    "eval_on_forms_indexed",
    "invariance_identity_residual",
]


def pfaffian(x: np.ndarray) -> float:
    """Pfaffian of a real skew-symmetric matrix as a sum over perfect matchings.

    Intended for the small matrices appearing here (n <= 8).  Odd dimension
    gives 0, the empty matrix gives 1.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    _check_skew(x[None])
    rows, cols, signs = _matchings(x.shape[0])
    return float(signs @ np.prod(x[rows, cols], axis=1))


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
        x = np.asarray(x)
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
    """Polarized sum of principal j-minors, j = len(args), of the complex
    matrices realified as args: a cycle trace is Re tr_C = tr_R / 2."""
    total = 0.0
    for sign, cycles in _cycle_table(len(args)):
        term = sign
        for c in cycles:
            term = term * (0.5 * _trace_of_product(args, c))
        total = total + term
    return total / factorial(len(args))


def _symmetrized_trace(args: Sequence[np.ndarray]) -> np.ndarray:
    """(1/k!) sum over orders of tr(X_s1 ... X_sk); rotations that keep
    the trace are summed once, the first argument fixed in front."""
    k = len(args)
    total = 0.0
    for rest in permutations(range(1, k)):
        total = total + _trace_of_product(args, (0,) + rest)
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


def _elementary_symmetric(h: np.ndarray, j: int) -> float:
    """e_j of the eigenvalues of the Hermitian matrix realified as h, by
    Newton's identities m e_m = sum_{i <= m} (-1)^(i-1) e_(m-i) p_i on the
    power sums p_i = tr_R(h^i) / 2."""
    p = [0.5 * np.trace(np.linalg.matrix_power(h, i)) for i in range(1, j + 1)]
    e = [1.0]
    for m in range(1, j + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * p[i - 1] for i in range(1, m + 1)) / m)
    return float(e[j])


def make_polynomial(name: str, k: int, algebra_tag: str) -> InvariantPolynomial:
    """Construct one of the shipped invariant polynomials.

    name is one of "euler", "chern_j" (degree j passed as k), "pontryagin_1"
    (k must be 2), "trace_power_<k>" (any k >= 1, the suffix equal to k).
    Compatibility between name, degree and algebra is checked; every
    degree must be an integer k >= 1.
    """
    from .liealg import _imaginary_unit, algebra_from_tag

    if k != int(k) or k < 1:
        raise ValueError(f"{name} of degree {k}: the degree must be an integer >= 1")
    k = int(k)
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
        # H = -J X / (2 pi): the realified -iX / (2 pi)
        to_h = _imaginary_unit(alg.n) / (-2 * pi)

        def hermitian(x: np.ndarray) -> np.ndarray:
            _check_skew(np.asarray(x))
            return to_h @ x

        def ev_chern(x: np.ndarray) -> float:
            return _elementary_symmetric(hermitian(x), k)

        def ml_chern(args: Sequence[np.ndarray]) -> float | np.ndarray:
            return _mixed_discriminant([hermitian(x) for x in args])

        return InvariantPolynomial(f"chern_{k}", k, alg.tag, ev_chern, ml_chern)

    if name == "pontryagin_1":
        if alg.name != "so" or k != 2:
            raise ValueError("pontryagin_1 is the degree-2 polynomial on so(n)")

        def ev_p1(x: np.ndarray) -> float:
            return float(-np.trace(x @ x)) / (8 * pi**2)

        def ml_p1(args: Sequence[np.ndarray]) -> float | np.ndarray:
            x, y = args
            return -np.einsum("...ij,...ji->...", x, y) / (8 * pi**2)

        return InvariantPolynomial("pontryagin_1", 2, alg.tag, ev_p1, ml_p1)

    if name.startswith("trace_power"):
        if name != f"trace_power_{k}":
            raise ValueError(f"{name!r} does not name the degree-{k} trace power trace_power_{k}")

        def ev_tp(x: np.ndarray) -> float:
            return float(np.trace(np.linalg.matrix_power(x, k)))

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


def bracket_tables(a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
    """Graded bracket [a, b] of a degree-p table a (n,)*p + (..., N, N) and a
    degree-q table b over the same n tangents: the table (n,)*(p+q) + (...,
    N, N) of sum over (p, q) shuffles of sgn [a(X_A), b(X_B)], with a's index
    axes laid onto the output axes A and b's onto B."""
    n = a.shape[0]
    total = 0.0
    for sign, (ia, ib) in _shuffles((p, q)):
        x = a.reshape(tuple(n if i in ia else 1 for i in range(p + q)) + a.shape[p:])
        y = b.reshape(tuple(n if i in ib else 1 for i in range(p + q)) + b.shape[q:])
        total = total + sign * (x @ y - y @ x)
    return total


@lru_cache(maxsize=1024)
def _stack_plan(terms: tuple[tuple[float, tuple[tuple[int, int], ...]], ...], n: int):
    """(weights, runs, bounds) of weighted argument lists terms[t] = (c,
    ((source, degree), ...)) on n tangents: one row per merged shuffle
    (module docstring) of weight c times its summed signs, for every slot
    the runs of rows that read one source, as (source, flat indices into its
    first p axes), and the row offsets of the terms (T + 1 of them; the rows
    of a term are contiguous)."""
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
    bounds = np.searchsorted([t for t, _ in rows], np.arange(len(terms) + 1))
    return (
        np.array([terms[t][0] * w for (t, _), w in rows.items()]),
        [[(i, np.array(f)) for i, f in slot] for slot in runs],
        bounds.tolist(),
    )


def eval_on_forms_indexed(
    P: InvariantPolynomial,
    args: Sequence[tuple[np.ndarray, int]] | Sequence[tuple[float, Sequence[tuple[np.ndarray, int]]]],
    n_tangents: int,
) -> float | np.ndarray:
    """Shuffle-alternating evaluation with indexed arguments.

    ``args`` is one argument list [(a, p), ...] or weighted ones [(c, [(a,
    p), ...]), ...], whose c-weighted sum is returned.  An argument a is an
    alternating p-tensor on tangents number i_1..i_p: a table whose first p
    axes, each of length n_tangents, are those indices.  Its values are
    matrices or stacks (..., n, n), the result a scalar or (...).
    """
    terms = [(1.0, args)] if not np.isscalar(args[0][0]) else args
    ids: dict[tuple[int, int], tuple[int, np.ndarray]] = {}  # (id, degree) -> (source, table)
    key = tuple((float(c), tuple((ids.setdefault((id(a), p), (len(ids), a))[0], p) for a, p in slots)) for c, slots in terms)
    weights, runs, bounds = _stack_plan(key, n_tangents)
    # each table as rows (n^p, ...) over the flat index of its first p axes
    tables = [a.reshape((-1,) + a.shape[p:]) for (_, p), (_, a) in ids.items()]
    stacks = [np.concatenate([tables[i].take(rows, axis=0) for i, rows in slot]) for slot in runs]
    values = np.asarray(polarize_eval(P, stacks))
    total = 0.0
    for a, b in zip(bounds, bounds[1:]):
        w, v = weights[a:b], values[a:b]
        total = total + (w @ v if v.ndim <= 2 else np.tensordot(w, v, 1))
    return total


def invariance_identity_residual(
    P: InvariantPolynomial, forms: Sequence[tuple[np.ndarray, int]], phi: np.ndarray
) -> float | np.ndarray:
    """Alternating sum expressing infinitesimal Ad-invariance of P on forms.

        sum_i (-1)^(p_1+...+p_i) P(a_1, ..., [a_i, phi], ..., a_k)

    for g-valued tables a_i of degree p_i and a 1-form table phi, all on
    n = p_1+...+p_k + 1 tangents; one weighted eval_on_forms_indexed call.
    Vanishes identically when P is invariant.
    """
    n = phi.shape[0]
    terms = []
    for i, (a, p) in enumerate(forms):
        slots = list(forms)
        slots[i] = (bracket_tables(a, p, phi, 1), p + 1)
        terms.append(((-1.0) ** sum(q for _, q in forms[: i + 1]), slots))
    return eval_on_forms_indexed(P, terms, n)
