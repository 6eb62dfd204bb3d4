"""Invariant polynomial tests, including the perfect-matching Pfaffian oracle."""

from itertools import combinations, permutations, product
from math import factorial, pi

import numpy as np
import pytest
from scipy.linalg import expm

from csforms.calculus import FormField, wedge
from csforms.invariants import (
    InvariantPolynomial,
    bracket_tables,
    eval_on_forms_indexed,
    invariance_identity_residual,
    make_polynomial,
    pfaffian,
    polarize_eval,
)
from csforms.liealg import random_element, so, u
from realified import realify

rng = np.random.default_rng(5)


def pfaffian_matching_oracle(x: np.ndarray) -> float:
    """Recursive first-row expansion (independent of the precomputed
    matching table the library sums over)."""
    n = x.shape[0]
    if n % 2:
        return 0.0
    if n == 0:
        return 1.0

    def rec(indices):
        if not indices:
            return 1.0
        first, rest = indices[0], indices[1:]
        total = 0.0
        for pos, j in enumerate(rest):
            remaining = tuple(r for r in rest if r != j)
            total += (-1) ** pos * x[first, j] * rec(remaining)
        return total

    return rec(tuple(range(n)))


def test_pfaffian_2x2():
    a = 1.7
    assert pfaffian(np.array([[0.0, a], [-a, 0.0]])) == pytest.approx(a)


def test_pfaffian_block_diagonal():
    a, b = 2.0, -3.5
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = a, -a
    m[2, 3], m[3, 2] = b, -b
    assert pfaffian(m) == pytest.approx(a * b)
    assert pfaffian(np.zeros((4, 4))) == 0.0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_matching_oracle(n):
    for _ in range(10):
        m = rng.integers(-4, 5, size=(n, n)).astype(float)
        m = m - m.T
        assert pfaffian(m) == pytest.approx(pfaffian_matching_oracle(m), abs=1e-9)


def test_pfaffian_squares_to_determinant():
    for n in (2, 4, 6, 8):
        m = rng.standard_normal((n, n))
        m = m - m.T
        assert pfaffian(m) ** 2 == pytest.approx(np.linalg.det(m), rel=1e-8)


def test_pfaffian_rejects_non_skew():
    with pytest.raises(ValueError):
        pfaffian(np.eye(4))


# non-finite entries the skew test must not let through: every comparison
# with NaN is False.  (An inf opposite -inf also fails it, through a NaN
# that numpy warns of.)
_NON_FINITE = [
    np.array([[0.0, 1.0], [np.nan, 0.0]]),
    np.array([[0.0, np.nan], [-1.0, 0.0]]),
    np.array([[np.nan, 0.0], [0.0, 0.0]]),
    np.array([[0.0, np.inf], [1.0, 0.0]]),
    np.array([[np.inf, 0.0], [0.0, 0.0]]),
]


def test_pfaffian_rejects_opposite_infinities():
    with pytest.warns(RuntimeWarning, match="invalid value"), pytest.raises(ValueError):
        pfaffian(np.array([[0.0, np.inf], [-np.inf, 0.0]]))


@pytest.mark.parametrize("x", _NON_FINITE)
def test_pfaffian_rejects_non_finite(x):
    with pytest.raises(ValueError):
        pfaffian(x)
    # a non-finite member of a stack of otherwise skew matrices
    x4 = np.zeros((4, 4))
    x4[:2, :2] = x
    with pytest.raises(ValueError):
        make_polynomial("euler", 2, "so4").multilinear([np.array([x4, -x4.T]), np.array([x4.T, x4.T])])


@pytest.mark.parametrize("x", _NON_FINITE)
def test_euler_multilinear_rejects_non_finite(x):
    good = random_element(so(4), rng)
    bad = good.copy()
    bad[1:3, 1:3] = x
    e2 = make_polynomial("euler", 2, "so4")
    with pytest.raises(ValueError):
        e2.multilinear([np.array([good, bad]), np.array([good, good])])
    with pytest.raises(ValueError):
        make_polynomial("euler", 1, "so2").multilinear([x])


def test_euler_so2_value():
    e = make_polynomial("euler", 1, "so2")
    a = 0.83
    assert e(np.array([[0.0, a], [-a, 0.0]])) == pytest.approx(a / (2 * pi))


def test_chern1_u1_value():
    c1 = make_polynomial("chern_j", 1, "u1")
    theta = 0.37
    assert c1(realify([[1j * theta]])) == pytest.approx(theta / (2 * pi))


def test_chern_elementary_symmetric():
    thetas = np.array([0.4, -1.1, 0.75])
    x = realify(np.diag(1j * thetas))
    t = thetas / (2 * pi)
    c1 = make_polynomial("chern_j", 1, "u3")
    c2 = make_polynomial("chern_j", 2, "u3")
    c3 = make_polynomial("chern_j", 3, "u3")
    assert c1(x) == pytest.approx(t.sum(), abs=1e-12)
    assert c2(x) == pytest.approx(t[0] * t[1] + t[0] * t[2] + t[1] * t[2], abs=1e-12)
    assert c3(x) == pytest.approx(t[0] * t[1] * t[2], abs=1e-12)


def _complex_chern_multilinear(xs):
    """The polarized c_j on complex u(n) matrices: (-i/2pi)^j times the
    mixed discriminant (1/j!) sum_s sgn(s) prod_{cycles c} tr(prod_{i in c} X_i),
    in complex arithmetic."""
    j, total = len(xs), 0.0
    for s in permutations(range(j)):
        seen, traces = set(), []
        for start in range(j):
            if start not in seen:
                cycle, i = np.eye(len(xs[0])), start
                while i not in seen:
                    seen.add(i)
                    cycle, i = cycle @ xs[i], s[i]
                traces.append(np.trace(cycle))
        total += (-1) ** (j - len(traces)) * np.prod(traces)
    return (-1j / (2 * pi)) ** j * total / factorial(j)


def _complex_chern_value(x, j):
    """c_j(x) = (-i/2pi)^j times the sum of the principal j-minors of a complex x."""
    return (-1j / (2 * pi)) ** j * sum(np.linalg.det(x[np.ix_(r, r)]) for r in combinations(range(len(x)), j))


@pytest.mark.parametrize("n, j", [(j, j) for j in range(1, 7)] + [(3, 1), (3, 2)], ids=lambda v: str(v))
def test_chern_matches_the_complex_reference(n, j):
    # the realified c_j against the complex arithmetic it replaces, on complex draws
    local = np.random.default_rng(10 * n + j)
    P = make_polynomial("chern_j", j, f"u{n}")
    for _ in range(3):
        zs = local.standard_normal((j, n, n)) + 1j * local.standard_normal((j, n, n))
        xs = zs - zs.conj().swapaxes(-1, -2)
        want = _complex_chern_multilinear(xs)
        assert abs(want.imag) <= 1e-12 * abs(want)
        assert abs(P.multilinear([realify(x) for x in xs]) - want.real) <= 1e-12 * abs(want)
        want = _complex_chern_value(xs[0], j)
        assert abs(P.value(realify(xs[0])) - want.real) <= 1e-12 * abs(want)


def test_make_polynomial_compatibility_errors():
    with pytest.raises(ValueError):
        make_polynomial("euler", 2, "so3")
    with pytest.raises(ValueError):
        make_polynomial("chern_j", 3, "u2")
    with pytest.raises(ValueError):
        make_polynomial("pontryagin_1", 3, "so4")
    with pytest.raises(ValueError):
        make_polynomial("trace_power_2", 1, "so2")


@pytest.mark.parametrize(
    "name, k, tag",
    [("chern_j", 0, "u1"), ("chern_j", -1, "u1"), ("trace_power_0", 0, "u2"), ("euler", 0, "so2")],
    ids=["chern_0", "chern_-1", "trace_power_0", "euler_0"],
)
def test_make_polynomial_rejects_degrees_below_one(name, k, tag):
    with pytest.raises(ValueError, match=f"{name} of degree {k}: the degree must be an integer >= 1"):
        make_polynomial(name, k, tag)


def test_polarization_diagonal_and_symmetry():
    P = make_polynomial("euler", 2, "so4")
    x = random_element(so(4), rng)
    y = random_element(so(4), rng)
    assert polarize_eval(P, [x, x]) == pytest.approx(P(x), abs=1e-12)
    assert polarize_eval(P, [x, y]) == pytest.approx(polarize_eval(P, [y, x]), abs=1e-12)
    assert polarize_eval(P, [x, np.zeros((4, 4))]) == pytest.approx(0.0, abs=1e-14)


def test_polarization_permutation_invariance_chern2():
    P = make_polynomial("chern_j", 2, "u2")
    xs = [random_element(u(2), rng) for _ in range(2)]
    vals = {round(polarize_eval(P, [xs[i] for i in p]), 12) for p in permutations(range(2))}
    assert len(vals) == 1


def inclusion_exclusion(P, args):
    """Polarization of the homogeneous P over non-empty subsets (2^k - 1
    evaluations): the reference for P.multilinear."""
    k = P.degree
    total = 0.0
    for mask in range(1, 1 << k):
        chosen = [a for i, a in enumerate(args) if mask >> i & 1]
        total += (-1) ** (k - len(chosen)) * P.value(sum(chosen[1:], chosen[0]))
    return total / factorial(k)


@pytest.mark.parametrize(
    "pname,k,tag",
    [
        ("euler", 1, "so2"),
        ("euler", 2, "so4"),
        ("pontryagin_1", 2, "so4"),
        ("chern_j", 1, "u3"),
        ("chern_j", 2, "u3"),
        ("chern_j", 3, "u3"),
        ("trace_power_2", 2, "so4"),
        ("trace_power_3", 3, "u3"),
    ],
)
def test_multilinear_matches_inclusion_exclusion(pname, k, tag):
    P = make_polynomial(pname, k, tag)
    alg = so(int(tag[2:])) if tag.startswith("so") else u(3)
    for _ in range(10):
        args = [random_element(alg, rng) for _ in range(k)]
        expected = inclusion_exclusion(P, args)
        for order in permutations(range(k)):
            got = polarize_eval(P, [args[i] for i in order])
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_multilinear_keeps_argument_checks():
    x = random_element(so(4), rng)
    with pytest.raises(ValueError, match="skew"):
        polarize_eval(make_polynomial("euler", 2, "so4"), [x, np.eye(4)])
    with pytest.raises(ValueError, match="skew"):
        polarize_eval(make_polynomial("chern_j", 1, "u1"), [np.eye(2)])
    with pytest.raises(ValueError, match="takes 2 arguments"):
        polarize_eval(make_polynomial("pontryagin_1", 2, "so4"), [x])


def test_infinitesimal_ad_invariance():
    h = 1e-5
    cases = [
        (make_polynomial("euler", 2, "so4"), so(4)),
        (make_polynomial("pontryagin_1", 2, "so4"), so(4)),
        (make_polynomial("chern_j", 2, "u2"), u(2)),
        (make_polynomial("trace_power_3", 3, "so4"), so(4)),
    ]
    for P, alg in cases:
        for _ in range(5):
            z = random_element(alg, rng)
            x = random_element(alg, rng)
            gp, gm = expm(h * z), expm(-h * z)
            d = (P(np.linalg.inv(gp) @ x @ gp) - P(np.linalg.inv(gm) @ x @ gm)) / (2 * h)
            assert abs(d) < 1e-8


def table_on(f, p, tangents):
    """The table (n,)*p + value shape of f on every index tuple of the n tangents."""
    n = len(tangents)
    values = np.array([f(*[tangents[i] for i in idx]) for idx in product(range(n), repeat=p)])
    return values.reshape((n,) * p + values.shape[1:])


def _const_forms(alg, degree_list, tangents):
    """Tables of constant-coefficient forms of the given degrees on the
    tangents, each a sum of two generic alternating terms."""
    dim = len(tangents[0])
    return [(table_on(_alternating_tensor(dim, p, [random_element(alg, rng) for _ in range(2)]), p, tangents), p) for p in degree_list]


def test_eval_on_forms_single_argument():
    P = make_polynomial("chern_j", 1, "u1")
    m = realify([[1j * 0.6]])
    tangents = [np.array([0.0, 0.0, 2.0])]
    assert eval_on_forms_indexed(P, [(table_on(lambda v: v[2] * m, 1, tangents), 1)], 1) == pytest.approx(2 * 0.6 / (2 * pi))


def test_eval_on_forms_alternation():
    P = make_polynomial("pontryagin_1", 2, "so4")
    m1, m2 = random_element(so(4), rng), random_element(so(4), rng)
    x = rng.standard_normal(4)
    # repeated tangent vector kills the alternating sum
    tangents = [x, x, rng.standard_normal(4)]
    a = table_on(lambda v: v[0] * m1, 1, tangents)
    b = table_on(lambda v, w: (v[1] * w[2] - v[2] * w[1]) * m2, 2, tangents)
    assert eval_on_forms_indexed(P, [(a, 1), (b, 2)], 3) == pytest.approx(0.0, abs=1e-12)


def test_eval_on_forms_abelian_square_vanishes():
    P = make_polynomial("trace_power_2", 2, "u1")
    m = realify([[0.9j]])
    alpha = table_on(lambda v: v[0] * m, 1, [rng.standard_normal(2) for _ in range(2)])
    assert eval_on_forms_indexed(P, [(alpha, 1), (alpha, 1)], 2) == pytest.approx(0.0, abs=1e-14)


def test_invariance_identity_residual_vanishes():
    for P in (make_polynomial("pontryagin_1", 2, "so4"), make_polynomial("euler", 2, "so4")):
        tangents = [rng.standard_normal(4) for _ in range(4)]
        forms = _const_forms(so(4), [1, 2], tangents)
        phi_m = random_element(so(4), rng)
        phi = table_on(lambda v: v[3] * phi_m, 1, tangents)
        assert abs(invariance_identity_residual(P, forms, phi)) < 1e-10
        # each term alone is far from zero
        (a, _), (b, _) = forms
        assert abs(eval_on_forms_indexed(P, [(a, 1), (bracket_tables(b, 2, phi, 1), 3)], 4)) > 1e-3


def test_invariance_identity_zero_phi():
    P = make_polynomial("pontryagin_1", 2, "so4")
    forms = _const_forms(so(4), [1, 2], [rng.standard_normal(4) for _ in range(4)])
    assert invariance_identity_residual(P, forms, np.zeros((4, 4, 4))) == 0.0


def test_invariance_identity_fails_for_a_non_invariant_form():
    # -tr(X D Y) is bilinear but not Ad-invariant: the residual must show it
    D = np.diag([1.0, 2.0, 3.0, 4.0])

    def skewed(args):
        x, y = args
        return -np.einsum("...ij,jk,...ki->...", x, D, y)

    bad = InvariantPolynomial("skewed", 2, "so4", lambda x: skewed([x, x]), skewed)
    p1 = make_polynomial("pontryagin_1", 2, "so4")
    tangents = [rng.standard_normal(4) for _ in range(4)]
    forms = _const_forms(so(4), [1, 2], tangents)
    phi_m = random_element(so(4), rng)
    phi = table_on(lambda v: v[3] * phi_m, 1, tangents)
    assert abs(invariance_identity_residual(p1, forms, phi)) < 1e-10
    assert abs(invariance_identity_residual(bad, forms, phi)) > 1e-10


# --- the literal S_n sum as reference for the shuffle kernel --------------------

def _parity(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv & 1 else 1


def literal_alternating_sum(degs, evaluate):
    """(1/(p_1!...p_k!)) sum over s in S_n of sgn(s) evaluate(index blocks of s).

    The blocks are handed over in permuted (unsorted) order, so the reference
    also exercises the alternation of the arguments.
    """
    n = sum(degs)
    total = 0.0
    for perm in permutations(range(n)):
        blocks, pos = [], 0
        for p in degs:
            blocks.append(perm[pos : pos + p])
            pos += p
        total = total + _parity(perm) * evaluate(blocks)
    return total / np.prod([factorial(p) for p in degs])


def _alternating_tensor(dim, degree, values):
    """Index-based alternating tensor sum_m det(D_m . v) values[m] on vectors v."""
    dirs = rng.standard_normal((len(values), degree, dim))

    def f(*vecs):
        out = 0.0
        for d, val in zip(dirs, values):
            out = out + np.linalg.det(np.array([[a @ v for v in vecs] for a in d])) * val
        return out

    return f


@pytest.mark.parametrize(
    "pname,k,tag,degs",
    [
        ("pontryagin_1", 2, "so4", (1, 2)),
        ("euler", 2, "so4", (2, 2)),
        ("chern_j", 3, "u3", (1, 2, 2)),
    ],
)
def test_shuffle_sum_matches_literal_sn_sum(pname, k, tag, degs):
    P = make_polynomial(pname, k, tag)
    alg = so(4) if tag == "so4" else u(3)
    n = sum(degs)
    tangents = [rng.standard_normal(6) for _ in range(n)]
    tensors = [_alternating_tensor(6, p, [random_element(alg, rng) for _ in range(2)]) for p in degs]
    args = [(table_on(f, p, tangents), p) for f, p in zip(tensors, degs)]

    def at(blocks):
        return polarize_eval(P, [f(*[tangents[i] for i in b]) for f, b in zip(tensors, blocks)])

    expected = literal_alternating_sum(degs, at)
    assert abs(expected) > 1e-6
    assert eval_on_forms_indexed(P, args, n) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("degs", [(1, 2), (2, 2), (1, 1), (2, 1)])
def test_wedge_and_bracket_match_literal_sn_sum(degs):
    dim = 5
    tangents = [rng.standard_normal(dim) for _ in range(sum(degs))]
    pt = rng.standard_normal(dim)
    scalar = [_alternating_tensor(dim, p, rng.standard_normal(2)) for p in degs]
    lie = [_alternating_tensor(dim, p, [random_element(so(4), rng) for _ in range(2)]) for p in degs]
    a, b = (FormField(dim, p, lambda x, tg, f=f: f(*tg)) for f, p in zip(scalar, degs))

    def pick(blocks, fs):
        return [f(*[tangents[i] for i in blk]) for f, blk in zip(fs, blocks)]

    def commutator(blocks):
        x, y = pick(blocks, lie)
        return x @ y - y @ x

    expected = literal_alternating_sum(degs, lambda blocks: np.prod(pick(blocks, scalar)))
    assert wedge(a, b)(pt, tangents) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    expected = literal_alternating_sum(degs, commutator)
    scale = max(1.0, np.max(np.abs(expected)))
    # the bracket on tables: the entry of the tangents in their own order
    (ta, p), (tb, q) = ((table_on(f, p, tangents), p) for f, p in zip(lie, degs))
    got = bracket_tables(ta, p, tb, q)[tuple(range(sum(degs)))]
    assert np.max(np.abs(got - expected)) < 1e-12 * scale


# --- merged shuffles: identical slots evaluated once ------------------------------

def _unmerged_sum(P, args, n):
    """The weight-1 sum over every shuffle, reading the tables directly."""
    from csforms.invariants import _shuffles

    total = 0.0
    for sign, blocks in _shuffles(tuple(p for _, p in args)):
        total = total + sign * polarize_eval(P, [a[b] for (a, _), b in zip(args, blocks)])
    return total


def _random_table(alg, n, p, batch=(3,)):
    """An alternating p-table (n,)*p + batch + (N, N) of random algebra elements."""
    t = np.array([random_element(alg, rng) for _ in range(n**p * int(np.prod(batch)))])
    t = t.reshape((n,) * p + batch + t.shape[-2:])
    return t - t.swapaxes(0, 1) if p == 2 else t


@pytest.mark.parametrize(
    "pname,k,tag,layout",
    [
        # each slot is (table name, degree); equal names are one table
        ("pontryagin_1", 2, "so4", (("A", 2), ("A", 2))),
        ("euler", 2, "so4", (("a", 1), ("A", 2))),
        ("chern_j", 3, "u3", (("A", 2), ("A", 2), ("A", 2))),
        ("chern_j", 3, "u3", (("a", 1), ("A", 2), ("A", 2))),
        ("chern_j", 3, "u3", (("A", 2), ("B", 2), ("A", 2))),
        ("chern_j", 3, "u3", (("a", 1), ("A", 2), ("b", 1))),
    ],
)
def test_merged_shuffle_sum_matches_unmerged(pname, k, tag, layout):
    P = make_polynomial(pname, k, tag)
    alg = so(4) if tag == "so4" else u(3)
    n = sum(p for _, p in layout)
    tables = {name: _random_table(alg, n, p) for name, p in layout}
    args = [(tables[name], p) for name, p in layout]
    expected = _unmerged_sum(P, args, n)
    assert np.max(np.abs(expected)) > 1e-6
    assert np.max(np.abs(eval_on_forms_indexed(P, args, n) - expected)) < 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "pname,k,tag,layout",
    [
        ("pontryagin_1", 2, "so4", (("a", 1), ("a", 1))),
        ("chern_j", 3, "u3", (("a", 1), ("a", 1), ("A", 2))),
        ("chern_j", 3, "u3", (("A", 2), ("a", 1), ("a", 1))),
    ],
)
def test_repeated_odd_slot_cancels_to_zero(pname, k, tag, layout):
    P = make_polynomial(pname, k, tag)
    alg = so(4) if tag == "so4" else u(3)
    n = sum(p for _, p in layout)
    tables = {name: _random_table(alg, n, p) for name, p in layout}
    args = [(tables[name], p) for name, p in layout]
    assert np.max(np.abs(_unmerged_sum(P, args, n))) < 1e-13
    # the merged rows carry weight 0
    assert np.all(eval_on_forms_indexed(P, args, n) == 0.0)


def test_merged_shuffle_counts():
    from csforms.invariants import _shuffles, _stack_plan

    for k, unmerged, merged in ((2, 6, 3), (3, 90, 15)):
        weights, _, _ = _stack_plan(((1.0, ((0, 2),) * k),), 2 * k)
        assert (len(_shuffles((2,) * k)), len(weights)) == (unmerged, merged)
        assert set(np.abs(weights)) == {float(factorial(k))}


def test_weighted_lists_are_one_weighted_sum():
    P = make_polynomial("chern_j", 3, "u3")
    a, A, B = _random_table(u(3), 5, 1), _random_table(u(3), 5, 2), _random_table(u(3), 5, 2)
    lists = [[(a, 1), (A, 2), (A, 2)], [(a, 1), (B, 2), (A, 2)], [(a, 1), (B, 2), (B, 2)]]
    coeffs = [0.5, -1.25, 3.0]
    expected = sum(c * eval_on_forms_indexed(P, args, 5) for c, args in zip(coeffs, lists))
    got = eval_on_forms_indexed(P, list(zip(coeffs, lists)), 5)
    assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


def test_a_difference_in_one_call_is_the_difference_to_the_bit():
    # each list's rows are summed on their own, so P(A) - P(B) in one call
    # equals the two values taken one at a time, even where they cancel
    P = make_polynomial("chern_j", 2, "u2")
    for batch in ((), (3,), (2, 3)):
        A, B = _random_table(u(2), 4, 2, batch), _random_table(u(2), 4, 2, batch)
        for left, right in ((A, B), (A, A), (A, np.zeros_like(A))):
            one = eval_on_forms_indexed(P, [(1.0, [(left, 2)] * 2), (-1.0, [(right, 2)] * 2)], 4)
            two = eval_on_forms_indexed(P, [(left, 2)] * 2, 4) - eval_on_forms_indexed(P, [(right, 2)] * 2, 4)
            assert one.tobytes() == two.tobytes()
