"""Exterior calculus property tests: wedge, bracket, d, integration."""

from math import pi

import numpy as np
import pytest

from csforms.calculus import (
    FormField,
    ParametrizedChain,
    exterior_derivative,
    gauss_product,
    integrate,
    wedge,
)
from csforms.invariants import bracket_tables
from csforms.liealg import random_element, so
from realified import realify

rng = np.random.default_rng(17)


def const_form(dim, degree, rows):
    rows = np.asarray(rows)

    def ev(pt, tangents):
        return float(np.linalg.det(np.array([[rows[a] @ tangents[b] for b in range(degree)] for a in range(degree)])))

    return FormField(dim, degree, ev)


def coord_form(dim, i):
    return FormField(dim, 1, lambda pt, tg: float(tg[0][i]))


def test_wedge_dx_dy():
    dx, dy = coord_form(2, 0), coord_form(2, 1)
    w = wedge(dx, dy)
    assert w(np.zeros(2), [np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == pytest.approx(1.0)
    assert wedge(dx, dx)(np.zeros(2), [np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == pytest.approx(0.0)


def test_wedge_definition_oracle():
    a, b = coord_form(3, 0), coord_form(3, 2)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    lhs = wedge(a, b)(np.zeros(3), [x, y])
    assert lhs == pytest.approx(a(np.zeros(3), [x]) * b(np.zeros(3), [y]) - a(np.zeros(3), [y]) * b(np.zeros(3), [x]))


def test_wedge_graded_commutativity():
    a = const_form(4, 1, rng.standard_normal((1, 4)))
    b = const_form(4, 2, rng.standard_normal((2, 4)))
    pt = np.zeros(4)
    tg = [rng.standard_normal(4) for _ in range(3)]
    assert wedge(a, b)(pt, tg) == pytest.approx(wedge(b, a)(pt, tg))  # (-1)^{1*2} = +1


def one_form_table(mats, tangents):
    """The table (n, N, N) of the constant Lie-valued 1-form v -> sum_i v_i
    mats[i] on n tangents."""
    return np.einsum("ti,ijk->tjk", np.asarray(tangents), np.asarray(mats))


# the graded bracket of Lie-valued forms is invariants.bracket_tables, on tables
def test_bracket_wedge_oracle_and_symmetry():
    alg = so(4)
    mats = [random_element(alg, rng) for _ in range(4)]
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    w = one_form_table(mats, [x, y])
    wx, wy = w
    assert np.allclose(bracket_tables(w, 1, w, 1)[0, 1], 2 * (wx @ wy - wy @ wx))
    # graded antisymmetry for p = q = 1
    m2 = [random_element(alg, rng) for _ in range(4)]
    v = one_form_table(m2, [x, y])
    assert np.allclose(bracket_tables(w, 1, v, 1), bracket_tables(v, 1, w, 1))


def test_bracket_wedge_abelian_vanishes():
    tg = [rng.standard_normal(2), rng.standard_normal(2)]
    w = one_form_table([realify([[0.3j]]), realify([[-0.8j]])], tg)
    v = one_form_table([realify([[1.1j]]), realify([[0.2j]])], tg)
    assert np.allclose(bracket_tables(w, 1, v, 1), 0.0)


def test_bracket_wedge_even_degree_square_vanishes():
    alg = so(4)
    mats = [random_element(alg, rng) for _ in range(4)]
    m2 = [random_element(alg, rng) for _ in range(4)]
    tg = [rng.standard_normal(4) for _ in range(4)]
    a = bracket_tables(one_form_table(mats, tg), 1, one_form_table(m2, tg), 1)
    # [a, a] = 0 for even-degree a
    assert np.max(np.abs(bracket_tables(a, 2, a, 2))) < 1e-12


def test_exterior_derivative_exact_case():
    # d(x dy) = dx ^ dy
    f = FormField(2, 1, lambda pt, tg: pt[..., 0] * tg[0][..., 1])
    df = exterior_derivative(f)
    val = df(np.array([0.3, -0.7]), [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert val == pytest.approx(1.0, abs=1e-10)


def test_dd_zero_scalar_function():
    f = FormField(3, 0, lambda pt, tg: np.sin(pt[..., 0]) * pt[..., 1] + pt[..., 2] ** 2)
    ddf = exterior_derivative(exterior_derivative(f))
    val = ddf(rng.uniform(-1, 1, 3), [rng.standard_normal(3), rng.standard_normal(3)])
    assert abs(val) < 1e-6


def affine_chain(name, intervals, matrix, origin=(0.0, 0.0)):
    """The chain p -> origin + matrix p, with its constant frame."""
    matrix, origin = np.asarray(matrix, dtype=float), np.asarray(origin, dtype=float)
    return ParametrizedChain(name, intervals, lambda p: (origin + p @ matrix.T, np.broadcast_to(matrix, p.shape[:-1] + matrix.shape)))


def unit_square():
    return affine_chain("square", ((0.0, 1.0), (0.0, 1.0)), np.eye(2))


# integrate evaluates forms and chain maps on the stack of all nodes, so the
# inputs below index the last axis: points and tangents (..., d), values (...)
def area_element(tg):
    return tg[0][..., 0] * tg[1][..., 1] - tg[0][..., 1] * tg[1][..., 0]


def test_gauss_product_layout():
    nodes, weights = gauss_product(((0.0, 1.0), (-1.0, 3.0)), (2, 3))
    assert nodes.shape == (6, 2) and weights.shape == (6,)
    assert weights.sum() == pytest.approx(4.0)
    # C order: the last axis runs fastest
    assert np.all(nodes[:3, 0] == nodes[0, 0]) and len(set(nodes[:3, 1])) == 3
    assert weights @ (nodes[:, 0] ** 3 * nodes[:, 1] ** 5) == pytest.approx(0.25 * (3**6 - 1) / 6)
    with pytest.raises(ValueError):
        gauss_product(((0.0, 1.0),), 0)


def test_integrate_dx_dy_over_square():
    dxdy = FormField(2, 2, lambda pt, tg: area_element(tg))
    assert integrate(dxdy, unit_square(), 8) == pytest.approx(1.0)
    # the orientation is the parametrization's: swapping the axes flips it
    swapped = affine_chain("square:swapped", ((0.0, 1.0), (0.0, 1.0)), [[0.0, 1.0], [1.0, 0.0]])
    assert integrate(dxdy, swapped, 8) == pytest.approx(-1.0)


def test_sphere_area_form():
    # round area of the unit sphere through the stereographic chart
    def lam2(x):
        return (2.0 / (1.0 + np.sum(x * x, axis=-1))) ** 2

    area = FormField(2, 2, lambda pt, tg: lam2(pt) * area_element(tg))

    # x = tan(th/2) (cos ph, sin ph) and its frame, written out here rather
    # than taken from the zoo's polar chains
    def frame(p):
        th, ph = p[..., 0], p[..., 1]
        r, dr = np.tan(th / 2), 0.5 / np.cos(th / 2) ** 2
        c, s = np.cos(ph), np.sin(ph)
        tangents = np.stack([np.stack([dr * c, -r * s], axis=-1), np.stack([dr * s, r * c], axis=-1)], axis=-2)
        return np.stack([r * c, r * s], axis=-1), tangents

    chain = ParametrizedChain("s2", ((0.0, pi), (0.0, 2 * pi)), frame)
    assert integrate(area, chain, 24) / (4 * pi) == pytest.approx(1.0, abs=1e-8)


def test_stokes_on_square():
    for _ in range(2):
        coefs = rng.standard_normal((2, 6))

        def ev(pt, tangents, c=coefs):
            x, y = pt[..., 0], pt[..., 1]
            basis = np.stack([np.ones_like(x), x, y, x * y, np.sin(x), np.cos(y)], axis=-1)
            return np.sum((basis @ c.T) * tangents[0], axis=-1)

        form = FormField(2, 1, ev)
        area = integrate(exterior_derivative(form), unit_square(), 24)
        # edges as (origin, direction, sign)
        edges = [((0.0, 0.0), [[1.0], [0.0]], +1), ((1.0, 0.0), [[0.0], [1.0]], +1),
                 ((0.0, 1.0), [[1.0], [0.0]], -1), ((0.0, 0.0), [[0.0], [1.0]], -1)]
        boundary = sum(
            sign * integrate(form, affine_chain("e", ((0.0, 1.0),), direction, origin), 24)
            for origin, direction, sign in edges
        )
        assert area == pytest.approx(boundary, abs=1e-6)


def test_dimension_and_degree_errors():
    a = coord_form(2, 0)
    b = coord_form(3, 0)
    with pytest.raises(ValueError):
        wedge(a, b)
    with pytest.raises(ValueError):
        integrate(a, unit_square(), 4)
    with pytest.raises(ValueError):
        a(np.zeros(2), [np.zeros(2), np.zeros(2)])
