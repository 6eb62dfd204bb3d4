"""Batched quadrature against per-point loops.

integrate, fiber_integral and winding_degree evaluate their forms and maps
on the stack of all quadrature nodes in one call.  Each test here computes
the same integral with a loop that calls the same form or map at single
(d,) points, node by node, and asks for agreement to 1e-12 relative.  The last tests pin the per-point contract: a
chart that only accepts single points still runs every pointwise check, and
the checks inside the stacked kernels decide matrix by matrix.
"""

from dataclasses import replace
from math import pi

import numpy as np
import pytest

from csforms.bundles import (
    BundleChart,
    char_form,
    fiber_integral,
    heterotic_residual,
    phi_p_form,
    section_pullback_form,
)
from csforms._expm import expm
from csforms.calculus import ParametrizedChain, exterior_derivative, gauss_product, integrate
from csforms.checks import _random_polynomial_form
from csforms.invariants import make_polynomial
from csforms.liealg import random_element, random_group_element, rot4, so, so4_to_quaternion_pair, u
from csforms.zoo import (
    _gs_lift,
    _angles,
    _volume_pullback_integral,
    get_bundle,
    south_transition_frame,
)

REL = 1e-12


def close(batched, looped):
    return abs(batched - looped) <= REL * max(1.0, abs(looped))


def loop_integrate(form, chain, quad_order):
    total = 0.0
    for params, weight in zip(*gauss_product(chain.intervals, quad_order)):
        total += weight * form(chain.point(params), chain.tangent_frame(params))
    return total


def loop_fiber_integral(chart, form_at, base_point, fiber, quad_order, use_alt_lift=False, fd_step=1e-6):
    lift = fiber.lift_alt if use_alt_lift else fiber.lift
    p = len(fiber.intervals)
    total = 0.0
    for s, weight in zip(*gauss_product(fiber.intervals, quad_order)):
        g = lift(s)
        assert g.shape == (chart.algebra.n,) * 2
        ch = chart.at(g)
        dls = [(lift(s + fd_step * e) - lift(s - fd_step * e)) / (2 * fd_step) for e in np.eye(p)]
        vts = chart.algebra.coords(g.conj().T @ np.array(dls))
        tangents = [ch.point(np.zeros(chart.base_dim), vt) for vt in vts]
        total += weight * form_at(ch)(ch.point(base_point), tangents)
    return fiber.orientation * total


def hemisphere(chain, lower):
    intervals = list(chain.intervals)
    lo, hi = intervals[1]
    intervals[1] = (lo, 0.5 * (lo + hi)) if lower else (0.5 * (lo + hi), hi)
    return replace(chain, intervals=tuple(intervals), boundary=())


def test_integrate_s2_gauss_bonnet():
    ut = get_bundle("ut_s2")
    form = char_form(ut.chart, make_polynomial("euler", 1, "so2"))
    chain = ut.chains["full_sphere"].chain
    assert close(integrate(form, chain, 24), loop_integrate(form, chain, 24))


@pytest.mark.parametrize("lower", [True, False])
def test_integrate_s4_hemisphere(lower):
    fs = get_bundle("frame_s4")
    form = char_form(fs.chart, make_polynomial("euler", 2, "so4"))
    chain = hemisphere(fs.chains["full_sphere"].chain, lower)
    batched = integrate(form, chain, (8, 3, 4, 1))
    assert close(batched, loop_integrate(form, chain, (8, 3, 4, 1)))
    assert batched == pytest.approx(1.0, abs=5e-5)


def test_integrate_stokes_square():
    form = _random_polynomial_form(2, 1, np.random.default_rng(4))
    square = ParametrizedChain("square", ((0.0, 1.0), (0.0, 1.0)), lambda p: p.copy(), 2)
    edge = ParametrizedChain("edge", ((0.0, 1.0),), lambda s: np.array([1.0, 0.0]) + s[..., :1] * np.array([0.0, 1.0]), 2)
    dform = exterior_derivative(form)
    assert close(integrate(dform, square, 24), loop_integrate(dform, square, 24))
    assert close(integrate(form, edge, 24), loop_integrate(form, edge, 24))


@pytest.mark.parametrize(
    "name,poly,order,alt",
    [
        ("ut_s2", ("euler", 1, "so2"), 24, False),
        ("ut_s2", ("euler", 1, "so2"), 48, True),
        ("frame_s4", ("euler", 2, "so4"), (6, 6, 1), False),
        ("frame_s4", ("euler", 2, "so4"), (6, 6, 1), True),
        ("frame_s4:b1", ("pontryagin_1", 2, "so4"), (6, 6, 1), False),
        ("frame_s4:b1", ("pontryagin_1", 2, "so4"), (6, 6, 1), True),
        ("hopf_u1", ("chern_j", 1, "u1"), 24, True),
    ],
)
def test_fiber_integral(name, poly, order, alt):
    b = get_bundle(name)
    P = make_polynomial(*poly)
    base = np.random.default_rng(9).uniform(-1.2, 1.2, b.chart.base_dim)

    def form_at(ch):
        return phi_p_form(ch, P)

    batched = fiber_integral(b.chart, form_at, base, b.fiber, order, use_alt_lift=alt)
    assert close(batched, loop_fiber_integral(b.chart, form_at, base, b.fiber, order, use_alt_lift=alt))
    assert batched == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("section", ["height_gradient", "rotational"])
def test_obstruction_boundary_term(section):
    ut = get_bundle("ut_s2")
    form = section_pullback_form(ut.chart, make_polynomial("euler", 1, "so2"), ut.sections[section])
    ((circle, sign),) = ut.chains["cap:pi/3"].chain.boundary
    batched = integrate(form, circle, 48)
    assert close(batched, loop_integrate(form, circle, 48))
    assert sign * batched == pytest.approx(-0.5, abs=1e-8)


def test_winding_degree_quaternionic_map():
    def a1(params):
        return so4_to_quaternion_pair(south_transition_frame(_angles(params)))[0]

    order, fd_step, d = (6, 6, 4), 1e-5, 3
    intervals = ((0.0, pi), (0.0, pi), (0.0, 2 * pi))
    looped = 0.0
    for s, weight in zip(*gauss_product(intervals, order)):
        assert a1(s).shape == (4,)
        center = a1(s) / np.linalg.norm(a1(s))
        cols = [center]
        for e in np.eye(d):
            vp, vm = a1(s + fd_step * e), a1(s - fd_step * e)
            vp, vm = (v / np.linalg.norm(v) for v in (vp, vm))
            vp, vm = (v if v @ center >= 0 else -v for v in (vp, vm))
            cols.append((vp - vm) / (2 * fd_step))
        looped += weight * np.linalg.det(np.column_stack(cols))
    batched = _volume_pullback_integral(a1, d, order, fd_step, align_signs=True)
    assert close(batched, looped)
    assert batched / pi**2 == pytest.approx(round(batched / pi**2), abs=1e-4)


# --- the per-point contract and the per-matrix checks -----------------------

def test_single_point_chart_runs_pointwise_checks():
    fs = get_bundle("frame_s4:b1")

    def single(f, n):
        def strict(x):
            if np.shape(x) != (n,):
                raise ValueError(f"single points only, got shape {np.shape(x)}")
            return f(x)

        return strict

    chart = fs.chart
    strict = BundleChart(4, chart.algebra, single(chart.potential, 4), single(chart.curvature_field, 4), chart.split)
    P = fs.polynomial()
    rng = np.random.default_rng(2)
    g0 = random_group_element(chart.algebra, rng, 0.7)
    point = chart.at(g0).point(rng.uniform(-1, 1, 4))
    tangents = [rng.standard_normal(10) for _ in range(4)]
    assert heterotic_residual(strict.at(g0), P, point, tangents) < 1e-4
    for source in ("omega", "psi"):
        assert char_form(strict.at(g0), P, source)(point, tangents) == char_form(chart.at(g0), P, source)(point, tangents)
    assert phi_p_form(strict.at(g0), P)(point, tangents[:3]) == phi_p_form(chart.at(g0), P)(point, tangents[:3])


def test_skew_checks_decide_per_matrix():
    # a large skew matrix next to a small non-skew one: a scale pooled over
    # the stack would let the second through
    big = 1e6 * random_element(so(4), np.random.default_rng(1))
    bad = np.zeros((4, 4))
    bad[0, 1] = 1e-6
    e2 = make_polynomial("euler", 2, "so4")
    with pytest.raises(ValueError):
        e2.multilinear([np.array([big, bad]), np.array([big, big])])
    with pytest.raises(ValueError):
        expm(np.array([big, bad]))


def test_chern_reality_check_per_value():
    c1 = make_polynomial("chern_j", 1, "u2")
    good = random_element(u(2), np.random.default_rng(3))
    assert np.shape(c1.multilinear([np.array([good, good])])) == (2,)
    with pytest.raises(ArithmeticError):
        c1.multilinear([np.array([good, np.eye(2, dtype=complex)])])


def test_quaternion_split_stack():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 5, 4))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    b /= np.linalg.norm(b, axis=-1, keepdims=True)
    R = rot4(a, b)
    a2, b2 = so4_to_quaternion_pair(R)
    for i in range(5):
        ai, bi = so4_to_quaternion_pair(R[i])
        assert np.allclose(a2[i], ai, atol=1e-14) and np.allclose(b2[i], bi, atol=1e-14)
    R[3] = R[3] @ np.diag([1.0, 1.0, 1.0, -1.0])  # one reflection in the stack
    with pytest.raises(ValueError):
        so4_to_quaternion_pair(R)


def test_gram_schmidt_lift_skips_per_node():
    # against the full identity frame, the node at the north pole (v = e1)
    # skips e1 and every other node skips the last reference vector
    lift = _gs_lift(np.eye(4))
    params = np.array([[0.0, 0.3, 0.2], [0.9, 1.1, 2.0], [2.0, 0.4, 5.0]])
    stacked = lift(params)
    for s, g in zip(params, stacked):
        assert np.allclose(lift(s), g, rtol=0, atol=1e-15)
        assert np.allclose(g.T @ g, np.eye(4), atol=1e-14) and np.linalg.det(g) > 0
    assert np.array_equal(stacked[0], np.eye(4))
