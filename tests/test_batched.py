"""Batched quadrature and finite-difference d against per-point loops.

integrate, fiber_integral and winding_degree evaluate their forms and maps
on the stack of all quadrature nodes in one call, and exterior_derivative
evaluates its form on the stack of its whole stencil.  Each test here
computes the same value with a loop that calls the same form or map at
single (d,) points, one node or stencil point at a time, and asks for
agreement to 1e-12 relative.  The last tests pin the stacked contract: each
chart context calls the chart's potential and curvature at most once, on
its whole point stack, and not at all when no tangent has a base part; the
checks inside the stacked kernels decide matrix by matrix.  The chart
context's Omega pair table and the stacked Bianchi residuals are checked
against the formulas they replace, kept here as references.
"""

from dataclasses import replace
from functools import partial
from math import pi

import numpy as np
import pytest

from csforms.bundles import (
    bianchi_residuals,
    char_form,
    connection_curvature_fd_residual,
    fiber_integral,
    heterotic_residual,
    phi_p_form,
    section_pullback_form,
)
from csforms._expm import expm, expm_maurer_cartan
from csforms.calculus import FormField, ParametrizedChain, _box_chain, exterior_derivative, gauss_product, integrate
from csforms.checks import _affine_edge, _random_polynomial_form
from csforms.invariants import make_polynomial
from csforms.liealg import random_element, random_group_element, rot4, so, so4_to_quaternion_pair, u
from csforms.zoo import (
    _WINDING_FD_STEP,
    _angles,
    _householder_lift,
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
        points, tangents = chain.frame(params)
        total += weight * form(points, list(np.moveaxis(tangents, -1, 0)))
    return total


def loop_fiber_integral(chart, form_at, base_point, fiber, quad_order, use_alt_lift=False, fd_step=1e-6):
    lift = fiber.lift_alt if use_alt_lift else fiber.lift
    p = len(fiber.intervals)
    total = 0.0
    for s, weight in zip(*gauss_product(fiber.intervals, quad_order)):
        g = lift(s)
        assert g.shape == (chart.algebra.matrix_size,) * 2 and g.dtype == np.float64
        ch = chart.at(g)
        dls = [(lift(s + fd_step * e) - lift(s - fd_step * e)) / (2 * fd_step) for e in np.eye(p)]
        vts = chart.algebra.coords(g.T @ np.array(dls))
        tangents = [ch.point(np.zeros(chart.base_dim), vt) for vt in vts]
        total += weight * form_at(ch)(ch.point(base_point), tangents)
    return fiber.orientation * total


def loop_exterior_derivative(form, fd_step=1e-4):
    """d with one call of the form per stencil point."""

    def ev(pt, tangents):
        total = 0.0
        for i, xi in enumerate(tangents):
            rest = tangents[:i] + tangents[i + 1 :]
            d = (form(pt + fd_step * xi, rest) - form(pt - fd_step * xi, rest)) / (2 * fd_step)
            total = total + (-1) ** i * d
        return total

    return FormField(form.dim, form.degree + 1, ev)


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
    square = _box_chain("square", ((0.0, 1.0), (0.0, 1.0)))
    edge = ParametrizedChain("edge", ((0.0, 1.0),), partial(_affine_edge, np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    dform = exterior_derivative(form)
    assert close(integrate(dform, square, 24), loop_integrate(dform, square, 24))
    assert close(integrate(form, edge, 24), loop_integrate(form, edge, 24))


@pytest.mark.parametrize("name", ["frame_s4", "frame_s4:b1", "frame_s4:b2", "ut_s2", "hopf_u1"])
def test_d_phi_p_form(name):
    b = get_bundle(name)
    P = b.polynomial()
    rng = np.random.default_rng(12)
    chart = b.chart.at(random_group_element(b.chart.algebra, rng, 0.7))
    point = chart.point(rng.uniform(-1.2, 1.2, chart.base_dim))
    tangents = [rng.standard_normal(chart.dim) for _ in range(2 * P.degree)]
    form = phi_p_form(chart, P)
    batched = exterior_derivative(form)(point, tangents)
    assert np.shape(batched) == ()
    assert close(batched, loop_exterior_derivative(form)(point, tangents))


@pytest.mark.parametrize("dim,degree", [(3, 1), (6, 2), (10, 3)])
def test_nested_d(dim, degree):
    rng = np.random.default_rng(dim)
    form = _random_polynomial_form(dim, degree, rng)
    point = rng.uniform(-1, 1, dim)
    tangents = [rng.standard_normal(dim) for _ in range(degree + 2)]
    batched = exterior_derivative(exterior_derivative(form))(point, tangents)
    assert close(batched, loop_exterior_derivative(loop_exterior_derivative(form))(point, tangents))


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

    order, fd_step, d = (6, 6, 4), _WINDING_FD_STEP, 3
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
    batched = _volume_pullback_integral(a1, d, order, align_signs=True)
    assert close(batched, looped)
    assert batched / pi**2 == pytest.approx(round(batched / pi**2), abs=1e-4)


# --- the stacked contract and the per-matrix checks -------------------------

def counting_chart(chart, calls):
    """The chart with potential and curvature that record the shape of each call."""

    def counted(key, field):
        def ev(x):
            calls[key].append(np.shape(x))
            return field(x)

        return ev

    return replace(
        chart, potential=counted("potential", chart.potential), curvature_field=counted("curvature", chart.curvature_field)
    )


def test_chart_fields_are_called_once_per_context_on_the_whole_stack():
    fs = get_bundle("frame_s4:b1")
    P = fs.polynomial()
    rng = np.random.default_rng(2)
    g0 = random_group_element(fs.chart.algebra, rng, 0.7)
    point = fs.chart.at(g0).point(rng.uniform(-1, 1, 4))
    tangents = [rng.standard_normal(10) for _ in range(4)]
    n = (4,)

    def calls_of(residual, *args):
        calls = {"potential": [], "curvature": []}
        residual(counting_chart(fs.chart, calls).at(g0), *args)
        return calls

    def once_on(rows):
        return {"potential": [(rows, *n)], "curvature": [(rows, *n)]}

    # one context on the 2(p + 1) stencil points of d and the point itself:
    # d PhiP from the stencil rows, P(Omega) - P(Psi) from the center row
    assert calls_of(heterotic_residual, P, point, tangents) == once_on(2 * 4 + 1)
    assert calls_of(lambda ch, *a: heterotic_residual(replace(ch, split=None), *a), P, point, tangents) == once_on(2 * 4 + 1)
    # d Omega and the brackets at the point
    assert calls_of(bianchi_residuals, point, tangents[:3]) == once_on(2 * 3 + 1)
    # d w + [w, w] and the analytic Omega at the point
    assert calls_of(connection_curvature_fd_residual, point, *tangents[:2]) == once_on(2 * 2 + 1)


FIBER_BUNDLES = ["ut_s2", "hopf_u1", "frame_s4", "frame_s4:b1", "frame_s4:b2", "frame_s6"]


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("name", FIBER_BUNDLES)
def test_fiber_integral_evaluates_no_chart_field(name, alt):
    # the fiber tangents are vertical: w is g^-1 dg alone and Omega is zero
    b = get_bundle(name)
    calls = {"potential": [], "curvature": []}
    base = np.random.default_rng(4).uniform(-1.2, 1.2, b.chart.base_dim)
    P = b.polynomial()
    chart = counting_chart(b.chart, calls)
    value = fiber_integral(chart, lambda ch: phi_p_form(ch, P), base, b.fiber, 2, use_alt_lift=alt)
    assert np.isfinite(value)
    assert calls == {"potential": [], "curvature": []}


def test_one_nonzero_base_part_evaluates_each_chart_field_once():
    fs = get_bundle("frame_s4:b1")
    rng = np.random.default_rng(3)
    calls = {"potential": [], "curvature": []}
    chart = counting_chart(fs.chart, calls).at(random_group_element(fs.chart.algebra, rng, 0.7))
    point = chart.point(rng.uniform(-1, 1, (5, 4)))
    tangents = [np.concatenate([np.zeros((5, 4)), rng.standard_normal((5, 6))], axis=-1) for _ in range(3)]
    vertical = [v.copy() for v in tangents]
    tangents[0][2, 0] = tangents[1][2, 1] = 0.3
    ctx = chart.ctx(point, tangents)
    w, om = ctx.w, ctx.omega
    assert calls == {"potential": [(5, 4)], "curvature": [(5, 4)]}
    # the two base entries reach w and Omega at point 2 alone
    assert np.any(om[0, 1, 2]) and not np.any(om[:, :, [0, 1, 3, 4]])
    changed = np.any(w != chart.ctx(point, vertical).w, axis=(-2, -1))
    assert changed[:2, 2].all() and changed.sum() == 2


def test_one_context_serves_every_split():
    # pontryagin_pointwise_split reads Psi of both RP^3 splits from one context:
    # its tables equal, to the bit, those of a context per split
    b1, b2 = get_bundle("frame_s4:b1"), get_bundle("frame_s4:b2")
    rng = np.random.default_rng(9)
    g0 = random_group_element(b1.chart.algebra, rng, 0.7)
    calls = {"potential": [], "curvature": []}
    chart = counting_chart(b1.chart, calls).at(g0)
    point = chart.point(rng.uniform(-1, 1, (5, 4)), rng.uniform(-0.3, 0.3, (5, 6)))
    tangents = [rng.standard_normal((5, 10)) for _ in range(4)]
    ctx = chart.ctx(point, tangents)
    shared = [ctx.tables(b.chart.split) for b in (b1, b2)]
    assert calls == {"potential": [(5, 4)], "curvature": [(5, 4)]}
    assert not np.array_equal(shared[0][2], shared[1][2])
    for b, tables in zip((b1, b2), shared):
        own = b.chart.at(g0).ctx(point, tangents).tables(b.chart.split)
        for got, want in zip(tables, own):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["t0", "off_t0"])
@pytest.mark.parametrize("name", ["frame_s4", "hopf_u1"])
def test_vertical_tangents_give_the_skipped_terms_exactly(name, case):
    # A(0) = 0 and F(0, .) = 0 exactly: the skipped terms are zeros, so the
    # values equal the full formulas to the last bit
    chart = get_bundle(name).chart
    rng = np.random.default_rng(7)
    chart = chart.at(np.array([random_group_element(chart.algebra, rng, 0.7) for _ in range(5)]))
    n, dim_g, N = chart.base_dim, chart.algebra.dim, chart.algebra.matrix_size
    t = rng.uniform(-0.6, 0.6, (5, dim_g)) if case == "off_t0" else None
    point = chart.point(rng.uniform(-1.2, 1.2, (5, n)), t)
    # one set of (d,) tangents against the stack of points and reference elements
    vts = rng.standard_normal((4, dim_g))
    tangents = [np.concatenate([np.zeros(n), vt]) for vt in vts]
    ctx = chart.ctx(point, tangents)
    w, om = ctx.w, ctx.omega
    assert w.shape == (4, 5, N, N)
    assert om.shape == (4, 4, 5, N, N) and om.dtype == np.float64 and not np.any(om)
    full_w = ctx._conj(np.einsum("ma,...aij->m...ij", np.zeros((4, n)), ctx.A))
    # g^-1 dg on the fiber parts: dt itself at t = 0 and on an abelian algebra
    mc = chart.algebra.from_coords(np.broadcast_to(vts[:, None], (4, 5, dim_g)))
    if case == "off_t0" and not chart.algebra.is_abelian:
        mc = expm_maurer_cartan(chart.algebra.from_coords(point[..., n:]), mc)
    full_w = full_w + mc
    assert np.array_equal(w, full_w)
    assert np.array_equal(om, einsum_curvs(chart, point, tangents))


@pytest.mark.parametrize("g0", [False, True])
@pytest.mark.parametrize("name", ["frame_s4", "hopf_u1"])
def test_base_points_and_tangents_match_zero_padded_ones(name, g0):
    chart = get_bundle(name).chart
    rng = np.random.default_rng(11)
    if g0:
        chart = chart.at(random_group_element(chart.algebra, rng, 0.7))
    x = rng.uniform(-1.2, 1.2, (5, chart.base_dim))
    vs = [rng.standard_normal((5, chart.base_dim)) for _ in range(4)]
    pad = np.zeros((5, chart.algebra.dim))
    vpad = [np.concatenate([v, pad], axis=-1) for v in vs]
    base, padded = chart.ctx(x, vs), chart.ctx(chart.point(x), vpad)
    pairs = [(base.w, padded.w), (base.omega, padded.omega)]
    pairs += list(zip(base.tables(chart.split), padded.tables(chart.split)))
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def test_chern_skew_check_per_matrix():
    # the chern arguments pass the Euler arguments' skew check, matrix by matrix
    c1 = make_polynomial("chern_j", 1, "u2")
    good = random_element(u(2), np.random.default_rng(3))
    bad = good.copy()
    bad[0, 1] += 1e-6
    assert np.shape(c1.multilinear([np.array([good, good])])) == (2,)
    with pytest.raises(ValueError, match="skew"):
        c1.multilinear([np.array([good, bad])])
    with pytest.raises(ValueError, match="skew"):
        c1.value(bad)


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


@pytest.mark.parametrize("n", [3, 4, 6])
def test_householder_lift_is_a_special_orthogonal_frame_over_the_fiber_point(n):
    # first column the fiber point, orthogonal with det +1, node by node as on the stack
    rng = np.random.default_rng(n)
    params = rng.uniform(0.1, 3.0, (2, 3, n - 1))
    stacked = _householder_lift(params)
    assert stacked.shape == (2, 3, n, n)
    assert np.max(np.abs(stacked[..., :, 0] - _angles(params))) <= 1e-15
    for idx in np.ndindex(params.shape[:-1]):
        g = stacked[idx]
        assert np.array_equal(_householder_lift(params[idx]), g)
        assert np.allclose(g.T @ g, np.eye(n), rtol=0, atol=1e-14)
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-13)


# --- the Omega pair table and the stacked residuals --------------------------

def einsum_curvs(chart, point, vs):
    """Omega on each pair of tangents at chart points (..., d): the
    three-operand einsum of F, then Ad_{g^-1} by g = g0 exp(t)."""
    n = chart.base_dim
    g = chart.reference() @ expm(chart.algebra.from_coords(point[..., n:]))
    vx = np.asarray(vs, dtype=float)[..., :n]
    fval = np.einsum("i...a,j...b,...abxy->ij...xy", vx, vx, chart.curvature_field(point[..., :n]))
    return g.swapaxes(-1, -2) @ fval @ g


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


CURVATURE_BUNDLES = ["ut_s2", "frame_s4", "hopf_u1", "twisted_u2:su2"]


@pytest.mark.parametrize("case", ["point", "stack", "stacked_g0", "off_t0", "off_t0_stack", "shared_tangents"])
@pytest.mark.parametrize("name", CURVATURE_BUNDLES)
def test_pair_table_matches_three_operand_einsum(name, case):
    chart = get_bundle(name).chart
    rng = np.random.default_rng(sum(map(ord, name + case)))
    batch = () if case in ("point", "off_t0") else (5,)
    x = rng.uniform(-1.2, 1.2, batch + (chart.base_dim,))
    t = rng.uniform(-0.6, 0.6, batch + (chart.algebra.dim,)) if case.startswith("off_t0") else None
    if case == "stacked_g0":
        chart = chart.at(np.array([random_group_element(chart.algebra, rng, 0.7) for _ in range(5)]))
    point = chart.point(x, t)
    # shared tangents: one set of (d,) tangents broadcast against the stack of points
    tangent_batch = () if case == "shared_tangents" else batch
    tangents = [rng.standard_normal(tangent_batch + (chart.dim,)) for _ in range(4)]
    om = chart.ctx(point, tangents).omega
    assert om.shape == (4, 4) + batch + (chart.algebra.matrix_size,) * 2
    assert rel_err(om, einsum_curvs(chart, point, tangents)) <= 1e-13


@pytest.mark.parametrize("name", CURVATURE_BUNDLES)
def test_identity_reference_is_not_conjugated(name):
    chart = get_bundle(name).chart
    assert chart.g0 is None
    rng = np.random.default_rng(5)
    for batch in ((), (3,)):
        pt = chart.point(rng.uniform(-1.2, 1.2, batch + (chart.base_dim,)))
        tangents = [rng.standard_normal(batch + (chart.dim,)) for _ in range(4)]
        bare = chart.ctx(pt, tangents).tables(chart.split)
        explicit = chart.at(chart.algebra.identity()).ctx(pt, tangents).tables(chart.split)
        for a, b in zip(bare, explicit):
            assert np.max(np.abs(a - b)) <= 1e-15 * max(1.0, np.max(np.abs(b)))


def connection_forms(chart):
    """w and Omega as a 1-form and a 2-form, each value from a context of its own."""
    w = FormField(chart.dim, 1, lambda pt, tg: chart.ctx(pt, tg).w[0])
    om = FormField(chart.dim, 2, lambda pt, tg: chart.ctx(pt, tg).omega[0, 1])
    return w, om


def commutator(x, y):
    return x @ y - y @ x


def loop_bianchi_residuals(chart, point, tangents, fd_step=1e-4):
    """d Omega + [psi, Omega] + [phi, Omega] and d Psi + [psi, Psi], with d
    by one form call per stencil point and each value at the point from one
    tangent or pair."""
    w_form, om_form = connection_forms(chart)
    psi_form = FormField(chart.dim, 2, lambda pt, tg: chart.ctx(pt, tg).tables(chart.split)[2][0, 1])
    X, Y, Z = [np.asarray(v, float) for v in tangents]
    split = chart.split

    def br_one_two(one_val, two_form):
        return (
            commutator(one_val(X), two_form(point, [Y, Z]))
            - commutator(one_val(Y), two_form(point, [X, Z]))
            + commutator(one_val(Z), two_form(point, [X, Y]))
        )

    def part(project):
        return lambda v: project(w_form(point, [v]))

    def d(form):
        return loop_exterior_derivative(form, fd_step)(point, [X, Y, Z])

    psi = part(split.project_h)
    resid_om = d(om_form) + br_one_two(psi, om_form) + br_one_two(part(split.project_p), om_form)
    resid_psi = d(psi_form) + br_one_two(psi, psi_form)
    return float(np.max(np.abs(resid_om))), float(np.max(np.abs(resid_psi)))


def loop_connection_curvature_fd_residual(chart, point, X, Y, fd_step=1e-4):
    """d w + (1/2)[w, w] - Omega, each value from a context of its own."""
    w_form, om_form = connection_forms(chart)
    dw = loop_exterior_derivative(w_form, fd_step)(point, [X, Y])
    return float(np.max(np.abs(dw + commutator(w_form(point, [X]), w_form(point, [Y])) - om_form(point, [X, Y]))))


@pytest.mark.parametrize("name", ["ut_s2", "frame_s4:b1"])
def test_stacked_covariant_derivative_residual(name):
    chart = get_bundle(name).chart
    rng = np.random.default_rng(8)
    chart = chart.at(random_group_element(chart.algebra, rng, 0.7))
    point = chart.point(rng.uniform(-1, 1, chart.base_dim), rng.uniform(-0.3, 0.3, chart.algebra.dim))
    tangents = [rng.standard_normal(chart.dim) for _ in range(3)]
    stacked = bianchi_residuals(chart, point, tangents)[:2]
    looped = loop_bianchi_residuals(chart, point, tangents)
    assert all(abs(a - b) <= REL for a, b in zip(stacked, looped))
    stacked = connection_curvature_fd_residual(chart, point, *tangents[:2])
    assert abs(stacked - loop_connection_curvature_fd_residual(chart, point, *tangents[:2])) <= REL
