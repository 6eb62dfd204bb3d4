"""Bundle zoo: named charts, global integrals, sections, windings, degrees."""

import sys
from dataclasses import replace
from math import pi
from pathlib import Path

import numpy as np
import pytest

from csforms.bundles import (
    char_form,
    connection_curvature_fd_residual,
    fiber_integral,
    heterotic_residual,
    obstruction_identity_check,
    phi_p_form,
)
from csforms.calculus import FormField, _box_chain, gauss_product, integrate
from csforms.invariants import make_polynomial
from csforms.liealg import _imaginary_unit, random_group_element
from csforms.zoo import (
    _CATALOG,
    _M1,
    _M2,
    PrecisionError,
    bundle_names,
    flat_bundle,
    frame_sphere,
    get_bundle,
    linear_bundle,
    quaternionic_section_degrees,
    winding_degree,
)

rng = np.random.default_rng(31)


def test_get_bundle_dispatch():
    for name in ("hopf_u1", "ut_s2", "frame_s4", "frame_s4:b1", "twisted_u2:u1", "flat:so3:2"):
        assert get_bundle(name).chart is not None
    with pytest.raises(ValueError):
        get_bundle("nonexistent")
    assert "hopf_u1" in bundle_names()


def test_every_catalog_name_builds_its_bundle():
    for name in bundle_names():
        if "<" not in name:  # the families parsed from their names, flat:<g>:<n> and linear:<g>:<n>
            assert get_bundle(name).name == name


@pytest.mark.parametrize("name", ["flat:so4:3:so3", "flat:u2:3", "linear:u3:6:u2", *_CATALOG])
def test_bundle_and_chart_keep_the_name_they_are_built_from(name):
    # a family name keeps its split suffix :<h>, as the catalog names do
    b = get_bundle(name)
    assert b.name == name
    assert b.chart.name == name


@pytest.mark.parametrize("name", [*_CATALOG, "flat:so4:2"])
def test_every_bundle_passes_curvature_cross_check(name):
    b = get_bundle(name)
    x = rng.uniform(-1.0, 1.0, b.chart.base_dim)
    axes = np.eye(b.chart.dim)
    worst = max(
        connection_curvature_fd_residual(b.chart, b.chart.point(x), axes[i], axes[j])
        for i in range(b.chart.base_dim)
        for j in range(i + 1, b.chart.base_dim)
    )
    assert worst < 1e-6


@pytest.mark.parametrize("name,chain", [(name, chain) for name in _CATALOG for chain in get_bundle(name).chains])
def test_chain_jacobian_matches_fd(name, chain):
    # the tangents of each frame against central differences of its points
    spec = get_bundle(name).chains[chain]
    h = 1e-6
    for piece in [spec.chain] + [c for c, _ in spec.chain.boundary]:
        params, _ = gauss_product(piece.intervals, 3)  # interior nodes
        points, tangents = piece.frame(params)
        fd = np.stack(
            [(piece.frame(params + h * e)[0] - piece.frame(params - h * e)[0]) / (2 * h) for e in np.eye(piece.param_dim)],
            axis=-1,
        )
        assert points.shape == (len(params), get_bundle(name).chart.base_dim)
        assert tangents.shape == fd.shape == points.shape + (piece.param_dim,)
        assert np.max(np.abs(tangents - fd)) < 1e-7 * max(1.0, np.max(np.abs(tangents)))


def test_s2_potential_is_closed_form_spin_connection():
    # the spin connection of lam^2 (du^2 + dv^2): w12 = 2(u dv - v du)/(1+r^2) E12
    x = np.random.default_rng(7).uniform(-2.0, 2.0, (50, 2))
    u, v = x[:, 0], x[:, 1]
    w = 2.0 * np.stack([-v, u], axis=-1) / (1.0 + u**2 + v**2)[:, None]
    reference = w[..., None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(get_bundle("ut_s2").chart.potential(x) - reference)) < 1e-15


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sphere_potential_matches_the_explicit_formula(n):
    # A_a[b, c] = mu (x_c d_ab - x_b d_ac), mu = -2/(1 + |x|^2): d_ab x_c antisymmetrized in (b, c)
    from csforms.zoo import _sphere_potential

    for x in (np.random.default_rng(n).uniform(-2.0, 2.0, n), np.random.default_rng(n).uniform(-2.0, 2.0, (3, 5, n))):
        mu = -2.0 / (1.0 + (x * x).sum(axis=-1))
        t = np.eye(n)[:, :, None] * x[..., None, None, :]
        assert np.array_equal(_sphere_potential(x), mu[..., None, None, None] * (t - np.swapaxes(t, -1, -2)))


@pytest.mark.parametrize("name", ["flat:so4:x", "flat:so4:2.5", "flat:so4::so3"])
def test_flat_bundle_with_a_non_integer_n_names_the_form(name):
    with pytest.raises(ValueError, match=r"flat:<g>:<n>\[:<h>\]") as exc:
        get_bundle(name)
    assert repr(name) in str(exc.value)


@pytest.mark.parametrize("name", ["linear:u3:x", "linear:u3:6.0:u2"])
def test_linear_bundle_with_a_non_integer_n_names_the_form(name):
    with pytest.raises(ValueError, match=r"linear:<g>:<n>\[:<h>\]") as exc:
        get_bundle(name)
    assert repr(name) in str(exc.value)


@pytest.mark.parametrize("split", ["u2", "su3"])
def test_linear_bundle_matches_the_benchmark_chart(split):
    # the chart sweep_k3 builds from the same seed, called at single points
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    bench = workloads.linear_u3_chart(np.random.default_rng(4), split)
    chart = linear_bundle("u3", 6, split, np.random.default_rng(4)).chart
    assert chart.split.label == bench.split.label
    x = np.random.default_rng(5).uniform(-1.2, 1.2, (2, 3, 6))
    for field, bench_field in ((chart.potential, bench.potential), (chart.curvature_field, bench.curvature_field)):
        stacked = field(x)
        for idx in np.ndindex(x.shape[:-1]):
            single = bench_field(x[idx])
            assert np.max(np.abs(field(x[idx]) - single)) <= 1e-15
            assert np.max(np.abs(stacked[idx] - single)) <= 1e-15
    assert get_bundle("linear:u3:6:su3").polynomial().name == "chern_3"


def test_flat_bundle_is_flat_and_closed():
    b = flat_bundle("so4", 3, "so3")
    e2 = make_polynomial("euler", 2, "so4")
    ch = b.chart.at(random_group_element(b.chart.algebra, rng, 0.5))
    pt = ch.point(rng.uniform(-1, 1, 3))
    tg4 = [rng.standard_normal(9) for _ in range(4)]
    assert np.max(np.abs(ch.ctx(pt, tg4[:2]).omega[0, 1])) == 0.0
    from csforms.calculus import exterior_derivative

    assert abs(exterior_derivative(phi_p_form(replace(ch, split=None), e2))(pt, tg4)) < 1e-8
    assert abs(exterior_derivative(phi_p_form(ch, e2))(pt, tg4)) < 1e-8


def test_gauss_bonnet_s2():
    b = get_bundle("ut_s2")
    e1 = make_polynomial("euler", 1, "so2")
    v = integrate(char_form(b.chart, e1), b.chains["full_sphere"].chain, 24)
    assert v == pytest.approx(2.0, abs=1e-8)


def test_chern_anchor():
    b = get_bundle("hopf_u1")
    c1 = make_polynomial("chern_j", 1, "u1")
    v = integrate(char_form(b.chart, c1), b.chains["full_sphere"].chain, 24)
    assert v == pytest.approx(1.0, abs=1e-8)


def test_hopf_chart_is_the_textbook_monopole():
    # A = (-x_1, x_0) / (1 + |x|^2) J and F_01 = 2 / (1 + |x|^2)^2 J, written
    # out independently of the round-sphere chart the bundle is built from
    J = _imaginary_unit(1)
    x = np.random.default_rng(7).uniform(-2, 2, (3, 5, 2))
    d = 1.0 + (x * x).sum(axis=-1)
    A = (np.stack([-x[..., 1], x[..., 0]], axis=-1) / d[..., None])[..., None, None] * J
    F = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
    F[..., 0, 1, :, :] = (2.0 / d**2)[..., None, None] * J
    F[..., 1, 0, :, :] = -F[..., 0, 1, :, :]
    chart = get_bundle("hopf_u1").chart
    for got, want in ((chart.potential(x), A), (chart.curvature_field(x), F)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_hopf_c1_is_half_the_euler_form_of_the_tangent_bundle():
    # the degree-one line bundle is the square root of the tangent bundle of S^2
    c1 = char_form(get_bundle("hopf_u1").chart, make_polynomial("chern_j", 1, "u1"))
    e1 = char_form(get_bundle("ut_s2").chart, make_polynomial("euler", 1, "so2"))
    local = np.random.default_rng(8)
    x = local.uniform(-2, 2, (6, 2))
    tg = [local.standard_normal((6, 2)) for _ in range(2)]
    np.testing.assert_allclose(c1(x, tg), e1(x, tg) / 2, rtol=1e-14, atol=1e-16)


def test_gauss_bonnet_s4_smoke():
    # low order for speed; the acceptance suite runs the tight version
    b = get_bundle("frame_s4")
    e2 = make_polynomial("euler", 2, "so4")
    v = integrate(char_form(b.chart, e2), b.chains["full_sphere"].chain, 6)
    assert v == pytest.approx(2.0, abs=1e-3)


def test_p1_integral_vanishes_pointwise():
    b = get_bundle("frame_s4")
    p1 = make_polynomial("pontryagin_1", 2, "so4")
    form = char_form(b.chart, p1)
    for _ in range(5):
        pt = b.chart.point(rng.uniform(-2, 2, 4))
        tg = [rng.standard_normal(4) for _ in range(4)]
        assert abs(form(pt, tg)) < 1e-12


def test_heterotic_sweep_small():
    for name in ("hopf_u1", "ut_s2", "frame_s4:b1"):
        b = get_bundle(name)
        P = b.polynomial()
        for _ in range(3):
            ch = b.chart.at(random_group_element(b.chart.algebra, rng, 0.6))
            pt = ch.point(rng.uniform(-1, 1, b.chart.base_dim))
            tg = [rng.standard_normal(ch.dim) for _ in range(2 * P.degree)]
            assert heterotic_residual(ch, P, pt, tg) < 1e-4


def test_fiber_normalizations():
    ut = get_bundle("ut_s2")
    e1 = make_polynomial("euler", 1, "so2")
    v = fiber_integral(ut.chart, lambda ch: phi_p_form(ch, e1), np.zeros(2), ut.fiber, 24)
    assert v == pytest.approx(1.0, abs=1e-8)
    v_alt = fiber_integral(ut.chart, lambda ch: phi_p_form(ch, e1), np.zeros(2), ut.fiber, 48, use_alt_lift=True)
    assert abs(v - v_alt) < 1e-6

    fs = get_bundle("frame_s4")
    e2 = make_polynomial("euler", 2, "so4")
    v = fiber_integral(fs.chart, lambda ch: phi_p_form(ch, e2), np.zeros(4), fs.fiber, 8)
    assert v == pytest.approx(1.0, abs=1e-4)

    hopf = get_bundle("hopf_u1")
    c1 = make_polynomial("chern_j", 1, "u1")
    for order, alt in ((24, False), (48, True)):
        v = fiber_integral(hopf.chart, lambda ch: phi_p_form(ch, c1), np.zeros(2), hopf.fiber, order, use_alt_lift=alt)
        assert v == pytest.approx(1.0, abs=1e-8)

    p1 = make_polynomial("pontryagin_1", 2, "so4")
    for name in ("frame_s4:b1", "frame_s4:b2"):
        b = get_bundle(name)
        v = fiber_integral(b.chart, lambda ch: phi_p_form(ch, p1), np.zeros(4), b.fiber, 8)
        assert v == pytest.approx(1.0, abs=1e-4)


def test_s3_fiber_integral_agrees_along_the_quaternionic_and_householder_lifts():
    # the integrand is basic, so every lift of the S^3 fiber gives one value:
    # the quaternionic lift (left multiplication by the fiber point), the
    # Householder frame and its right translate by H
    from csforms.liealg import left_mult_matrix
    from csforms.zoo import _angles, _householder_lift

    fs = get_bundle("frame_s4")
    assert fs.fiber.lift is _householder_lift
    e2 = make_polynomial("euler", 2, "so4")
    quaternionic = replace(fs.fiber, lift=lambda psi: left_mult_matrix(_angles(psi)))
    vals = [
        fiber_integral(fs.chart, lambda ch: phi_p_form(ch, e2), np.zeros(4), fiber, 8, use_alt_lift=alt)
        for fiber, alt in ((quaternionic, False), (fs.fiber, False), (fs.fiber, True))
    ]
    assert max(vals) - min(vals) < 1e-6
    assert vals[1] == pytest.approx(1.0, abs=1e-4)


def test_householder_frame_is_the_old_circle_frame_at_n_2():
    # at n = 2 the Householder frame of a unit v is the rotation with columns (v, Jv)
    from csforms.zoo import _householder_frame

    v = np.random.default_rng(3).standard_normal((4, 5, 2))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    old = np.stack([np.stack([v[..., 0], -v[..., 1]], axis=-1), np.stack([v[..., 1], v[..., 0]], axis=-1)], axis=-2)
    assert np.max(np.abs(_householder_frame(v) - old)) <= 1e-13


def test_every_so2_element_fed_to_a_chart_is_a_rotation():
    # a context on so(2) skips Ad_{g^-1}, which is the identity on SO(2) only:
    # a reflection acts on so(2) by -1 (BundleChart)
    b = get_bundle("ut_s2")
    local = np.random.default_rng(2)
    x = local.uniform(-3.0, 3.0, (500, 2))
    s = local.uniform(0.0, 2 * pi, (500, 1))
    elements = [section.value(x) for section in b.sections.values()]
    elements += [b.fiber.lift(s), b.fiber.lift_alt(s)]
    elements.append(np.array([random_group_element(b.chart.algebra, local, 0.7) for _ in range(100)]))
    for g in elements:
        assert g.shape[-2:] == (2, 2)
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) <= 1e-14


@pytest.mark.parametrize("name", [*_CATALOG, "flat:u2:3:su2", "linear:u3:2:u2", "linear:su3:2"])
def test_charts_lifts_and_sections_are_real(name):
    # u(n) charts are realified: every field and group element is a real matrix of the algebra's size
    b = get_bundle(name)
    chart, local = b.chart, np.random.default_rng(9)
    n, N = chart.base_dim, chart.algebra.matrix_size
    x = local.uniform(-1.2, 1.2, (3, n))
    A, F = chart.potential(x), chart.curvature_field(x)
    assert A.dtype == F.dtype == np.float64 and A.shape == (3, n, N, N) and F.shape == (3, n, n, N, N)
    elements = [section.value(x) for section in b.sections.values()]
    if b.fiber is not None:
        params = local.uniform(0.1, 1.0, (3, len(b.fiber.intervals)))
        elements += [b.fiber.lift(params), b.fiber.lift_alt(params)]
    elements.append(random_group_element(chart.algebra, local, 0.7)[None])
    for g in elements:
        assert g.dtype == np.float64 and g.shape[-2:] == (N, N)
        assert np.max(np.abs(g.swapaxes(-1, -2) @ g - np.eye(N))) <= 1e-13


@pytest.mark.parametrize("n", [0, 1, 3, 5, -2])
def test_frame_sphere_needs_an_even_dimension(n):
    with pytest.raises(ValueError, match="even n >= 2"):
        frame_sphere(n, "bad")


def test_fiber_integral_away_from_origin():
    # the fiber integral of a basic form cannot depend on the base point
    ut = get_bundle("ut_s2")
    e1 = make_polynomial("euler", 1, "so2")
    v = fiber_integral(ut.chart, lambda ch: phi_p_form(ch, e1), np.array([0.7, -0.4]), ut.fiber, 24)
    assert v == pytest.approx(1.0, abs=1e-8)


def test_obstruction_identity_caps():
    b = get_bundle("ut_s2")
    e1 = make_polynomial("euler", 1, "so2")
    for chain, expected_lhs in (("cap:pi/6", 1 - np.cos(pi / 6)), ("cap:pi/3", 0.5), ("cap:pi/2", 1.0)):
        for sec in ("height_gradient", "rotational"):
            rep = obstruction_identity_check(b.chart, e1, b.chains[chain], b.sections[sec])
            assert rep.residual < 1e-4
            assert rep.lhs == pytest.approx(expected_lhs, abs=1e-8)
            assert rep.index_sum == 1


def test_obstruction_identity_band_and_full():
    b = get_bundle("ut_s2")
    e1 = make_polynomial("euler", 1, "so2")
    rep = obstruction_identity_check(b.chart, e1, b.chains["band:pi/6:pi/3"], b.sections["height_gradient"])
    assert rep.index_sum == 0 and rep.residual < 1e-4
    rep = obstruction_identity_check(b.chart, e1, b.chains["full_sphere"], b.sections["rotational"])
    assert rep.index_sum == 2 and rep.boundary_term == 0.0 and rep.residual < 1e-4


def test_s4_obstruction_identity_on_a_cap_and_a_band():
    # lhs = 2 (2/3 - cos t + cos^3 t / 3) / (4/3) on the cap theta <= t; its
    # boundary term is far from 0, so the identity is not vacuous
    b = get_bundle("frame_s4")
    e2 = b.polynomial()
    t = pi / 3
    for sec in ("height_gradient", "rotational"):
        rep = obstruction_identity_check(b.chart, e2, b.chains["cap:pi/3"], b.sections[sec], (8, 8, 8, 1), 8)
        assert rep.lhs == pytest.approx(2 * (2 / 3 - np.cos(t) + np.cos(t) ** 3 / 3) / (4 / 3), abs=1e-8)
        assert abs(rep.boundary_term) > 0.5
        assert rep.index_sum == 1 and rep.residual < 1e-4
    rep = obstruction_identity_check(
        b.chart, e2, b.chains["band:pi/6:pi/3"], b.sections["height_gradient"], (8, 8, 8, 1), 8
    )
    assert rep.index_sum == 0 and rep.residual < 1e-4


def test_obstruction_identity_refuses_a_section_without_the_chains_zeros():
    b = get_bundle("frame_s4")
    zero_free = replace(b.sections["height_gradient"], zeros=())
    with pytest.raises(ValueError, match="zeros"):
        obstruction_identity_check(b.chart, b.polynomial(), b.chains["full_sphere"], zero_free)


# winding_degree evaluates its map on the stack of all nodes and stencil
# points, so the maps below take angle parameters (..., d)
def unit_circle(t):
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


def test_section_winding_indices():
    # each field near its zero at the north pole (chart u) and at the south
    # pole (chart w)
    fields_u = {"height_gradient": lambda x: -x, "rotational": lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1)}
    fields_w = {
        "height_gradient": lambda w: w / np.linalg.norm(w, axis=-1, keepdims=True),
        "rotational": lambda w: np.stack([w[..., 1], -w[..., 0]], axis=-1) / np.linalg.norm(w, axis=-1, keepdims=True),
    }
    for name, zero_index in (("height_gradient", 1), ("rotational", 1)):
        for f in (fields_u[name], fields_w[name]):
            def circle(params, f=f):
                return f(0.05 * unit_circle(params[..., 0]))
            assert winding_degree(circle, 1) == zero_index


def test_winding_degree_basics():
    ident = lambda p: unit_circle(p[..., 0])
    conj = lambda p: unit_circle(-p[..., 0])
    assert winding_degree(ident, 1) == 1
    assert winding_degree(conj, 1) == -1

    from csforms.zoo import _angles

    assert winding_degree(lambda p: _angles(p), 3, quad_order=(8, 8, 12)) == 1


def test_winding_degree_reparametrization_invariance():
    f = lambda p: unit_circle(2 * p[..., 0])
    g = lambda p: f(p + 0.3 * np.sin(p))
    assert winding_degree(f, 1) == winding_degree(g, 1) == 2

    from csforms.zoo import _angles

    def h(p):
        p0 = p[..., 0]
        q = np.stack([p0 + 0.1 * np.sin(p0) * np.sin(p0 - pi), p[..., 1], p[..., 2]], axis=-1)
        return _angles(q)

    assert winding_degree(h, 3, quad_order=(8, 8, 12)) == 1


def test_quadrature_order_count_must_match_axes():
    from csforms.zoo import _angles

    square = _box_chain("square", ((0.0, 1.0), (0.0, 1.0)))
    dxdy = FormField(2, 2, lambda pt, tg: tg[0][..., 0] * tg[1][..., 1] - tg[0][..., 1] * tg[1][..., 0])
    with pytest.raises(ValueError):
        integrate(dxdy, square, (4, 4, 4))
    ut = get_bundle("ut_s2")
    e1 = make_polynomial("euler", 1, "so2")
    with pytest.raises(ValueError):
        fiber_integral(ut.chart, lambda ch: phi_p_form(ch, e1), np.zeros(2), ut.fiber, (24, 99))
    circle = lambda p: unit_circle(p[..., 0])
    with pytest.raises(ValueError):
        winding_degree(circle, 1, (24, 99))
    with pytest.raises(ValueError):
        winding_degree(lambda p: _angles(p), 3, (8, 8))


def test_winding_degree_ambiguity_raises():
    # half-winding cannot round cleanly
    f = lambda p: unit_circle(p[..., 0] / 2)
    with pytest.raises(PrecisionError):
        winding_degree(f, 1)


def test_quaternionic_section_degrees():
    a1, a2 = quaternionic_section_degrees((10, 10, 14))
    assert {a1, a2} == {2, -2}
    assert a1 + a2 == 0


def test_meridian_transport_is_trivial():
    # A(r d)(d) = 0 on every ray from the chart origin, so parallel transport
    # along the meridians is the identity in this gauge
    for name, n in (("frame_s4", 4), ("ut_s2", 2)):
        potential = get_bundle(name).chart.potential
        for _ in range(5):
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            r = rng.uniform(0.0, 6.0)
            assert np.max(np.abs(np.einsum("a,aij->ij", d, potential(r * d)))) < 1e-12


def test_b1_global_index_count():
    """Cross-consistency: the heterotic identity integrated over the base ties
    the Psi-characteristic number to the section index through the unit fiber
    normalization: integral of P1(Omega) - P1(Psi_i) equals a_i."""
    a1, a2 = quaternionic_section_degrees((10, 10, 14))
    p1 = make_polynomial("pontryagin_1", 2, "so4")
    fs = get_bundle("frame_s4")
    for name, a in (("frame_s4:b1", a1), ("frame_s4:b2", a2)):
        b = get_bundle(name)
        v_psi = integrate(char_form(b.chart, p1, "psi"), fs.chains["full_sphere"].chain, 6)
        assert (0.0 - v_psi) == pytest.approx(a, abs=1e-3)


def test_su2_factor_instanton_number():
    # the self-dual curvature factor of the round 4-sphere carries one unit of
    # second-Chern charge in its fundamental representation; with the shipped
    # P1 normalization that shows up as half the 4x4-trace integral
    fs = get_bundle("frame_s4")
    b2 = get_bundle("frame_s4:b2")  # h2 = self-dual ideal
    p1 = make_polynomial("pontryagin_1", 2, "so4")
    v = integrate(char_form(b2.chart, p1, "psi"), fs.chains["full_sphere"].chain, 6)
    assert v / 2 == pytest.approx(1.0, abs=1e-3)


def test_twisted_u2_fields_are_the_closed_form():
    # A = y M2 dx + x M1 dy and F_xy = M1 - M2 + xy [M2, M1] on a stack of points
    chart = get_bundle("twisted_u2:su2").chart
    pts = np.random.default_rng(8).uniform(-1.5, 1.5, (4, 3, 2))
    x, y = pts[..., 0, None, None], pts[..., 1, None, None]
    A = chart.potential(pts)
    assert np.max(np.abs(A[..., 0, :, :] - y * _M2)) <= 1e-15
    assert np.max(np.abs(A[..., 1, :, :] - x * _M1)) <= 1e-15
    F = chart.curvature_field(pts)
    fxy = _M1 - _M2 + x * y * (_M2 @ _M1 - _M1 @ _M2)
    assert np.max(np.abs(F[..., 0, 1, :, :] - fxy)) <= 1e-15
    assert np.max(np.abs(F[..., 1, 0, :, :] + fxy)) <= 1e-15
    assert not np.any(F[..., [0, 1], [0, 1], :, :])


def test_twisted_u2_vanishing():
    for name in ("twisted_u2:su2", "twisted_u2:u1"):
        b = get_bundle(name)
        P = b.polynomial()
        worst_p = 0.0
        nonzero_psi = 0.0
        for _ in range(10):
            ch = b.chart.at(random_group_element(b.chart.algebra, rng, 0.6))
            pt = ch.point(rng.uniform(-1, 1, 2))
            X, Y = rng.standard_normal(6), rng.standard_normal(6)
            psi_val = ch.ctx(pt, [X, Y]).tables(ch.split)[2][0, 1]
            nonzero_psi = max(nonzero_psi, np.max(np.abs(psi_val)))
            tg = [rng.standard_normal(6) for _ in range(2 * P.degree)]
            worst_p = max(worst_p, abs(char_form(ch, P, "psi")(pt, tg)))
        assert nonzero_psi > 1e-3  # the check is not vacuous
        assert worst_p < 1e-10
