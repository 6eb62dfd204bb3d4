"""Bundle chart machinery: connection, curvature, splits, assembled forms."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from csforms import checks
from csforms.bundles import (
    _pair_table,
    bianchi_residuals,
    char_form,
    connection_curvature_fd_residual,
    heterotic_residual,
    heterotic_sides,
    phi_p_form,
)
from csforms._expm import expm_maurer_cartan
from csforms.calculus import DEFAULT_FD_STEP, FormField, exterior_derivative, integrate
from csforms.invariants import make_polynomial
from csforms.liealg import random_element, random_group_element, so
from csforms.zoo import _CATALOG, flat_bundle, get_bundle

rng = np.random.default_rng(23)


def ad_coords(alg, h):
    """Coordinate matrix of X -> h^-1 X h in the stored basis."""
    return alg.coords(h.T @ np.array(alg.basis()) @ h).T


def vertical_at_t0(chart, value):
    """The tangent at a t = 0 point whose Maurer-Cartan value is value."""
    return np.concatenate([np.zeros(chart.base_dim), chart.algebra.coords(value)])


def comm(a, b):
    return a @ b - b @ a


def test_expm_tangent_matches_fd():
    m = random_element(so(4), rng)
    dm = random_element(so(4), rng)
    h = 1e-6
    fd = (expm(m + h * dm) - expm(m - h * dm)) / (2 * h)
    assert np.max(np.abs(expm(m) @ expm_maurer_cartan(m, dm[None])[0] - fd)) < 1e-8


def test_connection_reproduces_fiber_velocity_at_identity():
    b = get_bundle("ut_s2")
    pt = b.chart.point(np.array([0.4, -0.2]))
    xi = np.array([0.0, 0.0, 0.7])  # pure fiber velocity in exp coordinates
    val = b.chart.ctx(pt, [xi]).w[0]
    assert np.allclose(val, b.chart.algebra.from_coords([0.7]))


def test_flat_connection_is_maurer_cartan():
    b = flat_bundle("so3", 2)
    g0 = random_group_element(b.chart.algebra, rng)
    ch = b.chart.at(g0)
    pt = ch.point(rng.uniform(-1, 1, 2), rng.uniform(-0.3, 0.3, 3))
    v = rng.standard_normal(5)
    # base part of the tangent contributes nothing when A = 0
    v2 = v.copy()
    v2[:2] = 0.0
    w, w2 = ch.ctx(pt, [v, v2]).w
    assert np.allclose(w, w2)


def test_connection_equivariance():
    b = get_bundle("frame_s4")
    alg = b.chart.algebra
    for _ in range(5):
        g = random_group_element(alg, rng, 0.6)
        h = random_group_element(alg, rng, 0.6)
        ch1, ch2 = b.chart.at(g), b.chart.at(g @ h)
        adm = ad_coords(alg, h)
        x = rng.uniform(-1, 1, 4)
        pt = ch1.point(x)
        v = rng.standard_normal(10)
        v2 = np.concatenate([v[:4], adm @ v[4:]])
        w1 = ch1.ctx(pt, [v]).w[0]
        w2 = ch2.ctx(ch2.point(x), [v2]).w[0]
        hinv = h.T
        assert np.max(np.abs(w2 - hinv @ w1 @ h)) < 1e-8


def test_curvature_kills_verticals_and_matches_fd():
    b = get_bundle("frame_s4")
    g0 = random_group_element(b.chart.algebra, rng, 0.5)
    ch = b.chart.at(g0)
    pt = ch.point(rng.uniform(-1, 1, 4))
    vert = vertical_at_t0(ch, random_element(b.chart.algebra, rng))
    x = rng.standard_normal(10)
    om = ch.ctx(pt, [vert, x]).omega[0, 1]
    assert np.max(np.abs(om)) < 1e-12
    assert connection_curvature_fd_residual(ch, pt, x, rng.standard_normal(10)) < 1e-5


@pytest.mark.parametrize("name", ["hopf_u1", "ut_s2", "frame_s4", "twisted_u2:su2"])
def test_potential_curvature_cross_check(name):
    # at t = 0 on base axes, d w + (1/2)[w, w] = Omega is dA + [A, A] = F
    b = get_bundle(name)
    axes = np.eye(b.chart.dim)
    worst = 0.0
    for _ in range(3):
        x = rng.uniform(-1.2, 1.2, b.chart.base_dim)
        for i in range(b.chart.base_dim):
            for j in range(i + 1, b.chart.base_dim):
                worst = max(worst, connection_curvature_fd_residual(b.chart, b.chart.point(x), axes[i], axes[j]))
    assert worst < 1e-6


def test_decompose_trivial_subgroup():
    # explicit trivial-H split: psi = 0 and phi is the whole connection
    from csforms.liealg import standard_split
    from dataclasses import replace

    b = get_bundle("hopf_u1")
    chart = replace(b.chart, split=standard_split("u1", "u0"))
    pt = chart.point(np.array([0.2, 0.1]), np.array([0.4]))
    v = rng.standard_normal(3)
    ctx = chart.ctx(pt, [v])
    w, phi = ctx.w[0], ctx.tables(chart.split)[0][0]
    assert np.max(np.abs(chart.split.project_h(w))) == 0.0
    assert np.allclose(phi, w)


def test_decompose_h_equals_g():
    # split with h = g: phi = 0
    b = flat_bundle("u2", 2, "u2")
    assert len(b.chart.split.p_basis) == 0
    pt = b.chart.point(np.zeros(2), rng.uniform(-0.2, 0.2, 4))
    v = rng.standard_normal(6)
    phi = b.chart.ctx(pt, [v]).tables(b.chart.split)[0][0]
    assert np.max(np.abs(phi)) < 1e-12


def test_decompose_lands_in_subspaces():
    b = get_bundle("frame_s4")
    s = b.chart.split
    g0 = random_group_element(b.chart.algebra, rng, 0.7)
    ch = b.chart.at(g0)
    pt = ch.point(rng.uniform(-1, 1, 4))
    vs = [rng.standard_normal(10) for _ in range(5)]
    ctx = ch.ctx(pt, vs)
    w, phi = ctx.w, ctx.tables(s)[0]
    psi = s.project_h(w)
    assert np.max(np.abs(s.project_h(phi))) < 1e-12
    assert np.max(np.abs(s.project_p(psi))) < 1e-12
    assert np.max(np.abs(phi + psi - w)) < 1e-12


def test_psi_curvature_fd_cross_check():
    """d psi + (1/2)[psi, psi] agrees with the analytic projection formula,
    whose bracket correction enters with a minus sign."""
    b = get_bundle("frame_s4")
    g0 = random_group_element(b.chart.algebra, rng, 0.6)
    ch = b.chart.at(g0)
    pt = ch.point(rng.uniform(-1, 1, 4))
    X, Y = rng.standard_normal(10), rng.standard_normal(10)
    psi_form = FormField(ch.dim, 1, lambda p, tg: ch.split.project_h(ch.ctx(p, tg).w[0]))
    dpsi = exterior_derivative(psi_form, 1e-4)(pt, [X, Y])
    ctx = ch.ctx(pt, [X, Y])
    psi = ch.split.project_h(ctx.w)
    fd_val = dpsi + comm(psi[0], psi[1])
    phi, _, analytic, om = ctx.tables(ch.split)
    assert np.max(np.abs(fd_val - analytic[0, 1])) < 1e-5
    # the bracket term it corrects for is genuinely nonzero here
    wrong_sign = ch.split.project_h(om[0, 1] + comm(phi[0], phi[1]))
    assert np.max(np.abs(fd_val - wrong_sign)) > 1e-3


def test_psi_curvature_ideal_split_is_curvature_projection():
    # [phi, phi] stays inside p for an ideal split, so Psi = Omega_h exactly
    b = get_bundle("frame_s4:b1")
    ch = b.chart.at(random_group_element(b.chart.algebra, rng, 0.5))
    pt = ch.point(rng.uniform(-1, 1, 4))
    X, Y = rng.standard_normal(10), rng.standard_normal(10)
    _, _, psi, om = ch.ctx(pt, [X, Y]).tables(ch.split)
    assert np.max(np.abs(psi[0, 1] - ch.split.project_h(om[0, 1]))) < 1e-12


def test_psi_trivial_cases():
    hopf = get_bundle("hopf_u1")
    pt = hopf.chart.point(np.array([0.3, -0.5]), np.array([0.2]))
    ctx = hopf.chart.ctx(pt, [rng.standard_normal(3), rng.standard_normal(3)])
    assert np.max(np.abs(ctx.tables(hopf.chart.split)[2][0, 1])) == 0.0


def test_covariant_derivative_identity():
    # the Bianchi identities of w and of psi hold on every tangent
    for name in _CATALOG:
        b = get_bundle(name)
        for _ in range(3):
            ch = b.chart.at(random_group_element(b.chart.algebra, rng, 0.5))
            pt = ch.point(rng.uniform(-0.8, 0.8, b.chart.base_dim))
            tg = [rng.standard_normal(ch.dim) for _ in range(3)]
            omega_part, psi_part, _ = bianchi_residuals(ch, pt, tg)
            assert omega_part < 1e-5 and psi_part < 1e-5, name


def test_covariant_derivative_flat():
    b = flat_bundle("so4", 3, "so3")
    pt = b.chart.point(rng.uniform(-1, 1, 3))
    tg = [rng.standard_normal(9) for _ in range(3)]
    assert bianchi_residuals(b.chart, pt, tg)[0] < 1e-10


def test_bianchi_residuals_without_a_split_read_psi_zero():
    b = get_bundle("hopf_u1")
    assert b.chart.split is None
    pt = b.chart.point(np.array([0.3, -0.5]), np.array([0.2]))
    tg = np.random.default_rng(0).standard_normal((3, 3))
    omega_part, psi_part, scale = bianchi_residuals(b.chart, pt, tg)
    assert omega_part < 1e-5 and psi_part == 0.0 and scale == 0.0


def _with_curvature(name, field):
    """The catalog bundle name with its curvature field F replaced by field(F(x))."""
    b = get_bundle(name)
    return replace(b, chart=replace(b.chart, curvature_field=lambda x: field(b.chart.curvature_field(x))))


def _omega_bianchi(bundle):
    return checks._sweep(bundle, np.random.default_rng(0), 3, 3, lambda ch, pt, tg: bianchi_residuals(ch, pt, tg)[0])


def test_bianchi_omega_part_catches_a_non_central_curvature_term():
    # 0.1 E_0 on the (x_0, x_1) pair of frame_s4: d Omega + [w, Omega] reads about 0.11
    e0 = so(4).basis()[0]

    def bumped(F):
        F = np.array(F)
        F[..., 0, 1, :, :] += 0.1 * e0
        F[..., 1, 0, :, :] -= 0.1 * e0
        return F

    assert _omega_bianchi(get_bundle("frame_s4")) < 1e-6
    assert _omega_bianchi(_with_curvature("frame_s4", bumped)) > 0.05


def test_a_scaled_curvature_passes_bianchi_and_fails_the_connection_check():
    # D_w Omega = 0 is linear in Omega, so 1.1 F passes it; F = dA + [A, A]
    # on base tangents sees the factor
    scaled = _with_curvature("frame_s4", lambda F: 1.1 * F)
    assert _omega_bianchi(scaled) < 1e-6
    axes = np.eye(scaled.chart.dim)
    x = scaled.chart.point(np.full(4, 0.3))
    worst = max(connection_curvature_fd_residual(scaled.chart, x, axes[i], axes[j]) for i in range(4) for j in range(i + 1, 4))
    assert worst > 0.01


def test_char_form_omega_never_evaluates_the_potential():
    ut = get_bundle("ut_s2")

    def no_potential(x):
        raise AssertionError("P(Omega) evaluated the potential")

    chart = replace(ut.chart, potential=no_potential)
    e1 = make_polynomial("euler", 1, "so2")
    assert integrate(char_form(chart, e1), ut.chains["full_sphere"].chain, 24) == pytest.approx(2.0, abs=1e-8)


def test_tp_form_k1_is_p_of_omega():
    b = get_bundle("hopf_u1")
    c1 = make_polynomial("chern_j", 1, "u1")
    form = phi_p_form(replace(b.chart, split=None), c1)
    pt = b.chart.point(np.array([0.4, 0.3]), np.array([0.5]))
    v = rng.standard_normal(3)
    w = b.chart.ctx(pt, [v]).w[0]
    assert form(pt, [v]) == pytest.approx(c1(w))


def test_transgression_identity_nonabelian():
    b = get_bundle("frame_s4")
    e2 = make_polynomial("euler", 2, "so4")
    worst = 0.0
    for _ in range(3):
        ch = b.chart.at(random_group_element(b.chart.algebra, rng, 0.6))
        pt = ch.point(rng.uniform(-1, 1, 4))
        tg = [rng.standard_normal(10) for _ in range(4)]
        # d TP = P(Omega) is the heterotic identity without the split
        worst = max(worst, heterotic_residual(replace(ch, split=None), e2, pt, tg))
    assert worst < 1e-5


def test_h_trivial_collapse():
    b = get_bundle("hopf_u1")
    c1 = make_polynomial("chern_j", 1, "u1")
    tp, pp = phi_p_form(replace(b.chart, split=None), c1), phi_p_form(b.chart, c1)
    for _ in range(10):
        pt = b.chart.point(rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 1))
        v = [rng.standard_normal(3)]
        assert abs(tp(pt, v) - pp(pt, v)) < 1e-12


def test_phi_p_horizontality_and_invariance():
    b = get_bundle("frame_s4")
    e2 = make_polynomial("euler", 2, "so4")
    alg = b.chart.algebra
    form = phi_p_form(b.chart, e2)
    pt = b.chart.point(rng.uniform(-1, 1, 4))
    for _ in range(50):
        xh = b.chart.split.project_h(random_element(alg, rng))
        vert = vertical_at_t0(b.chart, xh)
        tg = [vert, rng.standard_normal(10), rng.standard_normal(10)]
        assert abs(form(pt, tg)) < 1e-8
    for _ in range(20):
        g = random_group_element(alg, rng, 0.6)
        hc = rng.standard_normal(3)
        h = expm(sum(c * m for c, m in zip(hc, b.chart.split.h_basis)))
        adm = ad_coords(alg, h)
        ch1, ch2 = b.chart.at(g), b.chart.at(g @ h)
        p = ch1.point(rng.uniform(-1, 1, 4))
        tg = [rng.standard_normal(10) for _ in range(3)]
        tg2 = [np.concatenate([v[:4], adm @ v[4:]]) for v in tg]
        assert abs(phi_p_form(ch1, e2)(p, tg) - phi_p_form(ch2, e2)(p, tg2)) < 1e-8


def test_heterotic_residual_flat_is_tiny():
    b = flat_bundle("so4", 3, "so3")
    e2 = make_polynomial("euler", 2, "so4")
    ch = b.chart.at(random_group_element(b.chart.algebra, rng, 0.5))
    pt = ch.point(rng.uniform(-1, 1, 3))
    tg = [rng.standard_normal(9) for _ in range(4)]
    assert heterotic_residual(ch, e2, pt, tg) < 1e-8


@pytest.mark.parametrize("name", [*_CATALOG, "linear:u3:6:u2", "linear:u3:6:su3"])
def test_fused_residuals_match_the_generic_d(name):
    # the one-context sides against d PhiP by exterior_derivative and
    # P(Omega) - P(Psi) as two char_form values at the point, off t = 0 on
    # the stencil; with and without the split (d TP = P(Omega)).  d is
    # pinned to within 1e-12 of the residual, the right-hand side, computed
    # in two shuffle evaluations instead of one, to within 1e-12 of itself.
    b = get_bundle(name)
    P = b.polynomial()
    gen = np.random.default_rng(11)
    for _ in range(2):
        ch = b.chart.at(random_group_element(b.chart.algebra, gen, 0.7))
        pt = ch.point(gen.uniform(-1.2, 1.2, ch.base_dim))
        tg = [gen.standard_normal(ch.dim) for _ in range(2 * P.degree)]
        for chart in (ch, replace(ch, split=None)):
            lhs, rhs = heterotic_sides(chart, P, pt, tg, DEFAULT_FD_STEP)
            d_generic = exterior_derivative(phi_p_form(chart, P))(pt, tg)
            rhs_generic = char_form(chart, P, "omega")(pt, tg) - char_form(chart, P, "psi")(pt, tg)
            assert abs(lhs - d_generic) <= 1e-12 * abs(d_generic - rhs_generic)
            assert abs(rhs - rhs_generic) <= 1e-12 * abs(rhs_generic)
            assert heterotic_residual(chart, P, pt, tg) == abs(lhs - rhs)


def test_char_form_psi_requires_nothing_when_trivial():
    b = get_bundle("ut_s2")
    e1 = make_polynomial("euler", 1, "so2")
    f = char_form(b.chart, e1, "psi")
    pt = b.chart.point(np.zeros(2))
    assert f(pt, [rng.standard_normal(3), rng.standard_normal(3)]) == 0.0


def test_phi_p_form_computes_each_phi_once(monkeypatch):
    # off t = 0: one expm for the group element
    import csforms.bundles as bundles

    calls = []

    def counted(m, *scaling):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(bundles, "expm", counted)
    b = get_bundle("frame_s4:b1")
    P = b.polynomial()
    pt = b.chart.point(rng.uniform(-0.5, 0.5, 4), rng.uniform(-0.3, 0.3, b.chart.algebra.dim))
    tangents = [rng.standard_normal(b.chart.dim) for _ in range(2 * P.degree - 1)]
    value = phi_p_form(b.chart, P)(pt, tangents)
    assert np.isfinite(value) and value != 0.0
    assert 0 < len(calls) <= 1 + len(tangents)


def _counting(P):
    """P with its multilinear calls counted in a list."""
    calls = []

    def ml(args):
        calls.append(len(args))
        return P.multilinear(args)

    return replace(P, multilinear=ml), calls


@pytest.mark.parametrize("name", ["frame_s4", "frame_s4:b1", "hopf_u1"])
def test_each_form_value_is_one_multilinear_call(name):
    b = get_bundle(name)
    P, calls = _counting(b.polynomial())
    k = P.degree
    ch = b.chart.at(random_group_element(b.chart.algebra, rng, 0.5))
    pt = ch.point(rng.uniform(-0.5, 0.5, ch.base_dim))
    tg = [rng.standard_normal(ch.dim) for _ in range(2 * k)]
    phi_p_form(ch, P)(pt, tg[1:])
    assert len(calls) == 1
    char_form(ch, P)(pt, tg)
    assert len(calls) == 2
    # one call for d PhiP on the stencil stack, one for P(Omega) - P(Psi)
    assert heterotic_residual(ch, P, pt, tg) < 1e-6
    assert len(calls) == 4


def test_chart_context_scales_once_off_t0(monkeypatch):
    # off t = 0 one expm_scaling serves the group elements and the
    # Maurer-Cartan values, and nothing is diagonalized; at t = 0 neither runs
    import csforms._expm as kernel
    import csforms.bundles as bundles

    eighs, scalings = [], []
    real_eigh, real_scaling = np.linalg.eigh, kernel.expm_scaling

    def counted_eigh(*a, **kw):
        eighs.append(a[0].shape)
        return real_eigh(*a, **kw)

    def counted_scaling(x):
        scalings.append(x.shape)
        return real_scaling(x)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(bundles, "expm_scaling", counted_scaling)
    monkeypatch.setattr(kernel, "expm_scaling", counted_scaling)
    b = get_bundle("frame_s4:b1")
    tangents = [rng.standard_normal(b.chart.dim) for _ in range(3)]
    off = b.chart.point(rng.uniform(-0.5, 0.5, 4), rng.uniform(-0.3, 0.3, b.chart.algebra.dim))
    b.chart.ctx(off, tangents).tables(b.chart.split)
    assert scalings == [(4, 4)] and eighs == []
    b.chart.ctx(b.chart.point(rng.uniform(-0.5, 0.5, 4)), tangents).tables(b.chart.split)
    assert scalings == [(4, 4)] and eighs == []


def _counted_kernels(monkeypatch):
    """The names of the exponential kernels the chart contexts call, in order."""
    import csforms.bundles as bundles

    calls = []

    def counted(name, real):
        def kernel(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return kernel

    for name in ("expm_scaling", "expm", "expm_maurer_cartan"):
        monkeypatch.setattr(bundles, name, counted(name, getattr(bundles, name)))
    return calls


@pytest.mark.parametrize("batch", [(), (5,)])
@pytest.mark.parametrize("name", ["ut_s2", "hopf_u1"])
def test_abelian_contexts_off_t0_skip_the_group(monkeypatch, name, batch):
    # Ad_g is the identity on SO(2) and U(1) and g^-1 dg = dt: off t = 0 a
    # context calls no exponential kernel, and its values are the Ad-free ones
    b = get_bundle(name)
    ch, alg, n = b.chart, b.chart.algebra, b.chart.base_dim
    local = np.random.default_rng(len(batch))
    g0 = np.array([random_group_element(alg, local, 0.7) for _ in range(5)])
    ch = ch.at(g0 if batch else g0[0])
    x = local.uniform(-1.2, 1.2, batch + (n,))
    pt = ch.point(x, local.uniform(-0.6, 0.6, batch + (alg.dim,)))
    tg = [local.standard_normal(batch + (ch.dim,)) for _ in range(3)]
    calls = _counted_kernels(monkeypatch)
    ctx = ch.ctx(pt, tg)
    w, om = ctx.w, ctx.omega
    v = np.asarray(tg)
    vx, vt = v[..., :n], v[..., n:]
    assert np.array_equal(w, np.einsum("m...a,...aij->m...ij", vx, ch.potential(x)) + alg.from_coords(vt))
    assert np.array_equal(om, _pair_table(vx, ch.curvature_field(x)))
    # every context on the d stencil is off t = 0 too
    P = b.polynomial()
    if not batch:
        assert heterotic_residual(ch, P, pt, tg[: 2 * P.degree]) < 1e-6
        assert max(bianchi_residuals(ch, pt, tg)) < 1e-5
    assert calls == []

