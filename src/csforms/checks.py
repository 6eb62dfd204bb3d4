"""Named verification checks shared by the CLI and the acceptance suite.

Each function returns a list of CheckRecord with the computed value, the
expected value, the tolerance, and a stable anchor string naming the identity
being verified.  A record passes when |computed - expected| <= tolerance and,
if it records the size `scale` of what it compares (the heterotic sweeps'
largest |P(Omega) - P(Psi)|), that size is at least NONVACUITY_FLOOR; those
rules are written once, in _rec, and CheckRecord.with_tolerance re-judges a
record at another tolerance (the CLI's --tol), which leaves the floor.

All randomness flows from an explicit seed, so a report is a deterministic
function of its configuration.  Every pointwise sweep draws its points through
_sweep, which for each point draws, in this order, a reference group element
g0 (random_group_element at scale 0.7), the base coordinates x (uniform on
[-1.2, 1.2]^n) and then the tangents (standard normal on the total space), and
keeps the largest |residual|.  Byte-identical reports depend on that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import rationals
from ._expm import expm
from .bundles import (
    BundleChart,
    ObstructionReport,
    bianchi_residuals,
    char_form,
    connection_curvature_fd_residual,
    fiber_integral,
    heterotic_sides,
    obstruction_identity_check,
    phi_p_form,
)
from .calculus import DEFAULT_FD_STEP, FormField, ParametrizedChain, _box_chain, _quad_orders, exterior_derivative, integrate, wedge
from .invariants import bracket_tables, eval_on_forms_indexed, invariance_identity_residual, make_polynomial, pfaffian, polarize_eval
from .liealg import random_element, random_group_element, so, u
from .zoo import NamedBundle, get_bundle, quaternionic_section_degrees

__all__ = [
    "CheckRecord",
    "coefficient_checks",
    "calculus_identity_checks",
    "heterotic_sweep",
    "vanishing_sweep",
    "gauss_bonnet_checks",
    "chern_number_checks",
    "fiber_norm_checks",
    "pontryagin_checks",
    "closedness_checks",
    "degree_checks",
    "obstruction_checks",
    "suite_all",
]


# a record whose compared quantities are all below this in size shows nothing
NONVACUITY_FLOOR = 1e-8


@dataclass(frozen=True)
class CheckRecord:
    name: str
    anchor: str
    computed: float
    expected: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def with_tolerance(self, tol: float) -> CheckRecord:
        """The same record judged at tolerance tol."""
        return _rec(self.name, self.anchor, self.computed, self.expected, tol, **self.extra)


def _rec(name: str, anchor: str, computed: float, expected: float, tol: float, **extra) -> CheckRecord:
    vacuous = "scale" in extra and not extra["scale"] >= NONVACUITY_FLOOR
    return CheckRecord(
        name=name,
        anchor=anchor,
        computed=float(computed),
        expected=float(expected),
        tolerance=float(tol),
        passed=bool(abs(float(computed) - float(expected)) <= float(tol)) and not vacuous,
        extra=extra,
    )


def _sweep(bundle: NamedBundle, rng: np.random.Generator, count: int, n_tangents: int, residual: Callable):
    """The largest |residual(chart, point, tangents)| over count random
    total-space points, drawn as in the module docstring; a residual that
    returns several values gets one maximum per value.  A NaN residual makes
    the maximum NaN, which fails the record.

    A sweep over no points would pass vacuously, so count must be >= 1.
    """
    if count < 1:
        raise ValueError(f"a sweep needs at least one point, got {count}")
    ch = bundle.chart
    worst = 0.0
    for _ in range(count):
        chg = ch.at(random_group_element(ch.algebra, rng, 0.7))
        pt = chg.point(rng.uniform(-1.2, 1.2, ch.base_dim))
        tg = [rng.standard_normal(chg.dim) for _ in range(n_tangents)]
        worst = np.maximum(worst, np.abs(residual(chg, pt, tg)))
    return worst


# --- exact coefficients -------------------------------------------------------

def coefficient_checks(k_max: int = 12) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    worst_table = 0
    worst_rel = 0
    cs_match = 0
    top_row = 0
    for k in range(1, k_max + 1):
        table = rationals.build_table_by_recursion(k)
        for (i, j), v in table.entries.items():
            if v != rationals.phi_coefficient(k, i, j):
                worst_table += 1
        for i in range(k):
            if table[i, 0] != rationals.cs_coefficient(k, i):
                cs_match += 1
        if table[0, k - 1] != 1:
            top_row += 1
        worst_rel += sum(1 for r in rationals.verify_linear_relations(k) if r.residual != 0)
        fc = rationals.fiber_constant(k)
        closed = rationals.fiber_constant_closed_form(k)
        records.append(
            _rec(
                f"fiber_constant_k{k}",
                "antidiagonal sum = k/((2k-1) 2^(k-1))",
                0.0 if fc == closed else 1.0,
                0.0,
                0.0,
                value=str(fc),
            )
        )
    records.insert(0, _rec("closed_form_vs_recursion", "double recursion consistency", worst_table, 0, 0, k_max=k_max))
    records.insert(1, _rec("single_index_match", "A_i0 equals transgression A_i, (k+i)! convention", cs_match, 0, 0))
    records.insert(2, _rec("top_antidiagonal_unit", "A_{0,k-1} = 1", top_row, 0, 0))
    records.insert(3, _rec("linear_relation_residuals", "linear relations and consistency condition", worst_rel, 0, 0))
    return records


# --- calculus and invariance property suite ------------------------------------

def _random_polynomial_form(dim: int, degree: int, rng: np.random.Generator) -> FormField:
    """Scalar form with random quadratic coefficient functions, evaluated on
    stacks of points as every integrated form and every form under d is.

    The contractions are einsums, not matrix products, whose BLAS kernel and
    so whose rounding change with the batch shape; the tests that compare a
    stacked finite-difference d with a per-point one, which d divides by
    2h per level, rely on this."""
    n_terms = 4
    coefs = rng.standard_normal((n_terms, dim))
    quad = rng.standard_normal((n_terms, dim)) * 0.5
    dirs = rng.standard_normal((n_terms, degree, dim))

    def ev(pt, tangents):
        c = np.einsum("...d,md->...m", pt, coefs) + np.einsum("...d,md->...m", pt * pt, quad)
        # entries dirs[m, a] . tangents[b] of each term's (degree, degree) matrix
        vol = np.linalg.det(np.einsum("mad,...bd->...mab", dirs, np.stack(tangents, axis=-2)))
        return np.sum(c * vol, axis=-1)

    return FormField(dim, degree, ev)


def _affine_edge(start: np.ndarray, direction: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segment s -> start + s * direction at parameters s (..., 1), and
    its constant tangent (..., d, 1)."""
    return start + s[..., :1] * direction, np.broadcast_to(direction[:, None], s.shape[:-1] + (len(direction), 1))


def calculus_identity_checks(seed: int = 0, fd_step: float = DEFAULT_FD_STEP) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    records: list[CheckRecord] = []

    # d compose d
    worst = 0.0
    for dim, degree in ((3, 1), (6, 2), (10, 3)):
        form = _random_polynomial_form(dim, degree, rng)
        dd = exterior_derivative(exterior_derivative(form, fd_step), fd_step)
        for _ in range(3):
            pt = rng.uniform(-1, 1, dim)
            tg = [rng.standard_normal(dim) for _ in range(degree + 2)]
            worst = max(worst, abs(dd(pt, tg)))
    records.append(_rec("dd_zero", "d(d a) = 0", worst, 0.0, 1e-5))

    # Leibniz: d(a^b) = da^b + (-1)^p a^db, with p = 1 here
    worst = 0.0
    for _ in range(3):
        a = _random_polynomial_form(4, 1, rng)
        b = _random_polynomial_form(4, 1, rng)
        lhs = exterior_derivative(wedge(a, b), fd_step)
        rhs1 = wedge(exterior_derivative(a, fd_step), b)
        rhs2 = wedge(a, exterior_derivative(b, fd_step))
        pt = rng.uniform(-1, 1, 4)
        tg = [rng.standard_normal(4) for _ in range(3)]
        worst = max(worst, abs(lhs(pt, tg) - rhs1(pt, tg) + rhs2(pt, tg)))
    records.append(_rec("leibniz", "d(a^b) = da^b + (-1)^p a^db", worst, 0.0, 1e-5))

    # wedge anticommutativity on random 1-forms
    a = _random_polynomial_form(4, 1, rng)
    b = _random_polynomial_form(4, 1, rng)
    pt = rng.uniform(-1, 1, 4)
    tg = [rng.standard_normal(4) for _ in range(2)]
    records.append(
        _rec("wedge_anticommute", "a^b = -(-1)^pq b^a", abs(wedge(a, b)(pt, tg) + wedge(b, a)(pt, tg)), 0.0, 1e-10)
    )

    # Stokes on a square (two random smooth 1-forms)
    worst = 0.0
    for trial in range(2):
        form = _random_polynomial_form(2, 1, rng)
        area = integrate(exterior_derivative(form, fd_step), _box_chain("square", ((0.0, 1.0), (0.0, 1.0))), 24)
        edge_total = 0.0
        # edges as (start, direction, sign): s -> start + s * direction
        edges = [((0.0, 0.0), (1.0, 0.0), +1), ((1.0, 0.0), (0.0, 1.0), +1),
                 ((0.0, 1.0), (1.0, 0.0), -1), ((0.0, 0.0), (0.0, 1.0), -1)]
        for start, direction, sign in edges:
            mp = partial(_affine_edge, np.array(start), np.array(direction))
            edge_total += sign * integrate(form, ParametrizedChain("edge", ((0.0, 1.0),), mp), 24)
        worst = max(worst, abs(area - edge_total))
    records.append(_rec("stokes_square", "Stokes on the unit square", worst, 0.0, 1e-6))

    # graded Jacobi (cyclic double brackets of Lie-valued 1-forms), on the
    # tables of three so(4) 1-forms at one point on 3 tangents
    alg = so(4)
    mats = [random_element(alg, rng) for _ in range(12)]
    pt = rng.uniform(-1, 1, 4)
    tg = [rng.standard_normal(4) for _ in range(3)]
    fa, fb, fc = (
        np.array([sum(v[i] * (1.0 + 0.2 * np.sin(pt[i])) * mats[off + i] for i in range(4)) for v in tg])
        for off in (0, 4, 8)
    )

    def double(a, b, c):
        return bracket_tables(bracket_tables(a, 1, b, 1), 2, c, 1)[0, 1, 2]

    jac = double(fa, fb, fc) + double(fb, fc, fa) + double(fc, fa, fb)
    records.append(_rec("graded_jacobi", "cyclic double brackets vanish for 1-forms", float(np.max(np.abs(jac))), 0.0, 1e-10))

    # bracket antisymmetry with degrees (1,2)
    f2 = bracket_tables(fa, 1, fb, 1)
    anti = bracket_tables(fc, 1, f2, 2)[0, 1, 2] + bracket_tables(f2, 2, fc, 1)[0, 1, 2]
    records.append(_rec("graded_antisymmetry", "[a,b] = -(-1)^pq [b,a]", float(np.max(np.abs(anti))), 0.0, 1e-10))

    # Maurer-Cartan structure equation via the flat chart
    flat = get_bundle("flat:so3:1")
    worst = 0.0
    for _ in range(3):
        g0 = random_group_element(flat.chart.algebra, rng, 0.8)
        ch = flat.chart.at(g0)
        ptf = ch.point(rng.uniform(-1, 1, 1), rng.uniform(-0.3, 0.3, 3))
        X, Y = rng.standard_normal(4), rng.standard_normal(4)
        worst = max(worst, connection_curvature_fd_residual(ch, ptf, X, Y, fd_step))
    records.append(_rec("maurer_cartan", "d theta + (1/2)[theta, theta] = 0", worst, 0.0, 1e-6))

    # invariance identity residuals on so(4), the toy forms as tables on 4 tangents
    for pname, k in (("pontryagin_1", 2), ("euler", 2)):
        P = make_polynomial(pname, k, "so4")
        worst = 0.0
        for _ in range(3):
            vals = [random_element(alg, rng) for _ in range(8)]
            tg = np.array([rng.standard_normal(4) for _ in range(4)])

            def one_form(m1, m2):
                return tg[:, 0, None, None] * m1 + tg[:, 1, None, None] * m2

            def two_form(m1, m2):
                def area(a, b):
                    return (np.outer(tg[:, a], tg[:, b]) - np.outer(tg[:, b], tg[:, a]))[..., None, None]

                return area(0, 1) * m1 + area(2, 3) * m2

            forms = [(one_form(vals[0], vals[1]), 1), (two_form(vals[2], vals[3]), 2)]
            worst = max(worst, abs(invariance_identity_residual(P, forms, one_form(vals[4], vals[5]))))
        records.append(_rec(f"invariance_residual_{pname}", "Ad-invariance alternating sum", worst, 0.0, 1e-10))

    # infinitesimal Ad-invariance by finite differences, every shipped polynomial
    shipped = [
        make_polynomial("euler", 2, "so4"),
        make_polynomial("pontryagin_1", 2, "so4"),
        make_polynomial("chern_j", 1, "u2"),
        make_polynomial("chern_j", 2, "u2"),
        make_polynomial("trace_power_2", 2, "so4"),
    ]
    worst = 0.0
    h = 1e-5
    for P in shipped:
        algp = so(4) if P.algebra_tag.startswith("so") else u(2)
        for _ in range(3):
            Z = random_element(algp, rng)
            X = random_element(algp, rng)
            gp, gm = expm(h * Z), expm(-h * Z)
            d = (P.value(np.linalg.inv(gp) @ X @ gp) - P.value(np.linalg.inv(gm) @ X @ gm)) / (2 * h)
            worst = max(worst, abs(d))
    records.append(_rec("ad_invariance_fd", "d/dt P(Ad_exp(tZ) X) = 0", worst, 0.0, 1e-8))

    # pfaffian squares to the determinant
    worst = 0.0
    for n in (2, 4, 6):
        m = rng.standard_normal((n, n))
        m = m - m.T
        worst = max(worst, abs(pfaffian(m) ** 2 - np.linalg.det(m)) / max(1.0, abs(np.linalg.det(m))))
    records.append(_rec("pfaffian_det", "Pf(X)^2 = det(X)", worst, 0.0, 1e-8))

    # polarization: diagonal value and permutation symmetry
    P = make_polynomial("euler", 2, "so4")
    X = random_element(alg, rng)
    diag = abs(polarize_eval(P, [X, X]) - P.value(X))
    Y = random_element(alg, rng)
    sym = abs(polarize_eval(P, [X, Y]) - polarize_eval(P, [Y, X]))
    records.append(_rec("polarization_diagonal", "polarized P on the diagonal equals P", diag, 0.0, 1e-12))
    records.append(_rec("polarization_symmetry", "polarized P is symmetric", sym, 0.0, 1e-12))

    # the Bianchi identities on raw tangents: D_w Omega = 0 on 3-D bases (on a 2-D
    # one it holds for any Omega), then D_psi Psi = 0, which depends on the split
    def omega_part(ch, pt, tg):
        return bianchi_residuals(ch, pt, tg, fd_step)[0]

    def psi_part(ch, pt, tg):
        return bianchi_residuals(ch, pt, tg, fd_step)[1:]

    for bname in ("linear:so4:3", "frame_s4"):
        worst = _sweep(get_bundle(bname), rng, 3, 3, omega_part)
        records.append(_rec(f"covariant_derivative_{bname}", "d Omega + [psi,Omega] = [Omega,phi]", worst, 0.0, 1e-5))
    for bname in ("frame_s4", "frame_s4:b1", "frame_s4:b2", "frame_s6", "twisted_u2:su2", "twisted_u2:u1"):
        worst, scale = _sweep(get_bundle(bname), rng, 3, 3, psi_part)
        records.append(_rec(f"psi_bianchi_{bname}", "d Psi + [psi,Psi] = 0", worst, 0.0, 1e-5, scale=float(scale)))

    return records


# --- bundle sweeps --------------------------------------------------------------

# the names heterotic_sweep takes for poly: (polynomial, degree), where None
# is the top degree n/2 of the bundle's so(n)
POLY_NAMES = {
    "euler1": ("euler", 1),
    "euler": ("euler", None),
    "c1": ("chern_j", 1),
    "c2": ("chern_j", 2),
    "p1": ("pontryagin_1", 2),
}


def _polynomial_for(bundle: NamedBundle, poly: str | None):
    if poly is None:
        return bundle.polynomial()
    if poly not in POLY_NAMES:
        raise ValueError(f"unknown polynomial {poly!r}; known: {', '.join(POLY_NAMES)}")
    name, k = POLY_NAMES[poly]
    alg = bundle.chart.algebra
    if k is None and not (alg.name == "so" and alg.n >= 2):
        raise ValueError(f"{name} needs so(2k) with k >= 1; {bundle.name} has {alg.tag}")
    return make_polynomial(name, alg.n // 2 if k is None else k, alg.tag)


def heterotic_sweep(
    bundle_name: str,
    poly: str | None = None,
    points: int = 100,
    seed: int = 0,
    fd_step: float = DEFAULT_FD_STEP,
) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    bundle = get_bundle(bundle_name)
    P = _polynomial_for(bundle, poly)
    if 2 * P.degree > bundle.chart.dim:
        # a 2k-form on a total space of lower dimension vanishes identically
        raise ValueError(
            f"{P.name} is a {2 * P.degree}-form; {bundle_name} has a {bundle.chart.dim}-dimensional total space"
        )

    def residual(ch, pt, tg):
        # the residual and the size of the right-hand side from one pass
        lhs, rhs = heterotic_sides(ch, P, pt, tg, fd_step)
        return lhs - rhs, rhs

    worst, scale = _sweep(bundle, rng, points, 2 * P.degree, residual)
    return [
        _rec(
            f"heterotic_{bundle_name}_{P.name}",
            "heterotic identity d PhiP = P(Omega) - P(Psi)",
            worst,
            0.0,
            1e-4,
            points=points,
            fd_step=fd_step,
            scale=float(scale),
        )
    ]


def vanishing_sweep(points: int = 100, seed: int = 0) -> list[CheckRecord]:
    """|P(Psi)| sweeps for the naturally-associated families."""
    rng = np.random.default_rng(seed)
    cases = [
        ("ut_s2", "euler on the circle-bundle split (h trivial)"),
        ("frame_s4", "euler on the sphere-bundle split"),
        ("twisted_u2:su2", "c1 on the determinant-bundle split"),
        ("twisted_u2:u1", "c2 on the odd-sphere-bundle split"),
        ("hopf_u1", "c1, rank-one frame split (h trivial)"),
    ]
    records = []
    for bname, label in cases:
        bundle = get_bundle(bname)
        P = bundle.polynomial()
        worst = _sweep(bundle, rng, points, 2 * P.degree, lambda ch, pt, tg: char_form(ch, P, "psi")(pt, tg))
        records.append(
            _rec(f"vanishing_{bname}_{P.name}", f"P(Psi) = 0: {label}", worst, 0.0, 1e-10, points=points)
        )
    return records


def _obstruction_record(name: str, report: ObstructionReport) -> CheckRecord:
    """The record of one obstruction_identity_check report."""
    return _rec(
        name,
        "relative Gauss-Bonnet: chain integral = index sum + boundary transgression",
        report.residual,
        0.0,
        1e-4,
        lhs=report.lhs,
        index_sum=report.index_sum,
        boundary_term=report.boundary_term,
    )


# the default quadrature order of a chain by its dimension; its boundary takes twice it
_DEFAULT_ORDER = {2: 24, 4: 8}


def _chain_orders(chain: ParametrizedChain, quad_order: int | None) -> tuple[int, int]:
    """(N, 2N), the orders of a chain and of its boundary pieces, where N is
    quad_order or else _DEFAULT_ORDER of the chain's dimension.  Both rules
    are refused, if at all, here, before any integral."""
    dim = chain.param_dim
    if quad_order is None and dim not in _DEFAULT_ORDER:
        raise ValueError(f"no default quadrature order for a {dim}-dimensional chain; pass quad_order (--quad-order)")
    order = _DEFAULT_ORDER[dim] if quad_order is None else quad_order
    _quad_orders(order, dim)
    if chain.boundary:
        _quad_orders(2 * order, dim - 1)
    return order, 2 * order


def gauss_bonnet_checks(quad_order: int | None = None) -> list[CheckRecord]:
    """Euler integrals on S^2 and S^4 and the S^2 cap identities, at the
    orders of _chain_orders."""
    ut, fs = get_bundle("ut_s2"), get_bundle("frame_s4")
    order2, boundary2 = _chain_orders(ut.chains["full_sphere"].chain, quad_order)
    order4, _ = _chain_orders(fs.chains["full_sphere"].chain, quad_order)
    records = []
    e1 = ut.polynomial()
    v = integrate(char_form(ut.chart, e1), ut.chains["full_sphere"].chain, order2)
    records.append(_rec("gauss_bonnet_s2", "Gauss-Bonnet: integral of e(Omega) = 2 on the 2-sphere", v, 2.0, 1e-8))

    v = integrate(char_form(fs.chart, fs.polynomial()), fs.chains["full_sphere"].chain, order4)
    records.append(_rec("gauss_bonnet_s4", "Gauss-Bonnet: integral of e(Omega) = 2 on the 4-sphere", v, 2.0, 1e-4))

    for label in ("cap:pi/6", "cap:pi/3", "cap:pi/2"):
        rep = obstruction_identity_check(
            ut.chart, e1, ut.chains[label], ut.sections["height_gradient"], order2, boundary2
        )
        records.append(_obstruction_record(f"obstruction_{label}", rep))
    return records


def chern_number_checks(quad_order: int | None = None) -> list[CheckRecord]:
    """c_1 integral on S^2 at the order of _chain_orders."""
    hopf = get_bundle("hopf_u1")
    chain = hopf.chains["full_sphere"].chain
    v = integrate(char_form(hopf.chart, hopf.polynomial()), chain, _chain_orders(chain, quad_order)[0])
    return [_rec("chern_number_s2", "degree-one line bundle has c_1 integral 1", v, 1.0, 1e-8)]


FIBER_NORM_BUNDLES = ("ut_s2", "frame_s4", "frame_s4:b1", "frame_s4:b2")


def _bare_integrand(P) -> Callable[[BundleChart], FormField]:
    """Chart -> the bare fiber integrand P(phi, [phi,phi]) of a degree-2 P."""

    def form_at(ch: BundleChart) -> FormField:
        def ev(pt, tangents):
            phi, pp, _, _ = ch.ctx(pt, tangents).tables(ch.split)
            return eval_on_forms_indexed(P, [(phi, 1), (pp, 2)], 3)

        return FormField(ch.dim, 3, ev)

    return form_at


def fiber_norm_checks(quad_order: int | None = None, bundle: str | None = None) -> list[CheckRecord]:
    """Fiber integrals over the fibers of FIBER_NORM_BUNDLES, or of one of them, with every
    axis at quad_order N and the circle's alternate lift at 2N; None means 24 (48) and 10."""
    if bundle is not None and bundle not in FIBER_NORM_BUNDLES:
        raise ValueError(f"no fiber-norm records for bundle {bundle!r}; known: {list(FIBER_NORM_BUNDLES)}")
    wanted = FIBER_NORM_BUNDLES if bundle is None else (bundle,)
    quad_order_1d, quad_order_3d = (24, 10) if quad_order is None else (quad_order, quad_order)
    # every order a record will use is refused, if at all, before the first integral
    for name in wanted:
        for order in (quad_order_1d, 2 * quad_order_1d) if name == "ut_s2" else (quad_order_3d,):
            _quad_orders(order, len(get_bundle(name).fiber.intervals))

    def on_fiber(name, order, bare=False, **kw):
        # the fiber integral of PhiP, or of the bare integrand, for the bundle's polynomial
        b = get_bundle(name)
        P = b.polynomial()
        form_at = _bare_integrand(P) if bare else lambda ch: phi_p_form(ch, P)
        return fiber_integral(b.chart, form_at, np.zeros(b.chart.base_dim), b.fiber, order, **kw)

    records = []
    if "ut_s2" in wanted:
        v = on_fiber("ut_s2", quad_order_1d)
        records.append(_rec("fiber_norm_circle", "circle-fiber integral of Phi-e is 1", v, 1.0, 1e-8))
        v_alt = on_fiber("ut_s2", 2 * quad_order_1d, use_alt_lift=True)
        records.append(_rec("fiber_lift_independence_circle", "fiber integral is lift-independent", abs(v - v_alt), 0.0, 1e-6))

    if "frame_s4" in wanted:
        v = on_fiber("frame_s4", quad_order_3d)
        records.append(_rec("fiber_norm_s3", "3-sphere-fiber integral of Phi-e is 1", v, 1.0, 1e-4))
        v_alt = on_fiber("frame_s4", quad_order_3d, use_alt_lift=True)
        records.append(_rec("fiber_lift_independence_s3", "fiber integral is lift-independent", abs(v - v_alt), 0.0, 1e-6))

    for name in ("frame_s4:b1", "frame_s4:b2"):
        if name in wanted:
            v = on_fiber(name, quad_order_3d)
            records.append(
                _rec(f"fiber_norm_{name.split(':')[1]}", "projective-fiber integral of Phi-P1 is 1", v, 1.0, 1e-4)
            )

    # bare fiber integrand P1(phi, [phi,phi]): on a fiber Omega = Psi = 0, so
    # the Phi-P1 integral above is A_10 times this one, which is 1/A_10 = -6
    if "frame_s4:b1" in wanted:
        v = on_fiber("frame_s4:b1", quad_order_3d, bare=True)
        records.append(
            _rec(
                "fiber_norm_b1_literal_integrand",
                "projective-fiber integral of the bare P1(phi,[phi,phi])",
                v,
                float(1 / rationals.phi_coefficient(2, 1, 0)),
                1e-4,
                note="1/A_10 = -6: the A_10 = -1/6 coefficient brings the Phi-P1 integral to 1",
            )
        )

    # exact coefficient identity backing the fiber reduction
    ok = all(rationals.fiber_constant(k) == rationals.fiber_constant_closed_form(k) for k in range(1, 13))
    records.append(_rec("fiber_constant_identity", "antidiagonal sum = k/((2k-1) 2^(k-1))", 0.0 if ok else 1.0, 0.0, 0.0))
    return records


def pontryagin_checks(points: int = 100, seed: int = 0, fd_step: float = DEFAULT_FD_STEP) -> list[CheckRecord]:
    rng = np.random.default_rng(seed)
    b1 = get_bundle("frame_s4:b1")
    b2 = get_bundle("frame_s4:b2")
    p1 = b1.polynomial()

    def p1_of(table):
        # P1 on the pair table of the 4 tangents, as char_form evaluates it
        return eval_on_forms_indexed(p1, [(table, 2)] * p1.degree, 2 * p1.degree)

    def split(ch, pt, tg):
        # one context: w and Omega are the same on both splits (b1 and b2
        # share the frame_s4 chart), and each split reads its Psi from them
        ctx = ch.ctx(pt, tg)
        psi1, psi2 = (ctx.tables(b.chart.split)[2] for b in (b1, b2))
        return p1_of(psi1) + p1_of(psi2) - p1_of(ctx.omega)

    def sum_rule(ch, pt, tg):
        ch2 = b2.chart.at(ch.reference())
        d1, _ = heterotic_sides(ch, p1, pt, tg, fd_step)
        d2, _ = heterotic_sides(ch2, p1, pt, tg, fd_step)
        return d1 + d2 - char_form(ch, p1, "omega")(pt, tg), d1

    worst_split = _sweep(b1, rng, points, 4, split)
    records = [
        _rec(
            "pontryagin_pointwise_split",
            "Pontryagin splitting P1(Psi1) + P1(Psi2) = P1(Omega)",
            worst_split,
            0.0,
            1e-10,
            points=points,
        )
    ]

    # P1(Omega) = 0 on the round S^4: scale, the largest |d PhiP1(w1)|, shows the two sides do not both vanish
    worst_sum, scale = _sweep(b1, rng, max(4, points // 10), 4, sum_rule)
    records.append(
        _rec(
            "pontryagin_sum_rule",
            "sum rule d PhiP1(w1) + d PhiP1(w2) = P1(Omega)",
            worst_sum,
            0.0,
            1e-4,
            fd_step=fd_step,
            scale=float(scale),
        )
    )
    return records


def closedness_checks(points: int = 20, seed: int = 0, fd_step: float = DEFAULT_FD_STEP) -> list[CheckRecord]:
    """Flat-bundle closedness of TP and PhiP for naturally-associated pairs."""
    rng = np.random.default_rng(seed)
    records = []
    cases = [
        ("flat:so4:3:so3", "euler", 2),
        ("flat:u2:3:su2", "chern_j", 1),
    ]
    for name, pname, k in cases:
        bundle = get_bundle(name)
        P = make_polynomial(pname, k, bundle.chart.algebra.tag)

        def d_tp_phi(ch, pt, tg):
            # d TP is d PhiP on the chart without its split
            return tuple(heterotic_sides(c, P, pt, tg, fd_step)[0] for c in (replace(ch, split=None), ch))

        worst_tp, worst_phi = _sweep(bundle, rng, points, 2 * k, d_tp_phi)
        records.append(_rec(f"flat_closed_tp_{name}", "TP is closed when P(Omega) = 0", worst_tp, 0.0, 1e-8))
        records.append(_rec(f"flat_closed_phip_{name}", "PhiP is closed when P(Omega) = P(Psi) = 0", worst_phi, 0.0, 1e-8))
    return records


def degree_checks() -> list[CheckRecord]:
    a1, a2 = quaternionic_section_degrees()
    return [
        _rec(
            "quaternionic_degrees_pair",
            "complex-structure sections have fiber indices {+2, -2}",
            0.0 if {a1, a2} == {2, -2} else 1.0,
            0.0,
            0.0,
            a1=a1,
            a2=a2,
        ),
        _rec("quaternionic_degrees_sum", "index sum matches vanishing P1 integral", a1 + a2, 0.0, 0.0),
    ]


def obstruction_checks(
    bundle_name: str = "ut_s2",
    chain: str = "cap:pi/3",
    section: str = "height_gradient",
    quad_order: int | None = None,
) -> list[CheckRecord]:
    """The obstruction identity on one chain and section, at the orders of
    _chain_orders."""
    bundle = get_bundle(bundle_name)
    for kind, name, known in (("chain", chain, bundle.chains), ("section", section, bundle.sections)):
        if name not in known:
            raise ValueError(f"bundle {bundle_name} has no {kind} {name!r}; known: {sorted(known)}")
    order, boundary_order = _chain_orders(bundle.chains[chain].chain, quad_order)
    rep = obstruction_identity_check(
        bundle.chart, bundle.polynomial(), bundle.chains[chain], bundle.sections[section], order, boundary_order
    )
    return [_obstruction_record(f"obstruction_{bundle_name}_{chain}_{section}", rep)]


def suite_all(
    seed: int = 0,
    points: int = 100,
    fd_step: float = DEFAULT_FD_STEP,
) -> list[CheckRecord]:
    """Every acceptance criterion, in order."""
    records: list[CheckRecord] = []
    records += coefficient_checks(12)
    records += fiber_norm_checks()
    for name in ("hopf_u1", "ut_s2", "frame_s4", "frame_s4:b1", "frame_s4:b2"):
        records += heterotic_sweep(name, points=points, seed=seed, fd_step=fd_step)
    records += vanishing_sweep(points=points, seed=seed)
    records += gauss_bonnet_checks()
    records += chern_number_checks()
    records += pontryagin_checks(points=points, seed=seed, fd_step=fd_step)
    records += closedness_checks(points=max(5, points // 5), seed=seed, fd_step=fd_step)
    records += degree_checks()
    records += calculus_identity_checks(seed=seed, fd_step=fd_step)
    return records
