"""The seeded workloads of the csforms benchmark.

A workload is a fixed list of items built from the seed.  An item is one
call into csforms (a heterotic residual at one point, one global integral,
one pair of winding degrees) plus the acceptance reference it must meet.
Inputs (charts, points, tangents, base points, parameter offsets) are made
here from the seed; csforms receives only those.

- sweep_k2: heterotic residuals of d PhiP = P(Omega) - P(Psi) at 100 random
  total-space points, 20 on each of frame_s4 (Euler, Pfaffian), frame_s4:b1
  and frame_s4:b2 (P1), ut_s2 and hopf_u1 (degree 1), interleaved.
- quadrature: the global integrals through the three tensor-product drivers
  (integrate, fiber_integral, winding_degree), no finite-difference d.
- sweep_k3: heterotic residuals of chern_3 on a generic-curvature u(3) chart
  over R^6 built here from the public BundleChart API, with the splits
  u(3)/u(2) and u(3)/su(3); degree 3 is the first degree at which the mixed
  coefficient A_11 enters, and no Pfaffian is involved.  Not listed in
  BENCHMARK.json: a point takes about 2 s, and on a host whose speed swings
  for tens of seconds the fastest of a few such calls is not steady.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import pi
from typing import Callable

import numpy as np

from csforms import bundles, calculus, invariants, liealg, rationals, zoo

# acceptance tolerances; no item is checked more loosely than the test suite
HETEROTIC_TOL = 1e-4
S4_TOL = 1e-4
S2_TOL = 1e-8
C1_TOL = 1e-8
FIBER_TOL = 1e-4
OBSTRUCTION_TOL = 1e-4
# a sweep point whose right-hand side |P(Omega) - P(Psi)| is below this
# proves nothing and counts as failed
NONVACUITY_FLOOR = 1e-8

K2_BUNDLES = ("frame_s4", "frame_s4:b1", "frame_s4:b2", "ut_s2", "hopf_u1")
K2_POINTS_PER_BUNDLE = 20
K3_SPLITS = ("u2", "su3")
K3_POINTS_PER_SPLIT = 2
K3_BASE_DIM = 6
# size of the random C_a, D_ab: residuals stay below 0.1 of the tolerance and
# |P(Omega) - P(Psi)| four orders above the non-vacuity floor
K3_SCALE = 0.3

# quadrature orders: the smallest per-axis orders (tried at the seed commit)
# whose results meet the tolerances above with a wide margin.  The round S^4
# and fiber integrands do not depend on the azimuth (the last axis), so one
# node there gives the error of four.  The S^4 integral is taken as its two
# hemispheres theta_2 <= pi/2 and theta_2 >= pi/2, which the isometry
# theta_2 -> pi - theta_2 exchanges, so each is exactly 1; each uses half of
# the 6 nodes the whole sphere needs on that axis.  Errors: each hemisphere
# 8e-6, S^3 fiber 6e-7, RP^3 fibers 1e-10; the degree integrals come out at
# 2.00000.  Short calls let every item be timed many times in a run (see
# run.py on fastest times).
S4_ORDERS = (8, 3, 4, 1)
S4_SPLIT_AXIS = 1
S2_ORDER = 24
CAP_BOUNDARY_ORDER = 48
FIBER3_ORDERS = (6, 6, 1)
DEGREE_ORDERS = (6, 6, 4)


@dataclass
class Item:
    """One timed call and the check of its result.

    ``check`` returns |computed - expected| / tolerance, so the item passes
    when the ratio is at most 1.  ``rhs`` gives |P(Omega) - P(Psi)| of a
    sweep point and is evaluated after timing.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], float]
    rhs: Callable[[], float] | None = None


def _identity(obj):
    return obj


def _ratio(expected: float, tol: float) -> Callable[[object], float]:
    return lambda value: abs(float(value) - expected) / tol


def _heterotic_item(name: str, chart, P, point, tangents) -> Item:
    tangents = list(tangents)

    def run():
        return bundles.heterotic_residual(chart, P, point, tangents)

    def rhs():
        omega = bundles.char_form(chart, P, "omega")(point, tangents)
        return abs(omega - bundles.char_form(chart, P, "psi")(point, tangents))

    return Item(name, run, lambda r: float(r) / HETEROTIC_TOL, rhs)


def _random_point(chart, rng: np.random.Generator, degree: int):
    """A random reference element g0, base point and 2k total-space tangents.

    The point sits at t = 0 of the re-centered chart; the d stencil leaves it,
    so chart contexts off t = 0 (and expm) are exercised.
    """
    g0 = liealg.random_group_element(chart.algebra, rng, 0.7)
    chg = chart.at(g0)
    point = chg.point(rng.uniform(-1.2, 1.2, chart.base_dim))
    tangents = [rng.standard_normal(chg.dim) for _ in range(2 * degree)]
    return chg, point, tangents


def _check_coefficients(degrees) -> None:
    """Build the exact A_ij tables by recursion and compare with the closed form."""
    for k in sorted(set(degrees)):
        table = rationals.build_table_by_recursion(k)
        for (i, j), v in table.entries.items():
            if v != rationals.phi_coefficient(k, i, j):
                raise RuntimeError(f"A_{i}{j} at k={k}: recursion {v} != closed form")


def sweep_k2(seed: int, instrument=_identity) -> list[Item]:
    rng = np.random.default_rng(seed)
    named = {name: zoo.get_bundle(name) for name in K2_BUNDLES}
    polys = {name: b.polynomial() for name, b in named.items()}
    _check_coefficients(P.degree for P in polys.values())
    charts = {name: instrument(b.chart) for name, b in named.items()}
    polys = {name: instrument(P) for name, P in polys.items()}
    items = []
    for _ in range(K2_POINTS_PER_BUNDLE):
        for name in K2_BUNDLES:
            P = polys[name]
            chart, point, tangents = _random_point(charts[name], rng, P.degree)
            items.append(_heterotic_item(name, chart, P, point, tangents))
    return items


def _periodic_shift(intervals, offset: float):
    """Move the last (azimuthal, 2 pi periodic) interval by offset."""
    lo, hi = intervals[-1]
    return tuple(intervals[:-1]) + ((lo + offset, hi + offset),)


def _shifted_chain(chain, offset: float):
    boundary = tuple((_shifted_chain(c, offset), sign) for c, sign in chain.boundary)
    return replace(chain, intervals=_periodic_shift(chain.intervals, offset), boundary=boundary)


def quadrature(seed: int, instrument=_identity) -> list[Item]:
    """Global integrals; the seed moves the azimuthal origin of every
    parametrization and the base point of every fiber integral, neither of
    which may change the value."""
    rng = np.random.default_rng(seed)
    ut = instrument(zoo.get_bundle("ut_s2"))
    hopf = instrument(zoo.get_bundle("hopf_u1"))
    fs = instrument(zoo.get_bundle("frame_s4"))
    b1 = instrument(zoo.get_bundle("frame_s4:b1"))
    b2 = instrument(zoo.get_bundle("frame_s4:b2"))
    e1 = instrument(invariants.make_polynomial("euler", 1, "so2"))
    c1 = instrument(invariants.make_polynomial("chern_j", 1, "u1"))
    e2 = instrument(invariants.make_polynomial("euler", 2, "so4"))
    p1 = instrument(invariants.make_polynomial("pontryagin_1", 2, "so4"))
    _check_coefficients((1, 2))

    def offset():
        return float(rng.uniform(0.0, 2 * pi))

    def sphere_integral(bundle, P, orders):
        chain = _shifted_chain(bundle.chains["full_sphere"].chain, offset())
        return lambda: calculus.integrate(bundles.char_form(bundle.chart, P), chain, orders)

    def hemisphere(bundle, P, lower: bool):
        chain = _shifted_chain(bundle.chains["full_sphere"].chain, offset())
        intervals = list(chain.intervals)
        lo, hi = intervals[S4_SPLIT_AXIS]
        intervals[S4_SPLIT_AXIS] = (lo, 0.5 * (lo + hi)) if lower else (0.5 * (lo + hi), hi)
        half = replace(chain, intervals=tuple(intervals), boundary=())
        return lambda: calculus.integrate(bundles.char_form(bundle.chart, P), half, S4_ORDERS)

    def fiber(bundle, P):
        fiber_model = replace(bundle.fiber, intervals=_periodic_shift(bundle.fiber.intervals, offset()))
        base = rng.uniform(-1.2, 1.2, bundle.chart.base_dim)
        return lambda: bundles.fiber_integral(
            bundle.chart, lambda ch: bundles.phi_p_form(ch, P), base, fiber_model, FIBER3_ORDERS
        )

    cap_spec = ut.chains["cap:pi/3"]
    cap_spec = replace(cap_spec, chain=_shifted_chain(cap_spec.chain, offset()))
    section = ut.sections["height_gradient"]

    def cap():
        return bundles.obstruction_identity_check(
            ut.chart, e1, cap_spec, section, S2_ORDER, CAP_BOUNDARY_ORDER
        ).residual

    def degrees():
        return zoo.quaternionic_section_degrees(DEGREE_ORDERS)

    def degree_ratio(pair) -> float:
        return 0.0 if set(pair) == {2, -2} else float("inf")

    return [
        Item("gauss_bonnet_s2", sphere_integral(ut, e1, S2_ORDER), _ratio(2.0, S2_TOL)),
        Item("chern_number_s2", sphere_integral(hopf, c1, S2_ORDER), _ratio(1.0, C1_TOL)),
        Item("obstruction_cap", cap, _ratio(0.0, OBSTRUCTION_TOL)),
        # the hemispheres share the tolerance of the whole sphere
        Item("gauss_bonnet_s4_lower", hemisphere(fs, e2, True), _ratio(1.0, S4_TOL / 2)),
        Item("gauss_bonnet_s4_upper", hemisphere(fs, e2, False), _ratio(1.0, S4_TOL / 2)),
        Item("fiber_s3", fiber(fs, e2), _ratio(1.0, FIBER_TOL)),
        Item("fiber_rp3_b1", fiber(b1, p1), _ratio(1.0, FIBER_TOL)),
        Item("fiber_rp3_b2", fiber(b2, p1), _ratio(1.0, FIBER_TOL)),
        Item("quaternionic_degrees", degrees, degree_ratio),
    ]


def linear_u3_chart(rng: np.random.Generator, split: str):
    """Generic-curvature u(3) chart over R^6 with A_a(x) = C_a + x_b D_ab.

    Its curvature is exact: F_ab = D_ba - D_ab + [A_a, A_b].
    """
    alg = liealg.u(3)
    n = K3_BASE_DIM
    C = np.array([liealg.random_element(alg, rng, K3_SCALE) for _ in range(n)])
    D = np.array([[liealg.random_element(alg, rng, K3_SCALE) for _ in range(n)] for _ in range(n)])
    dD = np.swapaxes(D, 0, 1) - D

    def potential(x):
        return C + np.einsum("b,abij->aij", x, D)

    def curvature(x):
        A = potential(x)
        AA = np.einsum("aij,bjk->abik", A, A)
        return dD + AA - np.swapaxes(AA, 0, 1)

    return bundles.BundleChart(
        n, alg, potential, curvature, split=liealg.standard_split("u3", split), name=f"linear_u3:{split}"
    )


def sweep_k3(seed: int, instrument=_identity) -> list[Item]:
    rng = np.random.default_rng(seed)
    P = instrument(invariants.make_polynomial("chern_j", 3, "u3"))
    _check_coefficients((3,))
    charts = {split: instrument(linear_u3_chart(rng, split)) for split in K3_SPLITS}
    items = []
    for _ in range(K3_POINTS_PER_SPLIT):
        for split in K3_SPLITS:
            chart, point, tangents = _random_point(charts[split], rng, P.degree)
            items.append(_heterotic_item(f"u3/{split}", chart, P, point, tangents))
    return items


BUILDERS = {"sweep_k2": sweep_k2, "quadrature": quadrature, "sweep_k3": sweep_k3}
