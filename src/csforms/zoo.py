"""Concrete analytic bundle charts, sections, and chains.

All round-sphere charts are stereographic with conformal factor
lam = 2/(1 + |x|^2); the chart origin is the north pole and the south pole is
the excluded point at infinity.  Full-sphere chains are parametrized by polar
angles mapped into the chart, which keeps every pulled-back characteristic
form smooth on the closed parameter box even though the potential itself
blows up toward the excluded pole.

Shipped bundles:

    hopf_u1      degree-one U(1) bundle over S^2 (monopole potential),
                 the c_1 = 1 normalization anchor
    ut_s2        oriented frame/unit-tangent bundle of the round S^2,
                 SO(2) structure group, Gauss-Bonnet and cap obstruction
    frame_s4     oriented frame bundle of the round S^4, SO(4) group, with
                 three associated-bundle variants: the unit sphere bundle
                 (H = SO(3)), and the two RP^3 bundles attached to the su(2)
                 ideals (H = H1, H2)
    flat:<g>:<n> trivial bundle, zero potential
    twisted_u2   generic-curvature U(2) chart over R^2 used for the
                 determinant-bundle and odd-sphere-bundle vanishing checks

Every chart potential and curvature, chain map and Jacobian, fiber lift and
section value here broadcasts over leading batch axes (see csforms.bundles),
so the quadrature drivers evaluate them on all nodes at once.

Orientation conventions are fixed once here: base chains are oriented so the
Euler integrals are positive, and fiber parametrizations are oriented so the
assembled transgression forms have fiber integral +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi
from typing import Callable

import numpy as np

from .bundles import BundleChart, ChainSpec, FiberModel, Section, Zero
from .calculus import ParametrizedChain, gauss_product
from .invariants import InvariantPolynomial, make_polynomial
from .liealg import (
    algebra_from_tag,
    left_mult_matrix,
    so,
    so4_ideal_split,
    so4_to_quaternion_pair,
    standard_split,
    u,
)

__all__ = [
    "NamedBundle",
    "PrecisionError",
    "hopf_u1",
    "unit_tangent_s2",
    "frame_bundle_s4",
    "flat_bundle",
    "twisted_u2",
    "get_bundle",
    "bundle_names",
    "winding_degree",
    "quaternionic_section_degrees",
    "south_transition_frame",
]


class PrecisionError(Exception):
    """Raised when an integer-valued computation does not round cleanly."""


@dataclass(frozen=True)
class NamedBundle:
    """A chart with its catalog of sections and chains, and its default polynomial."""

    name: str
    chart: BundleChart
    fiber: FiberModel | None = None
    sections: dict[str, Section] = field(default_factory=dict)
    chains: dict[str, ChainSpec] = field(default_factory=dict)
    default_poly: tuple[str, int] | None = None

    def polynomial(self) -> InvariantPolynomial:
        if self.default_poly is None:
            raise ValueError(f"bundle {self.name} has no default polynomial")
        name, k = self.default_poly
        return make_polynomial(name, k, self.chart.algebra.tag)


# --- S^2 chart helpers --------------------------------------------------------

_E12 = np.array([[0.0, 1.0], [-1.0, 0.0]])
# the pattern of a curvature on a 2-dimensional base: F_01 = -F_10, F_00 = F_11 = 0
_PAIR2 = _E12[:, :, None, None]
_UT_CURV_SHAPE = _PAIR2 * _E12
# (-x_1, x_0) = x[..., ::-1] * _SWAP_SIGNS, the rotational field u dv - v du
_SWAP_SIGNS = np.array([-1.0, 1.0])


def _sq(x: np.ndarray) -> np.ndarray:
    """|x|^2 of base points (..., n)."""
    return (x * x).sum(axis=-1)


def _matrix(rows) -> np.ndarray:
    """Nested rows of equally shaped arrays (...) as one array (..., r, c)."""
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _sphere2_map(params: np.ndarray) -> np.ndarray:
    th, ph = params[..., 0], params[..., 1]
    r = np.tan(0.5 * th)
    return np.stack([r * np.cos(ph), r * np.sin(ph)], axis=-1)


def _sphere2_jac(params: np.ndarray) -> np.ndarray:
    th, ph = params[..., 0], params[..., 1]
    r = np.tan(0.5 * th)
    dr = 0.5 / np.cos(0.5 * th) ** 2
    return _matrix([[dr * np.cos(ph), -r * np.sin(ph)], [dr * np.sin(ph), r * np.cos(ph)]])


def _circle_chain(theta0: float) -> ParametrizedChain:
    r = np.tan(0.5 * theta0)

    def mp(params):
        ph = params[..., 0]
        return np.stack([r * np.cos(ph), r * np.sin(ph)], axis=-1)

    def jac(params):
        ph = params[..., 0]
        return _matrix([[-r * np.sin(ph)], [r * np.cos(ph)]])

    return ParametrizedChain(
        name=f"circle:{theta0:.6f}",
        intervals=((0.0, 2 * pi),),
        mapping=mp,
        chart_dim=2,
        jacobian=jac,
    )


def _sphere2_chains() -> dict[str, ChainSpec]:
    def box(th_lo, th_hi, name, boundary, zeros):
        return ChainSpec(
            ParametrizedChain(
                name=name,
                intervals=((th_lo, th_hi), (0.0, 2 * pi)),
                mapping=_sphere2_map,
                chart_dim=2,
                jacobian=_sphere2_jac,
                boundary=boundary,
            ),
            zeros_inside=zeros,
        )

    chains: dict[str, ChainSpec] = {}
    chains["full_sphere"] = box(0.0, pi, "full_sphere", (), ("north", "south"))
    for label, th0 in (("cap:pi/6", pi / 6), ("cap:pi/3", pi / 3), ("cap:pi/2", pi / 2)):
        chains[label] = box(0.0, th0, label, ((_circle_chain(th0), +1),), ("north",))
    chains["band:pi/6:pi/3"] = box(
        pi / 6,
        pi / 3,
        "band:pi/6:pi/3",
        ((_circle_chain(pi / 3), +1), (_circle_chain(pi / 6), -1)),
        (),
    )
    return chains


# --- Hopf / monopole bundle ---------------------------------------------------

def hopf_u1() -> NamedBundle:
    """Degree-one U(1) bundle over the round S^2, c_1 anchor."""
    alg = u(1)

    def potential(x):
        d = 1.0 + _sq(x)
        # A = i (u dv - v du) / (1 + r^2)
        return 1j * (x[..., ::-1] * _SWAP_SIGNS / d[..., None])[..., None, None]

    def curvature(x):
        f = 2.0 / (1.0 + _sq(x)) ** 2
        return f[..., None, None, None, None] * (1j * _PAIR2)

    chart = BundleChart(2, alg, potential, curvature, split=None, name="hopf_u1")
    fiber = FiberModel(
        name="u1_fiber",
        intervals=((0.0, 2 * pi),),
        lift=lambda s: np.exp(1j * s[..., 0])[..., None, None],
        lift_alt=lambda s: np.exp(1j * (s[..., 0] + 0.3 * np.sin(s[..., 0])))[..., None, None],
    )
    return NamedBundle(
        name="hopf_u1",
        chart=chart,
        fiber=fiber,
        chains=_sphere2_chains(),
        default_poly=("chern_j", 1),
    )


# --- unit tangent bundle of S^2 ----------------------------------------------

def _rot2(a: np.ndarray) -> np.ndarray:
    """exp(a * _E12), the plane rotation, for angles a (...)."""
    c, s = np.cos(a), np.sin(a)
    return _matrix([[c, s], [-s, c]])


def _ut_s2_section(field: Callable[[np.ndarray], np.ndarray], zeros: tuple[Zero, ...], name: str) -> Section:
    def value(x):
        v = field(x)
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        # frame columns (v, Jv) in the conformal orthonormal gauge
        return _matrix([[v[..., 0], -v[..., 1]], [v[..., 1], v[..., 0]]])

    return Section(name=name, value=value, zeros=zeros)


def unit_tangent_s2() -> NamedBundle:
    """Oriented orthonormal frame bundle of round S^2 (equals its unit
    tangent bundle), Levi-Civita potential in the conformal gauge."""
    alg = so(2)

    def potential(x):
        d = 1.0 + _sq(x)
        # spin connection of lam^2 (du^2 + dv^2):  w12 = 2(u dv - v du)/(1+r^2)
        return (2.0 * x[..., ::-1] * _SWAP_SIGNS / d[..., None])[..., None, None] * _E12

    def curvature(x):
        lam2 = (2.0 / (1.0 + _sq(x))) ** 2
        return lam2[..., None, None, None, None] * _UT_CURV_SHAPE

    chart = BundleChart(2, alg, potential, curvature, split=None, name="ut_s2")
    fiber = FiberModel(
        name="so2_fiber",
        intervals=((0.0, 2 * pi),),
        lift=lambda s: _rot2(s[..., 0]),
        lift_alt=lambda s: _rot2(s[..., 0] + 0.25 * np.sin(2 * s[..., 0])),
    )
    sections = {
        "height_gradient": _ut_s2_section(
            lambda x: -x, (Zero("north", 1), Zero("south", 1)), "height_gradient"
        ),
        "rotational": _ut_s2_section(
            lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
            (Zero("north", 1), Zero("south", 1)),
            "rotational",
        ),
    }
    return NamedBundle(
        name="ut_s2",
        chart=chart,
        fiber=fiber,
        sections=sections,
        chains=_sphere2_chains(),
        default_poly=("euler", 1),
    )


# --- frame bundle of S^4 ------------------------------------------------------

_I4 = np.eye(4)
_S4_CURV_SHAPE = np.einsum("ac,bd->abcd", _I4, _I4) - np.einsum("bc,ad->abcd", _I4, _I4)


def _s4_potential(x: np.ndarray) -> np.ndarray:
    # A_a[b,c] = mu (x_c d_ab - x_b d_ac), the conformal-gauge spin connection
    mu = -2.0 / (1.0 + _sq(x))
    return mu[..., None, None, None] * (
        np.einsum("ab,...c->...abc", _I4, x) - np.einsum("ac,...b->...abc", _I4, x)
    )


def _s4_curvature(x: np.ndarray) -> np.ndarray:
    # constant-curvature F_ab = lam^2 (E_ab - E_ba)
    lam2 = (2.0 / (1.0 + _sq(x))) ** 2
    return lam2[..., None, None, None, None] * _S4_CURV_SHAPE


def _s3_angles(psis: np.ndarray) -> np.ndarray:
    p1, p2, p3 = psis[..., 0], psis[..., 1], psis[..., 2]
    s1, s12 = np.sin(p1), np.sin(p1) * np.sin(p2)
    return np.stack([np.cos(p1), s1 * np.cos(p2), s12 * np.cos(p3), s12 * np.sin(p3)], axis=-1)


def _quat_lift(psis: np.ndarray) -> np.ndarray:
    # smooth global lift of the sphere-bundle fiber: left multiplication by v
    return left_mult_matrix(_s3_angles(psis))


def _gs_lift(reference: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Gram-Schmidt completion of the fiber point against a reference frame.

    Discontinuous on the measure-zero locus where the point hits the span of
    the reference tail; even quadrature orders keep nodes away from it.
    """

    def lift(psis: np.ndarray) -> np.ndarray:
        v = _s3_angles(psis)
        # columns not yet filled are zero and drop out of the projections;
        # a reference vector of norm below 1e-12 after them is skipped at
        # that node alone
        cols = np.zeros(v.shape[:-1] + (4, 4))
        cols[..., 0] = v
        filled = np.ones(v.shape[:-1], dtype=int)
        for r in reference.T:
            w = np.broadcast_to(r.astype(float), v.shape)
            for j in range(4):
                q = cols[..., j]
                w = w - np.sum(w * q, axis=-1, keepdims=True) * q
            nrm = np.linalg.norm(w, axis=-1)
            keep = (nrm >= 1e-12) & (filled < 4)
            slot = np.minimum(filled, 3)[..., None, None] == np.arange(4)
            cols = np.where(keep[..., None, None] & slot, (w / np.where(keep, nrm, 1.0)[..., None])[..., None], cols)
            filled = filled + keep
        flip = np.where(np.linalg.det(cols) < 0, -1.0, 1.0)
        cols[..., 3] *= flip[..., None]
        return cols

    return lift


_GS_REF_1 = np.eye(4)[:, 1:]  # (e2, e3, e4)


def _ideal_exp(angle: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """exp(angle * unit) for angles (...) and unit elements (..., 4, 4) of
    one su(2) ideal of so(4).

    The elements of an orthonormal ideal basis square to -I/4 and
    anticommute, so a unit element squares to -I/4 too, and the series sums
    to cos(angle/2) I + 2 sin(angle/2) unit.
    """
    half = 0.5 * np.asarray(angle)[..., None, None]
    return np.cos(half) * _I4 + 2.0 * np.sin(half) * unit


def _ball_lift(basis: tuple[np.ndarray, ...]) -> Callable[[np.ndarray], np.ndarray]:
    # axis-angle ball chart of an su(2) subgroup modulo +-1, covered once
    def lift(params: np.ndarray) -> np.ndarray:
        rho, al, be = params[..., 0], params[..., 1], params[..., 2]
        n_hat = np.stack([np.sin(al) * np.cos(be), np.sin(al) * np.sin(be), np.cos(al)], axis=-1)
        return _ideal_exp(rho, np.tensordot(n_hat, np.array(basis), axes=(-1, 0)))

    return lift


def _s4_full_chain() -> ChainSpec:
    def mp(params):
        return np.tan(0.5 * params[..., :1]) * _s3_angles(params[..., 1:])

    def jac(params):
        th, p1, p2, p3 = (params[..., i] for i in range(4))
        r = np.tan(0.5 * th)
        dr = 0.5 / np.cos(0.5 * th) ** 2
        s1, c1, s2, c2, s3, c3 = np.sin(p1), np.cos(p1), np.sin(p2), np.cos(p2), np.sin(p3), np.cos(p3)
        zero = np.zeros_like(th)
        v = _s3_angles(params[..., 1:])
        dv1 = np.stack([-s1, c1 * c2, c1 * s2 * c3, c1 * s2 * s3], axis=-1)
        dv2 = np.stack([zero, -s1 * s2, s1 * c2 * c3, s1 * c2 * s3], axis=-1)
        dv3 = np.stack([zero, zero, -s1 * s2 * s3, s1 * s2 * c3], axis=-1)
        return np.stack([dr[..., None] * v, r[..., None] * dv1, r[..., None] * dv2, r[..., None] * dv3], axis=-1)

    chain = ParametrizedChain(
        name="full_sphere",
        intervals=((0.0, pi), (0.0, pi), (0.0, pi), (0.0, 2 * pi)),
        mapping=mp,
        chart_dim=4,
        jacobian=jac,
    )
    return ChainSpec(chain, zeros_inside=("south",))


def frame_bundle_s4(variant: str = "sphere") -> NamedBundle:
    """Oriented frame bundle of the round S^4 with a chosen associated bundle.

    variant: "sphere" (H = SO(3), unit sphere bundle), "b1" or "b2" (the two
    RP^3 bundles of the su(2) ideal decomposition), or "none" (no split).
    """
    alg = so(4)
    split1, split2 = so4_ideal_split()
    if variant == "sphere":
        split = standard_split("so4", "so3")
        fiber = FiberModel(
            name="s3_fiber",
            intervals=((0.0, pi), (0.0, pi), (0.0, 2 * pi)),
            lift=_quat_lift,
            lift_alt=_gs_lift(_GS_REF_1),
            orientation=-1,
        )
        poly = ("euler", 2)
    elif variant == "b1":
        split = split1
        fiber = FiberModel(
            name="rp3_b1_fiber",
            intervals=((0.0, pi), (0.0, pi), (0.0, 2 * pi)),
            lift=_ball_lift(split1.p_basis),
            lift_alt=None,
            orientation=-1,
        )
        poly = ("pontryagin_1", 2)
    elif variant == "b2":
        split = split2
        fiber = FiberModel(
            name="rp3_b2_fiber",
            intervals=((0.0, pi), (0.0, pi), (0.0, 2 * pi)),
            lift=_ball_lift(split2.p_basis),
            lift_alt=None,
            orientation=-1,
        )
        poly = ("pontryagin_1", 2)
    elif variant == "none":
        split, fiber, poly = None, None, ("euler", 2)
    else:
        raise ValueError(f"unknown frame_s4 variant {variant!r}")

    if fiber is not None and fiber.lift_alt is None:
        # alternate lift: right-translate by a parameter-dependent H element
        h_elt = split.h_basis[0]
        base_lift = fiber.lift
        fiber = FiberModel(
            name=fiber.name,
            intervals=fiber.intervals,
            lift=base_lift,
            lift_alt=lambda s: base_lift(s) @ _ideal_exp(0.7 * np.sin(s[..., 0] + s[..., 2]), h_elt),
            orientation=fiber.orientation,
        )

    chart = BundleChart(4, alg, _s4_potential, _s4_curvature, split=split, name=f"frame_s4:{variant}")
    # the conformal-gauge potential vanishes on radial directions (A_x(x) = 0),
    # so parallel transport along meridians is trivial and the quaternionic
    # sections are the constant identity coset in this chart
    def identity(x):
        return np.broadcast_to(_I4, np.shape(x)[:-1] + (4, 4))

    sections = {"sigma1": Section("sigma1", identity, ()), "sigma2": Section("sigma2", identity, ())}
    return NamedBundle(
        name=f"frame_s4:{variant}" if variant != "sphere" else "frame_s4",
        chart=chart,
        fiber=fiber,
        sections=sections,
        chains={"full_sphere": _s4_full_chain()},
        default_poly=poly,
    )


# --- flat and generic charts --------------------------------------------------

def flat_bundle(gtag: str, n: int, hsub: str | None = None) -> NamedBundle:
    """Trivial bundle over R^n with zero potential."""
    alg = algebra_from_tag(gtag)
    m = alg.n
    dt = complex if alg.is_complex else float

    def potential(x):
        return np.zeros(np.shape(x)[:-1] + (n, m, m), dtype=dt)

    def curvature(x):
        return np.zeros(np.shape(x)[:-1] + (n, n, m, m), dtype=dt)

    split = standard_split(gtag, hsub) if hsub else None
    chart = BundleChart(n, alg, potential, curvature, split=split, name=f"flat:{gtag}:{n}")
    return NamedBundle(name=f"flat:{gtag}:{n}", chart=chart)


_M1 = 0.7 * np.array([[0.9j, 0.4 + 0.3j], [-0.4 + 0.3j, -0.6j]])
_M2 = 0.7 * np.array([[0.5j, -0.2 + 0.6j], [0.2 + 0.6j, 0.8j]])


def twisted_u2(hsub: str = "su2") -> NamedBundle:
    """U(2) bundle chart over R^2 with generic non-abelian curvature.

    A = x M1 dy + y M2 dx for fixed non-commuting skew-hermitian M1, M2, so
    F(dx,dy) = M1 - M2 + xy [M2, M1].  Used for the determinant-bundle
    (hsub="su2") and odd-sphere-bundle (hsub="u1") vanishing checks, where the
    psi-curvature is genuinely nonzero but the relevant polynomial kills it.
    """
    alg = u(2)

    def potential(x):
        return np.stack([x[..., 1, None, None] * _M2, x[..., 0, None, None] * _M1], axis=-3)

    def curvature(x):
        f = _M1 - _M2 + (x[..., 0] * x[..., 1])[..., None, None] * (_M2 @ _M1 - _M1 @ _M2)
        return _PAIR2 * f[..., None, None, :, :]

    split = standard_split("u2", hsub)
    chart = BundleChart(2, alg, potential, curvature, split=split, name=f"twisted_u2:{hsub}")
    return NamedBundle(
        name=f"twisted_u2:{hsub}",
        chart=chart,
        default_poly=("chern_j", 1 if hsub == "su2" else 2),
    )


def bundle_names() -> list[str]:
    return [
        "hopf_u1",
        "ut_s2",
        "frame_s4",
        "frame_s4:b1",
        "frame_s4:b2",
        "twisted_u2:su2",
        "twisted_u2:u1",
        "flat:<g>:<n>",
    ]


def get_bundle(name: str) -> NamedBundle:
    if name == "hopf_u1":
        return hopf_u1()
    if name == "ut_s2":
        return unit_tangent_s2()
    if name in ("frame_s4", "frame_s4:sphere"):
        return frame_bundle_s4("sphere")
    if name == "frame_s4:b1":
        return frame_bundle_s4("b1")
    if name == "frame_s4:b2":
        return frame_bundle_s4("b2")
    if name == "twisted_u2:su2":
        return twisted_u2("su2")
    if name == "twisted_u2:u1":
        return twisted_u2("u1")
    if name.startswith("flat:"):
        parts = name.split(":")
        if len(parts) == 3:
            return flat_bundle(parts[1], int(parts[2]))
        if len(parts) == 4:
            return flat_bundle(parts[1], int(parts[2]), parts[3])
    raise ValueError(f"unknown bundle {name!r}; known: {bundle_names()}")


# --- degrees -------------------------------------------------------------------

_SPHERE_VOLUMES = {1: 2 * pi, 3: 2 * pi**2}


def _volume_pullback_integral(
    f: Callable[[np.ndarray], np.ndarray], d: int, quad_order, fd_step: float, align_signs: bool
) -> float:
    """Integral of f*(volume form of S^d) over the angle box of S^d, with f
    called once on the stack (2d+1, N, d) of every node and stencil point."""
    intervals = ((0.0, 2 * pi),) if d == 1 else ((0.0, pi), (0.0, pi), (0.0, 2 * pi))
    nodes, weights = gauss_product(intervals, quad_order)
    # stencil rows: the node, then node + h e_i and node - h e_i for each axis
    steps = np.concatenate([np.zeros((1, d)), fd_step * np.eye(d), -fd_step * np.eye(d)])
    v = np.asarray(f(nodes + steps[:, None, :]), dtype=float)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    center, vp, vm = v[0], v[1 : d + 1], v[d + 1 :]
    if align_signs:
        vp = np.where(np.sum(vp * center, axis=-1, keepdims=True) < 0, -vp, vp)
        vm = np.where(np.sum(vm * center, axis=-1, keepdims=True) < 0, -vm, vm)
    cols = np.concatenate([center[None], (vp - vm) / (2 * fd_step)])
    return float(weights @ np.linalg.det(np.moveaxis(cols, 0, -1)))


def winding_degree(
    f: Callable[[np.ndarray], np.ndarray],
    d: int,
    quad_order: int | tuple[int, ...] = 24,
    target_volume: float | None = None,
    fd_step: float = 1e-5,
    align_signs: bool = False,
) -> int:
    """Degree of a map into S^d given on source-sphere angle parameters.

    f maps angle parameters (..., d) to vectors (..., d+1) and is called
    once, on the stack of every node and finite-difference stencil point;
    the degree is the integral of the pulled-back normalized volume form.  For maps whose values are only defined up to overall sign
    (projective-space lifts), pass align_signs=True: the finite-difference
    stencil is sign-aligned around each node, which the volume pullback does
    not feel.

    target_volume overrides the normalization (e.g. the volume of RP^3 when f
    lifts a projective-valued map and the covering count is wanted).  Raises
    PrecisionError when the integral is farther than 0.1 from an integer.
    """
    if d not in (1, 3):
        raise ValueError("winding_degree supports d in {1, 3}")
    vol = target_volume if target_volume is not None else _SPHERE_VOLUMES[d]
    deg = _volume_pullback_integral(f, d, quad_order, fd_step, align_signs) / vol
    nearest = round(deg)
    if abs(deg - nearest) > 0.1:
        raise PrecisionError(
            f"degree integral {deg:.6f} is not within 0.1 of an integer; raise quad_order"
        )
    return int(nearest)


_CONJ4 = np.diag([1.0, -1.0, -1.0, -1.0])


def south_transition_frame(yhat: np.ndarray) -> np.ndarray:
    """Coset representative of the transported frame in the south chart.

    The north-chart section is the identity frame; re-expressing it in the
    orientation-compatible south stereographic chart multiplies by the frame
    transition (I - 2 yhat yhat^T) composed with quaternion conjugation;
    yhat may be a stack (..., 4).
    """
    yhat = np.asarray(yhat, dtype=float)
    return (np.eye(4) - 2.0 * yhat[..., :, None] * yhat[..., None, :]) @ _CONJ4


def quaternionic_section_degrees(
    quad_order: tuple[int, int, int] = (12, 12, 16)
) -> tuple[int, int]:
    """Indices of the two quaternionic-structure sections at the south pole.

    Each section of B_i is followed around a small sphere about its singular
    point; the map into the RP^3 fiber is lifted to the unit quaternions and
    the covering count of the fiber (normalized by vol(RP^3) = pi^2) is the
    index the obstruction formula counts.  Returns (a1, a2).
    """

    # both degrees evaluate the same stack of nodes and stencil points:
    # split it once
    pairs: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def section_map(which: int):
        def f(params: np.ndarray) -> np.ndarray:
            key = params.tobytes()
            if key not in pairs:
                pairs[key] = so4_to_quaternion_pair(south_transition_frame(_s3_angles(params)))
            return pairs[key][which - 1]

        return f

    a1 = winding_degree(section_map(1), 3, quad_order, target_volume=pi**2, align_signs=True)
    a2 = winding_degree(section_map(2), 3, quad_order, target_volume=pi**2, align_signs=True)
    return a1, a2

