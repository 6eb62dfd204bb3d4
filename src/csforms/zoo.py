"""Concrete analytic bundle charts, sections, and chains.

All round-sphere charts are stereographic with conformal factor
lam = 2/(1 + |x|^2); the chart origin is the north pole and the south pole is
the excluded point at infinity.  One chart serves S^2 and S^4: its spin
connection and curvature, the hyperspherical angle map of S^(n-1) and its
Jacobian, and the polar chain builder x = tan(theta/2) angles(psi) take n from
the last axis of their input.  The polar chains (full sphere, caps about the
north pole, bands) keep every pulled-back characteristic form smooth on the
closed parameter box even though the potential itself blows up toward the
excluded pole; each boundary piece is the sphere at a fixed polar angle.

Shipped bundles:

    hopf_u1      degree-one U(1) bundle over S^2 (monopole potential),
                 the c_1 = 1 normalization anchor
    ut_s2        oriented frame/unit-tangent bundle of the round S^2,
                 SO(2) structure group, Gauss-Bonnet and cap obstruction
    frame_s4     oriented frame bundle of the round S^4, SO(4) group, with
                 three associated-bundle variants: the unit sphere bundle
                 (H = SO(3)), and the two RP^3 bundles attached to the su(2)
                 ideals (H = H1, H2); the sphere bundle's alternate fiber
                 lift is the n-generic Householder frame
    flat:<g>:<n> trivial bundle, zero potential
    linear:<g>:<n> generic chart over R^n from seed 0;
                 linear:u3:6:<h> checks chern_3, where the mixed A_11 enters
    twisted_u2   generic-curvature U(2) chart over R^2 used for the
                 determinant-bundle and odd-sphere-bundle vanishing checks

The last three are one affine chart A_a = C_a + x_b D_ab: flat has C = D = 0,
linear draws C and D, and twisted_u2 has C = 0, D_xy = M2 and D_yx = M1.

Every chart potential and curvature, chain map and Jacobian, fiber lift and
section value here broadcasts over leading batch axes (see csforms.bundles),
so calculus.integrate evaluates them on a whole chunk of nodes at once, and
a lift or section on the stencil stack (2p+1, ..., p) of its central
differences.  A winding degree is a d-form on the angle box of S^d,
integrated by calculus.integrate as well.

Orientation conventions are fixed once here: base chains are oriented so the
Euler integrals are positive, and fiber parametrizations are oriented so the
assembled transgression forms have fiber integral +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from math import pi
from typing import Callable

import numpy as np

from .bundles import BundleChart, ChainSpec, FiberModel, Section, Zero
from .calculus import FormField, ParametrizedChain, _box_chain, _stencil_values, integrate
from .invariants import InvariantPolynomial, make_polynomial
from .liealg import (
    algebra_from_tag,
    left_mult_matrix,
    random_element,
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
    "linear_bundle",
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


# --- the round sphere S^n in its stereographic chart -------------------------

def _sq(x: np.ndarray) -> np.ndarray:
    """|x|^2 of base points (..., n)."""
    return (x * x).sum(axis=-1)


def _matrix(rows) -> np.ndarray:
    """Nested rows of equally shaped arrays (...) as one array (..., r, c)."""
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


@lru_cache(maxsize=None)
def _curvature_pattern(n: int) -> np.ndarray:
    """E_ab - E_ba as an (n, n, n, n) array: [a, b, c, d] = d_ac d_bd - d_bc d_ad."""
    eye = np.eye(n)
    pattern = eye[:, None, :, None] * eye[None, :, None, :] - eye[None, :, :, None] * eye[:, None, None, :]
    pattern.flags.writeable = False
    return pattern


def _sphere_potential(x: np.ndarray) -> np.ndarray:
    """Levi-Civita spin connection of the round S^n, n = x.shape[-1], in the
    conformal orthonormal gauge: A_a[b, c] = mu (x_c d_ab - x_b d_ac) with
    mu = -2/(1 + |x|^2), that is mu sum_e x_e (E_ae - E_ea): one product
    with _curvature_pattern.  It vanishes on radial directions (A_x(x) = 0)."""
    n = x.shape[-1]
    lam = 2.0 / (1.0 + _sq(x))  # -mu
    return (lam[..., None] * (x @ _curvature_pattern(n).reshape(n, -1))).reshape(x.shape[:-1] + (n, n, n))


def _sphere_curvature(x: np.ndarray) -> np.ndarray:
    """Constant-curvature F_ab = lam^2 (E_ab - E_ba), lam = 2/(1 + |x|^2)."""
    lam2 = (2.0 / (1.0 + _sq(x))) ** 2
    return lam2[..., None, None, None, None] * _curvature_pattern(x.shape[-1])


def _angle_box(m: int) -> tuple[tuple[float, float], ...]:
    """Parameter box of _angles on S^m: m - 1 polar angles, then the azimuth."""
    return ((0.0, pi),) * (m - 1) + ((0.0, 2 * pi),)


def _angle_factors(psi: np.ndarray) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
    """Per coordinate of _angles, its factors and their psi-derivatives:
    v_k = sin psi_0 ... sin psi_(k-1) cos psi_k, and v_m = sin psi_0 ... sin psi_(m-1)."""
    m = psi.shape[-1]
    c, s = np.cos(psi), np.sin(psi)
    sines, cosines = [s[..., l] for l in range(m)], [c[..., l] for l in range(m)]
    factors = []
    for k in range(m + 1):
        f, df = sines[:k], cosines[:k]
        if k < m:
            f, df = f + [cosines[k]], df + [-sines[k]]
        factors.append((f, df))
    return factors


def _angles(psi: np.ndarray) -> np.ndarray:
    """Hyperspherical angles (..., m) -> unit vectors (..., m + 1) of S^m."""
    return np.stack([reduce(np.multiply, f) for f, _ in _angle_factors(psi)], axis=-1)


def _angles_jac(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_angles(psi) and its Jacobian (..., m + 1, m), from one pass over the
    factors: v_k depends on psi_j for j <= k."""
    m = psi.shape[-1]
    zero = np.zeros_like(psi[..., 0])
    values, rows = [], []
    for f, df in _angle_factors(psi):
        values.append(reduce(np.multiply, f))
        # d v_k / d psi_j: the j-th factor of v_k differentiated
        rows.append([reduce(np.multiply, f[:j] + [df[j]] + f[j + 1 :]) if j < len(f) else zero for j in range(m)])
    return np.stack(values, axis=-1), _matrix(rows)


def _sphere_at(n: int, theta: float) -> ParametrizedChain:
    """The (n-1)-sphere at polar angle theta of S^n, in angle parameters."""
    r = np.tan(0.5 * theta)
    return ParametrizedChain(
        name=f"sphere:{theta:.6f}",
        intervals=_angle_box(n - 1),
        mapping=lambda psi: r * _angles(psi),
        chart_dim=n,
        jacobian=lambda psi: r * _angles_jac(psi)[1],
    )


def _polar_chain(n: int, lo: float, hi: float, name: str) -> ParametrizedChain:
    """The slab lo <= theta <= hi of S^n, x = tan(theta/2) angles(psi).

    Its boundary is the sphere at hi with sign +1 and the sphere at lo with
    sign -1, each only where theta is not a pole."""

    def mapping(params):
        return np.tan(0.5 * params[..., :1]) * _angles(params[..., 1:])

    def jacobian(params):
        th, psi = params[..., 0], params[..., 1:]
        r = np.tan(0.5 * th)
        dr = 0.5 / np.cos(0.5 * th) ** 2
        v, dv = _angles_jac(psi)
        return np.concatenate([(dr[..., None] * v)[..., None], r[..., None, None] * dv], axis=-1)

    boundary = tuple((_sphere_at(n, th), sign) for th, sign in ((hi, +1), (lo, -1)) if 0.0 < th < pi)
    return ParametrizedChain(name, ((lo, hi),) + _angle_box(n - 1), mapping, n, jacobian, boundary)


_THETA = {"pi/6": pi / 6, "pi/3": pi / 3, "pi/2": pi / 2}


def _polar_chains(
    n: int, full_zeros: tuple[str, ...], caps: tuple[str, ...] = (), bands: tuple[tuple[str, str], ...] = ()
) -> dict[str, ChainSpec]:
    """full_sphere, cap:<theta0> (about the north pole) and band:<theta1>:<theta2>
    chains of S^n, with polar angles named by the keys of _THETA."""
    spans = {"full_sphere": (0.0, pi, full_zeros)}
    spans.update({f"cap:{c}": (0.0, _THETA[c], ("north",)) for c in caps})
    spans.update({f"band:{a}:{b}": (_THETA[a], _THETA[b], ()) for a, b in bands})
    return {name: ChainSpec(_polar_chain(n, lo, hi, name), zeros) for name, (lo, hi, zeros) in spans.items()}


def _s2_chains() -> dict[str, ChainSpec]:
    return _polar_chains(2, ("north", "south"), ("pi/6", "pi/3", "pi/2"), (("pi/6", "pi/3"),))


# --- Hopf / monopole bundle ---------------------------------------------------

_E12 = np.array([[0.0, 1.0], [-1.0, 0.0]])
# the pattern of a curvature on a 2-dimensional base: F_01 = -F_10, F_00 = F_11 = 0
_PAIR2 = _E12[:, :, None, None]
# (-x_1, x_0) = x[..., ::-1] * _SWAP_SIGNS, the rotational field u dv - v du
_SWAP_SIGNS = np.array([-1.0, 1.0])


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
        intervals=_angle_box(1),
        lift=lambda s: np.exp(1j * s[..., 0])[..., None, None],
        lift_alt=lambda s: np.exp(1j * (s[..., 0] + 0.3 * np.sin(s[..., 0])))[..., None, None],
    )
    return NamedBundle(
        name="hopf_u1",
        chart=chart,
        fiber=fiber,
        chains=_s2_chains(),
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
    tangent bundle), Levi-Civita potential in the conformal gauge; at n = 2
    it is w12 = 2(u dv - v du)/(1+r^2)."""
    chart = BundleChart(2, so(2), _sphere_potential, _sphere_curvature, split=None, name="ut_s2")
    fiber = FiberModel(
        name="so2_fiber",
        intervals=_angle_box(1),
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
        chains=_s2_chains(),
        default_poly=("euler", 1),
    )


# --- frame bundle of S^4 ------------------------------------------------------

_I4 = np.eye(4)


def _quat_lift(psis: np.ndarray) -> np.ndarray:
    # smooth global lift of the sphere-bundle fiber: left multiplication by v
    return left_mult_matrix(_angles(psis))


def _householder_lift(psis: np.ndarray) -> np.ndarray:
    """A frame in SO(n) with first column v = _angles(psis), n = v.shape[-1]:
    the reflection I - 2 w w^T / |w|^2, w = v - e_1, which maps e_1 to v,
    with its last column negated.  Smooth away from v = e_1, which no
    Gauss node reaches."""
    v = _angles(psis)
    w = v - np.eye(v.shape[-1])[0]
    frame = np.eye(v.shape[-1]) - 2.0 * w[..., :, None] * w[..., None, :] / _sq(w)[..., None, None]
    frame[..., :, -1] *= -1.0
    return frame


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


def frame_bundle_s4(variant: str = "sphere") -> NamedBundle:
    """Oriented frame bundle of the round S^4 with a chosen associated bundle.

    variant: "sphere" (H = SO(3), unit sphere bundle), or "b1" or "b2" (the
    two RP^3 bundles of the su(2) ideal decomposition).
    """
    if variant == "sphere":
        split = standard_split("so4", "so3")
        fiber = FiberModel(
            name="s3_fiber",
            intervals=_angle_box(3),
            lift=_quat_lift,
            lift_alt=_householder_lift,
            orientation=-1,
        )
        poly = ("euler", 2)
    elif variant in ("b1", "b2"):
        split1, split2 = so4_ideal_split()
        split = split1 if variant == "b1" else split2
        lift = _ball_lift(split.p_basis)
        h_elt = split.h_basis[0]
        fiber = FiberModel(
            name=f"rp3_{variant}_fiber",
            # the rotation angle, then the box of the axis direction on S^2
            intervals=((0.0, pi),) + _angle_box(2),
            lift=lift,
            # right-translate by a parameter-dependent H element
            lift_alt=lambda s: lift(s) @ _ideal_exp(0.7 * np.sin(s[..., 0] + s[..., 2]), h_elt),
            orientation=-1,
        )
        poly = ("pontryagin_1", 2)
    else:
        raise ValueError(f"unknown frame_s4 variant {variant!r}")

    chart = BundleChart(4, so(4), _sphere_potential, _sphere_curvature, split=split, name=f"frame_s4:{variant}")
    # the conformal-gauge potential vanishes on radial directions, so
    # parallel transport along meridians is trivial and the quaternionic
    # sections are the constant identity coset in this chart
    def identity(x):
        return np.broadcast_to(_I4, np.shape(x)[:-1] + (4, 4))

    sections = {"sigma1": Section("sigma1", identity, ()), "sigma2": Section("sigma2", identity, ())}
    return NamedBundle(
        name=f"frame_s4:{variant}" if variant != "sphere" else "frame_s4",
        chart=chart,
        fiber=fiber,
        sections=sections,
        chains=_polar_chains(4, ("south",)),
        default_poly=poly,
    )


# --- affine charts -----------------------------------------------------------

def _affine_bundle(name: str, alg, C: np.ndarray, D: np.ndarray, split, default_poly=None) -> NamedBundle:
    """Bundle over R^n, n = len(C), with the affine potential
    A_a(x) = C_a + x_b D_ab and its exact curvature
    F_ab = D_ba - D_ab + [A_a, A_b]."""
    dD = np.swapaxes(D, 0, 1) - D

    def potential(x):
        return C + np.einsum("...b,abij->...aij", x, D)

    def curvature(x):
        A = potential(x)
        AA = np.einsum("...aij,...bjk->...abik", A, A)
        return dD + AA - np.swapaxes(AA, -3, -4)

    chart = BundleChart(len(C), alg, potential, curvature, split=split, name=name)
    return NamedBundle(name=name, chart=chart, default_poly=default_poly)


def _family(family: str, gtag: str, n: int, hsub: str | None):
    """Name <family>:<g>:<n>[:<h>], algebra and split of a bundle over R^n, n >= 1."""
    if n < 1:
        raise ValueError(f"bundle {family}:{gtag}:{n} needs a base dimension n >= 1, got {n}")
    name = ":".join([family, gtag, str(n)] + ([hsub] if hsub else []))
    return name, algebra_from_tag(gtag), standard_split(gtag, hsub) if hsub else None


def flat_bundle(gtag: str, n: int, hsub: str | None = None) -> NamedBundle:
    """Trivial bundle over R^n, n >= 1, with zero potential."""
    name, alg, split = _family("flat", gtag, n, hsub)
    C = np.zeros((n, alg.n, alg.n), dtype=complex if alg.is_complex else float)
    return _affine_bundle(name, alg, C, np.zeros((n,) + C.shape, C.dtype), split)


def linear_bundle(gtag: str, n: int, hsub: str | None, rng: np.random.Generator) -> NamedBundle:
    """Bundle over R^n with the generic affine potential A_a(x) = C_a + x_b D_ab.

    The C_a and then the D_ab (row by row) are drawn from rng, each as
    random_element(g, rng, 0.3).  On u(m) the default polynomial is chern_j
    of degree m.
    """
    name, alg, split = _family("linear", gtag, n, hsub)
    C = np.array([random_element(alg, rng, 0.3) for _ in range(n)])
    D = np.array([[random_element(alg, rng, 0.3) for _ in range(n)] for _ in range(n)])
    return _affine_bundle(name, alg, C, D, split, ("chern_j", alg.n) if alg.name == "u" else None)


_M1 = 0.7 * np.array([[0.9j, 0.4 + 0.3j], [-0.4 + 0.3j, -0.6j]])
_M2 = 0.7 * np.array([[0.5j, -0.2 + 0.6j], [0.2 + 0.6j, 0.8j]])


def twisted_u2(hsub: str = "su2") -> NamedBundle:
    """U(2) bundle chart over R^2 with generic non-abelian curvature.

    A = y M2 dx + x M1 dy for fixed non-commuting skew-hermitian M1, M2
    (the affine chart with C = 0, D_xy = M2, D_yx = M1), so
    F(dx,dy) = M1 - M2 + xy [M2, M1].  Used for the determinant-bundle
    (hsub="su2") and odd-sphere-bundle (hsub="u1") vanishing checks, where the
    psi-curvature is genuinely nonzero but the relevant polynomial kills it.
    """
    D = np.zeros((2, 2, 2, 2), dtype=complex)
    D[0, 1], D[1, 0] = _M2, _M1
    split, poly = standard_split("u2", hsub), ("chern_j", 1 if hsub == "su2" else 2)
    return _affine_bundle(f"twisted_u2:{hsub}", u(2), np.zeros((2, 2, 2), complex), D, split, poly)


# every shipped bundle but the families below, which get_bundle parses from the name
_CATALOG: dict[str, Callable[[], NamedBundle]] = {
    "hopf_u1": hopf_u1,
    "ut_s2": unit_tangent_s2,
    "frame_s4": partial(frame_bundle_s4, "sphere"),
    "frame_s4:b1": partial(frame_bundle_s4, "b1"),
    "frame_s4:b2": partial(frame_bundle_s4, "b2"),
    "twisted_u2:su2": partial(twisted_u2, "su2"),
    "twisted_u2:u1": partial(twisted_u2, "u1"),
}


# the families get_bundle parses from names <family>:<g>:<n>[:<h>]
_FAMILIES: dict[str, Callable[..., NamedBundle]] = {
    "flat": flat_bundle,
    "linear": lambda gtag, n, hsub=None: linear_bundle(gtag, n, hsub, np.random.default_rng(0)),
}


def bundle_names() -> list[str]:
    return [*_CATALOG, *(f"{family}:<g>:<n>" for family in _FAMILIES)]


def get_bundle(name: str) -> NamedBundle:
    if name in _CATALOG:
        return _CATALOG[name]()
    parts = name.split(":")
    if parts[0] in _FAMILIES and len(parts) in (3, 4):
        if not parts[2].removeprefix("-").isdecimal():
            raise ValueError(f"bundle {name!r} needs an integer n in {parts[0]}:<g>:<n>[:<h>], got {parts[2]!r}")
        return _FAMILIES[parts[0]](parts[1], int(parts[2]), *parts[3:])
    raise ValueError(f"unknown bundle {name!r}; known: {bundle_names()}")


# --- degrees -------------------------------------------------------------------

_SPHERE_VOLUMES = {1: 2 * pi, 3: 2 * pi**2}


def _volume_pullback_integral(
    f: Callable[[np.ndarray], np.ndarray], d: int, quad_order, fd_step: float, align_signs: bool
) -> float:
    """Integral of f*(volume form of S^d) over the angle box of S^d: a
    d-form on the box, integrated by calculus.integrate, with f called once
    per chunk of C nodes, on the stack (2d+1, C, d) of the nodes and their
    stencil points."""

    def unit(params):
        v = np.asarray(f(params), dtype=float)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def ev(params, tangents):
        center, vp, vm = _stencil_values(unit, params, fd_step * np.asarray(tangents))
        if align_signs:
            vp = np.where(np.sum(vp * center, axis=-1, keepdims=True) < 0, -vp, vp)
            vm = np.where(np.sum(vm * center, axis=-1, keepdims=True) < 0, -vm, vm)
        cols = np.concatenate([center[None], (vp - vm) / (2 * fd_step)])
        return np.linalg.det(np.moveaxis(cols, 0, -1))

    return integrate(FormField(d, d, ev), _box_chain(f"S^{d}", _angle_box(d)), quad_order)


def winding_degree(
    f: Callable[[np.ndarray], np.ndarray],
    d: int,
    quad_order: int | tuple[int, ...] = 24,
    target_volume: float | None = None,
    fd_step: float = 1e-5,
    align_signs: bool = False,
) -> int:
    """Degree of a map into S^d given on source-sphere angle parameters.

    f maps angle parameters (..., d) to vectors (..., d+1).  It is called
    once per chunk of nodes, on the stack of the nodes and their
    finite-difference stencil points.  The degree is the integral of the
    pulled-back normalized volume form.

    For maps whose values are only defined up to overall sign
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
                pairs[key] = so4_to_quaternion_pair(south_transition_frame(_angles(params)))
            return pairs[key][which - 1]

        return f

    a1 = winding_degree(section_map(1), 3, quad_order, target_volume=pi**2, align_signs=True)
    a2 = winding_degree(section_map(2), 3, quad_order, target_volume=pi**2, align_signs=True)
    return a1, a2

