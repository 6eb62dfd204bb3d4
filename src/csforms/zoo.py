"""Concrete analytic bundle charts, sections, and chains.

All round-sphere charts are stereographic with conformal factor
lam = 2/(1 + |x|^2); the chart origin is the north pole and the south pole is
the excluded point at infinity.  One chart serves every S^n: its spin
connection and curvature, the hyperspherical angle map of S^(n-1) and its
Jacobian, and the polar chain builder x = tan(theta/2) angles(psi) take n from
the last axis of their input.  A polar chain's frame, its points and
tangents, comes from one pass over the angle factors (_angles_jac).  The
polar chains (full sphere, caps about the north pole, bands) keep every
pulled-back characteristic form smooth on the closed parameter box even
though the potential itself blows up toward the excluded pole; each boundary
piece is the sphere at a fixed polar angle.

Shipped bundles:

    hopf_u1      degree-one U(1) bundle over S^2, -1/2 of the round S^2
                 chart, the c_1 = 1 normalization anchor
    ut_s2        frame_sphere(2), SO(2) structure group, Gauss-Bonnet and
                 cap obstruction
    frame_s4     frame_sphere(4), SO(4) group, with two RP^3-bundle variants
                 frame_s4:b1 and frame_s4:b2 attached to the su(2) ideals
                 (H = H1, H2)
    frame_s6     frame_sphere(6), the Euler form at k = 3
    flat:<g>:<n> trivial bundle, zero potential
    linear:<g>:<n> generic chart over R^n from seed 0;
                 linear:u3:6:<h> checks chern_3, where the mixed A_11 enters
    twisted_u2   generic-curvature U(2) chart over R^2 used for the
                 determinant-bundle and odd-sphere-bundle vanishing checks

frame_sphere(n) is the frame bundle of the round S^n, n even, with its unit
sphere bundle SO(n)/SO(n-1) = S^(n-1): one n-generic Householder frame gives
its fiber lift and its sections.  The last three are one affine chart
A_a = C_a + x_b D_ab: flat has C = D = 0, linear draws C and D, and
twisted_u2 has C = 0, D_xy = M2 and D_yx = M1.  Every catalog chart is the
round-sphere chart or the affine chart.

Every chart potential and curvature, chain frame, fiber lift and section
value here broadcasts over leading batch axes (see csforms.bundles), so
calculus.integrate evaluates them on a whole chunk of nodes at once, and a
lift or section on the stencil stack (2p+1, ..., p) of its central
differences.  A winding degree is a d-form on the angle box of S^d,
integrated by calculus.integrate as well.

Orientation conventions are fixed once here: base chains are oriented so the
Euler integrals are positive, and fiber parametrizations are oriented so the
assembled transgression forms have fiber integral +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial, reduce
from math import pi
from typing import Callable

import numpy as np

from ._expm import expm
from .bundles import BundleChart, ChainSpec, FiberModel, Section, Zero
from .calculus import FormField, ParametrizedChain, _box_chain, _stencil_values, integrate
from .invariants import InvariantPolynomial, make_polynomial
from .liealg import (
    _realify,
    algebra_from_tag,
    quat_conj,
    random_element,
    skew_pair,
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
    "frame_sphere",
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


def _rotate(x: np.ndarray) -> np.ndarray:
    """Jx = (-x_2, x_1, -x_4, x_3, ...) of points (..., n), n even."""
    return np.stack([-x[..., 1::2], x[..., 0::2]], axis=-1).reshape(x.shape)


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


def _sphere_potential(x: np.ndarray, c: float = 1.0) -> np.ndarray:
    """c times the Levi-Civita spin connection of the round S^n, n = x.shape[-1],
    in the conformal orthonormal gauge: A_a[i, j] = mu (x_j d_ai - x_i d_aj)
    with mu = -2/(1 + |x|^2), that is mu sum_e x_e (E_ae - E_ea): one product
    with _curvature_pattern.  It vanishes on radial directions (A_x(x) = 0)."""
    n = x.shape[-1]
    lam = 2.0 * c / (1.0 + _sq(x))  # -c mu
    return (lam[..., None] * (x @ _curvature_pattern(n).reshape(n, -1))).reshape(x.shape[:-1] + (n, n, n))


def _sphere_curvature(x: np.ndarray, c: float = 1.0) -> np.ndarray:
    """c times the round F_ab = lam^2 (E_ab - E_ba), lam = 2/(1 + |x|^2)."""
    lam2 = c * (2.0 / (1.0 + _sq(x))) ** 2
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
    return ParametrizedChain(f"sphere:{theta:.6f}", _angle_box(n - 1), lambda psi: tuple(r * a for a in _angles_jac(psi)))


def _polar_chain(n: int, lo: float, hi: float, name: str) -> ParametrizedChain:
    """The slab lo <= theta <= hi of S^n, x = tan(theta/2) angles(psi).

    Its boundary is the sphere at hi with sign +1 and the sphere at lo with
    sign -1, each only where theta is not a pole."""

    def frame(params):
        th, psi = params[..., 0], params[..., 1:]
        r = np.tan(0.5 * th)
        dr = 0.5 / np.cos(0.5 * th) ** 2
        v, dv = _angles_jac(psi)
        return r[..., None] * v, np.concatenate([(dr[..., None] * v)[..., None], r[..., None, None] * dv], axis=-1)

    boundary = tuple((_sphere_at(n, th), sign) for th, sign in ((hi, +1), (lo, -1)) if 0.0 < th < pi)
    return ParametrizedChain(name, ((lo, hi),) + _angle_box(n - 1), frame, boundary)


_THETA = {"pi/6": pi / 6, "pi/3": pi / 3, "pi/2": pi / 2}


def _polar_chains(n: int) -> dict[str, ChainSpec]:
    """The full_sphere, cap:<theta0> (about the north pole) and
    band:pi/6:pi/3 chains of S^n, with polar angles named by the keys of
    _THETA, and the section zeros each contains."""
    spans = {"full_sphere": (0.0, pi, ("north", "south"))}
    spans.update({f"cap:{c}": (0.0, theta, ("north",)) for c, theta in _THETA.items()})
    spans["band:pi/6:pi/3"] = (pi / 6, pi / 3, ())
    return {name: ChainSpec(_polar_chain(n, lo, hi, name), zeros) for name, (lo, hi, zeros) in spans.items()}


# --- frame bundles of the even spheres -----------------------------------------

def _householder_frame(v: np.ndarray) -> np.ndarray:
    """A frame in SO(n) with first column u = v/|v| for v (..., n): the
    reflection I - 2 w w^T / |w|^2, w = u - e_1, which maps e_1 to u, with
    its last column negated.  Smooth away from u = e_1."""
    w = v / np.linalg.norm(v, axis=-1, keepdims=True) - np.eye(v.shape[-1])[0]
    frame = np.eye(v.shape[-1]) - 2.0 * w[..., :, None] * w[..., None, :] / _sq(w)[..., None, None]
    frame[..., :, -1] *= -1.0
    return frame


def _householder_lift(psis: np.ndarray) -> np.ndarray:
    """The Householder frame over the fiber point _angles(psis) of S^(n-1);
    only psi_0 = 0, never a Gauss node, maps to e_1."""
    return _householder_frame(_angles(psis))


def frame_sphere(n: int, name: str) -> NamedBundle:
    """Oriented frame bundle of the round S^n, n even and >= 2, with its unit
    sphere bundle F = SO(n)/SO(n-1) = S^(n-1), named name.

    The fiber lift is the Householder frame over the fiber point, and the
    alternate lift right-translates it by exp(a E_2n), a parameter-dependent
    element of H (E_2n = 0 at n = 2).  The sections height_gradient and
    rotational, the Householder frames over -x and Jx, have index-1 zeros at
    both poles.  Default polynomial: the Euler form of degree n/2.
    """
    if n < 2 or n % 2:
        raise ValueError(f"frame_sphere needs an even n >= 2, got {n}")
    split, e_2n = standard_split(f"so{n}", f"so{n - 1}"), skew_pair(n, 1, n - 1)
    fiber = FiberModel(
        name=f"s{n - 1}_fiber",
        intervals=_angle_box(n - 1),
        lift=_householder_lift,
        lift_alt=lambda s: _householder_lift(s) @ expm(0.7 * np.sin(s[..., 0] + s[..., -1])[..., None, None] * e_2n),
        orientation=-1,
    )
    zeros = (Zero("north", 1), Zero("south", 1))
    fields = {"height_gradient": np.negative, "rotational": _rotate}
    return NamedBundle(
        name=name,
        chart=BundleChart(n, so(n), _sphere_potential, _sphere_curvature, split, name=name),
        fiber=fiber,
        sections={s: Section(s, lambda x, f=f: _householder_frame(f(x)), zeros) for s, f in fields.items()},
        chains=_polar_chains(n),
        default_poly=("euler", n // 2),
    )


def unit_tangent_s2() -> NamedBundle:
    """frame_sphere(2), the frame bundle of the round S^2, which is its unit
    tangent bundle.  H is trivial, so the alternate lift reparametrizes the
    circle instead."""
    b = frame_sphere(2, "ut_s2")
    return replace(b, fiber=replace(b.fiber, lift_alt=lambda s: _householder_lift(s + 0.25 * np.sin(2 * s))))


def hopf_u1() -> NamedBundle:
    """Degree-one U(1) bundle over the round S^2, c_1 anchor, the square root
    of its tangent bundle: u(1) is realified (csforms.liealg), i as J, and
    U(1) = SO(2), so its chart is -1/2 of ut_s2's and its fiber is lifted by
    ut_s2's Householder frame, the rotation by the angle."""
    chart = BundleChart(
        2, u(1), lambda x: _sphere_potential(x, -0.5), lambda x: _sphere_curvature(x, -0.5), name="hopf_u1"
    )
    fiber = FiberModel(
        name="u1_fiber",
        intervals=_angle_box(1),
        lift=_householder_lift,
        lift_alt=lambda s: _householder_lift(s + 0.3 * np.sin(s)),
    )
    return NamedBundle(
        name="hopf_u1",
        chart=chart,
        fiber=fiber,
        chains=_polar_chains(2),
        default_poly=("chern_j", 1),
    )


def _ideal_exp(angle: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """exp(angle * unit) for angles (...) and unit elements (..., 4, 4) of
    one su(2) ideal of so(4).

    The elements of an orthonormal ideal basis square to -I/4 and
    anticommute, so a unit element squares to -I/4 too, and the series sums
    to cos(angle/2) I + 2 sin(angle/2) unit.
    """
    half = 0.5 * np.asarray(angle)[..., None, None]
    return np.cos(half) * np.eye(4) + 2.0 * np.sin(half) * unit


def _ball_lift(basis: tuple[np.ndarray, ...]) -> Callable[[np.ndarray], np.ndarray]:
    # axis-angle ball chart of an su(2) subgroup modulo +-1, covered once
    def lift(params: np.ndarray) -> np.ndarray:
        rho, al, be = params[..., 0], params[..., 1], params[..., 2]
        n_hat = np.stack([np.sin(al) * np.cos(be), np.sin(al) * np.sin(be), np.cos(al)], axis=-1)
        return _ideal_exp(rho, np.tensordot(n_hat, np.array(basis), axes=(-1, 0)))

    return lift


def frame_bundle_s4(variant: str) -> NamedBundle:
    """frame_sphere(4) with one of the two RP^3 bundles of the su(2) ideal
    decomposition, variant "b1" or "b2" (H = H1 or H2), in place of its
    unit sphere bundle; it has no sections."""
    if variant not in ("b1", "b2"):
        raise ValueError(f"unknown frame_s4 variant {variant!r}")
    split = so4_ideal_split()[variant == "b2"]
    lift = _ball_lift(split.p_basis)
    fiber = FiberModel(
        name=f"rp3_{variant}_fiber",
        # the rotation angle, then the box of the axis direction on S^2
        intervals=((0.0, pi),) + _angle_box(2),
        lift=lift,
        # right-translate by a parameter-dependent H element
        lift_alt=lambda s: lift(s) @ _ideal_exp(0.7 * np.sin(s[..., 0] + s[..., 2]), split.h_basis[0]),
        orientation=-1,
    )
    b = frame_sphere(4, f"frame_s4:{variant}")
    return replace(
        b, chart=replace(b.chart, split=split), fiber=fiber, sections={}, default_poly=("pontryagin_1", 2)
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
    C = np.zeros((n, alg.matrix_size, alg.matrix_size))
    return _affine_bundle(name, alg, C, np.zeros((n,) + C.shape), split)


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


# realified skew-Hermitian 2 x 2 matrices
_M1 = _realify(0.7 * np.array([[0.9j, 0.4 + 0.3j], [-0.4 + 0.3j, -0.6j]]))
_M2 = _realify(0.7 * np.array([[0.5j, -0.2 + 0.6j], [0.2 + 0.6j, 0.8j]]))


def twisted_u2(hsub: str = "su2") -> NamedBundle:
    """U(2) bundle chart over R^2 with generic non-abelian curvature.

    A = y M2 dx + x M1 dy for fixed non-commuting skew-hermitian M1, M2
    (the affine chart with C = 0, D_xy = M2, D_yx = M1, realified), so
    F(dx,dy) = M1 - M2 + xy [M2, M1].  Used for the determinant-bundle
    (hsub="su2") and odd-sphere-bundle (hsub="u1") vanishing checks, where the
    psi-curvature is genuinely nonzero but the relevant polynomial kills it.
    """
    D = np.zeros((2, 2, 4, 4))
    D[0, 1], D[1, 0] = _M2, _M1
    split, poly = standard_split("u2", hsub), ("chern_j", 1 if hsub == "su2" else 2)
    return _affine_bundle(f"twisted_u2:{hsub}", u(2), np.zeros((2, 4, 4)), D, split, poly)


# every shipped bundle but the families below, which get_bundle parses from the name
_CATALOG: dict[str, Callable[[], NamedBundle]] = {
    "hopf_u1": hopf_u1,
    "ut_s2": unit_tangent_s2,
    "frame_s4": partial(frame_sphere, 4, "frame_s4"),
    "frame_s4:b1": partial(frame_bundle_s4, "b1"),
    "frame_s4:b2": partial(frame_bundle_s4, "b2"),
    "frame_s6": partial(frame_sphere, 6, "frame_s6"),
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
# the central-difference step of a winding map
_WINDING_FD_STEP = 1e-5


def _volume_pullback_integral(f: Callable[[np.ndarray], np.ndarray], d: int, quad_order, align_signs: bool) -> float:
    """Integral of f*(volume form of S^d) over the angle box of S^d: a
    d-form on the box, integrated by calculus.integrate, with f called once
    per chunk of C nodes, on the stack (2d+1, C, d) of the nodes and their
    stencil points."""

    def unit(params):
        v = np.asarray(f(params), dtype=float)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def ev(params, tangents):
        center, vp, vm = _stencil_values(unit, params, _WINDING_FD_STEP * np.asarray(tangents))
        if align_signs:
            vp = np.where(np.sum(vp * center, axis=-1, keepdims=True) < 0, -vp, vp)
            vm = np.where(np.sum(vm * center, axis=-1, keepdims=True) < 0, -vm, vm)
        cols = np.concatenate([center[None], (vp - vm) / (2 * _WINDING_FD_STEP)])
        return np.linalg.det(np.moveaxis(cols, 0, -1))

    return integrate(FormField(d, d, ev), _box_chain(f"S^{d}", _angle_box(d)), quad_order)


def winding_degree(
    f: Callable[[np.ndarray], np.ndarray],
    d: int,
    quad_order: int | tuple[int, ...] = 24,
    projective: bool = False,
) -> int:
    """Degree of a map into S^d given on source-sphere angle parameters.

    f maps angle parameters (..., d) to vectors (..., d+1).  It is called
    once per chunk of nodes, on the stack of the nodes and their
    finite-difference stencil points.  The degree is the integral of the
    pulled-back normalized volume form.

    projective=True reads f as the lift of a map into RP^d, whose values are
    defined only up to overall sign: the finite-difference stencil is
    sign-aligned around each node, which the volume pullback does not feel,
    and the integral is normalized by vol(RP^d) = vol(S^d)/2, so the degree
    is the covering count.  Raises PrecisionError when the integral is
    farther than 0.1 from an integer.
    """
    if d not in (1, 3):
        raise ValueError("winding_degree supports d in {1, 3}")
    vol = _SPHERE_VOLUMES[d] / 2 if projective else _SPHERE_VOLUMES[d]
    deg = _volume_pullback_integral(f, d, quad_order, projective) / vol
    nearest = round(deg)
    if abs(deg - nearest) > 0.1:
        raise PrecisionError(
            f"degree integral {deg:.6f} is not within 0.1 of an integer; raise quad_order"
        )
    return int(nearest)


def south_transition_frame(yhat: np.ndarray) -> np.ndarray:
    """Coset representative of the transported frame in the south chart.

    The north-chart section is the identity frame; re-expressing it in the
    orientation-compatible south stereographic chart multiplies by the frame
    transition (I - 2 yhat yhat^T) composed with quaternion conjugation,
    a sign per column; yhat may be a stack (..., 4).
    """
    yhat = np.asarray(yhat, dtype=float)
    return quat_conj(np.eye(4) - 2.0 * yhat[..., :, None] * yhat[..., None, :])


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

    a1 = winding_degree(section_map(1), 3, quad_order, projective=True)
    a2 = winding_degree(section_map(2), 3, quad_order, projective=True)
    return a1, a2

