"""Local principal-bundle models and the transgression-form machinery.

A BundleChart is a trivialized patch of a principal G-bundle: a base chart of
dimension n, an analytic g-valued potential A and curvature F on it, and
exponential fiber coordinates around a movable reference element g0.  Chart
points are vectors (x, t) of length n + dim(g) describing the group element
g0 exp(sum_a t_a E_a).  In these coordinates the connection and curvature are

    w(v)      = Ad_{g^-1} A(v_x) + g^-1 dg (v_t)
    Omega(v,w)= Ad_{g^-1} F(v_x, w_x)

with the Maurer-Cartan term evaluated by its series, not by differences:
g^-1 dg on the fiber tangents of a point is exp(-X) dexp_X[dX], which
csforms._expm sums for all of them, as it does exp(X), by scaled Taylor
series whose scaling is chosen once per context.  Keeping g0
movable lets every caller work at t = 0, where the fiber coordinates are the
algebra coordinates themselves and no exponential or matrix logarithm is
needed.  On an abelian algebra (MatrixLieAlgebra.is_abelian: so(2), u(1))
Ad_g is the identity for g in the connected group and g^-1 dg = dt, so a
context there takes w = A(v_x) + v_t and Omega = F at every t and g0, with
no exponential.

Every callable here broadcasts over leading batch axes, as the forms of
csforms.calculus do: a potential maps base points (..., n) to (..., n, m, m),
a curvature field to (..., n, n, m, m), a fiber lift parameters (..., p) and
a section base points (..., n) to group elements (..., m, m), and the
reference g0 may itself be a stack (..., m, m).  calculus.integrate
evaluates its nodes one chunk of at most calculus._CHUNK nodes per call,
and a finite-difference d its whole stencil.  A fiber integral is a form
on the fiber's parameter box, integrated by calculus.integrate.  A fiber
lift or a section is differentiated by central differences on one stencil
stack (2p+1, ..., p) of the points x + h v_i, x - h v_i and x, in one call
(_recentered).

Every value comes from one chart context, BundleChart.ctx(points,
tangents): the evaluation of one tangent stack at one stack of points,
which reads out w, Omega and, by tables(split), the split tables of any
split of the algebra from that one w and Omega.  A context skips what its
tangents never reach, and the skipped terms are exact zeros, not
approximations.  Omega is horizontal and A(v_x) is linear
in the base part v_x, so when no tangent has a nonzero base part (the
vertical tangents of a fiber integral) w is the Maurer-Cartan term alone,
Omega is an exact zero table, and the chart's potential, curvature, pair
table and Ad_{g^-1} are never evaluated.  Base points and tangents (..., n)
(the chain integrals of basic forms) imply t = 0 and a zero fiber part, and
no zero fiber coordinates are allocated or scanned for them.

The functions that take d of a chart form (heterotic_sides and its
residual, bianchi_residuals and the connection-curvature residual) make
one context, on the d stencil of calculus._d_stencil together with its
center row, so each calls the chart's potential and curvature once (when a
tangent has a base part); the stencil rows give d by calculus._d_combine
and the center row the values at the point.  Those residuals take their
graded brackets from invariants.bracket_tables, the one graded bracket.
The transgression form TP is phi_p_form on the chart without its split, and
the identity d TP = P(Omega) is heterotic_sides there.  At t = 0 and on base
tangents the connection-curvature residual checks F = dA + [A, A] itself.

When the chart carries a reductive split g = h + p, the connection decomposes
as w = phi + psi with phi = pr_p(w) and psi = pr_h(w) (fixed projections in
g; psi is then the induced connection of the H-bundle over the associated
bundle).  The curvature of psi is computed analytically as

    Psi = pr_h(Omega) - (1/2) pr_h([phi, phi]),

which is forced by projecting Omega = d_H phi + Psi + (1/2)[phi,phi] onto h;
the finite-difference cross-check against d psi + (1/2)[psi, psi] in the test
suite pins the sign, and bianchi_residuals checks its Bianchi identity
d Psi + [psi, Psi] = 0 next to d Omega + [w, Omega] = 0.

The two assembled families are

    TP(w)     = sum_i A_i P(w, [w,w]^i, Omega^{k-1-i})            (degree 2k-1)
    PhiP(w)   = sum_ij A_ij P(phi, [phi,phi]^i, Psi^j, Omega^{k-1-i-j})

with exact rational coefficients from csforms.rationals, and the identities
under test are d TP = P(Omega) and d PhiP = P(Omega) - P(Psi).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from ._expm import expm, expm_maurer_cartan, expm_scaling
from .calculus import (
    DEFAULT_FD_STEP,
    FormField,
    ParametrizedChain,
    _box_chain,
    _d_combine,
    _d_stencil,
    _stencil_values,
    integrate,
)
from .invariants import InvariantPolynomial, bracket_tables, eval_on_forms_indexed
from .liealg import MatrixLieAlgebra, ReductiveSplit
from .rationals import phi_coefficient

__all__ = [
    "BundleChart",
    "FiberModel",
    "Section",
    "ChainSpec",
    "ObstructionReport",
    "bianchi_residuals",
    "char_form",
    "phi_p_form",
    "heterotic_sides",
    "heterotic_residual",
    "fiber_integral",
    "section_pullback_form",
    "obstruction_identity_check",
    "connection_curvature_fd_residual",
]


@dataclass(frozen=True)
class BundleChart:
    """Trivialized patch of a principal bundle with analytic potential.

    g0 is the reference group element (m, m), or a stack (..., m, m) of
    them that broadcasts against the points a context is made at.  It must
    lie in the connected group: on an abelian algebra a context skips
    Ad_{g^-1}, which is the identity only there (a reflection in O(2) acts
    on so(2) by -1).
    """

    base_dim: int
    algebra: MatrixLieAlgebra
    potential: Callable[[np.ndarray], np.ndarray]  # x (..., n) -> (..., n, m, m)
    curvature_field: Callable[[np.ndarray], np.ndarray]  # x (..., n) -> (..., n, n, m, m)
    split: ReductiveSplit | None = None
    g0: np.ndarray | None = None
    name: str = ""

    @property
    def dim(self) -> int:
        return self.base_dim + self.algebra.dim

    def at(self, g0: np.ndarray) -> "BundleChart":
        """Same patch with the fiber chart re-centered at g0."""
        return replace(self, g0=g0)

    def reference(self) -> np.ndarray:
        return self.algebra.identity() if self.g0 is None else self.g0

    def point(self, x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
        """Chart point (..., n + dim g) of base points x (..., n); t = 0 by default."""
        x = np.asarray(x, dtype=float)
        t = np.zeros(x.shape[:-1] + (self.algebra.dim,)) if t is None else np.asarray(t, dtype=float)
        return np.concatenate([x, t], axis=-1)

    def ctx(self, points: np.ndarray, tangents: Sequence[np.ndarray]) -> "_ChartContext":
        """w, Omega and the split tables on m tangents (m, ..., d) at points (..., d)."""
        return _ChartContext(self, np.asarray(points, dtype=float), tangents)


def _pair_table(v: np.ndarray, F: np.ndarray) -> np.ndarray:
    """sum_ab v_i^a v_j^b F_ab for m tangents v (m, ..., n) and a curvature
    F (..., n, n, N, N) whose point axes broadcast against the tangents':
    the table (m, m, ..., N, N).

    Two batched matrix products over the flattened point axes B: first b of
    F with each v_j, then a with each v_i.
    """
    m, n, N = v.shape[0], v.shape[-1], F.shape[-1]
    batch = v.shape[1:-1]
    if F.shape[:-4] != batch:
        F = np.broadcast_to(F, (*batch, *F.shape[-4:]))
    vb = v.reshape(m, -1, n).transpose(1, 0, 2)  # (B, m, n)
    G = vb[:, None] @ F.reshape(-1, n, n, N * N)  # (B, a, j, N^2): b contracted with v_j
    H = (vb @ G.reshape(-1, n, m * N * N)).reshape(-1, m, m, N, N)  # a with v_i
    return H.transpose(1, 2, 0, 3, 4).reshape(m, m, *batch, N, N)


class _ChartContext:
    """The connection w and curvature Omega of a chart on m tangents
    (m, ..., d) at a point or a stack of points (..., d), and their split
    tables; every value is computed on first use and kept.

    A point of length base_dim is a base point with t = 0 implied.  Off
    t = 0 on a non-abelian algebra one expm_scaling of the fiber
    coordinates X (the skew-symmetry check and the Taylor scaling of the
    whole stack) serves the group elements, one expm, and the Maurer-Cartan
    values of all fiber tangents, one expm_maurer_cartan.  The tangent
    indices come first: w is (m, ..., N, N) and Omega (m, m, ..., N, N),
    the pair table of two batched products (_pair_table); one tangent's
    value is row 0 of a one-tangent context.  Tangents shared by a stack of
    points or reference elements are broadcast against it as in einsum's
    "...", padded on the left.  Ad_{g^-1} is skipped (_conj), as the
    exponential is, where it is the identity: without a reference element
    (g0 None) at t = 0, and at every point on an abelian algebra, where the
    Maurer-Cartan term is the fiber part itself.

    Tangents of length base_dim have an implied zero fiber part, and the
    Maurer-Cartan term is skipped for them.  When the base part of every
    tangent is exactly zero, w is the Maurer-Cartan values alone and Omega
    a zero table: A(v_x) is linear in v_x and Omega(v, w) =
    Ad_{g^-1} F(v_x, w_x), so both terms are exactly zero there, and A and F
    are never evaluated.  Every group element is a real orthogonal matrix,
    so g^-1 is its transpose.
    """

    def __init__(self, chart: BundleChart, point: np.ndarray, tangents: Sequence[np.ndarray]):
        self.chart = chart
        n, alg = chart.base_dim, chart.algebra
        if point.shape[-1] not in (n, n + alg.dim):
            raise ValueError("point has wrong total-space dimension")
        # a point of length n is a basic-form evaluation directly over the base: t = 0 implied
        self.x, t = point[..., :n], point[..., n:]
        g0 = chart.reference()
        if alg.is_abelian or not t.any():
            # Ad_{g^-1} is the identity on an abelian group (g0 connected, BundleChart) and at g = I
            self._m = None
            self._g = None if alg.is_abelian or chart.g0 is None else g0
        else:
            self._m = alg.from_coords(t)
            self._scaling = expm_scaling(self._m)
            self._g = g0 @ expm(self._m, self._scaling)
        v = np.asarray(tangents, dtype=float)
        vb = v.shape[1:-1]
        if vb != self.x.shape[:-1] or g0.shape[:-2] not in ((), vb):
            batch = np.broadcast_shapes(vb, self.x.shape[:-1], g0.shape[:-2])
            if vb != batch:
                v = v.reshape(len(v), *(1,) * (len(batch) + 2 - v.ndim), *v.shape[1:])
                v = np.broadcast_to(v, (len(v), *batch, v.shape[-1]))
        # base parts (m, ..., n) and fiber parts (m, ..., dim g), None where exactly zero:
        # the fiber parts of base tangents (..., n), the base parts when no tangent has one
        if v.shape[-1] == n:
            self._vx, self._vt = v, None
        else:
            self._vx, self._vt = (v[..., :n] if v[..., :n].any() else None), v[..., n:]

    @cached_property
    def A(self) -> np.ndarray:
        return np.asarray(self.chart.potential(self.x))

    @cached_property
    def F(self) -> np.ndarray:
        return np.asarray(self.chart.curvature_field(self.x))

    @cached_property
    def w(self) -> np.ndarray:
        """w on each tangent, (m, ..., N, N)."""
        # vertical tangents (vx None) take the Maurer-Cartan values alone: A is never evaluated
        w = None if self._vx is None else self._conj(np.einsum("m...a,...aij->m...ij", self._vx, self.A))
        if self._vt is None:
            return w
        mc = self.chart.algebra.from_coords(self._vt)  # g^-1 dg on the fiber parts
        if self._m is not None:
            mc = expm_maurer_cartan(self._m, mc, self._scaling)
        return mc if w is None else w + mc

    @cached_property
    def omega(self) -> np.ndarray:
        """Omega on each pair of tangents, (m, m, ..., N, N)."""
        if self._vx is None:
            # Omega is horizontal: exactly zero on vertical tangents, F is never evaluated
            N = self.chart.algebra.matrix_size
            return np.zeros((len(self._vt), *self._vt.shape[:-1], N, N))
        return self._conj(_pair_table(self._vx, self.F))

    def _conj(self, x: np.ndarray) -> np.ndarray:
        """Ad_{g^-1} x = g^T x g; x itself where Ad_{g^-1} is the identity."""
        return x if self._g is None else self._g.swapaxes(-1, -2) @ x @ self._g

    def tables(self, split: ReductiveSplit | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(phi, [phi, phi], Psi, Omega) for a split of the chart's algebra.

        phi[i] is the value on tangent i, the others [i, j] on the pair (i, j);
        Psi = pr_h(Omega - (1/2)[phi, phi]) is zero without a split.  w and
        Omega do not depend on the split, so one context serves every split
        of its algebra.
        """
        w, om = self.w, self.omega
        phi = w if split is None else split.project_p(w)
        # one commutator per pair; bracket_tables' two shuffles give the same values but ran sweep_k2 13-22% slower
        comm = phi[:, None] @ phi[None, :] - phi[None, :] @ phi[:, None]
        psi = np.zeros_like(om) if split is None else split.project_h(om - comm)
        return phi, 2 * comm, psi, om


# --- form fields -------------------------------------------------------------

def char_form(chart: BundleChart, P: InvariantPolynomial, source: str = "omega") -> FormField:
    """The 2k-form P(Omega^k) (source="omega") or P(Psi^k) (source="psi")."""

    def ev(pt, tangents):
        ctx = chart.ctx(pt, tangents)
        table = ctx.omega if source == "omega" else ctx.tables(chart.split)[2]
        return eval_on_forms_indexed(P, [(table, 2)] * P.degree, 2 * P.degree)

    return FormField(chart.dim, 2 * P.degree, ev)


@cache
def _phi_coefficients(k: int) -> tuple[tuple[tuple[int, int], float], ...]:
    """((i, j), A_ij) for i + j < k, as floats."""
    return tuple(((i, j), float(phi_coefficient(k, i, j))) for i in range(k) for j in range(k - i))


def phi_p_form(chart: BundleChart, P: InvariantPolynomial) -> FormField:
    """Extended transgression sum_ij A_ij P(phi, [phi,phi]^i, Psi^j, Omega^...).

    Without a split this is the transgression form TP (phi = w, Psi = 0):
    the j > 0 terms drop and A_i0 = A_i.
    """
    split = chart.split is not None
    return FormField(
        chart.dim, 2 * P.degree - 1, lambda pt, tg: _phi_p_value(P, split, *chart.ctx(pt, tg).tables(chart.split))
    )


def _phi_p_value(P: InvariantPolynomial, split: bool, phi, pp, psi, om):
    """PhiP on the (phi, [phi, phi], Psi, Omega) tables of 2k - 1 tangents,
    in one shuffle evaluation; without a split only the j = 0 terms."""
    k = P.degree
    terms = [
        (a, [(phi, 1)] + [(pp, 2)] * i + [(psi, 2)] * j + [(om, 2)] * (k - 1 - i - j))
        for (i, j), a in _phi_coefficients(k)
        if split or j == 0
    ]
    return eval_on_forms_indexed(P, terms, 2 * k - 1)


def _char_difference(P: InvariantPolynomial, psi, om):
    """P(Omega) - P(Psi) on the Psi and Omega tables of 2k tangents, in one
    shuffle evaluation."""
    k = P.degree
    return eval_on_forms_indexed(P, [(1.0, [(om, 2)] * k), (-1.0, [(psi, 2)] * k)], 2 * k)


def heterotic_sides(
    chart: BundleChart, P: InvariantPolynomial, point: np.ndarray, tangents: Sequence[np.ndarray], fd_step: float
):
    """(d PhiP, P(Omega) - P(Psi)) on 2k tangents at one point.

    One chart context on the d stencil and its center (calculus._d_stencil)
    and one tables call on its 2k tangents serve both sides: PhiP on the
    first 2k - 1 tangents of the stencil rows, differenced by _d_combine,
    and P(Omega) - P(Psi) on the center row.  On the chart without its split
    the pair is (d TP, P(Omega)).
    """
    k = P.degree
    if len(tangents) != 2 * k:
        raise ValueError(f"need {2 * k} tangents, got {len(tangents)}")
    points, rows = _d_stencil(point, tangents, fd_step)
    phi, pp, psi, om = chart.ctx(points, rows).tables(chart.split)
    n = 2 * k - 1
    stencil = (phi[:n, :-1], pp[:n, :n, :-1], psi[:n, :n, :-1], om[:n, :n, :-1])
    lhs = _d_combine(_phi_p_value(P, chart.split is not None, *stencil), fd_step)
    return lhs, _char_difference(P, psi[:, :, -1], om[:, :, -1])


def heterotic_residual(
    chart: BundleChart,
    P: InvariantPolynomial,
    point: np.ndarray,
    tangents: Sequence[np.ndarray],
    fd_step: float = DEFAULT_FD_STEP,
) -> float:
    """|d PhiP - (P(Omega) - P(Psi))| on 2k tangents at one point, from
    one chart context (heterotic_sides)."""
    lhs, rhs = heterotic_sides(chart, P, point, tangents, fd_step)
    return abs(lhs - rhs)


def bianchi_residuals(
    chart: BundleChart,
    point: np.ndarray,
    tangents: Sequence[np.ndarray],
    fd_step: float = DEFAULT_FD_STEP,
) -> tuple[float, float, float]:
    """(max-entry residual of d Omega + [w, Omega], max-entry residual of
    d Psi + [psi, Psi], largest entry of |Psi|) on 3 tangents.

    These are the Bianchi identities D_w Omega = 0 of the connection and
    D_psi Psi = 0 of the induced H-connection psi = pr_h(w), whose curvature
    Psi = pr_h(Omega - (1/2)[phi, phi]) depends on the split; without a split
    psi = Psi = 0.  One chart context on the d stencil of (X, Y, Z) and its
    center row: d Omega and d Psi from the stencil rows, every value at the
    point from the center.  D_w Omega = 0 is linear in Omega, so a chart
    whose curvature field is off by an overall factor passes it.  The psi
    part sees that factor only where [phi, Omega] has an h part (not on an
    ideal split such as frame_s4:b1);
    connection_curvature_fd_residual (F = dA + [A, A]) sees it on every chart.
    """
    if len(tangents) != 3:
        raise ValueError("need 3 tangents")
    points, rows = _d_stencil(point, tangents, fd_step)
    ctx = chart.ctx(points, rows)
    _, _, Psi, om = ctx.tables(chart.split)
    w = ctx.w[:, -1]
    psi = np.zeros_like(w) if chart.split is None else chart.split.project_h(w)
    d_om = _d_combine(om[0, 1, :-1], fd_step) + bracket_tables(w, 1, om[:, :, -1], 2)[0, 1, 2]
    d_psi = _d_combine(Psi[0, 1, :-1], fd_step) + bracket_tables(psi, 1, Psi[:, :, -1], 2)[0, 1, 2]
    return float(np.max(np.abs(d_om))), float(np.max(np.abs(d_psi))), float(np.max(np.abs(Psi[:, :, -1])))


def connection_curvature_fd_residual(
    chart: BundleChart,
    point: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    fd_step: float = DEFAULT_FD_STEP,
) -> float:
    """Cross-check of the analytic Omega against d w + (1/2)[w, w] by FD,
    from one chart context on the d stencil of (X, Y) and its center row."""
    points, rows = _d_stencil(point, [X, Y], fd_step)
    ctx = chart.ctx(points, rows)
    w = ctx.w
    fd_val = _d_combine(w[0, :-1], fd_step) + 0.5 * bracket_tables(w[:, -1], 1, w[:, -1], 1)[0, 1]
    return float(np.max(np.abs(fd_val - ctx.omega[0, 1, -1])))


# --- fiber integration and sections ------------------------------------------

@dataclass(frozen=True)
class FiberModel:
    """Parametrization of the fiber G/H with a lift into the group.

    ``lift`` maps fiber parameters (..., p) to group elements (..., m, m)
    whose cosets are the fiber points; ``lift_alt`` is a second,
    differently-constructed lift used to test that basic forms integrate
    identically along either.  fiber_integral calls a lift once per chunk
    of nodes, on the stencil stack (2p+1, C, p) of the C nodes and the
    points +-h e_i about them.
    """

    name: str
    intervals: tuple[tuple[float, float], ...]
    lift: Callable[[np.ndarray], np.ndarray]
    lift_alt: Callable[[np.ndarray], np.ndarray] | None = None
    orientation: int = 1


# the central-difference step of a fiber lift or a section
_MAP_FD_STEP = 1e-6


def _recentered(chart: BundleChart, gmap: Callable, x: np.ndarray, tangents: Sequence[np.ndarray]):
    """The chart re-centered at the group elements g = gmap(x), and the
    fiber coordinates (p, ..., dim g) of g^-1 dg along each of p tangents.

    gmap is called once, on the stencil stack (2p+1, ..., k) of the
    parameters x (..., k) and the points x +- h v_i.
    """
    steps = _MAP_FD_STEP * np.asarray(np.broadcast_arrays(*tangents))
    g, plus, minus = _stencil_values(gmap, x, steps)
    return chart.at(g), chart.algebra.coords(g.swapaxes(-1, -2) @ ((plus - minus) / (2 * _MAP_FD_STEP)))


def fiber_integral(
    chart: BundleChart,
    form_at: Callable[[BundleChart], FormField],
    base_point: np.ndarray,
    fiber: FiberModel,
    quad_order: int | Sequence[int],
    use_alt_lift: bool = False,
) -> float:
    """Integrate a (dim fiber)-form over the fiber above a base point.

    The integrand is a p-form on the fiber's parameter box, integrated over
    the box by calculus.integrate.  On a chunk of C nodes it calls the lift
    once, on the stencil stack (2p+1, C, p) of the nodes and the points
    +-h e_i about them; the form is built on the chart re-centered at the
    lifted group elements (C, m, m) and evaluated on the chunk in one call,
    at t = 0 where fiber coordinates equal algebra coordinates.  The fiber
    tangents have no base part, so the chart contexts of the form evaluate
    neither the potential nor the curvature field (_ChartContext).
    """
    lift = fiber.lift_alt if use_alt_lift else fiber.lift
    if lift is None:
        raise ValueError(f"fiber {fiber.name} has no alternate lift")
    p = len(fiber.intervals)
    base = np.asarray(base_point, dtype=float)

    def ev(params, tangents):
        ch, vts = _recentered(chart, lift, params, tangents)
        form = form_at(ch)
        if form.degree != p:
            raise ValueError(f"form degree {form.degree} != fiber dimension {p}")
        # the fiber tangents have no base part: w is g^-1 dg alone and Omega = 0
        zeros = np.zeros(vts.shape[:-1] + (chart.base_dim,))
        return form(ch.point(np.broadcast_to(base, zeros.shape[1:])), list(ch.point(zeros, vts)))

    return fiber.orientation * integrate(FormField(p, p, ev), _box_chain(fiber.name, fiber.intervals), quad_order)


@dataclass(frozen=True)
class Zero:
    """Isolated zero/singularity of a section with its integer index."""

    name: str
    index: int


@dataclass(frozen=True)
class Section:
    """Section of the associated bundle in the chart trivialization.

    ``value`` maps base points (..., n) to the group elements (..., m, m)
    representing the section (their H-cosets are the actual bundle points).
    section_pullback_form calls it once per evaluation, on the stencil
    stack (2p+1, ..., n) of the points and the points +-h v_i along the p
    tangents.  Zeros record names and indices; winding cross-checks live
    with the bundle catalogs.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    zeros: tuple[Zero, ...] = ()


def section_pullback_form(
    chart: BundleChart,
    P: InvariantPolynomial,
    section: Section,
) -> FormField:
    """s*(PhiP) as a (2k-1)-form on the base chart.

    At points x (..., n) and tangents v_i the section is called once, on the
    stencil stack (2(2k-1)+1, ..., n) of x and x +- h v_i, and the chart is
    re-centered at the stack of section values at x.
    """

    def ev(x, tangents):
        ch, vts = _recentered(chart, section.value, x, tangents)
        return phi_p_form(ch, P)(ch.point(x), [ch.point(v, vt) for v, vt in zip(tangents, vts)])

    return FormField(chart.base_dim, 2 * P.degree - 1, ev)


@dataclass(frozen=True)
class ChainSpec:
    """A chain plus the names of the section zeros its support contains."""

    chain: ParametrizedChain
    zeros_inside: tuple[str, ...] = ()


@dataclass(frozen=True)
class ObstructionReport:
    lhs: float
    index_sum: int
    boundary_term: float
    residual: float


def obstruction_identity_check(
    chart: BundleChart,
    P: InvariantPolynomial,
    chainspec: ChainSpec,
    section: Section,
    quad_order: int | Sequence[int] = 24,
    boundary_quad_order: int = 48,
) -> ObstructionReport:
    """Check integral P(Omega) over the chain = index sum + boundary term.

    Orientations: the chain carries its own parametrization orientation, each
    boundary component the sign induced by it, and indices are plain chart
    windings of the section around its zeros.  With those conventions the
    identity holds with both right-hand terms entering positively.
    """
    zero_names = {z.name for z in section.zeros}
    missing = set(chainspec.zeros_inside) - zero_names
    if missing:
        raise ValueError(f"chain expects zeros {missing} the section does not have")
    lhs = integrate(char_form(chart, P), chainspec.chain, quad_order)
    index_sum = sum(z.index for z in section.zeros if z.name in chainspec.zeros_inside)
    sform = section_pullback_form(chart, P, section)
    boundary_term = 0.0
    for bchain, sign in chainspec.chain.boundary:
        boundary_term += sign * integrate(sform, bchain, boundary_quad_order)
    return ObstructionReport(lhs, index_sum, boundary_term, abs(lhs - index_sum - boundary_term))
