"""Point-evaluated differential forms on chart domains.

Forms are evaluation callbacks, not symbolic expressions: a FormField of
degree p on a d-dimensional chart is a function (point, p tangent vectors) ->
value, where the value is a scalar or a Lie-algebra matrix.  Every callback
broadcasts over leading batch axes: a point is (..., d), each tangent is
(..., d), and the value is (...) for a scalar form or (..., m, m) for a
Lie-valued one.  A single point keeps its plain (d,) shape.  wedge is the
exterior product of scalar forms; Lie-valued forms are bracketed on their
tables of values, by invariants.bracket_tables, the one graded bracket.

The exterior derivative is taken by central finite differences of
coefficient functions along constant extensions of the given tangents.  Its
2(p+1) stencil points are stacked ahead of the caller's batch axes and the
form is called once on the stack, so a form under d always receives one;
only a form that is evaluated directly at single points may ignore the
batch axes.  _d_stencil builds that stack with the point itself as one
more row, and the tangents of every row, so that a caller that also needs
values at the point (the residuals of csforms.bundles) reads them from the
same evaluation; _d_combine takes the differences.  Curvature and the other
ingredients of the bundle identities are supplied analytically elsewhere,
so finite differencing is confined to the verification side of each
identity.

Integration is Gauss-Legendre product quadrature over interval-box parameter
domains (spheres are parametrized by angle boxes with measure-zero seams).
integrate is the one quadrature driver and gauss_product its one rule: a
fiber integral or a winding degree is a form on its parameter box,
integrated over the box as a chain (_box_chain).  integrate evaluates the
integrand on chunks of at most _CHUNK nodes, one call per chunk, and sums
the weighted chunks in node order, so memory stays bounded at any order and
an integral of at most _CHUNK nodes is one call and one dot product.  The
central differences of a parametrized map (a fiber lift, a section, a
winding map) are taken on one stack (2k+1, ..., d) of the points x + s_i,
x - s_i and x (_stencil_values), so the map is called once per stencil;
_stencil_points builds that stack, for d too.  A chain is one map,
ParametrizedChain.frame, which returns the points and the exact tangents
of an (N, p) stack of nodes in one call; integrate pulls a form back
through it, and there is no separate pullback of forms.  A chain is
oriented by its parametrization alone, and each boundary piece carries the
sign induced on it in the (chain, sign) pairs of ParametrizedChain.boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from .invariants import _shuffles

__all__ = [
    "FormField",
    "ParametrizedChain",
    "wedge",
    "exterior_derivative",
    "integrate",
    "gauss_product",
]

DEFAULT_FD_STEP = 1e-4
# the most quadrature nodes integrate evaluates in one call
_CHUNK = 4096
# the most nodes a product rule may have: order 64 on the S^3 fiber (262,144
# nodes) already took 13.9 s, and each doubling of a 3-D order costs 8x more
MAX_QUAD_NODES = 2**19
# the highest order on any one axis: numpy builds an order-n Gauss-Legendre
# rule from an n x n companion matrix (order 2048 takes about 1 s, order
# 100,000 would need about 75 GiB); 2048 = 2N lets a circle of order
# N = 1024 run its boundary circles and its alternate lift at 2N
MAX_QUAD_ORDER = 2048


@dataclass(frozen=True)
class FormField:
    """Alternating p-form on a d-dimensional chart, scalar or Lie-valued.

    The evaluator maps a point (..., d) and p tangents (..., d) to the value
    (...) or (..., m, m), as in the module docstring.
    """

    dim: int
    degree: int
    evaluator: Callable[[np.ndarray, Sequence[np.ndarray]], object]

    def __call__(self, point: np.ndarray, tangents: Sequence[np.ndarray]):
        point = np.asarray(point, dtype=float)
        if len(tangents) != self.degree:
            raise ValueError(f"degree-{self.degree} form got {len(tangents)} tangents")
        return self.evaluator(point, [np.asarray(t, dtype=float) for t in tangents])


def wedge(a: FormField, b: FormField) -> FormField:
    """Exterior product of scalar forms, determinant convention.

    (a ^ b)(X_1..X_{p+q}) = (1/(p! q!)) sum_s sgn(s) a(X_s..) b(X_s..),
    summed once per shuffle (see invariants).
    """
    if a.dim != b.dim:
        raise ValueError("wedge needs forms on the same chart dimension")
    p, q = a.degree, b.degree

    def ev(pt, tangents):
        total = 0.0
        for sign, (ia, ib) in _shuffles((p, q)):
            total = total + sign * a(pt, [tangents[i] for i in ia]) * b(pt, [tangents[i] for i in ib])
        return total

    return FormField(a.dim, p + q, ev)


def exterior_derivative(form: FormField, fd_step: float = DEFAULT_FD_STEP) -> FormField:
    """d(form) via central differences along constant tangent extensions.

    d a (X_0..X_p) = sum_i (-1)^i D_{X_i} [x -> a_x(X_0..^X_i..X_p)].

    The 2(p+1) stencil points x + h X_i and then x - h X_i are stacked
    ahead of the caller's batch axes, (2(p+1), ..., d), each with its p
    remaining tangents stacked the same way, and the form is called once on
    the stack; nested d and d under integrate stack further axes in front.
    These are the rows of _d_stencil without its center row and without
    the trailing tangent X_i, and _d_combine takes the differences.
    """
    p = form.degree

    def ev(pt, tangents):
        points, rows = _d_stencil(pt, tangents, fd_step)
        return _d_combine(form(points[:-1], list(rows[:p, :-1])), fd_step)

    return FormField(form.dim, p + 1, ev)


@lru_cache(maxsize=None)
def _d_rows(n: int) -> np.ndarray:
    """Tangent indices (n, 2n + 1) of the d stencil of n tangents: column i
    and column n + i list 0..^i..n-1 and then i, the last column 0..n-1."""
    rows = [[*range(i), *range(i + 1, n), i] for i in range(n)]
    return np.array(rows * 2 + [list(range(n))]).T


def _d_stencil(point: np.ndarray, tangents: Sequence[np.ndarray], fd_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The stencil of d on the p+1 tangents X_i at the point x (..., d).

    Returns the points (2(p+1)+1, ..., d), first x + h X_i, then x - h X_i,
    then x itself, and a tangent stack (p+1, 2(p+1)+1, ..., d): stencil row
    i and row p+1+i carry X_0..^X_i..X_p followed by X_i, the center row
    X_0..X_p.  A form of degree q <= p read on the first q tangents of
    every row is one evaluation of the whole stencil and of the center.
    """
    point = np.asarray(point, dtype=float)
    _, *tangents = np.broadcast_arrays(point, *tangents)
    tangents = np.stack(tangents)
    return _stencil_points(point, fd_step * tangents), tangents[_d_rows(len(tangents))]


def _d_combine(values: np.ndarray, fd_step: float):
    """sum_i (-1)^i (a(x + h X_i) - a(x - h X_i)) / 2h from the values
    (2(p+1), ...) at the stencil rows of _d_stencil, center row dropped."""
    n = len(values) // 2
    diff = (values[:n] - values[n:]) / (2 * fd_step)
    total = diff[0]
    for i in range(1, n):
        total = total + (-1) ** i * diff[i]
    return total


@dataclass(frozen=True)
class ParametrizedChain:
    """Oriented chain given by one smooth parametrization over an interval box.

    frame takes parameters (..., p) to the chart points (..., d) and their
    tangents (..., d, p), the columns of the map's Jacobian, in one call.
    """

    name: str
    intervals: tuple[tuple[float, float], ...]
    frame: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    # boundary pieces as (chain, sign) with the sign induced by this chain
    boundary: tuple[tuple["ParametrizedChain", int], ...] = ()

    @property
    def param_dim(self) -> int:
        return len(self.intervals)


def _stencil_points(x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The stack (2k+1, ..., d) of the k points x + s_i, the k points
    x - s_i and x itself, for k steps s (k, ..., d) whose point axes
    broadcast against those of x (..., d), aligned on the right as in numpy."""
    k = len(steps)
    steps = steps.reshape((k,) + (1,) * (x.ndim + 1 - steps.ndim) + steps.shape[1:])
    stack = np.empty((2 * k + 1,) + np.broadcast(x, steps[0]).shape)
    np.add(x, steps, out=stack[:k])
    np.subtract(x, steps, out=stack[k : 2 * k])
    stack[-1] = x
    return stack


def _stencil_values(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, steps: np.ndarray):
    """f at x, at x + s_i and at x - s_i for k steps s (k, ..., d).

    f is called once, on the stack of _stencil_points; returns (f(x), the
    k values at x + s_i, the k values at x - s_i).
    """
    k = len(steps)
    values = np.asarray(f(_stencil_points(x, steps)))
    return values[-1], values[:k], values[k : 2 * k]


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _quad_orders(quad_order: int | Sequence[int], d: int) -> list[int]:
    """quad_order as one order for each of d axes; ValueError on a non-integer
    order, one outside 1..MAX_QUAD_ORDER, or more than MAX_QUAD_NODES nodes."""
    orders = [quad_order] * d if np.isscalar(quad_order) else list(quad_order)
    if len(orders) != d:
        raise ValueError(f"need one quadrature order per axis: {d} axes, {len(orders)} orders")
    if any(int(o) != o for o in orders):
        raise ValueError(f"quadrature orders must be integers, got {orders}")
    orders = [int(o) for o in orders]
    if any(o < 1 for o in orders):
        raise ValueError(f"quadrature orders must be >= 1, got {orders}")
    if math.prod(orders) > MAX_QUAD_NODES:
        raise ValueError(f"quadrature orders {orders} give more than {MAX_QUAD_NODES} nodes")
    if max(orders) > MAX_QUAD_ORDER:
        raise ValueError(f"quadrature orders {orders} exceed {MAX_QUAD_ORDER} on one axis")
    return orders


def gauss_product(
    intervals: Sequence[tuple[float, float]], quad_order: int | Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre rule on an interval box.

    quad_order is one order for every axis or one order per axis, each at
    most MAX_QUAD_ORDER, of at most MAX_QUAD_NODES nodes in all.  Returns
    nodes (N, d) in C order (last axis fastest) and weights (N,).
    """
    d = len(intervals)
    orders = _quad_orders(quad_order, d)
    xs, ws = [], []
    for o, (lo, hi) in zip(orders, intervals):
        x, w = _legendre_rule(o)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        xs.append(mid + half * x)
        ws.append(half * w)
    # coordinate i of the nodes varies along axis i of the (o_0, .., o_(d-1)) grid
    nodes = np.empty(orders + [d])
    for i, x in enumerate(xs):
        nodes[..., i] = x.reshape((-1,) + (1,) * (d - 1 - i))
    return nodes.reshape(-1, d), reduce(np.multiply.outer, ws).reshape(-1)


def _box_chain(name: str, intervals: Sequence[tuple[float, float]]) -> ParametrizedChain:
    """The interval box as a chain in its own coordinates: the identity map
    and, at every node, the coordinate axes as tangents."""
    p = len(intervals)
    return ParametrizedChain(name, tuple(intervals), lambda x: (x, np.broadcast_to(np.eye(p), x.shape + (p,))))


def integrate(form: FormField, chain: ParametrizedChain, quad_order: int | Sequence[int]) -> float:
    """Gauss-Legendre product quadrature of the pulled-back density.

    The chain's frame and the form are evaluated once per chunk of at most
    _CHUNK nodes, and the weighted chunks summed in node order.
    """
    if chain.param_dim != form.degree:
        raise ValueError(
            f"chain parameter dimension {chain.param_dim} != form degree {form.degree}"
        )
    nodes, weights = gauss_product(chain.intervals, quad_order)

    def chunk(c):
        points, tangents = chain.frame(nodes[c])
        return float(weights[c] @ form(points, [tangents[..., i] for i in range(form.degree)]))

    return reduce(add, (chunk(slice(start, start + _CHUNK)) for start in range(0, len(weights), _CHUNK)))
