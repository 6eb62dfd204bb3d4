"""The quadrature layer: the product rule, stencil stacks and node chunks.

gauss_product is checked bit for bit against a meshgrid construction of the
same rule, and its node cap at the boundary.  Every central difference of a
parametrized map (a fiber lift, a section, a winding map) is one call of
the map on the stacked stencil, and a chain's frame is one call per chunk
of nodes, with no differences at all.  integrate is the one
quadrature driver: fiber integrals and winding degrees each call it once,
on a box chain, and it evaluates its nodes in chunks of at most
calculus._CHUNK.  The call counts and the shapes the callbacks receive are
recorded here, chunked sums are compared with one-chunk sums with the chunk
size patched small, and the peak memory of a fiber integral at order 32 is
bounded.
"""

import tracemalloc
from dataclasses import replace
from math import pi

import numpy as np
import pytest

from csforms import bundles, calculus, zoo
from csforms.bundles import Section, char_form, fiber_integral, phi_p_form, section_pullback_form
from csforms.calculus import MAX_QUAD_NODES, MAX_QUAD_ORDER, FormField, _box_chain, gauss_product, integrate
from csforms.invariants import make_polynomial
from csforms.liealg import so4_to_quaternion_pair
from csforms.zoo import _angles, _volume_pullback_integral, get_bundle, south_transition_frame, winding_degree

REL = 1e-13


def meshgrid_rule(intervals, orders):
    """The tensor-product rule from two meshgrids and a stack."""
    xs, ws = [], []
    for o, (lo, hi) in zip(orders, intervals):
        x, w = np.polynomial.legendre.leggauss(o)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        xs.append(mid + half * x)
        ws.append(half * w)
    nodes = np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1).reshape(-1, len(orders))
    weights = np.prod(np.meshgrid(*ws, indexing="ij"), axis=0).reshape(-1)
    return nodes, weights


@pytest.mark.parametrize("orders", [(7,), (3, 5), (4, 1, 6), (2, 3, 1, 4), (3, 2, 5, 1, 2)])
def test_gauss_product_matches_meshgrid_rule(orders):
    rng = np.random.default_rng(len(orders))
    lows = rng.uniform(-2.0, 1.0, len(orders))
    intervals = tuple((lo, lo + w) for lo, w in zip(lows, rng.uniform(0.1, 3.0, len(orders))))
    nodes, weights = gauss_product(intervals, orders)
    ref_nodes, ref_weights = meshgrid_rule(intervals, orders)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
    same, _ = gauss_product(intervals, orders[0])
    assert np.array_equal(same, meshgrid_rule(intervals, (orders[0],) * len(orders))[0])


@pytest.mark.parametrize("order", [2.5, (3, 2.5), (3.0, np.float64(1.5))])
def test_gauss_product_rejects_non_integral_orders(order):
    with pytest.raises(ValueError, match="integers"):
        gauss_product(((0.0, 1.0), (0.0, 1.0)), order)


def test_gauss_product_accepts_integral_floats():
    intervals = ((0.0, 1.0), (0.0, 2.0))
    assert all(np.array_equal(a, b) for a, b in zip(gauss_product(intervals, 3.0), gauss_product(intervals, 3)))


def test_gauss_product_caps_the_node_count():
    cube = ((0.0, 1.0),) * 3
    nodes, weights = gauss_product(cube, (64, 64, 128))
    assert len(nodes) == len(weights) == MAX_QUAD_NODES
    for orders in ((64, 64, 129), (1024, 1024, 1024)):
        with pytest.raises(ValueError, match="nodes"):
            gauss_product(cube, orders)
    with pytest.raises(ValueError, match="nodes"):
        gauss_product(((0.0, 1.0),), MAX_QUAD_NODES + 1)


def test_gauss_product_caps_the_order_of_each_axis():
    # an order-n rule is built from an n x n matrix, whatever the node count
    with pytest.raises(ValueError, match=f"exceed {MAX_QUAD_ORDER} on one axis"):
        gauss_product(((0.0, 1.0),), MAX_QUAD_ORDER + 1)
    with pytest.raises(ValueError, match="one axis"):
        gauss_product(((0.0, 1.0), (0.0, 1.0)), (1, MAX_QUAD_ORDER + 1))


def test_box_chain_is_the_box_in_its_own_coordinates():
    box = _box_chain("box", ((0.0, 1.0), (-1.0, 2.0), (0.5, 0.75)))
    assert box.param_dim == 3
    nodes = np.random.default_rng(5).uniform(-1, 1, (7, 3))
    points, tangents = box.frame(nodes)
    assert np.array_equal(points, nodes)
    assert tangents.shape == (7, 3, 3) and np.array_equal(tangents, np.broadcast_to(np.eye(3), (7, 3, 3)))


# --- one call per stencil ------------------------------------------------------

def counting(f, calls):
    """f, appending the shape of each input it receives to calls."""

    def wrapped(x):
        calls.append(np.shape(x))
        return f(x)

    return wrapped


def phi_p_at(P):
    return lambda ch: phi_p_form(ch, P)


def test_fiber_lift_called_once_per_chunk(monkeypatch):
    fs = get_bundle("frame_s4")
    calls = []
    fiber = replace(fs.fiber, lift=counting(fs.fiber.lift, calls))
    base = np.random.default_rng(1).uniform(-1.2, 1.2, 4)
    P = fs.polynomial()
    whole = fiber_integral(fs.chart, phi_p_at(P), base, fiber, (6, 6, 1))
    # the 36 nodes and their 6 stencil points, (2p + 1, N, p)
    assert calls == [(7, 36, 3)]
    calls.clear()
    monkeypatch.setattr(calculus, "_CHUNK", 10)
    chunked = fiber_integral(fs.chart, phi_p_at(P), base, fiber, (6, 6, 1))
    assert calls == [(7, 10, 3)] * 3 + [(7, 6, 3)]
    assert abs(chunked - whole) <= REL * abs(whole)


def test_fiber_and_degree_integrals_call_integrate_once(monkeypatch):
    chains = []

    def counted(form, chain, quad_order):
        chains.append(chain.intervals)
        return integrate(form, chain, quad_order)

    monkeypatch.setattr(bundles, "integrate", counted)
    monkeypatch.setattr(zoo, "integrate", counted)
    fs = get_bundle("frame_s4")
    fiber_integral(fs.chart, phi_p_at(fs.polynomial()), np.zeros(4), fs.fiber, (4, 4, 2))
    assert chains == [fs.fiber.intervals]
    chains.clear()
    assert winding_degree(lambda s: np.stack([np.cos(s[..., 0]), np.sin(s[..., 0])], axis=-1), 1, 8) == 1
    assert chains == [((0.0, 2 * pi),)]


def test_section_called_once_per_form_evaluation():
    ut = get_bundle("ut_s2")
    calls = []
    source = ut.sections["height_gradient"]
    section = Section(source.name, counting(source.value, calls), source.zeros)
    form = section_pullback_form(ut.chart, make_polynomial("euler", 1, "so2"), section)
    rng = np.random.default_rng(2)
    points, tangents = rng.uniform(-1, 1, (5, 2)), rng.standard_normal((5, 2))
    form(points, [tangents])
    assert calls == [(3, 5, 2)]
    calls.clear()
    ((circle, _),) = ut.chains["cap:pi/3"].chain.boundary
    integrate(form, circle, 48)
    assert calls == [(3, 48, 2)]


def test_polar_chain_frames_each_chunk_once(monkeypatch):
    # one frame call per chunk of nodes, and in it one pass over the angle factors
    ut = get_bundle("ut_s2")
    frames, factors = [], []
    chain = ut.chains["full_sphere"].chain
    chain = replace(chain, frame=counting(chain.frame, frames))
    monkeypatch.setattr(zoo, "_angle_factors", counting(zoo._angle_factors, factors))
    monkeypatch.setattr(calculus, "_CHUNK", 200)
    # 24 x 24 = 576 nodes in chunks of 200, 200 and 176
    v = integrate(char_form(ut.chart, make_polynomial("euler", 1, "so2")), chain, 24)
    assert frames == [(200, 2), (200, 2), (176, 2)]
    assert factors == [(200, 1), (200, 1), (176, 1)]
    assert abs(v - 2.0) < 1e-8


# --- node chunks ---------------------------------------------------------------

def recording(form, sizes):
    """form, appending the number of points of each call to sizes."""

    def ev(pt, tangents):
        sizes.append(len(pt))
        return form(pt, tangents)

    return FormField(form.dim, form.degree, ev)


def test_integrate_form_never_sees_more_than_a_chunk():
    ut = get_bundle("ut_s2")
    form = char_form(ut.chart, make_polynomial("euler", 1, "so2"))
    sizes = []
    value = integrate(recording(form, sizes), ut.chains["full_sphere"].chain, 80)
    assert sizes == [calculus._CHUNK, 80 * 80 - calculus._CHUNK]
    assert value == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_chunked_integrate_matches_one_chunk(monkeypatch, chunk):
    ut = get_bundle("ut_s2")
    form = char_form(ut.chart, make_polynomial("euler", 1, "so2"))
    cap = ut.chains["cap:pi/3"].chain
    whole = integrate(form, cap, (24, 12))
    monkeypatch.setattr(calculus, "_CHUNK", chunk)
    sizes = []
    chunked = integrate(recording(form, sizes), cap, (24, 12))
    assert max(sizes) == min(chunk, 288) and sum(sizes) == 288
    assert abs(chunked - whole) <= REL * abs(whole)


@pytest.mark.parametrize("name", ["frame_s4:b1", "hopf_u1"])
def test_chunked_fiber_integral_matches_one_chunk(monkeypatch, name):
    b = get_bundle(name)
    order = 24 if name == "hopf_u1" else (6, 6, 1)
    base = np.random.default_rng(4).uniform(-1.2, 1.2, b.chart.base_dim)
    form_at = phi_p_at(b.polynomial())
    whole = fiber_integral(b.chart, form_at, base, b.fiber, order, use_alt_lift=True)
    monkeypatch.setattr(calculus, "_CHUNK", 5)
    sizes = []
    chunked = fiber_integral(b.chart, lambda ch: recording(form_at(ch), sizes), base, b.fiber, order, use_alt_lift=True)
    assert max(sizes) == 5
    assert abs(chunked - whole) <= REL * abs(whole)


def test_chunked_winding_degree_matches_one_chunk(monkeypatch):
    def a1(params):
        return so4_to_quaternion_pair(south_transition_frame(_angles(params)))[0]

    order = (6, 6, 4)
    whole = _volume_pullback_integral(a1, 3, order, align_signs=True)
    monkeypatch.setattr(calculus, "_CHUNK", 11)
    chunked = _volume_pullback_integral(a1, 3, order, align_signs=True)
    assert abs(chunked - whole) <= REL * abs(whole)
    assert winding_degree(a1, 3, order, projective=True) == round(whole / pi**2)


def test_fiber_integral_memory_is_bounded():
    # order 32 is 32,768 nodes: one unchunked evaluation peaks near 270 MiB,
    # chunks of 4,096 nodes near 40 MiB
    fs = get_bundle("frame_s4")
    base = np.random.default_rng(3).uniform(-1.2, 1.2, 4)
    tracemalloc.start()
    try:
        value = fiber_integral(fs.chart, phi_p_at(fs.polynomial()), base, fs.fiber, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1.0, abs=1e-4)
    assert peak < 100 * 2**20
