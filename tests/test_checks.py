"""Guards of the named checks that do not need a full sweep."""

from dataclasses import replace

import numpy as np
import pytest

from csforms import bundles, checks
from csforms.liealg import random_group_element
from csforms.zoo import get_bundle


def test_sweep_over_zero_points_is_rejected():
    # a sweep over no points would report a passing worst residual of 0
    with pytest.raises(ValueError, match="at least one point"):
        checks.heterotic_sweep("ut_s2", points=0)
    with pytest.raises(ValueError, match="at least one point"):
        checks.closedness_checks(points=0)
    with pytest.raises(ValueError, match="at least one point"):
        checks.vanishing_sweep(points=0)
    with pytest.raises(ValueError, match="at least one point"):
        checks.pontryagin_checks(points=0)


def test_sweep_keeps_one_maximum_per_value():
    values = iter([(1.0, -4.0), (-3.0, 2.0)])
    worst = checks._sweep(get_bundle("ut_s2"), np.random.default_rng(0), 2, 2, lambda ch, pt, tg: next(values))
    assert list(worst) == [3.0, 4.0]


def test_sweep_with_a_nan_residual_fails_its_record():
    # a plain max() would drop the NaN and report the other points' residual
    values = iter([1e-12, float("nan"), 1e-12])
    worst = checks._sweep(get_bundle("ut_s2"), np.random.default_rng(0), 3, 2, lambda ch, pt, tg: next(values))
    assert np.isnan(worst)
    assert not checks._rec("nan", "a NaN residual", worst, 0.0, 1e-4).passed


def test_sweep_draw_order():
    # per point: g0, then x, then the tangents, so a report depends only on the seed
    b = get_bundle("ut_s2")
    seen = []
    checks._sweep(b, np.random.default_rng(5), 2, 3, lambda ch, pt, tg: seen.append((ch.reference(), pt, tg)) or 0.0)
    rng = np.random.default_rng(5)
    for ref, pt, tg in seen:
        g0 = random_group_element(b.chart.algebra, rng, 0.7)
        x = rng.uniform(-1.2, 1.2, b.chart.base_dim)
        assert np.array_equal(ref, g0) and np.array_equal(pt, b.chart.at(g0).point(x))
        assert all(np.array_equal(t, rng.standard_normal(b.chart.dim)) for t in tg)


def test_chern_number_takes_the_default_order_of_a_2d_chain():
    # no order given: the order _chain_orders gives the S^2 chain
    (r,) = checks.chern_number_checks()
    (same,) = checks.chern_number_checks(quad_order=checks._DEFAULT_ORDER[2])
    assert r == same and r.passed
    for bad in (0, 100000):
        with pytest.raises(ValueError):
            checks.chern_number_checks(quad_order=bad)


def test_with_tolerance_rejudges_a_record():
    (r,) = checks.chern_number_checks(quad_order=6)
    loose, tight = r.with_tolerance(1.0), r.with_tolerance(0.0)
    assert loose.passed and loose.tolerance == 1.0 and not tight.passed
    assert (loose.name, loose.anchor, loose.computed, loose.extra) == (r.name, r.anchor, r.computed, r.extra)


def test_vacuous_heterotic_sweep_fails_at_any_tolerance():
    # on a flat so(4) bundle P(Omega) = P(Psi) = 0, and twisted_u2:u1's split kills its
    # default c_2 on Psi as well as on Omega: a residual of 0 proves nothing
    for bundle, poly in (("flat:so4:3", "euler"), ("twisted_u2:u1", None)):
        (r,) = checks.heterotic_sweep(bundle, poly, points=3)
        assert abs(r.computed) <= r.tolerance and r.extra["scale"] < checks.NONVACUITY_FLOOR
        assert not r.passed and not r.with_tolerance(1.0).passed


def test_heterotic_sweep_records_its_scale():
    (r,) = checks.heterotic_sweep("ut_s2", points=3)
    assert r.passed and r.extra["scale"] >= 1e-3


def test_pontryagin_split_reads_both_splits_from_one_context(monkeypatch):
    # per split point one context and one Omega pair table serve P1(Psi1),
    # P1(Psi2) and P1(Omega); the sum rule keeps its three per point
    counts = {"contexts": 0, "pair_tables": 0}
    init, pair_table = bundles._ChartContext.__init__, bundles._pair_table

    def counted_init(self, *args):
        counts["contexts"] += 1
        init(self, *args)

    def counted_pair_table(*args):
        counts["pair_tables"] += 1
        return pair_table(*args)

    monkeypatch.setattr(bundles._ChartContext, "__init__", counted_init)
    monkeypatch.setattr(bundles, "_pair_table", counted_pair_table)
    records = checks.pontryagin_checks(points=100)
    assert all(r.passed for r in records)
    assert counts == {"contexts": 100 + 3 * 10, "pair_tables": 100 + 3 * 10}


def _psi_bianchi_records():
    return {r.name: r for r in checks.calculus_identity_checks(seed=0) if r.name.startswith("psi_bianchi_")}


def test_psi_bianchi_records_pass_with_their_scale():
    records = _psi_bianchi_records()
    assert sorted(records) == [
        "psi_bianchi_frame_s4",
        "psi_bianchi_frame_s4:b1",
        "psi_bianchi_frame_s4:b2",
        "psi_bianchi_frame_s6",
        "psi_bianchi_twisted_u2:su2",
        "psi_bianchi_twisted_u2:u1",
    ]
    for r in records.values():
        assert r.passed and r.tolerance == 1e-5 and r.extra["scale"] > 0.1


def test_psi_bianchi_record_catches_a_sign_error_in_psi(monkeypatch):
    # Psi = pr_h(Omega + [phi, phi]) in place of pr_h(Omega - (1/2)[phi, phi]):
    # on frame_s4 [p, p] has an h part, so the Bianchi identity of psi fails
    correct = bundles._ChartContext.tables

    def wrong_sign(ctx, split):
        phi, pp, psi, om = correct(ctx, split)
        # without a split Psi is zero, and there is no sign to get wrong
        return phi, pp, psi if split is None else split.project_h(om + pp), om

    monkeypatch.setattr(bundles._ChartContext, "tables", wrong_sign)
    r = _psi_bianchi_records()["psi_bianchi_frame_s4"]
    assert not r.passed and r.computed > 0.1


def test_covariant_derivative_records_fail_on_a_curvature_that_does_not_match_its_potential(monkeypatch):
    # on a 2-D base every 3-form of base directions vanishes, so D_w Omega = 0
    # holds for any curvature there; each record must see a curvature scaled
    # by 1 + x_0^2
    def bumped(name):
        b = get_bundle(name)
        F = b.chart.curvature_field

        def scaled(x):
            return (1.0 + x[..., 0] ** 2)[..., None, None, None, None] * F(x)

        return replace(b, chart=replace(b.chart, curvature_field=scaled))

    monkeypatch.setattr(checks, "get_bundle", bumped)
    records = [r for r in checks.calculus_identity_checks() if r.name.startswith("covariant_derivative_")]
    assert len(records) == 2 and not any(r.passed for r in records)


def test_pontryagin_sum_rule_fails_when_the_derivatives_vanish():
    # at a step of 1e-300 every difference quotient is exactly 0, and the two
    # sides cancel only because both are zero
    records = {r.name: r for r in checks.pontryagin_checks(points=3, fd_step=1e-300)}
    assert not records["pontryagin_sum_rule"].passed
    assert records["pontryagin_sum_rule"].extra["scale"] == 0.0
