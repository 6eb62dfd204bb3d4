"""The scaled Taylor exponential of real skew-symmetric matrices against scipy as reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm_frechet, schur

from csforms._expm import expm, expm_maurer_cartan, expm_scaling
from csforms.invariants import make_polynomial, pfaffian
from csforms.liealg import algebra_from_tag, random_element, so, so4_ideal_split, u
from realified import complexify, realify

ALGEBRAS = ("so2", "so4", "so6", "u1", "u2", "su2", "u3")
SRC = Path(__file__).resolve().parents[1] / "src"


def schur_expm(x):
    """exp(x) from scipy's complex Schur form x = Q T Q^H, in which T is
    diagonal for a normal x, such as a skew-symmetric one.  scipy.linalg.expm
    is off by up to 2.3e-13 on the scale-10 cases of _cases (against a
    40-digit reference); this form is off by about 1e-15 there."""
    t, q = schur(x, output="complex")
    return ((q * np.exp(np.diag(t))) @ q.conj().T).real


def _repeated_eigenvalue_cases():
    # an so(4) ideal element squares to a multiple of I: two double eigenvalues
    ideal = 2.3 * so4_ideal_split()[0].p_basis[0]
    # i t I in u(2), realified: one eigenvalue pair +-it of multiplicity 2
    scalar = realify(1.7j * np.eye(2))
    rng = np.random.default_rng(5)
    return [
        (ideal, np.array([random_element(so(4), rng) for _ in range(3)])),
        (scalar, np.array([random_element(u(2), rng) for _ in range(3)])),
    ]


def _cases():
    rng = np.random.default_rng(17)
    out = []
    for tag in ALGEBRAS:
        alg = algebra_from_tag(tag)
        for scale in (0.0, 0.7, 3.0, 10.0):
            for _ in range(4):
                x = random_element(alg, rng, scale)
                dxs = np.array([random_element(alg, rng) for _ in range(alg.dim)])
                out.append((x, dxs))
    return out + _repeated_eigenvalue_cases()


@pytest.mark.parametrize("x,dxs", _cases())
def test_matches_scipy(x, dxs):
    assert np.max(np.abs(expm(x) - schur_expm(x))) < 1e-13
    assert expm(x).dtype == np.float64
    ref = np.array([schur_expm(-x) @ expm_frechet(x, dx, compute_expm=False) for dx in dxs])
    mc = expm_maurer_cartan(x, dxs)
    assert np.max(np.abs(mc - ref)) < 1e-12
    assert mc.dtype == np.float64


def test_cases_reach_the_doubling():
    # the largest cases are scaled by 2^-s with s >= 4 before the series
    scalings = [expm_scaling(x) for x, _ in _cases()]
    assert max(s for s, _ in scalings) >= 4
    assert min(s for s, _ in scalings) == 0


@pytest.mark.parametrize("tag", ["so4", "u2"])
def test_stacks_match_matrix_by_matrix(tag):
    alg = algebra_from_tag(tag)
    rng = np.random.default_rng(23)
    xs = np.array([random_element(alg, rng, scale) for scale in (0.0, 0.5, 2.0, 3.0)])
    # directions in front, one stack of matrices per direction
    dxs = np.array([[random_element(alg, rng) for _ in xs] for _ in range(3)])
    stacked = expm(xs)
    mc = expm_maurer_cartan(xs, dxs)
    assert stacked.shape == xs.shape and mc.shape == dxs.shape
    for i, x in enumerate(xs):
        assert np.max(np.abs(stacked[i] - expm(x))) < 1e-14
        assert np.max(np.abs(mc[:, i] - expm_maurer_cartan(x, dxs[:, i]))) < 1e-14


@pytest.mark.parametrize("tag", ["so4", "u2", "u1"])
def test_zero_member_of_a_mixed_stack_is_exact(tag):
    # (s, q) come from the largest member; a zero member still gives exactly
    # I and exactly its direction, and the others match their own scaling
    alg = algebra_from_tag(tag)
    rng = np.random.default_rng(31)
    xs = np.array([random_element(alg, rng, scale) for scale in (0.0, 1e-4, 0.5, 10.0)])
    dxs = np.array([[random_element(alg, rng) for _ in xs] for _ in range(2)])
    assert expm_scaling(xs)[0] >= 4 and expm_scaling(xs[1])[0] == 0
    g, mc = expm(xs), expm_maurer_cartan(xs, dxs)
    assert np.array_equal(g[0], np.eye(alg.matrix_size)) and np.array_equal(mc[:, 0], dxs[:, 0])
    for i in range(1, len(xs)):
        assert np.max(np.abs(g[i] - schur_expm(xs[i]))) < 1e-13
        assert np.max(np.abs(mc[:, i] - expm_maurer_cartan(xs[i], dxs[:, i]))) < 1e-12


@pytest.mark.parametrize("shape", [(0, 3, 3), (0, 0), (2, 0, 0)])
def test_empty_inputs(shape):
    x = np.zeros(shape)
    dxs = np.zeros((2, *shape))
    assert expm_scaling(x) == (0, 0)
    assert expm(x).shape == shape and expm(x).dtype == np.float64
    mc = expm_maurer_cartan(x, dxs)
    assert mc.shape == dxs.shape and mc.dtype == np.float64


@pytest.mark.parametrize("tag", ["so2", "so4", "so6", "u2", "su3"])
def test_real_in_gives_real_out(tag):
    alg = algebra_from_tag(tag)
    rng = np.random.default_rng(37)
    for scale in (1e-4, 0.7, 10.0):
        x = random_element(alg, rng, scale)
        dxs = np.array([random_element(alg, rng) for _ in range(3)])
        assert x.dtype == np.float64
        assert expm(x).dtype == np.float64
        assert expm_maurer_cartan(x, dxs).dtype == np.float64


_NON_FINITE = [
    np.array([[0.0, np.nan], [-1.0, 0.0]]),
    np.array([[0.0, 1.0], [np.nan, 0.0]]),
    np.array([[np.nan, 0.0], [0.0, 0.0]]),
    np.array([[0.0, np.inf], [1.0, 0.0]]),
    np.array([[0.0, 1j * np.nan], [1j, 0.0]]),
]


@pytest.mark.parametrize("x", _NON_FINITE)
def test_rejects_non_finite(x):
    # every comparison with NaN is False: the skew test must fail on it
    with pytest.raises(ValueError, match="skew-symmetric"):
        expm(x)
    with pytest.raises(ValueError, match="skew-symmetric"):
        expm_maurer_cartan(x, np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="skew-symmetric"):
        expm(np.array([np.zeros((2, 2)), x]))


def test_stack_with_one_non_skew_member_raises():
    rng = np.random.default_rng(29)
    xs = np.array([random_element(so(3), rng) for _ in range(4)])
    xs[2, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="skew-symmetric"):
        expm(xs)
    with pytest.raises(ValueError, match="skew-symmetric"):
        expm_maurer_cartan(xs, xs[None])


def test_rejects_non_skew_hermitian():
    sym = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="skew-symmetric"):
        expm(sym)
    with pytest.raises(ValueError, match="skew-symmetric"):
        expm_maurer_cartan(sym, sym[None])
    with pytest.raises(ValueError, match="skew-symmetric"):
        expm(np.eye(2, dtype=complex))


def test_rejects_complex_skew_hermitian_input():
    # u(n) is exponentiated realified; its complex form fails the skew test
    rng = np.random.default_rng(41)
    cases = [1j * np.eye(2), np.array([[0.0, 1.0 + 1.0j], [-1.0 + 1.0j, 0.0]])]
    cases += [complexify(random_element(u(3), rng)) for _ in range(3)]
    for x in cases:
        assert np.max(np.abs(x + x.conj().T)) < 1e-15 and np.any(x.imag)
        with pytest.raises(ValueError, match="skew-symmetric"):
            expm(x)
        with pytest.raises(ValueError, match="skew-symmetric"):
            expm_maurer_cartan(x, x[None])


def test_rejects_a_complex_dtype_even_with_real_entries():
    # the one skew check refuses the dtype before a cast could drop an imaginary part
    x = np.array([[0, 1], [-1, 0]], complex)
    refusers = [expm, lambda x: expm_maurer_cartan(x, x[None]), pfaffian]
    refusers += [make_polynomial(name, 1, tag).value for name, tag in (("chern_j", "u1"), ("euler", "so2"))]
    for f in refusers:
        with pytest.raises(ValueError, match="matrix is complex"):
            f(x)


_NO_SCIPY = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused")
        return None

sys.meta_path.insert(0, Refuse())
import numpy as np
import csforms, csforms.cli
from csforms.bundles import heterotic_residual
from csforms.liealg import random_group_element
from csforms.zoo import get_bundle

b = get_bundle("frame_s4:b1")
P = b.polynomial()
rng = np.random.default_rng(0)
chart = b.chart.at(random_group_element(b.chart.algebra, rng, 0.7))
point = chart.point(rng.uniform(-1, 1, 4))
r = heterotic_residual(chart, P, point, [rng.standard_normal(chart.dim) for _ in range(4)])
assert r < 1e-4, r
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print("ok")
"""


def test_package_runs_without_scipy():
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
