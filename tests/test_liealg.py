"""Matrix Lie algebra, split, and quaternionic-structure tests."""

import numpy as np
import pytest

from csforms.liealg import (
    algebra_from_tag,
    MAX_MATRIX_SIZE,
    inner_raw,
    left_mult_matrix,
    quat_conj,
    quat_mul,
    random_element,
    random_group_element,
    rot4,
    skew_pair,
    so,
    so4_ideal_split,
    so4_to_quaternion_pair,
    standard_split,
    u,
)
from realified import complexify, realify

rng = np.random.default_rng(11)


def contains(alg, m, tol=1e-10):
    """Membership of a raw matrix in so(n), or in the realified u(n) or
    su(n): real skew matrices that commute with J = (iI)_R."""
    if m.shape != (alg.matrix_size,) * 2 or np.iscomplexobj(m) or not np.max(np.abs(m + m.T), initial=0.0) < tol:
        return False
    if alg.name == "so":
        return True
    J = realify(1j * np.eye(alg.n))
    commutes = np.max(np.abs(J @ m - m @ J)) < tol
    return bool(commutes and (alg.name == "u" or abs(np.trace(complexify(m))) < tol))


def test_bracket_basics():
    e12 = skew_pair(3, 0, 1)
    e23 = skew_pair(3, 1, 2)
    assert np.allclose(e12 @ e12 - e12 @ e12, 0.0)
    # [e12, e23] is proportional to e13 and stays in so(3)
    out = e12 @ e23 - e23 @ e12
    assert contains(so(3), out)
    assert abs(out[0, 2]) > 0.5 and abs(out[0, 1]) < 1e-14 and abs(out[1, 2]) < 1e-14


def test_jacobi_identity_so4():
    alg = so(4)
    x, y, z = (random_element(alg, rng) for _ in range(3))
    s = (
        (x @ y - y @ x) @ z - z @ (x @ y - y @ x)
        + (y @ z - z @ y) @ x - x @ (y @ z - z @ y)
        + (z @ x - x @ z) @ y - y @ (z @ x - x @ z)
    )
    assert np.max(np.abs(s)) < 1e-12


def test_basis_dimensions():
    assert so(4).dim == 6
    assert u(2).dim == 4
    assert algebra_from_tag("su2").dim == 3


@pytest.mark.parametrize(
    "tag, abelian",
    [("so0", True), ("so1", True), ("so2", True), ("so3", False), ("so4", False)]
    + [("u0", True), ("u1", True), ("u2", False)]
    + [("su1", True), ("su2", False), ("su3", False)],
)
def test_is_abelian_reads_the_brackets_of_the_basis(tag, abelian):
    alg = algebra_from_tag(tag)
    assert alg.is_abelian is abelian
    basis = alg.basis()
    largest = max((np.max(np.abs(x @ y - y @ x)) for x in basis for y in basis), default=0.0)
    assert bool(largest == 0.0) is abelian


def test_algebra_membership():
    assert contains(so(3), skew_pair(3, 0, 2))
    assert contains(u(2), realify(1j * np.eye(2)))
    assert not contains(algebra_from_tag("su2"), realify(1j * np.eye(2)))
    # a real skew 4 x 4 matrix that does not commute with J is in so(4), not in u(2)
    assert contains(so(4), skew_pair(4, 0, 1)) and not contains(u(2), skew_pair(4, 0, 1))


@pytest.mark.parametrize(
    "g,h,dim_h,dim_p",
    [("so4", "so3", 3, 3), ("u2", "u1", 1, 3), ("u2", "su2", 3, 1), ("so2", "so1", 0, 1), ("so5", "so4", 6, 4), ("u3", "u2", 4, 5)],
)
def test_standard_split_dimensions(g, h, dim_h, dim_p):
    s = standard_split(g, h)
    assert (len(s.h_basis), len(s.p_basis)) == (dim_h, dim_p)
    # h sits in the lower-right block of each n x n block (one on so, four on the realified u)
    n = s.algebra.n
    r, off = s.algebra.matrix_size // n, n - int(h[-1])
    blocks = [b.reshape(r, n, r, n) for b in s.h_basis]
    assert not any(np.any(b[:, :off]) or np.any(b[:, :, :, :off]) for b in blocks)
    assert all(contains(s.algebra, b) for b in s.h_basis + s.p_basis)


@pytest.mark.parametrize("g,h", [("so4", "so2"), ("so4", "su3"), ("u2", "u3"), ("u2", "su1"), ("u2", "so1"), ("su2", "su2")])
def test_unsupported_splits_are_refused(g, h):
    with pytest.raises(ValueError, match="unsupported split"):
        standard_split(g, h)


def test_matrix_size_is_bounded():
    assert so(MAX_MATRIX_SIZE).dim == MAX_MATRIX_SIZE * (MAX_MATRIX_SIZE - 1) // 2
    for family in ("so", "u", "su"):
        with pytest.raises(ValueError, match=f"<= {MAX_MATRIX_SIZE}, got"):
            algebra_from_tag(f"{family}{MAX_MATRIX_SIZE + 1}")


def test_determinant_bundle_p_is_center():
    s = standard_split("u2", "su2")
    (p,) = s.p_basis
    J = realify(1j * np.eye(2))
    assert abs(p[2, 0]) > 0.1 and np.allclose(p, p[2, 0] * J)


def test_split_completeness_and_reductivity():
    for s in (standard_split("so4", "so3"), standard_split("u2", "u1"), standard_split("u2", "su2")):
        for _ in range(5):
            x = random_element(s.algebra, rng)
            assert np.max(np.abs(s.project_h(x) + s.project_p(x) - x)) < 1e-12
        # [h, p] stays in p
        for _ in range(5):
            h = s.project_h(random_element(s.algebra, rng))
            p = s.project_p(random_element(s.algebra, rng))
            c = h @ p - p @ h
            assert np.max(np.abs(s.project_p(c) - c)) < 1e-12


def test_sphere_split_is_symmetric_pair():
    # [p, p] lands in h for the so(2k)/so(2k-1) splits
    for tag in (("so2", "so1"), ("so4", "so3")):
        s = standard_split(*tag)
        for _ in range(5):
            p1 = s.project_p(random_element(s.algebra, rng))
            p2 = s.project_p(random_element(s.algebra, rng))
            c = p1 @ p2 - p2 @ p1
            assert np.max(np.abs(s.project_h(c) - c)) < 1e-12


def test_so4_ideal_split_structure():
    s1, s2 = so4_ideal_split()
    assert s1.h_basis is s2.p_basis or all(
        np.allclose(a, b) for a, b in zip(s1.h_basis, s2.p_basis)
    )
    # all nine cross brackets vanish identically
    for h in s1.h_basis:
        for p in s1.p_basis:
            assert np.max(np.abs(h @ p - p @ h)) == 0.0
    # each factor is closed under the bracket
    for basis in (s1.h_basis, s1.p_basis):
        for a in basis:
            for b in basis:
                c = a @ b - b @ a
                coords = sum(inner_raw(c, q) * q for q in basis)
                assert np.max(np.abs(coords - c)) < 1e-12
    # projection completeness
    x = random_element(so(4), rng)
    assert np.max(np.abs(s1.project_h(x) + s1.project_p(x) - x)) < 1e-12


def test_trace_form_splits_over_ideals():
    s1, _ = so4_ideal_split()
    for _ in range(5):
        x = random_element(so(4), rng)
        th = np.trace(s1.project_h(x) @ s1.project_h(x))
        tp = np.trace(s1.project_p(x) @ s1.project_p(x))
        assert abs(np.trace(x @ x) - th - tp) < 1e-12


def table_structures():
    """I and K on the standard frame from their defining table: I e1 = e2,
    I e3 = e4 and K e1 = e3, K e2 = e4, each extended skew; J = K I."""
    I = skew_pair(4, 1, 0) + skew_pair(4, 3, 2)
    K = skew_pair(4, 2, 0) + skew_pair(4, 3, 1)
    return I, K @ I, K


def test_quaternionic_structures_table():
    I, J, K = table_structures()
    e = np.eye(4)
    assert np.allclose(I @ e[:, 0], e[:, 1])
    assert np.allclose(I @ e[:, 2], e[:, 3])
    assert np.allclose(K @ e[:, 0], e[:, 2])
    assert np.allclose(K @ e[:, 1], e[:, 3])
    assert np.allclose(I @ I, -np.eye(4))
    assert np.allclose(K @ K, -np.eye(4))
    # the defining table makes I and K commute: J = KI = IK is an involution
    # pairing the two ideals, not a third complex structure
    assert np.allclose(I @ K, K @ I)
    assert np.allclose(J, K @ I)
    assert np.allclose(J @ J, np.eye(4))
    # I is left multiplication by i, K right multiplication by j
    i, j = np.eye(4)[1], np.eye(4)[2]
    for x in rng.standard_normal((3, 4)):
        assert np.allclose(I @ x, quat_mul(i, x))
        assert np.allclose(K @ x, quat_mul(x, j))


def test_ideal_labels_match_structures():
    # h1 is the su(2) commuting with I (anti-self-dual side), h2 with K
    I, _, K = table_structures()
    s1, s2 = so4_ideal_split()
    for h in s1.h_basis:
        assert np.max(np.abs(h @ I - I @ h)) < 1e-12
    for h in s2.h_basis:
        assert np.max(np.abs(h @ K - K @ h)) < 1e-12
    # I itself lives in the self-dual ideal, K in the anti-self-dual one
    assert np.max(np.abs(s1.project_p(I) - I)) < 1e-12
    assert np.max(np.abs(s1.project_h(K) - K)) < 1e-12


def test_quaternion_helpers():
    one = np.array([1.0, 0, 0, 0])
    i = np.array([0.0, 1, 0, 0])
    j = np.array([0.0, 0, 1, 0])
    k = np.array([0.0, 0, 0, 1])
    assert np.allclose(quat_mul(i, j), k)
    assert np.allclose(quat_mul(j, i), -k)
    assert np.allclose(quat_conj(quat_mul(i, j)), quat_mul(quat_conj(j), quat_conj(i)))
    assert np.allclose(left_mult_matrix(i) @ one, i)


def test_so4_quaternion_pair_roundtrip():
    for _ in range(10):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        R = rot4(a, b)
        a2, b2 = so4_to_quaternion_pair(R)
        sign = np.sign(a @ a2)
        assert np.allclose(sign * a2, a, atol=1e-10)
        assert np.allclose(sign * b2, b, atol=1e-10)


def test_quaternion_matrices_match_quat_mul():
    # the closed-form 4x4 matrices against quat_mul products, the reference
    for _ in range(10):
        a, b, x = rng.standard_normal((3, 4))
        assert np.max(np.abs(left_mult_matrix(a) @ x - quat_mul(a, x))) < 1e-14
        expected = quat_mul(quat_mul(a, x), quat_conj(b))
        assert np.max(np.abs(rot4(a, b) @ x - expected)) < 1e-13


@pytest.mark.parametrize("tag", ["so3", "so4", "u1", "u2", "u3", "su2", "su3"])
def test_bases_splits_and_group_elements_are_real(tag):
    # u(n) and su(n) are stored as real 2n x 2n matrices that commute with J
    alg = algebra_from_tag(tag)
    assert alg.matrix_size == (alg.n if alg.name == "so" else 2 * alg.n)
    assert alg.identity().dtype == np.float64 and alg.identity().shape == (alg.matrix_size,) * 2
    for b in alg.basis():
        assert b.dtype == np.float64 and contains(alg, b)
    local = np.random.default_rng(3)
    g = random_group_element(alg, local, 0.7)
    assert g.dtype == np.float64 and np.allclose(g.T @ g, np.eye(alg.matrix_size), rtol=0, atol=1e-14)
    x = random_element(alg, local)
    assert x.dtype == np.float64 and contains(alg, x)
    if alg.name == "u" and alg.n >= 2:
        s = standard_split(tag, f"u{alg.n - 1}")
        assert all(b.dtype == np.float64 for b in s.h_basis + s.p_basis)
        assert s.project_h(x).dtype == np.float64 and s.project_p(x).dtype == np.float64


def test_realified_basis_is_the_complex_basis():
    # the complex matrices behind the stored u(2) basis: i E_aa, then E_ab - E_ba and i(E_ab + E_ba)
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
    want = [1j * np.diag([1.0, 0.0]), 1j * np.diag([0.0, 1.0]), e01 - e01.T, 1j * (e01 + e01.T)]
    got = [complexify(b) for b in u(2).basis()]
    assert all(np.array_equal(g, w) for g, w in zip(got, want)) and len(got) == 4
    assert all(np.array_equal(b, realify(complexify(b))) for b in u(2).basis())
    # the inner product is -tr(XY), twice -Re tr_C on the realified u(n)
    x, y = random_element(u(3), rng), random_element(u(3), rng)
    assert inner_raw(x, y) == pytest.approx(-2 * np.trace(complexify(x) @ complexify(y)).real, rel=1e-13)
