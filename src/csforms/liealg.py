"""Matrix Lie algebras so(n), u(n), su(n) and reductive splits g = h + p.

Elements are plain real square numpy matrices tagged with their algebra.
u(n) and su(n) are realified at construction, X = A + iB as the 2n x 2n
X_R = [[A, -B], [B, A]] (_realify): the real skew matrices that commute with
J = (iI)_R.  The map respects products, brackets and exponentials; the tag
keeps n, matrix_size is 2n.  The inner product used everywhere is <X, Y> =
-tr(XY) (twice -Re tr_C(XY) on u(n)), which is positive definite on skew
matrices and makes the shipped splits orthogonal.  A ReductiveSplit carries
projection callables acting on raw matrices; [h, p] subset p holds for every
split built here because p is the orthogonal complement of a subalgebra
under an invariant form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations
import numpy as np

from ._expm import expm

__all__ = [
    "MatrixLieAlgebra",
    "ReductiveSplit",
    "so",
    "u",
    "algebra_from_tag",
    "standard_split",
    "so4_ideal_split",
    "random_element",
    "random_group_element",
]

# the largest tag size n of an algebra: a basis holds about n^2/2 dense
# matrices of n^2 or (on u, su) 4n^2 entries; the shipped bundles stop at n = 6
MAX_MATRIX_SIZE = 16


def _e(n: int, a: int, b: int) -> np.ndarray:
    m = np.zeros((n, n))
    m[a, b] = 1.0
    return m


def skew_pair(n: int, a: int, b: int) -> np.ndarray:
    """E_ab - E_ba, the standard so(n) basis element (0-indexed)."""
    return _e(n, a, b) - _e(n, b, a)


def _realify(x: np.ndarray) -> np.ndarray:
    """X = A + iB (..., n, n) as the real matrices [[A, -B], [B, A]] (..., 2n, 2n)."""
    a, b = x.real, x.imag
    return np.block([[a, -b], [b, a]])


def _imaginary_unit(n: int) -> np.ndarray:
    """J = (iI)_R, the real 2n x 2n matrix of multiplication by i."""
    return _realify(1j * np.eye(n))


def _basis(name: str, n: int, off: int = 0) -> tuple[np.ndarray, ...]:
    """The basis of name(n), realified on u and su, in the lower-right n x n
    block of matrices of size n + off."""
    e, ks = partial(_e, n + off), range(off, n + off)
    pairs = list(combinations(ks, 2))
    if name == "so":
        return tuple(e(a, b) - e(b, a) for a, b in pairs)
    if name not in ("u", "su"):
        raise ValueError(f"unknown algebra family {name!r}")
    diagonal = [e(a, a) for a in ks] if name == "u" else [e(a, a) - e(ks[-1], ks[-1]) for a in ks[:-1]]
    off_diagonal = [m for a, b in pairs for m in (e(a, b) - e(b, a), 1j * (e(a, b) + e(b, a)))]
    return tuple(_realify(m) for m in [1j * d for d in diagonal] + off_diagonal)


@dataclass(frozen=True)
class MatrixLieAlgebra:
    """Tag plus real basis of a compact matrix Lie algebra."""

    name: str  # "so" | "u" | "su"
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_MATRIX_SIZE:
            raise ValueError(f"matrix size must be >= 0 and <= {MAX_MATRIX_SIZE}, got {self.name}({self.n})")

    @property
    def tag(self) -> str:
        return f"{self.name}({self.n})"

    @property
    def matrix_size(self) -> int:
        """Size of the stored matrices: n on so(n), 2n on the realified u(n), su(n)."""
        return self.n if self.name == "so" else 2 * self.n

    @property
    def dim(self) -> int:
        return len(self.basis())

    @lru_cache(maxsize=None)
    def basis(self) -> tuple[np.ndarray, ...]:
        return _basis(self.name, self.n)

    @cached_property
    def is_abelian(self) -> bool:
        """Whether every bracket [B_i, B_j] of the basis is exactly zero:
        so(0..2), u(0..1) and su(0..1)."""
        basis = self.basis()
        return not any(np.any(x @ y - y @ x) for i, x in enumerate(basis) for y in basis[i + 1 :])

    @lru_cache(maxsize=None)
    def _frame(self) -> "_StackedBasis":
        return _StackedBasis(self.basis(), self.matrix_size)

    def coords(self, m: np.ndarray) -> np.ndarray:
        """Real coefficients of m in the stored basis (exact for members of
        the algebra); m may be a stack (..., N, N)."""
        return self._frame().coords(m)

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        """sum_i c_i B_i; c may be a stack (..., dim)."""
        return self._frame().combine(c)

    def identity(self) -> np.ndarray:
        return np.eye(self.matrix_size)


def so(n: int) -> MatrixLieAlgebra:
    return MatrixLieAlgebra("so", n)


def u(n: int) -> MatrixLieAlgebra:
    return MatrixLieAlgebra("u", n)


def algebra_from_tag(tag: str) -> MatrixLieAlgebra:
    """Parse tags like "so4", "so(4)", "u2", "su2"; a size below 0 raises
    ValueError, size 0 (and so(1)) gives the zero algebra."""
    m = re.fullmatch(r"(so|su|u)(-?\d+)", tag.lower().replace("(", "").replace(")", "").strip())
    if m is None:
        raise ValueError(f"cannot parse algebra tag {tag!r}: expected so<n>, su<n> or u<n> with an integer n")
    return MatrixLieAlgebra(m[1], int(m[2]))


def inner_raw(x: np.ndarray, y: np.ndarray) -> float:
    """<X, Y> = -tr(XY)."""
    return float(-np.trace(x @ y))


class _StackedBasis:
    """A basis of N x N matrices stacked for products: coordinates and linear
    combinations of a matrix, or of a stack of them, in one product each."""

    def __init__(self, basis, N: int):
        self.N = N
        self.flat = np.array(basis, dtype=float).reshape(len(basis), N * N)
        # <X, B_b> = -tr(X B_b) = (X.ravel() @ pair)[b]
        pair = -np.array([b.T for b in basis], dtype=float).reshape(len(basis), N * N).T
        self.dual = pair @ np.linalg.inv(self.flat @ pair)

    def coords(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m)
        return m.reshape(m.shape[:-2] + (self.N * self.N,)) @ self.dual

    def combine(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        return (c @ self.flat).reshape(c.shape[:-1] + (self.N, self.N))


def _orthonormalize(vecs: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for v in vecs:
        w = v
        for q in out:
            w = w - inner_raw(w, q) * q
        nrm = np.sqrt(inner_raw(w, w))
        if nrm > 1e-12:
            out.append(w / nrm)
    return out


@dataclass(frozen=True)
class ReductiveSplit:
    """Orthogonal decomposition g = h + p with h a subalgebra.

    project_h / project_p act on raw matrices or stacks of them, as products
    with the stacked orthonormal basis (cached per split).  Orthogonality
    under the invariant form gives [h, p] subset p automatically; [p, p]
    subset h only in the symmetric cases (e.g. so(n)/so(n-1)).
    """

    algebra: MatrixLieAlgebra
    h_basis: tuple[np.ndarray, ...]
    p_basis: tuple[np.ndarray, ...]
    label: str = ""

    @cached_property
    def _h_frame(self) -> _StackedBasis:
        return _StackedBasis(self.h_basis, self.algebra.matrix_size)

    @cached_property
    def _p_frame(self) -> _StackedBasis:
        return _StackedBasis(self.p_basis, self.algebra.matrix_size)

    def project_h(self, m: np.ndarray) -> np.ndarray:
        return self._h_frame.combine(self._h_frame.coords(m))

    def project_p(self, m: np.ndarray) -> np.ndarray:
        return self._p_frame.combine(self._p_frame.coords(m))


def standard_split(gtag: str, htag: str) -> ReductiveSplit:
    """Reductive splits for the shipped naturally-associated families.

    Supported pairs (case-insensitive), h in the lower-right block (of the
    complex matrices, on u):
      (SO(n), SO(n-1))   stabilizer of e1, sphere-bundle case
      (U(n),  U(n-1))    stabilizer block, odd-sphere-bundle case
      (U(n),  SU(n))     determinant-bundle case, p = the center, spanned by J
      (U(n),  U(j))      Stiefel case, h = 0_{n-j} + u(j); j = n gives h = g
    """
    g, h = algebra_from_tag(gtag), algebra_from_tag(htag)
    if (g.name, h.name) == ("so", "so"):
        supported = h.n == g.n - 1
    else:
        supported = g.name == "u" and ((h.name, h.n) == ("su", g.n) or (h.name == "u" and h.n <= g.n))
    if not supported:
        raise ValueError(f"unsupported split ({gtag}, {htag})")
    # one Gram-Schmidt pass over the basis of h, then that of g, whose survivors span p
    h_raw = _basis(h.name, h.n, g.n - h.n)
    q = _orthonormalize([*h_raw, *g.basis()])
    return ReductiveSplit(g, tuple(q[: len(h_raw)]), tuple(q[len(h_raw) :]), f"{g.tag}/{h.tag}")


# --- the so(4) ideal decomposition -----------------------------------------

def _self_dual_basis() -> list[np.ndarray]:
    # second element negated so the triple is bracket-cyclic with +1 structure
    # constants after orthonormalization, matching the anti-self-dual triple
    return [
        skew_pair(4, 0, 1) + skew_pair(4, 2, 3),
        skew_pair(4, 1, 3) - skew_pair(4, 0, 2),
        skew_pair(4, 0, 3) + skew_pair(4, 1, 2),
    ]


def _anti_self_dual_basis() -> list[np.ndarray]:
    return [
        skew_pair(4, 0, 1) - skew_pair(4, 2, 3),
        skew_pair(4, 0, 2) + skew_pair(4, 1, 3),
        skew_pair(4, 0, 3) - skew_pair(4, 1, 2),
    ]


def so4_ideal_split() -> tuple[ReductiveSplit, ReductiveSplit]:
    """The two su(2) ideals of so(4) as complementary reductive splits.

    Returns (split1, split2) with h1 = p2 = anti-self-dual ideal and
    p1 = h2 = self-dual ideal.  h1 is the Lie algebra of the subgroup fixing
    the complex structure I (I e1 = e2, I e3 = e4: left multiplication by i)
    and h2 that of the subgroup fixing K (K e1 = e3, K e2 = e4: right
    multiplication by j); tests/test_liealg.py::test_ideal_labels_match_structures
    verifies that identification rather than assuming it.
    """
    g = so(4)
    asd = _orthonormalize(_anti_self_dual_basis())
    sd = _orthonormalize(_self_dual_basis())
    s1 = ReductiveSplit(g, tuple(asd), tuple(sd), "so(4): h1 = anti-self-dual")
    s2 = ReductiveSplit(g, tuple(sd), tuple(asd), "so(4): h2 = self-dual")
    return s1, s2


# --- quaternion helpers (R^4 identified with H via e1..e4 = 1,i,j,k) --------

def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ]
    )


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.asarray(q) * _CONJ


# _LEFT[k] and _RIGHT[k]: the matrices of x -> e_k x and x -> x e_k
_LEFT = np.array([[quat_mul(e, x) for x in np.eye(4)] for e in np.eye(4)]).transpose(0, 2, 1)
_RIGHT = np.array([[quat_mul(x, e) for x in np.eye(4)] for e in np.eye(4)]).transpose(0, 2, 1)


def left_mult_matrix(q: np.ndarray) -> np.ndarray:
    """Matrix of x -> q x; q may be a stack (..., 4), giving (..., 4, 4)."""
    return np.tensordot(q, _LEFT, axes=(-1, 0))


def _right_mult_matrix(q: np.ndarray) -> np.ndarray:
    """Matrix of x -> x q, stacked as left_mult_matrix."""
    return np.tensordot(q, _RIGHT, axes=(-1, 0))


def rot4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of x -> a x conj(b) for unit quaternions a, b (an SO(4) element)."""
    return left_mult_matrix(a) @ _right_mult_matrix(quat_conj(b))


# rot4(e_k, e_l): an orthogonal basis of the 4x4 matrices, each of norm^2 4
_ROT4_BASIS = np.array([[rot4(a, b) for b in np.eye(4)] for a in np.eye(4)])


def so4_to_quaternion_pair(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split R in SO(4) as x -> a x conj(b); the pair is defined up to (-a,-b).

    rot4 is bilinear in (a, b), so the coefficients of R in the basis
    rot4(e_k, e_l) form the rank-one matrix M = a b^T; a is its largest
    column, normalized, and b = M^T a.  R may be a stack (..., 4, 4), split
    in one pass.  Each matrix is checked: the split raises if any entry of
    rot4(a, b) - R, in any matrix of the stack, exceeds 1e-8.  The bound is
    absolute, so one max over the whole stack decides exactly as a max per
    matrix would.  M, its column norms and b are einsums, not BLAS
    products, so a matrix splits to the same bits alone as in a stack.
    """
    R = np.asarray(R, dtype=float)
    M = np.einsum("klij,...ij->...kl", _ROT4_BASIS, R) / 4.0
    col = np.argmax(np.einsum("...kl,...kl->...l", M, M), axis=-1)
    a = np.take_along_axis(M, col[..., None, None], axis=-1)[..., 0]
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = np.einsum("...kl,...k->...l", M, a)
    if np.max(np.abs(rot4(a, b) - R), initial=0.0) > 1e-8:
        raise ValueError("matrix is not in SO(4) within tolerance")
    return a, b


# --- misc -------------------------------------------------------------------

def random_element(algebra: MatrixLieAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    c = rng.standard_normal(algebra.dim) * scale
    return algebra.from_coords(c)


def random_group_element(algebra: MatrixLieAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return expm(random_element(algebra, rng, scale))
