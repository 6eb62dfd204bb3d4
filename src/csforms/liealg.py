"""Matrix Lie algebras so(n), u(n), su(n) and reductive splits g = h + p.

Elements are plain square numpy matrices tagged with their algebra.  The
inner product used everywhere is <X, Y> = -Re tr(XY), which is positive
definite on compact-type matrix algebras and makes the shipped splits
orthogonal.  A ReductiveSplit carries projection callables acting on raw
matrices; [h, p] subset p holds for every split built here because p is the
orthogonal complement of a subalgebra under an invariant form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
import numpy as np

from ._expm import expm

__all__ = [
    "MatrixLieAlgebra",
    "ReductiveSplit",
    "so",
    "u",
    "su",
    "algebra_from_tag",
    "standard_split",
    "so4_ideal_split",
    "random_element",
    "random_group_element",
]

_TOL = 1e-12


def _e(n: int, a: int, b: int, dtype=float) -> np.ndarray:
    m = np.zeros((n, n), dtype=dtype)
    m[a, b] = 1.0
    return m


def skew_pair(n: int, a: int, b: int) -> np.ndarray:
    """E_ab - E_ba, the standard so(n) basis element (0-indexed)."""
    return _e(n, a, b) - _e(n, b, a)


@dataclass(frozen=True)
class MatrixLieAlgebra:
    """Tag plus real basis of a compact matrix Lie algebra."""

    name: str  # "so" | "u" | "su"
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"matrix size must be >= 0, got {self.name}({self.n})")

    @property
    def tag(self) -> str:
        return f"{self.name}({self.n})"

    @property
    def is_complex(self) -> bool:
        return self.name in ("u", "su")

    @property
    def dim(self) -> int:
        return len(self.basis())

    @lru_cache(maxsize=None)
    def basis(self) -> tuple[np.ndarray, ...]:
        n = self.n
        out: list[np.ndarray] = []
        if self.name == "so":
            for a in range(n):
                for b in range(a + 1, n):
                    out.append(skew_pair(n, a, b))
        elif self.name == "u":
            for a in range(n):
                out.append(1j * _e(n, a, a, complex))
            for a in range(n):
                for b in range(a + 1, n):
                    out.append(_e(n, a, b, complex) - _e(n, b, a, complex))
                    out.append(1j * (_e(n, a, b, complex) + _e(n, b, a, complex)))
        elif self.name == "su":
            for a in range(n - 1):
                out.append(1j * (_e(n, a, a, complex) - _e(n, n - 1, n - 1, complex)))
            for a in range(n):
                for b in range(a + 1, n):
                    out.append(_e(n, a, b, complex) - _e(n, b, a, complex))
                    out.append(1j * (_e(n, a, b, complex) + _e(n, b, a, complex)))
        else:
            raise ValueError(f"unknown algebra family {self.name!r}")
        return tuple(out)

    @lru_cache(maxsize=None)
    def _frame(self) -> "_StackedBasis":
        return _StackedBasis(self.basis(), self.n, self.dtype)

    @property
    def dtype(self) -> type:
        return complex if self.is_complex else float

    def coords(self, m: np.ndarray) -> np.ndarray:
        """Real coefficients of m in the stored basis (exact for members of
        the algebra); m may be a stack (..., n, n)."""
        return self._frame().coords(m)

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        """sum_i c_i B_i; c may be a stack (..., dim)."""
        return self._frame().combine(c)

    def identity(self) -> np.ndarray:
        return np.eye(self.n, dtype=self.dtype)


def so(n: int) -> MatrixLieAlgebra:
    return MatrixLieAlgebra("so", n)


def u(n: int) -> MatrixLieAlgebra:
    return MatrixLieAlgebra("u", n)


def su(n: int) -> MatrixLieAlgebra:
    return MatrixLieAlgebra("su", n)


def algebra_from_tag(tag: str) -> MatrixLieAlgebra:
    """Parse tags like "so4", "so(4)", "u2", "su2"; a size below 0 raises
    ValueError, size 0 (and so(1)) gives the zero algebra."""
    m = re.fullmatch(r"(so|su|u)(-?\d+)", tag.lower().replace("(", "").replace(")", "").strip())
    if m is None:
        raise ValueError(f"cannot parse algebra tag {tag!r}: expected so<n>, su<n> or u<n> with an integer n")
    return MatrixLieAlgebra(m[1], int(m[2]))


def inner_raw(x: np.ndarray, y: np.ndarray) -> float:
    """<X, Y> = -Re tr(XY)."""
    return float(-np.real(np.trace(x @ y)))


class _StackedBasis:
    """A basis of n x n matrices stacked for products: coordinates and linear
    combinations of a matrix, or of a stack of them, in one product each."""

    def __init__(self, basis, n: int, dtype):
        self.n = n
        self.flat = np.array(basis, dtype=dtype).reshape(len(basis), n * n)
        # <X, B_b> = -Re tr(X B_b) = Re(X.ravel() @ pair)[b]
        pair = -np.array([b.T for b in basis], dtype=dtype).reshape(len(basis), n * n).T
        self.dual = pair @ np.linalg.inv(np.real(self.flat @ pair))

    def coords(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m)
        return np.real(m.reshape(m.shape[:-2] + (self.n * self.n,)) @ self.dual)

    def combine(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        return (c @ self.flat).reshape(c.shape[:-1] + (self.n, self.n))


def _orthonormalize(vecs: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for v in vecs:
        w = v.astype(complex if np.iscomplexobj(v) else float).copy()
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
        return _StackedBasis(self.h_basis, self.algebra.n, self.algebra.dtype)

    @cached_property
    def _p_frame(self) -> _StackedBasis:
        return _StackedBasis(self.p_basis, self.algebra.n, self.algebra.dtype)

    def project_h(self, m: np.ndarray) -> np.ndarray:
        return self._h_frame.combine(self._h_frame.coords(m))

    def project_p(self, m: np.ndarray) -> np.ndarray:
        return self._p_frame.combine(self._p_frame.coords(m))

    @property
    def dim_h(self) -> int:
        return len(self.h_basis)

    @property
    def dim_p(self) -> int:
        return len(self.p_basis)


def _split_from_h(algebra: MatrixLieAlgebra, h_raw: list[np.ndarray], label: str) -> ReductiveSplit:
    h = _orthonormalize(h_raw)
    p: list[np.ndarray] = []
    for b in algebra.basis():
        w = b.copy()
        for q in h + p:
            w = w - inner_raw(w, q) * q
        if np.sqrt(inner_raw(w, w)) > 1e-9:
            p.append(w / np.sqrt(inner_raw(w, w)))
    return ReductiveSplit(algebra, tuple(h), tuple(p), label)


def standard_split(gtag: str, htag: str) -> ReductiveSplit:
    """Reductive splits for the shipped naturally-associated families.

    Supported pairs (case-insensitive):
      (SO(n), SO(n-1))   stabilizer of e1, sphere-bundle case
      (U(n),  U(n-1))    stabilizer block, odd-sphere-bundle case
      (U(n),  SU(n))     determinant-bundle case, p = the center i*I
      (U(n),  U(j))      Stiefel case, h = 0_{n-j} + u(j) in the lower block
    """
    g = algebra_from_tag(gtag)
    hs = htag.lower().replace("(", "").replace(")", "").strip()
    if g.name == "so":
        if not hs.startswith("so") or int(hs[2:]) != g.n - 1:
            raise ValueError(f"unsupported split ({gtag}, {htag})")
        n = g.n
        h_raw = [skew_pair(n, a, b) for a in range(1, n) for b in range(a + 1, n)]
        return _split_from_h(g, h_raw, f"so({n})/so({n - 1})")
    if g.name == "u":
        n = g.n
        if hs == f"su{n}":
            h_raw = [b for b in su(n).basis()]
            # promote su(n) matrices into the u(n) container (same shape)
            return _split_from_h(g, h_raw, f"u({n})/su({n})")
        if hs.startswith("u"):
            j = int(hs[1:])
            if not 0 <= j <= n:  # j = n is the degenerate h = g case
                raise ValueError(f"unsupported split ({gtag}, {htag})")
            off = n - j
            h_raw = []
            for a in range(off, n):
                h_raw.append(1j * _e(n, a, a, complex))
            for a in range(off, n):
                for b in range(a + 1, n):
                    h_raw.append(_e(n, a, b, complex) - _e(n, b, a, complex))
                    h_raw.append(1j * (_e(n, a, b, complex) + _e(n, b, a, complex)))
            return _split_from_h(g, h_raw, f"u({n})/u({j})")
    raise ValueError(f"unsupported split ({gtag}, {htag})")


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
    in one pass and checked matrix by matrix.
    """
    R = np.asarray(R, dtype=float)
    M = np.einsum("klij,...ij->...kl", _ROT4_BASIS, R) / 4.0
    col = np.argmax(np.sum(M * M, axis=-2), axis=-1)
    a = np.take_along_axis(M, col[..., None, None], axis=-1)[..., 0]
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = np.einsum("...kl,...k->...l", M, a)
    if np.any(np.max(np.abs(rot4(a, b) - R), axis=(-2, -1)) > 1e-8):
        raise ValueError("matrix is not in SO(4) within tolerance")
    return a, b


# --- misc -------------------------------------------------------------------

def random_element(algebra: MatrixLieAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    c = rng.standard_normal(algebra.dim) * scale
    return algebra.from_coords(c)


def random_group_element(algebra: MatrixLieAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return expm(random_element(algebra, rng, scale))
