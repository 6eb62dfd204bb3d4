"""Exact rational coefficient families for transgression forms.

The (2k-1)-form transgressing a degree-k invariant polynomial P carries
coefficients

    A_i  = (-1)^i k!(k-1)! / (2^i (k-i-1)! (k+i)!),          0 <= i <= k-1,

and the extension to an associated bundle with fiber G/H carries a doubly
indexed family

    A_ij = (-1)^i (i+j)!(k-j-1)! k! / (2^i (k-i-j-1)! i! (k+i)! j!),

with the conventions A_00 = 1 and A_ij = 0 whenever i < 0, j < 0 or
i + j > k - 1.  The double family satisfies a pair of linear relations and a
two-path recursion whose internal consistency is what makes the heterotic
identity d(Phi P) = P(Omega) - P(Psi) close.  Everything here is exact
(fractions.Fraction over arbitrary-precision ints); there is no float mode.

Note on the A_i denominator: the single-index family is sometimes printed
with (k+1)! in place of (k+i)!.  Only the (k+i)! version satisfies the
recursion A_i0 = ((i-k)/(2(k+i))) A_{i-1,0} and reproduces the classical
k = 2 value A_1 = -1/6, so that is the convention implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

__all__ = [
    "CoefficientTable",
    "ConsistencyError",
    "cs_coefficient",
    "phi_coefficient",
    "build_table_by_recursion",
    "verify_linear_relations",
    "fiber_constant",
    "fiber_constant_closed_form",
]


class ConsistencyError(Exception):
    """Raised when the two recursion paths disagree at some entry.

    Carries the offending (i, j) pair in ``args[1]``.
    """


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"polynomial degree k must be a positive integer, got {k}")


def cs_coefficient(k: int, i: int) -> Fraction:
    """Coefficient A_i of the classical transgression form, exact.

    Uses the (k+i)! denominator convention (see module docstring).
    """
    _check_k(k)
    if not 0 <= i <= k - 1:
        raise ValueError(f"index i={i} out of range [0, {k - 1}] for k={k}")
    num = (-1) ** i * factorial(k) * factorial(k - 1)
    den = 2**i * factorial(k - i - 1) * factorial(k + i)
    return Fraction(num, den)


def phi_coefficient(k: int, i: int, j: int) -> Fraction:
    """Closed-form A_ij; returns 0 for out-of-domain (i, j) by convention."""
    _check_k(k)
    if i < 0 or j < 0 or i + j > k - 1:
        return Fraction(0)
    num = (-1) ** i * factorial(i + j) * factorial(k - j - 1) * factorial(k)
    den = 2**i * factorial(k - i - j - 1) * factorial(i) * factorial(k + i) * factorial(j)
    return Fraction(num, den)


@dataclass
class CoefficientTable:
    """All A_ij for one degree k, stored exactly.

    ``entries`` holds only the in-domain pairs (i >= 0, j >= 0, i+j <= k-1);
    lookups outside that set return 0, matching the convention used when the
    defining recursions are summed.
    """

    k: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if i < 0 or j < 0 or i + j > self.k - 1:
            return Fraction(0)
        return self.entries[(i, j)]


def build_table_by_recursion(k: int) -> CoefficientTable:
    """Fill the A_ij table from A_00 = 1 using the two defining recursions.

    Row i = 0 is propagated by the first linear relation specialised to
    i = 0, which degenerates to A_0j = A_{0,j-1}.  For i >= 1 every entry is
    reachable along two paths:

        A_ij = ((i+j)(i+j-k) / (2i(k+i))) A_{i-1,j}
        A_ij = -((j+1)(k-j-1) / (2i(k+i))) A_{i-1,j+1}

    and both are evaluated; exact disagreement raises ConsistencyError.
    """
    _check_k(k)
    t: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for j in range(1, k):
        t[(0, j)] = t[(0, j - 1)]
    for i in range(1, k):
        for j in range(0, k - i):
            down = Fraction((i + j) * (i + j - k), 2 * i * (k + i)) * t[(i - 1, j)]
            diag = -Fraction((j + 1) * (k - j - 1), 2 * i * (k + i)) * t[(i - 1, j + 1)]
            if down != diag:
                raise ConsistencyError(
                    f"recursion paths disagree at (i,j)=({i},{j}): {down} vs {diag}",
                    (i, j),
                )
            t[(i, j)] = down
    return CoefficientTable(k=k, entries=t)


@dataclass
class RelationResidual:
    relation: str
    i: int
    j: int
    residual: Fraction


def verify_linear_relations(k: int) -> list[RelationResidual]:
    """Exact residuals of the two linear relations and the consistency condition.

    For (i, j) != (0, 0) with i + j <= k - 1 and j >= 1 (both relations divide
    by j through the A_{i,j-1} terms):

        r1 = A_ij - ((j + 2i)/j) A_{i,j-1} - (1/2) A_{i-1,j}
        r2 = 2i A_ij + (k-i-j) A_{i-1,j} + (2i(k-i-j)/j) A_{i,j-1}

    At j = 0 the deleted terms degenerate and the applicable condition is the
    single-index recursion, reported as "cs_recursion".  The consistency
    condition compares the two expressions for A_{i+1,j-1} appearing when the
    recursions are interleaved.  All residuals must be exactly zero.
    """
    table = build_table_by_recursion(k)
    out: list[RelationResidual] = []
    for i in range(0, k):
        for j in range(0, k - i):
            if (i, j) == (0, 0):
                continue
            if j >= 1:
                r1 = table[i, j] - Fraction(j + 2 * i, j) * table[i, j - 1] - Fraction(1, 2) * table[i - 1, j]
                out.append(RelationResidual("relation1", i, j, r1))
                r2 = (
                    2 * i * table[i, j]
                    + (k - i - j) * table[i - 1, j]
                    + Fraction(2 * i * (k - i - j), j) * table[i, j - 1]
                )
                out.append(RelationResidual("relation2", i, j, r2))
            else:
                # j = 0: both relations divide by j; the surviving condition
                # is the classical recursion 2(k+i) A_i0 = (i-k) A_{i-1,0}.
                r = 2 * (k + i) * table[i, 0] - (i - k) * table[i - 1, 0]
                out.append(RelationResidual("cs_recursion", i, j, Fraction(r)))
    # Consistency: the two A_{i+1,j-1} routes out of A_{i-1,j} agree.
    for i in range(1, k):
        for j in range(1, k - i):
            via_second_then_first = -Fraction(j * (k - j), 2 * (i + 1) * (k + i + 1)) * table[i, j]
            via_first_then_second = Fraction((i + j) * (i + j - k), 2 * (i + 1) * (k + i + 1)) * table[i, j - 1]
            out.append(
                RelationResidual("consistency", i, j, via_second_then_first - via_first_then_second)
            )
    return out


def fiber_constant(k: int) -> Fraction:
    """The exact sum over the top antidiagonal, sum_i A_{i,k-1-i} 2^{-(k-1-i)}.

    It equals fiber_constant_closed_form(k); the fiber-constant records of
    csforms.checks compare the two, so a coefficient regression fails them.
    """
    _check_k(k)
    return sum(
        (phi_coefficient(k, i, k - 1 - i) / Fraction(2 ** (k - 1 - i)) for i in range(k)),
        Fraction(0),
    )


def fiber_constant_closed_form(k: int) -> Fraction:
    """k / ((2k-1) 2^(k-1)), the value the fiber constant must take."""
    _check_k(k)
    return Fraction(k, (2 * k - 1) * 2 ** (k - 1))
