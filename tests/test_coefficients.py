"""Exact-arithmetic tests for the transgression coefficient families."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from csforms.rationals import (
    ConsistencyError,
    build_table_by_recursion,
    cs_coefficient,
    fiber_constant,
    phi_coefficient,
    verify_linear_relations,
)


def closed_form_oracle(k: int, i: int, j: int) -> Fraction:
    """Independent factorial evaluation of the doubly indexed family."""
    if i < 0 or j < 0 or i + j > k - 1:
        return Fraction(0)
    num = Fraction((-1) ** i) * factorial(i + j) * factorial(k - j - 1) * factorial(k)
    den = Fraction(2**i) * factorial(k - i - j - 1) * factorial(i) * factorial(k + i) * factorial(j)
    return num / den


def test_k1_is_trivial():
    assert cs_coefficient(1, 0) == 1
    assert build_table_by_recursion(1).entries == {(0, 0): Fraction(1)}
    assert verify_linear_relations(1) == []


def test_frozen_values():
    # recursion A_i0 = ((i-k)/(2(k+i))) A_{i-1,0} from A_00 = 1 gives -1/6 at k=2
    assert cs_coefficient(2, 1) == Fraction(-1, 6)
    assert cs_coefficient(2, 0) == 1
    assert phi_coefficient(2, 0, 1) == 1
    # direct factorial arithmetic: -(2)!(1)!(6)/(2 * 1 * 1 * 24 * 1) = -1/4
    assert phi_coefficient(3, 1, 1) == Fraction(-1, 4)
    assert phi_coefficient(4, 2, 3) == 0  # out of domain by convention
    assert phi_coefficient(5, -1, 2) == 0
    assert build_table_by_recursion(2).entries == {
        (0, 0): Fraction(1),
        (1, 0): Fraction(-1, 6),
        (0, 1): Fraction(1),
    }


def test_row_zero_is_all_ones():
    table = build_table_by_recursion(3)
    assert [table[0, j] for j in range(3)] == [1, 1, 1]


@pytest.mark.parametrize("k", range(1, 13))
def test_closed_form_equals_recursion(k):
    table = build_table_by_recursion(k)
    for (i, j), v in table.entries.items():
        assert v == closed_form_oracle(k, i, j)
        assert v == phi_coefficient(k, i, j)


@pytest.mark.parametrize("k", range(1, 13))
def test_single_index_column(k):
    table = build_table_by_recursion(k)
    for i in range(k):
        assert table[i, 0] == cs_coefficient(k, i)
    assert table[0, k - 1] == 1


@pytest.mark.parametrize("k", range(1, 13))
def test_linear_relations_exact(k):
    assert all(r.residual == 0 for r in verify_linear_relations(k))


@pytest.mark.parametrize(
    "k,expected",
    [(1, Fraction(1)), (2, Fraction(1, 3)), (5, Fraction(5, 144))],
)
def test_fiber_constant_values(k, expected):
    assert fiber_constant(k) == expected


@pytest.mark.parametrize("k", range(1, 13))
def test_fiber_constant_closed_form(k):
    assert fiber_constant(k) == Fraction(k, (2 * k - 1) * 2 ** (k - 1))


def test_domain_errors():
    with pytest.raises(ValueError):
        cs_coefficient(3, 3)
    with pytest.raises(ValueError):
        cs_coefficient(3, -1)
    with pytest.raises(ValueError):
        phi_coefficient(0, 0, 0)
    with pytest.raises(ValueError):
        build_table_by_recursion(0)
    assert issubclass(ConsistencyError, Exception)


@given(
    st.integers(min_value=-(10**12), max_value=10**12).filter(lambda a: a != 0),
    st.integers(min_value=1, max_value=10**12),
)
def test_rational_arithmetic_exact(a, b):
    q = Fraction(a, b)
    assert q * (1 / q) == 1
    assert q.denominator > 0


@given(st.integers(min_value=1, max_value=9), st.data())
def test_out_of_domain_lookup_is_zero(k, data):
    i = data.draw(st.integers(min_value=-3, max_value=k + 3))
    j = data.draw(st.integers(min_value=-3, max_value=k + 3))
    table = build_table_by_recursion(k)
    if i < 0 or j < 0 or i + j > k - 1:
        assert table[i, j] == 0
        assert phi_coefficient(k, i, j) == 0


def test_wrong_coefficient_fails_the_fiber_constant_record(monkeypatch, capsys):
    # a scaled A_{0,k-1} must fail the records and the CLI, not raise
    from csforms import checks, rationals
    from csforms.cli import main

    k, exact = 3, rationals.phi_coefficient

    def scaled(kk, i, j):
        return exact(kk, i, j) * (2 if (kk, i, j) == (k, 0, k - 1) else 1)

    monkeypatch.setattr(rationals, "phi_coefficient", scaled)
    records = {r.name: r for r in checks.coefficient_checks(k)}
    assert not records[f"fiber_constant_k{k}"].passed
    assert records[f"fiber_constant_k{k - 1}"].passed
    assert main(["coeffs", "--k", str(k)]) == 1
    assert "Traceback" not in capsys.readouterr().err
