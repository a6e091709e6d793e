"""Exact-arithmetic helpers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delpezzo.errors import NonIntegralResult
from delpezzo.numerics import exact_quotient, from_decimal_string, to_decimal_string
from splitting_box import binomial


def test_exact_quotient_names_the_quantity_and_the_rational():
    assert exact_quotient(-12, 4, "cusp count", "2,2") == -3
    with pytest.raises(NonIntegralResult, match=r"^expected integer in genus of 3,1, got -7/2$"):
        exact_quotient(-7, 2, "genus", "3,1")


@pytest.mark.parametrize(
    "n, k, expected",
    [
        (4, 2, 6),
        (7, 5, 21),
        (0, 0, 1),
        (5, 0, 1),
        (5, 5, 1),
        (5, 6, 0),
        (5, -1, 0),
        (-1, 0, 0),
        (-3, 2, 0),
    ],
)
def test_binomial_values(n, k, expected):
    assert binomial(n, k) == expected


@given(st.integers(min_value=0, max_value=40))
def test_binomial_row_sums(n):
    assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=30))
def test_binomial_pascal(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)



# Past CPython's default limit of 4300 digits for int <-> str conversion.
HUGE = 7**6000 + 1


def test_decimal_strings_past_the_digit_limit():
    text = to_decimal_string(HUGE)
    assert len(text) > 4300
    assert text.startswith("3874")
    assert text.endswith("2")
    assert from_decimal_string(text) == HUGE
    assert from_decimal_string("-" + text) == -HUGE
    assert to_decimal_string(-HUGE) == "-" + text
    assert to_decimal_string(Fraction(HUGE, 3)) == f"{text}/3"
    assert to_decimal_string(Fraction(3 * HUGE, 3)) == text


def test_decimal_strings_agree_with_str_and_int():
    for value in (0, -1, 12, 87304, 10**4299 - 1):
        assert to_decimal_string(value) == str(value)
        assert from_decimal_string(str(value)) == value
    assert to_decimal_string(Fraction(-3, 2)) == "-3/2"
    # int() or, past the digit limit, Decimal reads the strings after the
    # first row, but to_decimal_string writes none of them.
    for bad in ("twelve", "1.5", "1e5", "", "9" * 5000 + "x", "NaN",
                " 12", "12\n", "+12", "012", "1_2", "\u0661\u0662", "-0", "00",
                "+" + "9" * 5000, "0" + "9" * 5000, "9" * 5000 + " "):
        with pytest.raises(ValueError):
            from_decimal_string(bad)
