"""Exact arithmetic helpers.

All quantities in this package are integers or rationals
(``fractions.Fraction``); floating point is never used.
``exact_quotient`` is the one integer division that the theory promises
exact; it builds its error only when a remainder is left.
``to_decimal_string`` and ``from_decimal_string`` are the one place
where a count becomes a decimal string or is read from one: past CPython's
4300-digit limit on ``int`` <-> ``str`` (``n0(d L)`` from ``d = 572`` on)
they convert through ``decimal``, exactly, without touching the limit.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .errors import NonIntegralResult

__all__ = ["exact_quotient", "from_decimal_string", "to_decimal_string"]

# What to_decimal_string writes for an int, and nothing else.
_CANONICAL = re.compile(r"-?[1-9][0-9]*|0")


def exact_quotient(numerator: int, denominator: int, what: str, beta: object) -> int:
    """``numerator / denominator``, which must be an integer: the ``what`` of
    the class ``beta``, named in the error when a remainder is left."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise NonIntegralResult(
            f"expected integer in {what} of {beta}, got {Fraction(numerator, denominator)}"
        )
    return quotient


def to_decimal_string(value: int | Fraction) -> str:
    """``str(value)`` at any size."""
    if isinstance(value, Fraction):
        if value.denominator != 1:
            return f"{to_decimal_string(value.numerator)}/{to_decimal_string(value.denominator)}"
        value = value.numerator
    try:
        return str(value)
    except ValueError:  # past the interpreter's digit limit
        return str(Decimal(value))


def from_decimal_string(text: str) -> int:
    """The int that ``to_decimal_string`` writes as ``text``, at any size.

    Only that form is read: an optional ``-`` and ASCII digits without a
    leading zero.  ``int`` alone would also take a ``+``, surrounding
    whitespace, underscores and non-ASCII digits; those raise ValueError.
    """
    try:
        value = int(text)
    except ValueError:
        if not _CANONICAL.fullmatch(text):
            raise
        return int(Decimal(text))  # past the interpreter's digit limit
    if str(value) != text:
        raise ValueError(f"not the canonical decimal string of {value}: {text!r}")
    return value
