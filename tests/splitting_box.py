"""Brute-force splitting oracle for the genus-zero engine's join.

``splittings`` walks a finite candidate box that provably contains every
class with a nonzero genus-zero count, independently of the engine's
support levels; the tests filter it by nonzero counts and compare it with
``support_pairs``.  ``binomial`` vanishes outside the Pascal triangle, so
the oracles' splitting sums run over such a box without edge cases.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from delpezzo.surface import CurveClass, Surface


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero when ``k < 0`` or ``k > n`` or ``n < 0``."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def is_exceptional_type(beta: CurveClass) -> bool:
    coeffs = beta.coeffs
    return (
        coeffs[0] == 0
        and sum(1 for m in coeffs[1:] if m == -1) == 1
        and all(m in (0, -1) for m in coeffs[1:])
    )


def admissible_part(surface: Surface, beta: CurveClass) -> bool:
    # A part of a splitting can only carry curves if it is some E_i or
    # has positive line degree; everything else contributes zero.
    if surface.is_quadric:
        return True
    return beta.coeffs[0] >= 1 or is_exceptional_type(beta)


def splittings(surface: Surface, beta: CurveClass) -> Iterator[tuple[CurveClass, CurveClass]]:
    """All ordered pairs ``(beta1, beta2)`` with ``beta1 + beta2 = beta``.

    Both parts are nonzero and drawn from a finite candidate box that
    provably contains every class with a nonzero genus-zero count
    (irreducible rational curves have ``0 <= m_i <= d`` except for the
    exceptional classes themselves).  Callers discard the remaining
    pairs by multiplying with vanishing counts.
    """
    surface.check_class(beta)
    if surface.is_quadric:
        a, b = beta.coeffs
        for a1 in range(0, a + 1):
            for b1 in range(0, b + 1):
                beta1 = CurveClass((a1, b1))
                beta2 = CurveClass((a - a1, b - b1))
                if beta1.is_zero or beta2.is_zero:
                    continue
                yield beta1, beta2
        return
    d = beta.coeffs[0]
    ms = beta.coeffs[1:]
    for d1 in range(0, d + 1):
        ranges: list[Iterable[int]] = [
            [-1] + list(range(0, max(d1, m + 1) + 1)) for m in ms
        ]
        for m1s in itertools.product(*ranges):
            beta1 = CurveClass((d1,) + m1s)
            if beta1.is_zero:
                continue
            beta2 = beta - beta1
            if beta2.is_zero:
                continue
            if admissible_part(surface, beta1) and admissible_part(surface, beta2):
                yield beta1, beta2
