"""Second-homology lattices of the supported surfaces.

Two families are modelled: the projective plane blown up at ``k <= 8``
general points, and the quadric P1 x P1.

Coefficient conventions
-----------------------
Blow-up classes are integer vectors ``(d, m_1, ..., m_k)`` encoding

    beta = d*L - m_1*E_1 - ... - m_k*E_k,

where ``L`` is the line class (``L^2 = 1``) and ``E_i`` are the exceptional
classes (``E_i . E_j = -delta_ij``, ``L . E_i = 0``).  Note the minus sign:
the exceptional class ``E_i`` itself is the vector with ``d = 0`` and
``m_i = -1``.  Quadric classes are bidegrees ``(a, b)`` with respect to the
two rulings ``e_1, e_2`` (``e_1^2 = e_2^2 = 0``, ``e_1 . e_2 = 1``).

The anticanonical class is ``3L - E_1 - ... - E_k``, i.e. the vector
``(3, 1, ..., 1)``, and ``2e_1 + 2e_2 = (2, 2)`` on the quadric.  For a class
``beta`` we write ``delta(beta)`` for its anticanonical degree minus one;
this is the number of generic point constraints for the genus-zero count
and one more than the number used by the genus-two count.

Surfaces and classes are immutable values; all operations are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index, mul
from typing import Callable

from .errors import InvalidClass, RankMismatch, RankOverflow
from .numerics import exact_quotient, from_decimal_string

__all__ = ["Surface", "CurveClass", "MAX_BLOWUPS", "quadric_to_blowup_class"]

MAX_BLOWUPS = 8

_BLOWUP = "blp2"
_QUADRIC = "p1xp1"

_DESCRIPTOR_RE = re.compile(r"blp2:k=([0-8])")


def _blowup_dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    # d1 d2 - sum m1 m2 is 2 d1 d2 minus the sum over all coordinates.
    return 2 * u[0] * v[0] - sum(map(mul, u, v))


def _quadric_dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return u[0] * v[1] + u[1] * v[0]


@dataclass(frozen=True)
class CurveClass:
    """An integer coefficient vector in the basis described above."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        # index() takes ints and bools but refuses floats, strings and
        # Fractions, which int() would truncate or parse.
        try:
            coeffs = tuple(map(index, self.coeffs))
        except TypeError:
            raise InvalidClass(f"curve class needs integer coefficients: {self.coeffs!r}") from None
        if not coeffs:
            raise InvalidClass("curve class needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def parse(cls, text: str) -> CurveClass:
        """Parse comma-separated integers, e.g. ``"4,2,2"``, each written as
        ``str`` writes it (``numerics.from_decimal_string``), with spaces
        allowed around the commas."""
        try:
            coeffs = tuple(from_decimal_string(p.strip()) for p in text.split(","))
        except ValueError:
            raise InvalidClass(f"cannot parse curve class {text!r}") from None
        return cls(coeffs)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: CurveClass) -> CurveClass:
        if len(self.coeffs) != len(other.coeffs):
            raise RankMismatch("cannot add classes of different rank")
        return CurveClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CurveClass) -> CurveClass:
        if len(self.coeffs) != len(other.coeffs):
            raise RankMismatch("cannot subtract classes of different rank")
        return CurveClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


@dataclass(frozen=True)
class Surface:
    """A del Pezzo surface: ``blp2`` with ``k`` points, or the quadric."""

    model: str
    k: int = 0

    def __post_init__(self) -> None:
        # As for CurveClass: a bool becomes its int, other non-integers raise.
        try:
            object.__setattr__(self, "k", index(self.k))
        except TypeError:
            raise InvalidClass(f"blow-up count must be an integer, got {self.k!r}") from None
        if self.model == _BLOWUP:
            if not 0 <= self.k <= MAX_BLOWUPS:
                raise RankOverflow(f"blow-up count must be 0..{MAX_BLOWUPS}, got {self.k}")
        elif self.model == _QUADRIC:
            if self.k != 0:
                raise InvalidClass("the quadric has no blow-up points")
        else:
            raise InvalidClass(f"unknown surface model {self.model!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def blowup(cls, k: int) -> Surface:
        """The plane blown up at ``k`` general points (``k = 0`` is the plane)."""
        return cls(_BLOWUP, k)

    @classmethod
    def quadric(cls) -> Surface:
        return cls(_QUADRIC)

    @classmethod
    def parse(cls, descriptor: str) -> Surface:
        """Parse a descriptor string: ``"blp2:k=<0..8>"`` or ``"p1xp1"``."""
        if descriptor == _QUADRIC:
            return cls.quadric()
        m = _DESCRIPTOR_RE.fullmatch(descriptor)
        if m:
            return cls.blowup(int(m.group(1)))
        raise InvalidClass(f"unknown surface descriptor {descriptor!r}")

    # -- basic data --------------------------------------------------------

    @property
    def is_blowup(self) -> bool:
        return self.model == _BLOWUP

    @property
    def is_quadric(self) -> bool:
        return self.model == _QUADRIC

    @property
    def descriptor(self) -> str:
        return f"{_BLOWUP}:k={self.k}" if self.is_blowup else _QUADRIC

    @property
    def rank(self) -> int:
        """Length of coefficient vectors: ``k + 1`` on blow-ups, 2 on the quadric."""
        return self.k + 1 if self.is_blowup else 2

    @property
    def euler_number(self) -> int:
        return 3 + self.k if self.is_blowup else 4

    @property
    def k_squared(self) -> int:
        """Self-intersection of the anticanonical class: ``9 - k`` or 8."""
        return 9 - self.k if self.is_blowup else 8

    @property
    def anticanonical(self) -> CurveClass:
        if self.is_blowup:
            return CurveClass((3,) + (1,) * self.k)
        return CurveClass((2, 2))

    # -- class operations --------------------------------------------------

    def check_class(self, beta: CurveClass, allow_zero: bool = False) -> None:
        if len(beta.coeffs) != self.rank:
            raise RankMismatch(
                f"class {beta} has rank {len(beta.coeffs)}, surface {self.descriptor} "
                f"needs {self.rank}"
            )
        if beta.is_zero and not allow_zero:
            raise InvalidClass("the zero class is not a curve class")

    def intersect(self, beta1: CurveClass, beta2: CurveClass) -> int:
        self.check_class(beta1, allow_zero=True)
        self.check_class(beta2, allow_zero=True)
        return self._dot(beta1.coeffs, beta2.coeffs)

    @property
    def _dot(self) -> Callable[[tuple[int, ...], tuple[int, ...]], int]:
        """The intersection pairing on coefficient tuples, unchecked: the
        caller guarantees two tuples of this surface's rank.  A plain
        function, so loops that pair many tuples pay no dispatch."""
        return _blowup_dot if self.model == _BLOWUP else _quadric_dot

    def self_intersection(self, beta: CurveClass) -> int:
        return self.intersect(beta, beta)

    def anticanonical_degree(self, beta: CurveClass) -> int:
        self.check_class(beta)
        x1 = (3,) + (1,) * self.k if self.is_blowup else (2, 2)  # anticanonical.coeffs
        return self._dot(x1, beta.coeffs)

    def delta(self, beta: CurveClass) -> int:
        """Anticanonical degree minus one."""
        return self.anticanonical_degree(beta) - 1

    def genus(self, beta: CurveClass) -> int:
        """Arithmetic genus ``(beta^2 - x1.beta + 2) / 2`` of a smooth member."""
        deg = self.anticanonical_degree(beta)
        c = beta.coeffs
        return exact_quotient(self._dot(c, c) - deg + 2, 2, "genus", beta)


def quadric_to_blowup_class(beta: CurveClass) -> CurveClass:
    """Transport a quadric bidegree to the two-point blow-up of the plane.

    The quadric and the plane blown up at two points share a common
    blow-up, under which ``e_1 -> L - E_2`` and ``e_2 -> L - E_1``; hence
    ``(a, b) -> (a + b)L - bE_1 - aE_2``, i.e. the vector ``(a+b, b, a)``.
    The map preserves the intersection pairing and the anticanonical degree,
    which makes it an independent cross-check of the two engines.
    """
    if len(beta.coeffs) != 2:
        raise RankMismatch("expected a quadric bidegree (a, b)")
    a, b = beta.coeffs
    return CurveClass((a + b, b, a))
