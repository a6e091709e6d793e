"""Genus-zero curve counts by recursion.

The engine computes the number ``n0(beta)`` of irreducible rational curves
in a class ``beta`` through ``delta(beta)`` generic points.

On the plane it evaluates the classical closed recursion

    n_d = sum_{d1+d2=d} C(3d-2, 3d1-1) d1 d2 n_{d1} n_{d2}
          (d1 d2 - 2 (d1-d2)^2 / (3d-2)) / (6 (d-1)),       n_1 = 1.

Everywhere else it uses coefficient identities of the genus-zero
point-insertion potential: associativity of the quantum product (WDVV)
contracted with two divisors and two point classes, three divisors and one
point, or four divisors.  Writing ``delta_i`` for ``delta(beta_i)`` and
``C`` for the binomial, the three relations are, for divisors A, B, C, D
and sums over ordered splittings ``beta = beta1 + beta2`` into nonzero
parts:

  [two points]   (A.B) n(beta) =
      sum n1 n2 (b1.b2) [ (b1.A)(b2.B) C(delta-3, delta1-1)
                          - (b1.A)(b1.B) C(delta-3, delta1) ]

  [one point]    ((A.B)(beta.C) - (A.C)(beta.B)) n(beta) =
      sum C(delta-2, delta1) n1 n2 (b1.b2) (b1.A)
          [ (b1.C)(b2.B) - (b1.B)(b2.C) ]

  [no points]    ((A.B)(beta.C)(beta.D) + (C.D)(beta.A)(beta.B)
                  - (A.C)(beta.B)(beta.D) - (B.D)(beta.A)(beta.C)) n(beta) =
      sum C(delta-1, delta1) n1 n2 (b1.b2)
          [ (b1.A)(b1.C)(b2.B)(b2.D) - (b1.A)(b1.B)(b2.C)(b2.D) ]

On blow-ups the engine picks (A, B) = (L, L) when delta >= 3, the triple
(E_1, L, E_1) when delta = 2 (leading coefficient d), and (E_i, E_j, E_i,
E_j) at the two largest multiplicities when delta = 1 (leading coefficient
m_i^2 + m_j^2 > 0).  On the quadric (A, B) = (e_1, e_2) always works
because bidegrees with a, b >= 1 have delta >= 3.  Classes the relations
cannot reach (delta = 0, degree >= 2, every multiplicity >= 2) are pushed
through the quadratic Cremona transformation based at the three largest
multiplicities, which strictly lowers the degree.  Before any of that, a
class with a multiplicity 0 or 1 loses that coefficient: forgetting a
blown-up point off the curve, or trading a point of multiplicity one for a
generic point constraint, leaves the count unchanged and shrinks the
lattice.

Counts on blow-ups are invariant under permuting the blown-up points
(Goettsche-Pandharipande): the monodromy of the general point
configurations permutes the exceptional classes and preserves the
invariants.  The blow-up memo is therefore keyed by orbit representatives
``(d, m_1 >= ... >= m_k)``, and every orbit is computed once.  Candidate
classes are enumerated the same way, one non-increasing multiplicity tuple
per orbit, and then expanded into all permutations, because splittings
need every member.

Splitting sums run over support levels: for each rank and anticanonical
degree, the classes with nonzero count, bucketed by line degree and built
in order of anticanonical degree.  Anticanonical and line degree are both
additive, so a splitting ``beta = beta1 + beta2`` pairs the bucket of line
degree ``e`` in level ``D1`` only with the bucket of line degree
``d - e`` in level ``D - D1``, and the complement's count is one lookup
there.  A complement missing from its bucket has count zero: the
candidates of a level contain every class that can carry curves (the
exceptional classes and the classes with ``0 <= m_i <= d`` and
nonnegative arithmetic genus), so each level holds every nonzero class of
its degree.  All divisions are exact and asserted; a failed division or a
stalled reduction raises RecursionFailure instead of returning a wrong
number.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import comb, isqrt
from operator import sub
from pathlib import Path
from typing import Iterator

from .errors import (
    CacheFormatError,
    InvalidClass,
    RecursionFailure,
    SurfaceMismatch,
)
from .numerics import binomial, to_integer
from .surface import CurveClass, Surface

__all__ = [
    "GwTable",
    "n0",
    "support_enumerate",
    "support_pairs",
    "load_cache",
    "save_cache",
    "CACHE_VERSION",
]

CACHE_VERSION = 1

Coeffs = tuple[int, ...]


def _orbit_key(c: Coeffs) -> Coeffs:
    """Representative of the point-permutation orbit of a blow-up class."""
    return (c[0], *sorted(c[1:], reverse=True))


def _spread_cost(total: int, slots: int) -> int:
    """Least sum m (m - 1) over integer tuples of ``slots`` values summing to
    ``total``: the even spread (``slots`` >= 1)."""
    q, r = divmod(total, slots)
    return slots * q * (q - 1) + 2 * r * q


def _sorted_multiplicities(
    total: int, slots: int, hi: int, cap: int
) -> Iterator[Coeffs]:
    """Non-increasing tuples of ``slots`` values in [0, hi] summing to
    ``total`` with sum m(m-1) <= cap."""
    if slots == 1:
        if total <= hi and total * (total - 1) <= cap:
            yield (total,)
        return
    # The head is at least the mean; each step above it makes the cheapest
    # completion strictly dearer, so the first head over budget ends the loop.
    for m in range(-(-total // slots), min(hi, total) + 1):
        used = m * (m - 1)
        if used + _spread_cost(total - m, slots - 1) > cap:
            break
        for rest in _sorted_multiplicities(total - m, slots - 1, m, cap - used):
            yield (m,) + rest


def _distinct_permutations(values: Coeffs) -> Iterator[Coeffs]:
    """Each distinct rearrangement of ``values`` once, in lexicographic order."""
    counts = Counter(values)
    keys = sorted(counts)

    def arrange(left: int) -> Iterator[Coeffs]:
        if left == 0:
            yield ()
            return
        for v in keys:
            if counts[v]:
                counts[v] -= 1
                for rest in arrange(left - 1):
                    yield (v,) + rest
                counts[v] += 1

    return arrange(len(values))


class _BlowupComputer:
    """Counts on every blow-up of the plane at once.

    Memo keys are orbit representatives ``(d, *sorted(ms, reverse=True))``
    of the point-permutation action; the tuple length encodes the surface
    (length k+1 on k points), so the coefficient-dropping reductions can
    reuse one memo across ranks.  Everything past ``value`` (the reduction
    pipeline, the relations and Cremona) only ever sees representatives.

    ``support`` maps ``(k, anticanonical degree)`` to that level's classes
    with nonzero count, every permutation listed, bucketed by line degree:
    ``{d: {coeffs: count}}``.  ``ensure`` fills the levels in order of
    degree, ``pairs`` joins two levels on the line degree and
    ``support_enumerate`` reads them; nothing else stores the support.
    """

    def __init__(self, seed: dict[Coeffs, int] | None = None) -> None:
        self.memo: dict[Coeffs, int] = {
            _orbit_key(c): v for c, v in (seed or {}).items()
        }
        self.support: dict[tuple[int, int], dict[int, dict[Coeffs, int]]] = {}
        self.ensured: dict[int, int] = {}

    # -- public ------------------------------------------------------------

    def value(self, c: Coeffs) -> int:
        key = _orbit_key(c)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = self._compute(key)
        self.memo[key] = result
        return result

    def pairs(self, c: Coeffs) -> Iterator[tuple[Coeffs, int, Coeffs, int]]:
        """Ordered splittings of ``c`` into two classes with nonzero counts.

        A join of two support levels on the line degree (see the module
        docstring): the smaller of two matching buckets is walked and each
        complement is one lookup in the other.
        """
        k = len(c) - 1
        degree = self._degree(c)
        self.ensure(k, degree - 1)
        d = c[0]
        for degree1 in range(1, degree):
            partners = self.support[(k, degree - degree1)]
            for e, bucket in self.support[(k, degree1)].items():
                others = partners.get(d - e)
                if not others:
                    continue
                if len(bucket) <= len(others):
                    for c1, n1 in bucket.items():
                        c2 = tuple(map(sub, c, c1))
                        if n2 := others.get(c2):
                            yield c1, n1, c2, n2
                else:
                    for c2, n2 in others.items():
                        c1 = tuple(map(sub, c, c2))
                        if n1 := bucket.get(c1):
                            yield c1, n1, c2, n2

    def ensure(self, k: int, bound: int) -> None:
        """Fill the support levels of rank ``k`` up to anticanonical degree ``bound``."""
        done = self.ensured.get(k, 0)
        for degree in range(done + 1, bound + 1):
            level: dict[int, dict[Coeffs, int]] = {}
            for cand in self._candidates(k, degree):
                if v := self.value(cand):
                    level.setdefault(cand[0], {})[cand] = v
            self.support[(k, degree)] = level
            self.ensured[k] = degree

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _degree(c: Coeffs) -> int:
        return 3 * c[0] - sum(c[1:])

    @staticmethod
    def _dot(c1: Coeffs, c2: Coeffs) -> int:
        return c1[0] * c2[0] - sum(m1 * m2 for m1, m2 in zip(c1[1:], c2[1:]))

    @staticmethod
    def _candidates(k: int, degree: int) -> list[Coeffs]:
        """Classes of the given anticanonical degree that can carry curves.

        These are the exceptional classes (degree 1) and the vectors with
        d >= 1, 0 <= m_i <= d and nonnegative genus, i.e.
        sum m_i (m_i - 1) <= (d-1)(d-2).  The degree bound on d comes from
        combining the genus bound with Cauchy-Schwarz on sum m_i.  The
        multiplicities are enumerated once per orbit (non-increasing) and
        each representative is expanded into its distinct permutations;
        the classes with d >= 1 come out in lexicographic order.
        """
        out: list[Coeffs] = []
        if k == 0:
            if degree % 3 == 0 and degree >= 3:
                out.append((degree // 3,))
            return out
        if degree == 1:
            for i in range(k):
                out.append((0,) + tuple(-1 if j == i else 0 for j in range(k)))
        disc = 9 * degree * degree - (9 - k) * (degree * degree + k * degree - 2 * k)
        if disc < 0:
            return out
        d_lo = max(1, (degree + 2) // 3)
        d_hi = (3 * degree + isqrt(disc)) // (9 - k)
        classes: list[Coeffs] = []
        for d in range(d_lo, d_hi + 1):
            target = 3 * d - degree
            if target < 0 or target > k * d:
                continue
            cap = (d - 1) * (d - 2)
            for rep in _sorted_multiplicities(target, k, d, cap):
                classes.extend((d,) + ms for ms in _distinct_permutations(rep))
        classes.sort()
        out.extend(classes)
        return out

    # -- the reduction pipeline ---------------------------------------------

    def _compute(self, c: Coeffs) -> int:
        if len(c) == 1:
            return self._plane(c[0])
        d, ms = c[0], c[1:]
        if d < 0:
            return 0
        if d == 0:
            exceptional = all(m in (0, -1) for m in ms) and ms.count(-1) == 1
            return 1 if exceptional else 0
        if ms[-1] < 0 or ms[0] > d:
            return 0
        delta = self._degree(c) - 1
        if delta < 0:
            return 0
        if d == 1:
            # A line through at most two of the blown-up points is unique.
            return 1
        if delta == 0 and d * d - sum(m * m for m in ms) == -1:
            # Rigid class of self-intersection -1: one curve, no constraints.
            return 1
        if ms[-1] <= 1:
            return self.value(c[:-1])
        if delta >= 3:
            return self._two_point_relation(c, delta)
        if delta == 2:
            return self._one_point_relation(c, delta)
        if delta == 1:
            return self._four_divisor_relation(c, delta)
        return self._cremona(c)

    def _plane(self, d: int) -> int:
        if d < 1:
            return 0
        if d == 1:
            return 1
        total = Fraction(0)
        for d1 in range(1, d):
            d2 = d - d1
            weight = comb(3 * d - 2, 3 * d1 - 1) * d1 * d2
            bracket = d1 * d2 - Fraction(2 * (d1 - d2) ** 2, 3 * d - 2)
            total += weight * self.value((d1,)) * self.value((d2,)) * bracket
        return to_integer(total / (6 * (d - 1)), context=f"plane degree {d}")

    def _two_point_relation(self, c: Coeffs, delta: int) -> int:
        # (A, B) = (L, L); leading coefficient L.L = 1.
        total = 0
        for c1, n1, c2, n2 in self.pairs(c):
            dot = self._dot(c1, c2)
            if dot == 0:
                continue
            d1, d2 = c1[0], c2[0]
            delta1 = self._degree(c1) - 1
            total += (
                n1
                * n2
                * dot
                * (
                    d1 * d2 * binomial(delta - 3, delta1 - 1)
                    - d1 * d1 * binomial(delta - 3, delta1)
                )
            )
        return total

    def _one_point_relation(self, c: Coeffs, delta: int) -> int:
        # (A, B, C) = (E_1, L, E_1), E_1 of the largest multiplicity of the
        # representative; leading coefficient
        # (E1.L)(beta.E1) - (E1.E1)(beta.L) = d.
        d = c[0]
        total = 0
        for c1, n1, c2, n2 in self.pairs(c):
            dot = self._dot(c1, c2)
            if dot == 0:
                continue
            m1a, m1b = c1[1], c2[1]  # beta_i . E_1
            delta1 = self._degree(c1) - 1
            total += (
                binomial(delta - 2, delta1)
                * n1
                * n2
                * dot
                * m1a
                * (m1a * c2[0] - c1[0] * m1b)
            )
        quotient, remainder = divmod(total, d)
        if remainder:
            raise RecursionFailure(f"one-point relation left remainder at {c}")
        return quotient

    def _four_divisor_relation(self, c: Coeffs, delta: int) -> int:
        # (A, B, C, D) = (E_1, E_2, E_1, E_2), the two largest multiplicities
        # of the representative; leading coefficient m_1^2 + m_2^2.
        ms = c[1:]
        if len(ms) < 2:
            raise RecursionFailure(f"four-divisor relation needs two points at {c}")
        kappa = ms[0] ** 2 + ms[1] ** 2
        if kappa == 0:
            raise RecursionFailure(f"four-divisor relation degenerates at {c}")
        total = 0
        for c1, n1, c2, n2 in self.pairs(c):
            dot = self._dot(c1, c2)
            if dot == 0:
                continue
            pi1, pj1 = c1[1], c1[2]  # beta_1 . E_1, beta_1 . E_2
            pi2, pj2 = c2[1], c2[2]
            delta1 = self._degree(c1) - 1
            total += (
                binomial(delta - 1, delta1)
                * n1
                * n2
                * dot
                * (pi1 * pi1 * pj2 * pj2 - pi1 * pj1 * pi2 * pj2)
            )
        quotient, remainder = divmod(total, kappa)
        if remainder:
            raise RecursionFailure(f"four-divisor relation left remainder at {c}")
        return quotient

    def _cremona(self, c: Coeffs) -> int:
        # Quadratic transformation based at the three points of largest
        # multiplicity (the first three of the representative); the counts
        # are invariant under it.
        d, ms = c[0], c[1:]
        if len(ms) < 3:
            raise RecursionFailure(f"no reduction applies to {c}")
        a, b, e = ms[:3]
        if a + b + e <= d:
            raise RecursionFailure(f"quadratic transformation stalls on {c}")
        image = (2 * d - a - b - e, d - b - e, d - a - e, d - a - b, *ms[3:])
        return self.value(image)


class _QuadricComputer:
    """Counts on the quadric; bidegree tuples (a, b).

    ``support`` maps each anticanonical degree ``D`` to that level's
    bidegrees with nonzero count, ``{coeffs: count}``.  Level ``D`` holds
    every nonzero bidegree ``(a, D/2 - a)``, so a splitting looks each
    complement up in its level and a missing one counts zero.
    """

    def __init__(self, seed: dict[Coeffs, int] | None = None) -> None:
        self.memo: dict[Coeffs, int] = dict(seed or {})
        self.support: dict[int, dict[Coeffs, int]] = {}
        self.ensured = 0

    def value(self, c: Coeffs) -> int:
        cached = self.memo.get(c)
        if cached is not None:
            return cached
        result = self._compute(c)
        self.memo[c] = result
        return result

    def pairs(self, c: Coeffs) -> Iterator[tuple[Coeffs, int, Coeffs, int]]:
        """Ordered splittings of ``c`` into two bidegrees with nonzero counts.

        Level ``D1`` is walked only over the first coordinates ``a1`` that
        leave a nonnegative complement, in increasing ``a1``, and each
        complement is one lookup in level ``D - D1``.
        """
        a, b = c
        degree = 2 * (a + b)
        self.ensure(degree - 1)
        for d1 in range(2, degree, 2):
            half1 = d1 // 2
            level1, level2 = self.support[d1], self.support[degree - d1]
            for a1 in range(max(0, half1 - b), min(a, half1) + 1):
                c1, c2 = (a1, half1 - a1), (a - a1, b - half1 + a1)
                if (n1 := level1.get(c1)) and (n2 := level2.get(c2)):
                    yield c1, n1, c2, n2

    def ensure(self, bound: int) -> None:
        for degree in range(self.ensured + 1, bound + 1):
            self.support[degree] = {
                cand: v for cand in self._candidates(degree) if (v := self.value(cand))
            }
            self.ensured = degree

    @staticmethod
    def _candidates(degree: int) -> list[Coeffs]:
        if degree == 2:
            return [(0, 1), (1, 0)]
        if degree % 2 or degree < 4:
            return []
        half = degree // 2
        return [(a, half - a) for a in range(1, half)]

    def _compute(self, c: Coeffs) -> int:
        a, b = c
        if a < 0 or b < 0:
            return 0
        if (a, b) in ((1, 0), (0, 1)):
            return 1
        if a == 0 or b == 0:
            # Multiple covers of a ruling never pass through enough points.
            return 0
        # (A, B) = (e_1, e_2); leading coefficient e_1.e_2 = 1.  Note
        # beta.e_1 = b and beta.e_2 = a.
        delta = 2 * a + 2 * b - 1
        total = 0
        for c1, n1, c2, n2 in self.pairs(c):
            dot = c1[0] * c2[1] + c2[0] * c1[1]
            if dot == 0:
                continue
            delta1 = 2 * (c1[0] + c1[1]) - 1
            total += (
                n1
                * n2
                * dot
                * (
                    c1[1] * c2[0] * binomial(delta - 3, delta1 - 1)
                    - c1[1] * c1[0] * binomial(delta - 3, delta1)
                )
            )
        return total


_SHARED_BLOWUP = _BlowupComputer()
_SHARED_QUADRIC = _QuadricComputer()


@dataclass
class GwTable:
    """A persistent memo of genus-zero counts for one surface.

    ``entries`` holds the nonzero counts discovered so far; zero results
    are implicit.  On blow-ups the computed entries are orbit
    representatives ``(d, m_1 >= ... >= m_k)``: a count is the same for
    every permutation of the points, so one member stands for the orbit,
    and the memo is seeded by orbit, so entries listing other members load
    as well.  Tables round-trip through the JSON cache files.
    """

    surface: Surface
    entries: dict[CurveClass, int] = field(default_factory=dict)
    version: int = CACHE_VERSION

    def _computer(self):
        comp = self.__dict__.get("_comp")
        if comp is None:
            seed = {cls.coeffs: value for cls, value in self.entries.items()}
            comp = (
                _BlowupComputer(seed)
                if self.surface.is_blowup
                else _QuadricComputer(seed)
            )
            self.__dict__["_comp"] = comp
        return comp

    def _harvest(self) -> None:
        """Pull the nonzero counts of the right rank out of the memo.

        The memo only grows, in insertion order, so only the entries added
        since the last harvest are read.
        """
        comp = self.__dict__.get("_comp")
        if comp is None:
            return
        memo, rank = comp.memo, self.surface.rank
        start = self.__dict__.get("_harvested", 0)
        for coeffs, value in islice(memo.items(), start, None):
            if value and len(coeffs) == rank:
                self.entries[CurveClass(coeffs)] = value
        self.__dict__["_harvested"] = len(memo)


def _resolve(surface: Surface, table: GwTable | None):
    if table is None:
        return _SHARED_BLOWUP if surface.is_blowup else _SHARED_QUADRIC
    if table.surface != surface:
        raise SurfaceMismatch(
            f"table belongs to {table.surface.descriptor}, not {surface.descriptor}"
        )
    return table._computer()


def n0(surface: Surface, beta: CurveClass, table: GwTable | None = None) -> int:
    """Number of irreducible rational curves in ``beta`` through
    ``delta(beta)`` generic points."""
    surface.check_class(beta)
    comp = _resolve(surface, table)
    value = comp.value(beta.coeffs)
    if table is not None:
        table._harvest()
    return value


def support_pairs(
    surface: Surface, beta: CurveClass, table: GwTable | None = None
) -> Iterator[tuple[CurveClass, int, CurveClass, int]]:
    """Ordered splittings ``beta = beta1 + beta2`` with both counts nonzero.

    Yields ``(beta1, n0(beta1), beta2, n0(beta2))``.  This is the sum range
    shared by every splitting formula downstream: terms outside it vanish.
    """
    surface.check_class(beta)
    comp = _resolve(surface, table)
    for c1, n1, c2, n2 in comp.pairs(beta.coeffs):
        yield CurveClass(c1), n1, CurveClass(c2), n2
    if table is not None:
        table._harvest()


def support_enumerate(
    surface: Surface, max_anticanonical_degree: int, table: GwTable | None = None
) -> list[tuple[CurveClass, int]]:
    """All classes with nonzero count and anticanonical degree up to the
    bound, sorted lexicographically by coefficient vector."""
    if max_anticanonical_degree < 1:
        raise InvalidClass("the anticanonical degree bound must be at least 1")
    comp = _resolve(surface, table)
    rows: list[tuple[CurveClass, int]] = []
    if surface.is_blowup:
        comp.ensure(surface.k, max_anticanonical_degree)
        for degree in range(1, max_anticanonical_degree + 1):
            for bucket in comp.support[(surface.k, degree)].values():
                rows.extend((CurveClass(c), v) for c, v in bucket.items())
    else:
        comp.ensure(max_anticanonical_degree)
        for degree in range(1, max_anticanonical_degree + 1):
            rows.extend((CurveClass(c), v) for c, v in comp.support[degree].items())
    if table is not None:
        table._harvest()
    rows.sort(key=lambda row: row[0].coeffs)
    return rows


# ---------------------------------------------------------------------------
# Cache files: versioned JSON with counts as decimal strings, e.g.
# {"version":1,"surface":"blp2:k=2","entries":[{"class":[3,1,1],"n0":"12"}]}
# Serialization is canonical (sorted entries, fixed separators) so that
# save -> load -> save reproduces the file byte for byte.


def save_cache(table: GwTable, path: str | Path) -> None:
    """Write the table atomically: the file at ``path`` is either the old one
    or the complete new one, never a torn mix, also under concurrent runs."""
    rows = sorted(table.entries.items(), key=lambda item: item[0].coeffs)
    document = {
        "version": table.version,
        "surface": table.surface.descriptor,
        "entries": [
            {"class": list(cls.coeffs), "n0": str(value)} for cls, value in rows
        ],
    }
    target = Path(path)
    # One writer per process and thread at a time, so the name is its own.
    writer = f"{os.getpid()}.{threading.get_ident()}"
    partial = target.with_name(f".{target.name}.{writer}.tmp")
    try:
        partial.write_text(json.dumps(document, separators=(",", ":")) + "\n")
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_cache(path: str | Path) -> GwTable:
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CacheFormatError(f"cache file {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise CacheFormatError(f"cache file {path} must hold a JSON object")
    for key in ("version", "surface", "entries"):
        if key not in document:
            raise CacheFormatError(f"cache file {path} lacks the {key!r} field")
    if document["version"] != CACHE_VERSION:
        raise CacheFormatError(
            f"cache file {path} has version {document['version']!r}, "
            f"expected {CACHE_VERSION}"
        )
    try:
        surface = Surface.parse(document["surface"])
    except (InvalidClass, TypeError) as exc:
        raise CacheFormatError(f"cache file {path}: {exc}") from exc
    entries: dict[CurveClass, int] = {}
    orbits: dict[Coeffs, int] = {}
    rows = document["entries"]
    if not isinstance(rows, list):
        raise CacheFormatError(f"cache file {path}: entries must be a list")
    for row in rows:
        if not isinstance(row, dict) or "class" not in row or "n0" not in row:
            raise CacheFormatError(f"cache file {path}: malformed entry {row!r}")
        vector = row["class"]
        if not isinstance(vector, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in vector
        ):
            raise CacheFormatError(f"cache file {path}: bad class vector {vector!r}")
        if len(vector) != surface.rank:
            raise SurfaceMismatch(
                f"cache file {path}: class {vector} does not fit "
                f"{surface.descriptor}"
            )
        raw = row["n0"]
        if not isinstance(raw, str):
            raise CacheFormatError(f"cache file {path}: counts must be strings")
        try:
            value = int(raw)
        except ValueError:
            raise CacheFormatError(
                f"cache file {path}: bad decimal string {raw!r}"
            ) from None
        if surface.is_blowup:
            # Counts are invariant under permuting the points, and the memo
            # is seeded by orbit: conflicting members would make one win.
            key = _orbit_key(tuple(vector))
            if orbits.setdefault(key, value) != value:
                raise CacheFormatError(
                    f"cache file {path}: class {vector} has count {value}, but"
                    f" a permutation of it has {orbits[key]}"
                )
        entries[CurveClass(tuple(vector))] = value
    return GwTable(surface=surface, entries=entries)
