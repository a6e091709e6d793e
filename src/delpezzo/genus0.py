"""Genus-zero curve counts by recursion.

The engine computes the number ``n0(beta)`` of irreducible rational curves
in a class ``beta`` through ``delta(beta)`` generic points.

It uses coefficient identities of the genus-zero point-insertion potential:
associativity of the quantum product (WDVV) contracted with two divisors
and two point classes, three divisors and one point, or four divisors.
Writing ``delta_i`` for ``delta(beta_i)`` and ``C`` for the binomial, the
three relations are, for divisors A, B, C, D and sums over ordered
splittings ``beta = beta1 + beta2`` into nonzero parts:

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

The two-point relation is one piece of code for every lattice.  Its
divisors have A.B = 1 and are read as coordinates of the coefficient
vector: (A, B) = (L, L) is (0, 0) on blow-ups, and (e_1, e_2) is (1, 0)
on the quadric (beta.e_1 = b, beta.e_2 = a).  On the plane it is
Kontsevich's recursion, so the plane needs no case of its own; on the
quadric every bidegree with a, b >= 1 has delta >= 3, so it always
applies.  On blow-ups it serves delta >= 3; delta = 2 uses the triple
(E_1, L, E_1) (leading coefficient d), and delta = 1 the quadruple
(E_i, E_j, E_i, E_j) at the two largest multiplicities (leading
coefficient m_i^2 + m_j^2 > 0).  Classes the relations cannot reach
(delta = 0, degree >= 2, every multiplicity >= 2) are pushed through the
quadratic Cremona transformation based at the three largest
multiplicities, which strictly lowers the degree.  Before any of that, a
class with a multiplicity 0 or 1 loses that coefficient: forgetting a
blown-up point off the curve, or trading a point of multiplicity one for
a generic point constraint, leaves the count unchanged and shrinks the
lattice.

Counts on blow-ups are invariant under permuting the blown-up points
(Goettsche-Pandharipande), so the blow-up memo is keyed by orbit
representatives ``(d, m_1 >= ... >= m_k)`` and every orbit is computed
once.  Candidates are enumerated one non-increasing multiplicity tuple
per orbit and then expanded into all permutations, because splittings
need every member.

Splitting sums run over support levels: for each rank and anticanonical
degree, the classes with nonzero count, bucketed by their first
coordinate (the line degree, or ``a`` on the quadric).  Both are
additive, so a splitting ``beta = beta1 + beta2`` pairs the bucket ``e``
of level ``D1`` only with the bucket ``beta[0] - e`` of level ``D - D1``:
on blow-ups the walk joins the two, on the quadric each bucket holds one
bidegree.  A complement missing from its bucket has count zero, because
the candidates of a level contain every class that can carry curves.
The levels are filled in order of degree before a relation reads them,
so evaluation is bottom-up: only the drop and Cremona reductions nest, a
few frames per step, whatever the degree.  All divisions are exact and
asserted; a failed division or a stalled reduction raises
RecursionFailure instead of returning a wrong number.

One engine class serves every surface through a small per-lattice record
(``_Lattice``).  Each ``GwTable`` owns one engine; a public call without
a table builds a fresh table for that call alone.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from math import isqrt
from operator import sub
from pathlib import Path
from typing import Callable

from .errors import (
    CacheFormatError,
    InvalidClass,
    RecursionFailure,
    SurfaceMismatch,
)
from .numerics import binomial, from_decimal_string, to_decimal_string
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
# (anticanonical degree of the first part, c1, n0(c1), c2, n0(c2))
Pair = tuple[int, Coeffs, int, Coeffs, int]


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


def _blowup_degree(c: Coeffs) -> int:
    return 3 * c[0] - sum(c[1:])


def _blowup_candidates(rank: int, degree: int) -> list[Coeffs]:
    """Blow-up classes of the given rank (``k + 1`` on ``k`` points) and
    anticanonical degree that can carry curves.

    These are the exceptional classes (degree 1) and the vectors with
    d >= 1, 0 <= m_i <= d and nonnegative genus, i.e.
    sum m_i (m_i - 1) <= (d-1)(d-2).  The degree bound on d comes from
    combining the genus bound with Cauchy-Schwarz on sum m_i.  The
    multiplicities are enumerated once per orbit (non-increasing) and
    each representative is expanded into its distinct permutations;
    the classes with d >= 1 come out in lexicographic order.
    """
    k = rank - 1
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


def _quadric_degree(c: Coeffs) -> int:
    return 2 * (c[0] + c[1])


def _quadric_candidates(rank: int, degree: int) -> list[Coeffs]:
    """Bidegrees of the given anticanonical degree that can carry curves."""
    if degree == 2:
        return [(0, 1), (1, 0)]
    if degree % 2 or degree < 4:
        return []
    half = degree // 2
    return [(a, half - a) for a in range(1, half)]


class _Engine:
    """Genus-zero counts on one lattice family, memoised and evaluated
    bottom-up.

    ``memo`` maps orbit keys (see ``_Lattice.key``) to counts, zeros
    included.  On blow-ups the tuple
    length encodes the surface (length k+1 on k points), so the
    coefficient-dropping reduction reuses one memo across ranks.

    ``support`` maps ``(rank, anticanonical degree)`` to that level's
    classes with nonzero count, every permutation listed, bucketed by the
    first coordinate: ``{c[0]: {coeffs: count}}``.  ``ensure`` fills the
    levels in order of degree, the lattice's walk reads two of them per
    splitting and ``support_enumerate`` reads them; nothing else stores
    the support.
    """

    def __init__(self, surface: Surface, seed: Iterable[tuple[Coeffs, int]] = ()) -> None:
        self.lattice = _BLOWUPS if surface.is_blowup else _QUADRIC
        self.dot = surface._dot
        key = self.lattice.key
        self.memo: dict[Coeffs, int] = {key(c): v for c, v in seed}
        self.support: dict[tuple[int, int], dict[int, dict[Coeffs, int]]] = {}
        self.ensured: dict[int, int] = {}

    def value(self, c: Coeffs) -> int:
        key = self.lattice.key(c)
        cached = self.memo.get(key)
        if cached is None:
            cached = self.memo[key] = self.lattice.reduce(self, key)
        return cached

    def pairs(self, c: Coeffs) -> Iterator[Pair]:
        """Ordered splittings of ``c`` into two classes with nonzero counts,
        each with the anticanonical degree of its first part."""
        degree = self.lattice.degree(c)
        self.ensure(len(c), degree - 1)
        return self.lattice.walk(self, c, degree)

    def ensure(self, rank: int, bound: int) -> None:
        """Fill the support levels of ``rank`` up to anticanonical degree ``bound``."""
        for degree in range(self.ensured.get(rank, 0) + 1, bound + 1):
            level: dict[int, dict[Coeffs, int]] = {}
            for cand in self.lattice.candidates(rank, degree):
                if v := self.value(cand):
                    level.setdefault(cand[0], {})[cand] = v
            self.support[(rank, degree)] = level
            self.ensured[rank] = degree

    # -- splitting walks ----------------------------------------------------

    def _join_walk(self, c: Coeffs, degree: int) -> Iterator[Pair]:
        """Blow-ups: join two levels on the line degree.  The smaller of two
        matching buckets is walked and each complement is one lookup in the
        other."""
        rank, d = len(c), c[0]
        for degree1 in range(1, degree):
            partners = self.support[(rank, degree - degree1)]
            for e, bucket in self.support[(rank, degree1)].items():
                others = partners.get(d - e)
                if not others:
                    continue
                if len(bucket) <= len(others):
                    for c1, n1 in bucket.items():
                        c2 = tuple(map(sub, c, c1))
                        if n2 := others.get(c2):
                            yield degree1, c1, n1, c2, n2
                else:
                    for c2, n2 in others.items():
                        c1 = tuple(map(sub, c, c2))
                        if n1 := bucket.get(c1):
                            yield degree1, c1, n1, c2, n2

    def _bidegree_walk(self, c: Coeffs, degree: int) -> Iterator[Pair]:
        """The quadric: level ``D1`` is read only at the first coordinates
        ``a1`` that leave a nonnegative complement, in increasing ``a1``;
        each bucket holds the one bidegree ``(a1, D1/2 - a1)``."""
        a, b = c
        for degree1 in range(2, degree, 2):
            half1 = degree1 // 2
            level1, level2 = self.support[(2, degree1)], self.support[(2, degree - degree1)]
            for a1 in range(max(0, half1 - b), min(a, half1) + 1):
                if (bucket1 := level1.get(a1)) and (bucket2 := level2.get(a - a1)):
                    [(c1, n1)] = bucket1.items()
                    [(c2, n2)] = bucket2.items()
                    yield degree1, c1, n1, c2, n2

    # -- reduction pipelines -------------------------------------------------

    def _reduce_blowup(self, c: Coeffs) -> int:
        d, ms = c[0], c[1:]
        if d < 0:
            return 0
        if d == 0:
            exceptional = all(m in (0, -1) for m in ms) and ms.count(-1) == 1
            return 1 if exceptional else 0
        if ms and (ms[-1] < 0 or ms[0] > d):
            return 0
        delta = _blowup_degree(c) - 1
        if delta < 0:
            return 0
        if d == 1:
            # A line through at most two of the blown-up points is unique.
            return 1
        if delta == 0 and d * d - sum(m * m for m in ms) == -1:
            # Rigid class of self-intersection -1: one curve, no constraints.
            return 1
        if ms and ms[-1] <= 1:
            return self.value(c[:-1])
        if delta >= 3:
            return self._two_point_relation(c, delta)
        if delta == 2:
            return self._one_point_relation(c, delta)
        if delta == 1:
            return self._four_divisor_relation(c, delta)
        return self._cremona(c)

    def _reduce_quadric(self, c: Coeffs) -> int:
        a, b = c
        if a < 0 or b < 0:
            return 0
        if (a, b) in ((1, 0), (0, 1)):
            return 1
        if a == 0 or b == 0:
            # Multiple covers of a ruling never pass through enough points.
            return 0
        return self._two_point_relation(c, 2 * a + 2 * b - 1)

    # -- relations -----------------------------------------------------------

    def _two_point_relation(self, c: Coeffs, delta: int) -> int:
        # b.A = b[i] and b.B = b[j]; the leading coefficient A.B is 1.
        i, j = self.lattice.two_point
        dot = self.dot
        # row[delta1] = C(delta-3, delta1-1) for the 0 <= delta1 < delta of the parts.
        row = [binomial(delta - 3, r) for r in range(-1, delta)]
        total = 0
        for degree1, c1, n1, c2, n2 in self.pairs(c):
            pairing = dot(c1, c2)
            if pairing == 0:
                continue
            delta1 = degree1 - 1
            bracket = c2[j] * row[delta1] - c1[j] * row[delta1 + 1]
            total += n1 * n2 * (pairing * c1[i]) * bracket
        return total

    def _one_point_relation(self, c: Coeffs, delta: int) -> int:
        # (A, B, C) = (E_1, L, E_1), E_1 of the largest multiplicity of the
        # representative; leading coefficient
        # (E1.L)(beta.E1) - (E1.E1)(beta.L) = d.
        d = c[0]
        dot = self.dot
        total = 0
        for degree1, c1, n1, c2, n2 in self.pairs(c):
            pairing = dot(c1, c2)
            if pairing == 0:
                continue
            delta1 = degree1 - 1
            m1a, m1b = c1[1], c2[1]  # beta_i . E_1
            total += (
                binomial(delta - 2, delta1)
                * n1
                * n2
                * pairing
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
        dot = self.dot
        total = 0
        for degree1, c1, n1, c2, n2 in self.pairs(c):
            pairing = dot(c1, c2)
            if pairing == 0:
                continue
            delta1 = degree1 - 1
            pi1, pj1 = c1[1], c1[2]  # beta_1 . E_1, beta_1 . E_2
            pi2, pj2 = c2[1], c2[2]
            total += (
                binomial(delta - 1, delta1)
                * n1
                * n2
                * pairing
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


@dataclass(frozen=True)
class _Lattice:
    """What the engine needs to know about one family of lattices."""

    key: Callable[[Coeffs], Coeffs]  # orbit representative: the memo key
    degree: Callable[[Coeffs], int]  # anticanonical degree
    candidates: Callable[[int, int], list[Coeffs]]  # (rank, degree) -> classes
    reduce: Callable[[_Engine, Coeffs], int]  # pipeline on a representative
    walk: Callable[[_Engine, Coeffs, int], Iterator[Pair]]  # (c, degree) -> pairs
    two_point: tuple[int, int]  # coordinates of (A, B) in the two-point relation


_BLOWUPS = _Lattice(
    key=_orbit_key,
    degree=_blowup_degree,
    candidates=_blowup_candidates,
    reduce=_Engine._reduce_blowup,
    walk=_Engine._join_walk,
    two_point=(0, 0),
)
_QUADRIC = _Lattice(
    key=tuple,
    degree=_quadric_degree,
    candidates=_quadric_candidates,
    reduce=_Engine._reduce_quadric,
    walk=_Engine._bidegree_walk,
    two_point=(1, 0),
)


class _Entries(Mapping):
    """Read-only view of the nonzero memo entries of one rank."""

    def __init__(self, memo: dict[Coeffs, int], rank: int) -> None:
        self._memo, self._rank = memo, rank

    def __getitem__(self, beta: CurveClass) -> int:
        value = self._memo.get(beta.coeffs) if len(beta.coeffs) == self._rank else None
        if not value:
            raise KeyError(beta)
        return value

    def __iter__(self) -> Iterator[CurveClass]:
        return (CurveClass(c) for c, _ in self._counts())

    def __len__(self) -> int:
        return sum(1 for _ in self._counts())

    def _counts(self) -> Iterator[tuple[Coeffs, int]]:
        rank = self._rank
        return ((c, v) for c, v in self._memo.items() if v and len(c) == rank)


class GwTable:
    """A persistent memo of genus-zero counts for one surface.

    The table owns the engine that computes its counts.  ``entries`` is a
    read-only view of the nonzero counts of the surface's rank computed or
    loaded so far; zero results are implicit.  On blow-ups the entries are
    orbit representatives ``(d, m_1 >= ... >= m_k)``: a count is the same
    for every permutation of the points, so one member stands for the
    orbit, and the memo is seeded by orbit, so ``entries`` passed in that
    list other members load as well.  Tables round-trip through the JSON
    cache files.
    """

    def __init__(
        self, surface: Surface, entries: Mapping[CurveClass, int] | None = None
    ) -> None:
        self.surface = surface
        seed = ((cls.coeffs, value) for cls, value in (entries or {}).items())
        self._engine = _Engine(surface, seed)

    @property
    def entries(self) -> Mapping[CurveClass, int]:
        return _Entries(self._engine.memo, self.surface.rank)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GwTable):
            return NotImplemented
        return self.surface == other.surface and dict(self.entries) == dict(other.entries)

    def __repr__(self) -> str:
        return f"GwTable(surface={self.surface!r}, entries={dict(self.entries)!r})"


def _engine(surface: Surface, table: GwTable | None) -> _Engine:
    """The table's engine, or a fresh engine for one call."""
    if table is None:
        return _Engine(surface)
    if table.surface != surface:
        raise SurfaceMismatch(
            f"table belongs to {table.surface.descriptor}, not {surface.descriptor}"
        )
    return table._engine


def n0(surface: Surface, beta: CurveClass, table: GwTable | None = None) -> int:
    """Number of irreducible rational curves in ``beta`` through
    ``delta(beta)`` generic points."""
    surface.check_class(beta)
    return _engine(surface, table).value(beta.coeffs)


def support_pairs(
    surface: Surface, beta: CurveClass, table: GwTable | None = None
) -> Iterator[tuple[CurveClass, int, CurveClass, int]]:
    """Ordered splittings ``beta = beta1 + beta2`` with both counts nonzero.

    Yields ``(beta1, n0(beta1), beta2, n0(beta2))``.  This is the sum range
    shared by every splitting formula downstream: terms outside it vanish.
    """
    surface.check_class(beta)
    for _, c1, n1, c2, n2 in _engine(surface, table).pairs(beta.coeffs):
        yield CurveClass(c1), n1, CurveClass(c2), n2


def support_enumerate(
    surface: Surface, max_anticanonical_degree: int, table: GwTable | None = None
) -> list[tuple[CurveClass, int]]:
    """All classes with nonzero count and anticanonical degree up to the
    bound, sorted lexicographically by coefficient vector."""
    if max_anticanonical_degree < 1:
        raise InvalidClass("the anticanonical degree bound must be at least 1")
    engine = _engine(surface, table)
    engine.ensure(surface.rank, max_anticanonical_degree)
    rows = [
        (CurveClass(c), v)
        for degree in range(1, max_anticanonical_degree + 1)
        for bucket in engine.support[(surface.rank, degree)].values()
        for c, v in bucket.items()
    ]
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
    rows = sorted(table.entries._counts())
    document = {
        "version": CACHE_VERSION,
        "surface": table.surface.descriptor,
        "entries": [
            {"class": list(c), "n0": to_decimal_string(value)} for c, value in rows
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
            value = from_decimal_string(raw)
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
