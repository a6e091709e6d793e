"""Genus-zero curve counts by recursion.

The engine computes the number ``n0(beta)`` of irreducible rational curves
in a class ``beta`` through ``delta(beta)`` generic points.

It uses coefficient identities of the genus-zero point-insertion potential:
associativity of the quantum product (WDVV) contracted with two divisors
and two point classes, or with four divisors.  Writing ``delta_i`` for
``delta(beta_i)``, ``deg_i = delta_i + 1``, ``C`` for the binomial and
``w = C(delta-1, delta1)``, the splitting moments (``genus2`` reads the
first three), summed over ordered splittings ``beta = beta1 + beta2``
into nonzero parts, are

  S0 = sum w n1 n2 (b1.b2)               S2 = sum w n1 n2 (b1.b2) b1^2 b2^2
  S1 = sum w n1 n2 (b1.b2) deg1 deg2     S3 = sum w n1 n2 (b1.b2)^3

and the two relations are, for divisors A, B:

  [two points]   (A.B) n(beta) =
      sum n1 n2 (b1.b2) [ (b1.A)(b2.B) C(delta-3, delta1-1)
                          - (b1.A)(b1.B) C(delta-3, delta1) ]

  [no points]    2 (1 - r) beta^2 n(beta) = S2 - S3

The second is WDVV with four divisors (A, B, C, D), which holds at every
delta >= 1, summed over (e_a, e_b, e^a, e^b) for a basis e_a of a lattice
of rank r and its dual basis e^a under the intersection form: the sums
sum_a (x.e_a)(y.e^a) = x.y and sum_a e_a.e^a = r leave only pairings.

The two-point relation is one piece of code for every lattice.  Its
divisors have A.B = 1 and are read as coordinates of the coefficient
vector: (A, B) = (L, L) is (0, 0) on blow-ups, and (e_1, e_2) is (1, 0)
on the quadric (beta.e_1 = b, beta.e_2 = a).  On the plane it is
Kontsevich's recursion, so the plane needs no case of its own; on the
quadric every bidegree with a, b >= 1 has delta >= 3, so it always
applies.

On the quadric the counts are invariant under swapping the two rulings,
n(a, b) = n(b, a), so the swap is the quadric's orbit: the memo is keyed
by the sorted bidegree (a >= b) and the relation runs only on a >= b.

On blow-ups the counts are invariant under the Weyl group W(E_k), which
the permutations of the points and the quadratic Cremona transformation
generate (Goettsche-Pandharipande).  So the memo is keyed by the standard
form of a class, ``orbits.standard_form``: its orbit key carried down by
Cremona steps, each of which strictly lowers the degree, to d <= 0,
m_1 + m_2 + m_3 <= d or fewer than three points.  A standard form with a
multiplicity 0 or 1 loses that coefficient: forgetting a blown-up point
off the curve, or trading a point of multiplicity one for a generic point
constraint, leaves the count unchanged and shrinks the lattice.  Every
class that reaches ``reduce`` is a standard form on k <= 8 points, and
past the guards for d <= 0 and for a multiplicity outside [0, d] it has
delta >= 0: sum m_i <= k d / 3 <= 8d / 3 on k >= 3 points, as
m_3 <= d / 3, and sum m_i <= 2d on fewer, so
delta = 3d - 1 - sum m_i >= d / 3 - 1 > -1.  Only what
is left evaluates a relation: the two-point relation for delta >= 3 and
the four-divisor relation for delta = 1, 2, on the lattice of rank
r = 1 + (points left).  What is left has d >= 2 and every m_i >= 2, and
sum m_i = 3d - 1 - delta.  On fewer than three points sum m_i <= 2d, so
d <= 3: the classes with delta = 1, 2 are (2; 2, 2) and (3; 3, 3), with
r = 3 and beta^2 = -4, -9 (one point would need d <= 1).  On k >= 3
points m_3 <= d / 3, so sum m_i <= k d / 3, which with sum m_i >= 3d - 3
gives (9 - k) d <= 9, while m_1 + m_2 + m_3 <= d forces d >= 6: only
k = 8 is left, with 6 <= d <= 9.  There sum m_i <= d + 5 m_3 <=
d + 5 floor(d / 3), which reaches 3d - 3 only at d = 6 (all m_i = 2) and
d = 9 (all m_i = 3): -2K = (6; 2^8) and -3K = (9; 3^8), with r = 9 and
beta^2 = 4, 9.  So the leading coefficient 2 (1 - r) beta^2 is never
zero where the relation runs.  Nothing of degree >= 2 is left at
delta = 0, where sum m_i = 3d - 1: the bound on sum m_i above gives
d <= 3 and m_3 <= 1, and the drop has taken it.

The splitting walks work on the smaller orbits of the point
permutations: candidates are enumerated one orbit representative
``(d, m_1 >= ... >= m_k)`` per orbit, and the support levels hold only
those representatives, each read from the memo at its standard form.

Splitting sums run over support levels: for each rank and anticanonical
degree, the orbit representatives with nonzero count, bucketed by their
first coordinate (the line degree, or ``a`` on the quadric).  Both are
additive, so a splitting ``beta = beta1 + beta2`` pairs the bucket ``e``
of level ``D1`` only with the bucket ``beta[0] - e`` of level ``D - D1``.
The walk of an orbit key ``beta`` enumerates ``beta1`` up to
its stabiliser, the permutations of points of equal multiplicity: each
representative of the smaller bucket is placed on the points of ``beta``
once per way of giving every block of equal multiplicity a multiset of
part multiplicities, weighted by the number of ways to arrange that
multiset in the block, and the complement is one lookup of its orbit key
in the other bucket.  Every summand of the relations and of the genus-two
moments is invariant under the stabiliser.  With at most one point (the
plane, one point, or a bidegree ``(a, b)`` read as line degree ``a`` and
multiplicity ``b``) a class is fixed by its degree and first coordinate,
so two matching buckets hold one class each, a part and its complement,
which the walk yields as they stand, of weight 1: one walk serves both
lattices.  A complement missing from its bucket has count zero, because
the candidates of a level contain every orbit that can carry curves.
Permutations are built only at the output: ``support_enumerate`` expands
the orbits into every member through ``orbits.orbit_rows`` on both
lattices, and ``support_pairs`` is the same walk of any member with every
point pinned (``pinned`` is a flag: no point or all of them), so each of
its orbits is one ordered pair.  The orbit combinatorics (keys, standard
forms, runs, placements, expansion) live in ``orbits``.

Swapping the two parts maps the splittings of a class onto themselves,
so the relations and the genus-two moments read the half walk, which
yields each unordered splitting once: the levels ``D1 <= D / 2`` only,
and on the middle level ``D1 = D / 2`` only the buckets
``e <= beta[0] - e``.  Its weights count the ordered splittings a pair
stands for.  A pair whose mirror ``(beta2, beta1)`` lies in another level
or bucket stands for the mirror's orbit too, which has the same size, so
its weight is twice its orbit size; the middle bucket pairs with itself,
so its placements yield both orders, each weighted by its orbit size.
The moments' summands are swap-invariant, as ``C(delta-1, delta1) =
C(delta-1, delta2)``, so ``_Engine.terms`` yields them with these weights
as they stand, to both genera.  The two-point relation's summand is not:
it sums the summands of a pair and of its mirror, which
with ``delta2 = delta - 1 - delta1`` and ``C(n, r) = C(n, n - r)`` reads
``C(delta-3, delta1-1)`` and ``C(delta-3, delta1-2)``, and halves the
total, which counts both orders twice; the halving is exact and
asserted.  ``support_pairs`` and the swap test of the consistency suite
keep the full ordered walk: the output lists every ordered pair, and the
swap test compares the two orders of one walk, which a walk that built
the mirrors would pass by construction.  The binomials are the
two-point relation's row, one per relation, of ``math.comb`` padded with
zeros below the triangle, and ``math.comb`` in ``terms``, inside it.

The levels are filled in order of degree before a relation reads them,
so evaluation is bottom-up.  ``standard_form`` runs a Cremona chain in a
loop, so only the drop nests one ``reduce`` in another, and it removes a
point: a chain nests about one ``reduce`` per point, and the deepest
chain of a ``blp2:k=8`` fill to anticanonical degree 10 nests 10.  Each
relation ends in one division by its leading coefficient, which the theory
promises exact.  It goes through ``numerics.exact_quotient``: a remainder
raises NonIntegralResult naming the relation and the class.  A reduction
that applies to nothing raises RecursionFailure.  Neither returns a wrong
number.

One engine class serves every surface through a small per-lattice record
(``_Lattice``).  Each ``GwTable`` owns one engine; a public call without
a table builds a fresh table for that call alone.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import repeat
from math import comb, isqrt
from operator import index, itemgetter, sub
from pathlib import Path
from stat import S_ISREG
from typing import Callable

from .errors import (
    CacheFormatError,
    DelPezzoError,
    InvalidClass,
    RecursionFailure,
    SurfaceMismatch,
)
from .numerics import exact_quotient, from_decimal_string, to_decimal_string
from .orbits import Coeffs, orbit_rows, placements, runs, standard_form
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

# (weight, anticanonical degree of the first part, c1, n0(c1), c2, n0(c2)):
# one ordered splitting standing for ``weight`` of them, its images under
# the permutations of the points that fix the split class, and in the half
# walk also their mirrors (c2, c1).
Pair = tuple[int, int, Coeffs, int, Coeffs, int]
# (weight, c1, c2, (t0, t1, t2, t3)): a pair's summands of S0, S1, S2, S3.
Term = tuple[int, Coeffs, Coeffs, tuple[int, int, int, int]]


def moment_sums(terms: Iterable[Term]) -> tuple[int, int, int, int]:
    """``(S0, S1, S2, S3)`` of the summands ``_Engine.terms`` yields: each
    ``(weight, c1, c2, (t0, t1, t2, t3))`` adds ``weight * t_i`` to ``S_i``."""
    s0 = s1 = s2 = s3 = 0
    for weight, _, _, (t0, t1, t2, t3) in terms:
        s0 += weight * t0
        s1 += weight * t1
        s2 += weight * t2
        s3 += weight * t3
    return s0, s1, s2, s3


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


def _blowup_degree(c: Coeffs) -> int:
    return 3 * c[0] - sum(c[1:])


def _blowup_candidates(rank: int, degree: int) -> list[Coeffs]:
    """Blow-up classes of the given rank (``k + 1`` on ``k`` points) and
    anticanonical degree that can carry curves.

    These are the exceptional classes (degree 1) and the vectors with
    d >= 1, 0 <= m_i <= d and nonnegative genus, i.e.
    sum m_i (m_i - 1) <= (d-1)(d-2).  The degree bound on d comes from
    combining the genus bound with Cauchy-Schwarz on sum m_i; its ``disc``
    is k (D^2 - (9-k) D + 2 (9-k)) >= 0 for k <= 8, and every d of the
    range has 0 <= 3d - D <= k d.  One orbit
    representative per point-permutation orbit: the multiplicities are
    non-increasing, and the exceptional classes are ``(0, 0, ..., 0, -1)``.
    """
    k = rank - 1
    out: list[Coeffs] = []
    if k == 0:
        if degree % 3 == 0 and degree >= 3:
            out.append((degree // 3,))
        return out
    if degree == 1:
        out.append((0,) * k + (-1,))
    disc = 9 * degree * degree - (9 - k) * (degree * degree + k * degree - 2 * k)
    d_lo = max(1, (degree + 2) // 3)
    d_hi = (3 * degree + isqrt(disc)) // (9 - k)
    for d in range(d_lo, d_hi + 1):
        target = 3 * d - degree
        cap = (d - 1) * (d - 2)
        out.extend((d,) + rep for rep in _sorted_multiplicities(target, k, d, cap))
    return out


def _quadric_degree(c: Coeffs) -> int:
    return 2 * (c[0] + c[1])


def _sorted_bidegree(c: Coeffs) -> Coeffs:
    """The quadric's orbit key and standard form: the bidegree with
    ``a >= b``, which the swap of the two rulings reaches."""
    a, b = c
    return c if a >= b else (b, a)


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

    ``memo`` maps standard forms (see ``_Lattice.key``) to counts, zeros
    included: a class is stored at the standard form it reaches.  On
    blow-ups the tuple length encodes the surface (length k+1 on k
    points), so the coefficient-dropping reduction reuses one memo across
    ranks.

    ``support`` maps ``(rank, anticanonical degree)`` to that level's orbit
    representatives with nonzero count, bucketed by the first coordinate:
    ``{c[0]: {key: count}}``.  ``ensure`` fills the levels in order of
    degree, evaluating one candidate per orbit; the walk reads two of them
    per splitting and ``support_enumerate`` expands them;
    nothing else stores the support.

    ``shapes`` caches ``orbits.runs`` of each representative's
    multiplicities, and ``placements`` the ``orbits.placements`` of each
    pair of run lengths and block sizes the walks meet: label patterns, one
    per stabiliser orbit, shared by every representative of the same shape.

    ``moments`` is the genus-two layer's memo on the same table, with the
    same keys: standard form to its genus-two record (``genus2._Moments``),
    built once from ``n0`` and the half walk of that form.  Every quantity
    in it is invariant under the lattice's symmetries, so the members of an
    orbit share it.
    """

    def __init__(self, surface: Surface) -> None:
        self.lattice = _BLOWUPS if surface.is_blowup else _QUADRIC
        self.dot = surface._dot
        self.memo: dict[Coeffs, int] = {}
        self.support: dict[tuple[int, int], dict[int, dict[Coeffs, int]]] = {}
        self.ensured: dict[int, int] = {}
        self.shapes: dict[Coeffs, tuple[Coeffs, Coeffs]] = {}
        self.placements: dict[tuple[Coeffs, Coeffs], list[tuple[int, Coeffs]]] = {}
        self.moments: dict[Coeffs, object] = {}  # genus2._Moments records

    def value(self, c: Coeffs) -> int:
        key = self.lattice.key(c)
        cached = self.memo.get(key)
        if cached is None:
            cached = self.memo[key] = self.lattice.reduce(self, key)
        return cached

    def seed(self, c: Coeffs, value: int) -> None:
        """Store a count from outside the engine, a table entry or a cache
        row, at the standard form of ``c``.  A base case must carry the
        engine's count and two counts of one orbit must agree, or
        InvalidClass names ``c``; a key that needs the drop rule or a
        relation is trusted."""
        key = self.lattice.key(c)
        known = self.lattice.reduce(self, key, False)
        if known is not None and known != value:
            raise InvalidClass(
                f"class {list(c)} has count {value}, but its orbit"
                f" (standard form {list(key)}) has {known}"
            )
        if (held := self.memo.setdefault(key, value)) != value:
            raise InvalidClass(
                f"class {list(c)} has count {value}, but an earlier row of its"
                f" orbit (standard form {list(key)}) has {held}"
            )

    def pairs(self, c: Coeffs, pinned: bool = False, half: bool = False) -> Iterator[Pair]:
        """Ordered splittings of ``c`` into two classes with nonzero counts,
        one per orbit of the permutations of points that fix ``c``, weighted
        by the orbit size; ``c`` is an orbit key.  With every point
        ``pinned`` only the identity fixes them all, so ``c`` may be any
        member of its orbit and every pair has weight 1.  The quadric has no
        points, and there ``pinned`` changes nothing.

        The half walk (``half``, which pins no point) yields each unordered
        splitting once, weighted by the ordered splittings it stands for: it
        reads the levels ``degree1 <= degree / 2``, and on the middle level
        only the buckets ``e <= c[0] - e``.  A pair whose mirror ``(c2, c1)``
        lies in another level or bucket stands for the mirror's orbit too,
        of the same size, so its weight is twice its orbit size.  The middle
        bucket pairs with itself, so its placements yield both orders, each
        weighted by its orbit size."""
        degree = self.lattice.degree(c)
        self.ensure(len(c), degree - 1)
        return self._orbit_walk(c, degree, pinned, half)

    def terms(self, c: Coeffs, half: bool = False) -> Iterator[Term]:
        """The summands ``(weight, c1, c2, (t0, t0 deg1 deg2, t0 b1^2 b2^2,
        t0 (b1.b2)^2))`` of ``S0 .. S3``, ``t0 = w n1 n2 (b1.b2)``, one per
        pair of the walk of the orbit key ``c`` (``pairs``, full or
        ``half``).  Both parts have ``deg1, deg2 >= 1``, so ``w = C(deg - 2,
        deg1 - 1)`` is ``math.comb`` inside the triangle."""
        dot = self.dot
        degree = self.lattice.degree(c)
        for weight, degree1, c1, n1, c2, n2 in self.pairs(c, half=half):
            pairing = dot(c1, c2)
            t0 = comb(degree - 2, degree1 - 1) * n1 * n2 * pairing
            squares = dot(c1, c1) * dot(c2, c2)
            yield weight, c1, c2, (t0, t0 * degree1 * (degree - degree1), t0 * squares,
                                   t0 * pairing * pairing)

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

    def _orbit_walk(
        self, c: Coeffs, degree: int, pinned: bool, half: bool
    ) -> Iterator[Pair]:
        """Join two levels on the first coordinate.  Each representative of
        the smaller of two matching buckets is placed on the points of ``c``
        once per stabiliser orbit, and each complement is one lookup of its
        orbit key in the other bucket; with at most one point each bucket
        holds one class, the part or its complement."""
        rank, d = len(c), c[0]
        points = c[1:]
        # The blocks of equal multiplicity, or pinned a block per point.
        sizes = (1,) * len(points) if pinned else runs(points)[1]
        for degree1 in range(1, degree // 2 + 1 if half else degree):
            partners = self.support[(rank, degree - degree1)]
            middle = half and 2 * degree1 == degree
            for e, bucket in self.support[(rank, degree1)].items():
                others = partners.get(d - e)
                if not others:
                    continue
                # Off the middle bucket a pair of the half walk stands for its
                # mirror too.
                scale = 2 if half else 1
                if middle:
                    if 2 * e > d:
                        continue
                    scale = 2 if 2 * e < d else 1
                if rank <= 2:
                    [(part, n)] = bucket.items()
                    [(other, m)] = others.items()
                    yield scale, degree1, part, n, other, m
                    continue
                if len(bucket) <= len(others):
                    walked, looked_up, first = bucket, others, True
                else:
                    walked, looked_up, first = others, bucket, False
                for rep, n in walked.items():
                    line = rep[0]
                    for weight, ms in self._placed(rep, sizes):
                        rest = map(sub, points, ms)
                        if not (m := looked_up.get((d - line, *sorted(rest, reverse=True)))):
                            continue
                        part = (line, *ms)
                        other = tuple(map(sub, c, part))
                        if first:
                            yield scale * weight, degree1, part, n, other, m
                        else:
                            yield scale * weight, degree1, other, m, part, n

    def _placed(self, rep: Coeffs, sizes: Coeffs) -> list[tuple[int, Coeffs]]:
        """``(weight, multiplicities)`` for each placement of the
        multiplicities of the representative ``rep`` on blocks of ``sizes``
        (see ``orbits.placements``)."""
        shape = self.shapes.get(rep)
        if shape is None:
            shape = self.shapes[rep] = runs(rep[1:])
        values, counts = shape
        patterns = self.placements.get((counts, sizes))
        if patterns is None:
            patterns = self.placements[(counts, sizes)] = placements(counts, sizes)
        pick = values.__getitem__
        return [(weight, tuple(map(pick, labels))) for weight, labels in patterns]

    # -- reduction pipelines -------------------------------------------------

    # With ``relations`` false a pipeline returns its base-case count, or
    # None where the drop rule or a relation would run (see ``seed``).

    def _reduce_blowup(self, c: Coeffs, relations: bool = True) -> int | None:
        d, ms = c[0], c[1:]
        if d < 0:
            return 0
        if d == 0:
            exceptional = all(m in (0, -1) for m in ms) and ms.count(-1) == 1
            return 1 if exceptional else 0
        if ms and (ms[-1] < 0 or ms[0] > d):
            return 0
        delta = 3 * d - sum(ms) - 1
        if d == 1:
            # A line through at most two of the blown-up points is unique; on
            # three or more points the key passes through at most one.
            return 1
        if not relations:
            return None
        if ms and ms[-1] <= 1:
            return self.value(c[:-1])
        if delta >= 3:
            return self._two_point_relation(c, delta)
        if delta >= 1:
            return self._four_divisor_relation(c)
        raise RecursionFailure(f"no reduction applies to {c}")

    def _reduce_quadric(self, c: Coeffs, relations: bool = True) -> int | None:
        a, b = c  # a >= b: the memo key
        if b < 0:
            return 0
        if (a, b) == (1, 0):
            return 1
        if b == 0:
            # Multiple covers of a ruling never pass through enough points.
            return 0
        return self._two_point_relation(c, 2 * a + 2 * b - 1) if relations else None

    # -- relations -----------------------------------------------------------

    def _two_point_relation(self, c: Coeffs, delta: int) -> int:
        # b.A = b[i] and b.B = b[j]; the leading coefficient A.B is 1.
        i, j = self.lattice.two_point
        dot = self.dot
        # row[delta1 + 2] = C(delta-3, delta1), zero outside the triangle: the
        # parts have 0 <= delta1 < delta, and a mirror reads delta1 - 2.
        top = delta - 3
        row = [0, 0, *map(comb, repeat(top), range(top + 1)), 0, 0]
        total = 0
        for weight, degree1, c1, n1, c2, n2 in self.pairs(c, half=True):
            pairing = dot(c1, c2)
            if pairing == 0:
                continue
            # The summands of (c1, c2) and of its mirror (c2, c1): with
            # delta1 = degree1 - 1, C(delta-3, delta1-1) = row[degree1], and
            # the mirror's delta2 = delta - 1 - delta1 turns its binomials
            # into C(delta-3, delta1-1) and C(delta-3, delta1-2).
            middle = row[degree1]
            term = c1[i] * (c2[j] * middle - c1[j] * row[degree1 + 1]) + c2[i] * (
                c1[j] * middle - c2[j] * row[degree1 - 1]
            )
            total += weight * n1 * n2 * pairing * term
        # The weights count both orders of each splitting, and so does term.
        return exact_quotient(total, 2, "two-point relation", c)

    def _four_divisor_relation(self, c: Coeffs) -> int:
        # (A, B, C, D) = (e_a, e_b, e^a, e^b) summed over a basis and its
        # dual leaves S2 - S3 of the half walk over the leading coefficient
        # 2 (1 - r) beta^2, on a lattice of rank r.
        _, _, s2, s3 = moment_sums(self.terms(c, half=True))
        kappa = 2 * (1 - len(c)) * self.dot(c, c)
        return exact_quotient(s2 - s3, kappa, "four-divisor relation", c)


@dataclass(frozen=True)
class _Lattice:
    """What the engine needs to know about one family of lattices; both
    walk splittings with ``_Engine._orbit_walk`` and expand orbits into
    members with ``orbits.orbit_rows``."""

    key: Callable[[Coeffs], Coeffs]  # standard form: the memo and the moments' key
    degree: Callable[[Coeffs], int]  # anticanonical degree
    candidates: Callable[[int, int], list[Coeffs]]  # (rank, degree) -> representatives
    reduce: Callable[..., int | None]  # (engine, key, relations=True): pipeline on a key
    two_point: tuple[int, int]  # coordinates of (A, B) in the two-point relation


_BLOWUPS = _Lattice(
    key=standard_form,
    degree=_blowup_degree,
    candidates=_blowup_candidates,
    reduce=_Engine._reduce_blowup,
    two_point=(0, 0),
)
_QUADRIC = _Lattice(
    key=_sorted_bidegree,
    degree=_quadric_degree,
    candidates=_quadric_candidates,
    reduce=_Engine._reduce_quadric,
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
    loaded so far; zero results are implicit.  The entries are standard
    forms, each standing for the classes that reach it: on blow-ups
    ``orbits.standard_form``, as a count is the same on every W(E_k)
    image, and the sorted bidegree ``(a >= b)`` on the quadric, as it is
    the same for both orders.  ``entries[beta]`` raises ``KeyError`` for a
    class that is not a standard form.  The memo is seeded by standard
    form, so ``entries`` passed in that list other members load as well.
    Each entry passed in must be a class of the surface with a positive
    int count; then ``_Engine.seed`` checks it as it checks a cache row:
    the members of one orbit must agree, and a member of an orbit the
    engine settles without a relation must carry that count.  Tables
    round-trip through the JSON cache files.
    """

    def __init__(
        self, surface: Surface, entries: Mapping[CurveClass, int] | None = None
    ) -> None:
        self.surface = surface
        self._engine = _Engine(surface)
        # (absolute path, len(entries)) of the cache file the table was last
        # loaded from or saved to, for save_cache to skip an unchanged table.
        self._stored: tuple[str, int] | None = None
        seed = self._engine.seed
        for cls, value in (entries or {}).items():
            # An entry of another rank would answer for the classes of its rank.
            surface.check_class(cls)
            # type() also rules out True, which compares equal to 1.
            if type(value) is not int or value <= 0:
                raise InvalidClass(f"class {cls} has count {value!r}, not a positive int")
            seed(cls.coeffs, value)

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
    It is the engine's full ordered walk (``_Engine.pairs``) of ``beta``
    with every point pinned: each point is then a block of its own, in
    any order, so every orbit is one ordered pair of weight 1, and both
    orders of every splitting are listed.
    """
    surface.check_class(beta)
    for _, _, c1, n1, c2, n2 in _engine(surface, table).pairs(beta.coeffs, pinned=True):
        yield CurveClass(c1), n1, CurveClass(c2), n2


def support_enumerate(
    surface: Surface, max_anticanonical_degree: int, table: GwTable | None = None
) -> list[tuple[CurveClass, int]]:
    """All classes with nonzero count and anticanonical degree up to the
    bound, sorted lexicographically by coefficient vector.  The support
    levels hold one representative per orbit; ``orbits.orbit_rows`` lists
    every member, and a bidegree, read as a class with one point, is its
    own only member.  No class is listed twice, so the rows are sorted on
    the coefficient vector alone, never comparing counts."""
    try:
        max_anticanonical_degree = index(max_anticanonical_degree)
    except TypeError:
        max_anticanonical_degree = 0
    if max_anticanonical_degree < 1:
        raise InvalidClass("the anticanonical degree bound must be an integer of at least 1")
    engine = _engine(surface, table)
    engine.ensure(surface.rank, max_anticanonical_degree)
    rows = orbit_rows(
        item
        for degree in range(1, max_anticanonical_degree + 1)
        for bucket in engine.support[(surface.rank, degree)].values()
        for item in bucket.items()
    )
    rows.sort(key=itemgetter(0))
    return [(CurveClass(c), v) for c, v in rows]


# ---------------------------------------------------------------------------
# Cache files: versioned JSON with counts as decimal strings, e.g.
# {"version":1,"surface":"blp2:k=2","entries":[{"class":[3,1,1],"n0":"12"}]}
# Serialization is canonical (sorted entries, fixed separators) so that
# save -> load -> save reproduces the file byte for byte.


def _cache_text(surface: Surface, rows: Mapping[Coeffs, int]) -> str:
    """The cache file of ``surface`` holding ``rows``, one per standard form."""
    document = {
        "version": CACHE_VERSION,
        "surface": surface.descriptor,
        "entries": [
            {"class": list(c), "n0": to_decimal_string(value)} for c, value in sorted(rows.items())
        ],
    }
    return json.dumps(document, separators=(",", ":")) + "\n"


def save_cache(table: GwTable, path: str | Path) -> None:
    """Write the table atomically: the file at ``path`` is either the old one
    or the complete new one, never a torn mix, also under concurrent runs.

    A table loaded from or saved to ``path`` that has learned no count
    since returns at once, without reading or writing the file: the memo
    only grows and never changes a value, so an equal number of entries
    means equal content, and a run that learned nothing cannot undo what a
    concurrent run added to the file.  Otherwise a file that already holds
    exactly these bytes is left untouched.  A save that writes keeps what
    a concurrent run added: the rows of the file it replaces that the
    table lacks go into the new file too, provided ``load_cache`` accepts
    that file, it belongs to the table's surface, and it agrees with every
    count the table holds, zeros included.  An unreadable, mismatched or
    conflicting file is overwritten from the table alone.  A symlink is
    followed, and its target is written; a path that names anything but a
    regular file or nothing, such as a directory, a device, a FIFO or a
    symlink loop, raises OSError and is left as it is.
    The table itself is not changed.  A failed write raises and records
    nothing, so the next save tries again."""
    where = os.path.abspath(path)
    count = len(table.entries)
    if table._stored == (where, count):
        return
    rows = dict(table.entries._counts())
    text = _cache_text(table.surface, rows)
    target = Path(os.path.realpath(path))  # a symlink's target, not the link
    if os.path.lexists(target) and not target.is_file():  # lexists also sees a loop
        raise OSError(f"cache file {path} is not a regular file")
    try:
        found = target.read_bytes()
    except OSError:
        found = None  # missing or unreadable: write it
    if found is not None and found != text.encode():
        try:
            theirs = load_cache(path)
        except DelPezzoError:
            theirs = None
        if theirs is not None and theirs.surface == table.surface:
            memo = table._engine.memo
            union = dict(theirs.entries._counts())
            if all(memo.get(c, v) == v for c, v in union.items()):
                union.update(rows)
                text = _cache_text(table.surface, union)
    if found == text.encode():
        table._stored = (where, count)
        return
    # One writer per process and thread at a time, so the name is its own.
    writer = f"{os.getpid()}.{threading.get_ident()}"
    partial = target.with_name(f".{target.name}.{writer}.tmp")
    try:
        partial.write_text(text)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    table._stored = (where, count)


def load_cache(path: str | Path) -> GwTable:
    """The one reader of cache files, which ``save_cache`` uses too: each
    row seeds the table through ``_Engine.seed``.  A path that is not a
    regular file (after symlinks), a file that cannot be read, is not as
    ``save_cache`` writes it or fails a seed raises CacheFormatError; a
    row of another rank raises SurfaceMismatch."""
    try:
        # A FIFO would block the read.
        if not S_ISREG(os.stat(path).st_mode):
            raise CacheFormatError(f"cache file {path} is not a regular file")
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheFormatError(f"cache file {path} cannot be read: {exc}") from exc
    try:
        document = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise CacheFormatError(f"cache file {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise CacheFormatError(f"cache file {path} nests its JSON too deeply") from None
    if not isinstance(document, dict):
        raise CacheFormatError(f"cache file {path} must hold a JSON object")
    for key in ("version", "surface", "entries"):
        if key not in document:
            raise CacheFormatError(f"cache file {path} lacks the {key!r} field")
    # type() also rules out true and 1.0, which compare equal to 1.
    if type(document["version"]) is not int or document["version"] != CACHE_VERSION:
        raise CacheFormatError(
            f"cache file {path} has version {document['version']!r}, "
            f"expected {CACHE_VERSION}"
        )
    try:
        surface = Surface.parse(document["surface"])
    except (InvalidClass, TypeError) as exc:
        raise CacheFormatError(f"cache file {path}: {exc}") from exc
    rows = document["entries"]
    if not isinstance(rows, list):
        raise CacheFormatError(f"cache file {path}: entries must be a list")
    table = GwTable(surface=surface)
    seed = table._engine.seed
    rank = surface.rank
    for row in rows:
        if not isinstance(row, dict) or "class" not in row or "n0" not in row:
            raise CacheFormatError(f"cache file {path}: malformed entry {row!r}")
        vector = row["class"]
        # type(c) is int also rules out bool, a subclass of int.
        if not isinstance(vector, list) or not set(map(type, vector)) <= {int}:
            raise CacheFormatError(f"cache file {path}: bad class vector {vector!r}")
        if len(vector) != rank:
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
        # Counts are never negative, and save_cache writes only nonzero ones.
        if value <= 0:
            raise CacheFormatError(
                f"cache file {path}: class {vector} has count {value}, not positive"
            )
        try:
            seed(tuple(vector), value)
        except InvalidClass as exc:
            raise CacheFormatError(f"cache file {path}: {exc}") from None
    table._stored = (os.path.abspath(path), len(table._engine.memo))  # every row has the rank
    return table
