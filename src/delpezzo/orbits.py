"""Point-permutation and Cremona orbits of blow-up classes.

A blow-up class ``(d, m_1, ..., m_k)`` has the same genus-zero count as
every class obtained by permuting its multiplicities, so the splitting
walks of the genus-zero engine keep one representative per orbit,
``orbit_key``: the multiplicities in non-increasing order.  The points of
a representative with equal multiplicity form blocks of consecutive
indices, the runs of ``runs``, and the permutations within blocks are its
stabiliser.

With the quadratic transformation based at three points the permutations
generate the Weyl group W(E_k), which preserves pairings, degrees and
counts (Goettsche-Pandharipande).  ``standard_form`` follows a key down by
the steps at ``d >= 1`` to ``m_1 + m_2 + m_3 <= d``, fewer than three
points, or ``d <= 0``, one key per orbit; the genus-zero memo, the cache
rows and the genus-two moments are keyed by it.

``placements`` enumerates the ways to put the multiplicities of one
representative on the points of another, one per orbit of that
stabiliser, with the orbit size as weight: the splitting walk of the
engine is a walk over placements.  With every point a block of its own,
the placements are the members themselves, each of weight 1: that is how
the engine walks a class with every point pinned, and how ``orbit_rows``
expands orbits of more than one member at the output boundary.  That case
takes a direct path of nested ``itertools.combinations`` inside
``placements``, and ``orbit_rows`` turns each arrangement into an
``operator.itemgetter`` that builds a member in one step.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate, combinations
from math import comb
from operator import itemgetter

Coeffs = tuple[int, ...]


def orbit_key(c: Coeffs) -> Coeffs:
    """Representative of the point-permutation orbit of a blow-up class."""
    return (c[0], *sorted(c[1:], reverse=True))


def standard_form(c: Coeffs) -> Coeffs:
    """The orbit key of ``c`` carried down by the quadratic transformation
    at its three largest multiplicities, re-sorted after each step, while
    ``d >= 1`` and their excess ``x = m_1 + m_2 + m_3 - d`` is positive: a
    member of the W(E_k)-orbit of ``c``, reached in finitely many steps of
    lower ``d``, and the key under which the genus-zero engine stores the
    count of every class that reaches it.

    The transformation sends ``(d; m_1, m_2, m_3, ...)`` to
    ``(2d - m_1 - m_2 - m_3; d - m_2 - m_3, d - m_1 - m_3, d - m_1 - m_2, ...)``,
    which is ``x`` taken off ``d`` and off each of the three: at ``d = 1``
    it takes ``(1; 1, 1, 0, ...)`` to the exceptional key ``(0; 0, ..., -1)``
    and ``(1; 1, 1, 1, ...)`` to ``d = -1``, of count 0.  The steps run in
    a loop, so a chain of any length costs no stack."""
    d, ms = c[0], sorted(c[1:], reverse=True)
    while len(ms) >= 3 and d >= 1 and (x := ms[0] + ms[1] + ms[2] - d) > 0:
        d -= x
        ms[0] -= x
        ms[1] -= x
        ms[2] -= x
        ms.sort(reverse=True)
    return (d, *ms)


def runs(values: Coeffs) -> tuple[Coeffs, Coeffs]:
    """The distinct entries of a non-increasing tuple and their multiplicities."""
    distinct: list[int] = []
    counts: list[int] = []
    for v in values:
        if distinct and distinct[-1] == v:
            counts[-1] += 1
        else:
            distinct.append(v)
            counts.append(1)
    return tuple(distinct), tuple(counts)


def placements(counts: Coeffs, sizes: Coeffs) -> list[tuple[int, Coeffs]]:
    """The ways to place a multiset with run lengths ``counts`` on points in
    consecutive blocks of ``sizes``, one per orbit of the permutations
    within blocks, as ``(orbit size, labels)``: ``labels[p]`` is the index
    of the run whose value goes on the ``p``-th point.

    Runs are placed in order, each spread over the blocks with free
    points; a block fills its points in order, so it gets one sorted
    multiset of runs and each orbit is met once.  Putting ``n`` copies on
    ``f`` free points of a block multiplies the weight by ``C(f, n)``: the
    product is the multinomial number of ways to arrange each block's
    multiset.  Blocks with one free point take a combination of copies.

    Blocks of one point each, the case of every pinned walk and of
    ``orbit_rows``, take a direct path: the placements are the distinct
    arrangements of the multiset, each of weight 1, and each run but the
    last takes a combination of the points the earlier runs left free, in
    the same order as the general path.
    """
    labels = [0] * sum(sizes)
    out: list[tuple[int, Coeffs]] = []
    last = len(counts) - 1
    if last <= 0:
        # One run, or none, fills every point.
        return [(1, tuple(labels))]
    if len(sizes) == len(labels):

        def arrange(run: int, free: Iterable[int]) -> None:
            if run + 1 < last:
                for chosen in combinations(free, counts[run]):
                    for p in chosen:
                        labels[p] = run
                    arrange(run + 1, [p for p in free if p not in chosen])
                return
            # The last run fills every point this one leaves free.
            for p in free:
                labels[p] = last
            for chosen in combinations(free, counts[run]):
                for p in chosen:
                    labels[p] = run
                out.append((1, tuple(labels)))
                for p in chosen:
                    labels[p] = last

        arrange(0, range(len(labels)))
        return out
    ends = list(accumulate(sizes))
    free = list(sizes)

    def place(run: int, weight: int) -> None:
        # Every run placed here leaves at least the last one to follow.
        wide = [b for b, f in enumerate(free) if f > 1]
        ones = [b for b, f in enumerate(free) if f == 1]
        spread(run, wide, 0, counts[run], weight, ones)

    def spread(run: int, wide: list[int], i: int, left: int, weight: int,
               ones: list[int]) -> None:
        if i < len(wide):
            b = wide[i]
            f = free[b]
            first = ends[b] - f
            for n in range(min(left, f), -1, -1):
                labels[first:first + n] = [run] * n
                free[b] = f - n
                spread(run, wide, i + 1, left - n, weight * comb(f, n), ones)
            free[b] = f
            return
        if run + 1 < last:
            for chosen in combinations(ones, left):
                for b in chosen:
                    labels[ends[b] - 1] = run
                    free[b] = 0
                place(run + 1, weight)
                for b in chosen:
                    free[b] = 1
            return
        # The last run fills every point this one leaves free.
        for end, f in zip(ends, free):
            labels[end - f:end] = [last] * f
        for chosen in combinations(ones, left):
            for b in chosen:
                labels[ends[b] - 1] = run
            out.append((weight, tuple(labels)))
            for b in chosen:
                labels[ends[b] - 1] = last

    place(0, 1)
    return out


def orbit_rows(items: Iterable[tuple[Coeffs, int]]) -> list[tuple[Coeffs, int]]:
    """``(member, count)`` for every member of the point-permutation orbit of
    each ``(representative, count)``.  Representatives with the same run
    lengths share, for this call only, one ``itemgetter`` per arrangement,
    which builds a member in one step from the distinct multiplicities and
    the line degree.  A representative with at most one point, or with its
    multiplicities all equal, is its orbit's only member and yields itself;
    a bidegree ``(a, b)``, read as a class with one point, is one."""
    shared: dict[Coeffs, list[itemgetter]] = {}
    rows: list[tuple[Coeffs, int]] = []
    for rep, value in items:
        # Non-increasing multiplicities are all equal when the first is the last.
        if len(rep) < 3 or rep[1] == rep[-1]:
            rows.append((rep, value))
            continue
        values, counts = runs(rep[1:])
        members = shared.get(counts)
        if members is None:
            # Run r sits at index r of (*values, d), and d after the last run.
            members = shared[counts] = [
                itemgetter(len(counts), *labels)
                for _, labels in placements(counts, (1,) * (len(rep) - 1))
            ]
        source = (*values, rep[0])
        rows.extend([(member(source), value) for member in members])
    return rows
