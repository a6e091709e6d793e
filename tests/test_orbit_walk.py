"""The genus-zero engine walks splittings once per stabiliser orbit.

A class ``beta`` on a blow-up is fixed by the permutations of points of
equal multiplicity.  The engine yields one ordered splitting per orbit of
that stabiliser, weighted by the orbit size, and only the output expands
orbits into members: ``support_pairs`` is the same walk with every point
pinned, so each orbit is one pair.  These tests hold the walk against the
brute-force splitting box of ``splitting_box.py`` and against brute-force
orbits built here from ``itertools.permutations``, on classes with
repeated multiplicities where the orbits are larger than one pair.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from delpezzo.genus0 import GwTable, n0, support_pairs
from delpezzo.genus2 import _moments, _pair_terms, _sums
from delpezzo.orbits import orbit_key
from delpezzo.surface import CurveClass, Surface
from engine_walks import ordered_orbit_pairs
from splitting_box import binomial, splittings

# Classes with repeated multiplicities on k = 3..8 points, small enough for
# the box (which grows like (d + 2)^k), some of them not orbit keys.
REPEATED = [
    (3, (4, 2, 2, 1)),
    (3, (5, 2, 2, 2)),
    (3, (4, 1, 2, 2)),
    (4, (5, 2, 2, 1, 1)),
    (4, (5, 1, 2, 1, 2)),
    (5, (4, 2, 1, 1, 1, 1)),
    (6, (4, 2, 1, 1, 1, 1, 1)),
    (7, (2, 1, 1, 1, 1, 0, 0, 0)),
    (8, (2, 0, 1, 0, 1, 0, 1, 1, 0)),
]
IDS = [f"k{k}-{','.join(map(str, c))}" for k, c in REPEATED]


def _stabiliser_images(beta: tuple[int, ...], part: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Brute force: the images of ``part`` under every permutation of the
    points that fixes ``beta``."""
    points = range(1, len(beta))
    images = set()
    for perm in itertools.permutations(points):
        if all(beta[p] == beta[q] for p, q in zip(points, perm)):
            images.add((part[0], *(part[q] for q in perm)))
    return images


@pytest.mark.parametrize("k, coeffs", REPEATED, ids=IDS)
def test_expanded_orbit_pairs_match_the_box(k, coeffs):
    surface, beta = Surface.blowup(k), CurveClass(coeffs)
    table = GwTable(surface=surface)
    box = Counter()
    for b1, b2 in splittings(surface, beta):
        n1, n2 = n0(surface, b1, table), n0(surface, b2, table)
        if n1 and n2:
            box[(b1.coeffs, n1, b2.coeffs, n2)] += 1
    expanded = Counter(
        (b1.coeffs, n1, b2.coeffs, n2) for b1, n1, b2, n2 in support_pairs(surface, beta, table)
    )
    orbits = list(ordered_orbit_pairs(surface, beta, table))
    assert expanded == box
    assert len(orbits) < sum(box.values())  # the stabiliser is not trivial here


@pytest.mark.parametrize("k, coeffs", REPEATED, ids=IDS)
def test_orbit_weights_count_their_members(k, coeffs):
    # The walk of any member yields the splittings of its orbit key.
    surface, key = Surface.blowup(k), orbit_key(coeffs)
    table = GwTable(surface=surface)
    covered = set()
    walk = ordered_orbit_pairs(surface, CurveClass(coeffs), table)
    for weight, degree1, c1, n1, c2, n2 in walk:
        images = _stabiliser_images(key, c1)
        assert weight == len(images)
        assert not images & covered  # one pair per orbit
        covered |= images
        assert c2 == tuple(a - b for a, b in zip(key, c1))
        assert degree1 == surface.anticanonical_degree(CurveClass(c1))
        assert (n1, n2) == (n0(surface, CurveClass(c1)), n0(surface, CurveClass(c2)))
    assert covered == {b1.coeffs for b1, *_ in support_pairs(surface, CurveClass(key), table)}


# The summands of the two relations: (A, B) = (L, L) for two points, read
# at coordinates (i, j) = (0, 0) on blow-ups and (1, 0) on the quadric,
# and four divisors contracted over the lattice for none.  Both are
# invariant under permuting the points, so the walk pins none.
def _two_point(delta, degree1, c1, c2, dot, i=0, j=0):
    delta1 = degree1 - 1
    bracket = c2[j] * binomial(delta - 3, delta1 - 1) - c1[j] * binomial(delta - 3, delta1)
    return dot(c1, c2) * c1[i] * bracket


def _four_divisor(delta, degree1, c1, c2, dot, i=0, j=0):
    pairing = dot(c1, c2)
    return binomial(delta - 1, degree1 - 1) * pairing * (
        dot(c1, c1) * dot(c2, c2) - pairing * pairing
    )


def _relation_sums(surface, key, table):
    """Each relation's summand summed over the ordered pairs of
    ``support_pairs``, and the value the engine's own relation gives: the
    two-point relation returns the sum itself (A.B = 1), the four-divisor
    relation the sum over its leading coefficient 2 (1 - r) beta^2, which
    must then be exact (on the plane it is zero, and so must be the sum)."""
    engine = table._engine
    dot = surface._dot
    delta = surface.delta(CurveClass(key))
    i, j = engine.lattice.two_point
    pairs = [(b1.coeffs, n1, b2.coeffs, n2)
             for b1, n1, b2, n2 in support_pairs(surface, CurveClass(key), table)]
    two_point, four_divisor = (
        sum(n1 * n2 * summand(delta, surface.delta(CurveClass(c1)) + 1, c1, c2, dot, i, j)
            for c1, n1, c2, n2 in pairs)
        for summand in (_two_point, _four_divisor)
    )
    kappa = 2 * (1 - len(key)) * dot(key, key)
    engine_four = engine._four_divisor_relation(key, delta) * kappa if kappa else 0
    return (two_point, four_divisor), (engine._two_point_relation(key, delta), engine_four)


@pytest.mark.parametrize("k, coeffs", REPEATED, ids=IDS)
def test_weighted_relation_sums_match_the_pair_sums(k, coeffs):
    surface = Surface.blowup(k)
    key = orbit_key(coeffs)
    delta = surface.delta(CurveClass(key))
    table = GwTable(surface=surface)
    engine = table._engine
    dot = surface._dot
    pairs = [(b1.coeffs, n1, b2.coeffs, n2)
             for b1, n1, b2, n2 in support_pairs(surface, CurveClass(key), table)]
    for summand in (_two_point, _four_divisor):
        expected = sum(
            n1 * n2 * summand(delta, surface.delta(CurveClass(c1)) + 1, c1, c2, dot)
            for c1, n1, c2, n2 in pairs
        )
        weighted = sum(
            weight * n1 * n2 * summand(delta, degree1, c1, c2, dot)
            for weight, degree1, c1, n1, c2, n2 in engine.pairs(key)
        )
        assert weighted == expected, summand.__name__
    # The engine's relations walk each unordered splitting once.
    expected, actual = _relation_sums(surface, key, table)
    assert actual == expected


# One class per position a splitting of the half walk can take: below the
# middle level, on the middle level in a bucket e < d - e, and in the
# middle bucket e = d - e; with the positions each class meets.
HALVES = [
    ("blp2:k=0", (4,), {"below", "bucket"}),  # 4 = 2 + 2
    ("p1xp1", (2, 2), {"below", "bucket"}),  # (2, 2) = (1, 1) + (1, 1)
    ("p1xp1", (4, 4), {"below", "level", "bucket"}),
    ("blp2:k=4", (5, 2, 2, 2, 1), {"below", "level"}),
    ("blp2:k=5", (4, 2, 1, 1, 1, 1), {"below", "level", "bucket"}),
]


def _stabiliser_orbit(key, part):
    """The parts' multiplicities sorted within each block of equal
    multiplicity of ``key``: one label per stabiliser orbit of a part."""
    return (part[0], *sorted(zip(key[1:], part[1:])))


@pytest.mark.parametrize("descriptor, coeffs, positions", HALVES,
                         ids=[f"{d}-{','.join(map(str, c))}" for d, c, _ in HALVES])
def test_half_walk_stands_for_the_ordered_walk(descriptor, coeffs, positions):
    # A pair of the half walk off the middle bucket stands for its own
    # orbit and its mirror's, of the same size, and carries twice that
    # size; a pair of the middle bucket carries its own orbit's size.
    # Together they are the ordered walk's orbits, with the same weights.
    surface = Surface.parse(descriptor)
    table = GwTable(surface=surface)
    engine = table._engine
    key = coeffs
    degree = surface.anticanonical_degree(CurveClass(key))
    ordered, halves, met = Counter(), Counter(), set()
    for weight, _, c1, n1, c2, n2 in engine.pairs(key):
        ordered[(_stabiliser_orbit(key, c1), _stabiliser_orbit(key, c2), n1, n2)] += weight
    for weight, degree1, c1, n1, c2, n2 in engine.pairs(key, half=True):
        assert 2 * degree1 <= degree
        if 2 * degree1 < degree:
            position = "below"
        else:
            assert 2 * c1[0] <= key[0]
            position = "level" if 2 * c1[0] < key[0] else "bucket"
        met.add(position)
        u, v = _stabiliser_orbit(key, c1), _stabiliser_orbit(key, c2)
        if position == "bucket":
            halves[(u, v, n1, n2)] += weight
        else:
            assert weight % 2 == 0
            halves[(u, v, n1, n2)] += weight // 2
            halves[(v, u, n2, n1)] += weight // 2
    assert met == positions
    assert halves == ordered
    expected, actual = _relation_sums(surface, key, table)
    assert actual == expected
    assert any(expected)


def test_pinning_the_read_points_matters():
    # On (5; 2, 2, 2) the points are one block; a summand that reads E_1
    # is not invariant under the stabiliser, and its weighted sum over the
    # unpinned walk differs from its sum over the pairs, which the walk
    # with every point pinned yields one by one.  The test above would
    # catch a relation whose summand read a point.
    surface = Surface.blowup(3)
    key = (5, 2, 2, 2)
    table = GwTable(surface=surface)
    engine = table._engine
    sums = [
        sum(
            weight * n1 * n2 * c1[1] * c2[0]
            for weight, _, c1, n1, c2, n2 in engine.pairs(key, pinned)
        )
        for pinned in (0, surface.k)
    ]
    assert sums[0] != sums[1]


def _expanded_sums(surface, beta, table):
    """``S0, S1, S2`` summed over the ordered pairs of ``support_pairs``."""
    deg = surface.anticanonical_degree(beta)
    sums = [0, 0, 0]
    for b1, n1, b2, n2 in support_pairs(surface, beta, table):
        t0 = binomial(deg - 2, surface.delta(b1)) * n1 * n2 * surface.intersect(b1, b2)
        sums[0] += t0
        sums[1] += t0 * surface.anticanonical_degree(b1) * surface.anticanonical_degree(b2)
        sums[2] += t0 * surface.self_intersection(b1) * surface.self_intersection(b2)
    return tuple(sums)


@pytest.mark.parametrize("k, coeffs", REPEATED, ids=IDS)
def test_weighted_moments_match_the_pair_sums(k, coeffs):
    surface, beta = Surface.blowup(k), CurveClass(coeffs)
    table = GwTable(surface=surface)
    moments = _moments(surface, beta, table)
    assert (moments.s0, moments.s1, moments.s2) == _expanded_sums(surface, beta, table)
    assert moments.beta == beta


# Every standard form with delta >= 1 up to these anticanonical degrees.
STANDARD_FORM_BOUNDS = [(f"blp2:k={k}", 8) for k in range(4, 9)] + [("p1xp1", 24)]


@pytest.mark.parametrize("descriptor, bound", STANDARD_FORM_BOUNDS,
                         ids=[d for d, _ in STANDARD_FORM_BOUNDS])
def test_weighted_moments_of_every_standard_form_match_the_ordered_walks(descriptor, bound):
    # The moments come from the half walk.  The same summands summed over
    # the ordered orbit walk (the one the sweep reads) must agree, and so
    # must the sums over the expanded pairs of support_pairs, except on
    # eight points, where expanding every member takes about 20 s.
    surface = Surface.parse(descriptor)
    table = GwTable(surface=surface)
    engine = table._engine
    engine.ensure(surface.rank, bound)
    classes = 0
    for degree in range(2, bound + 1):
        for bucket in engine.support[(surface.rank, degree)].values():
            for key in bucket:
                if engine.lattice.key(key) != key:
                    continue
                beta = CurveClass(key)
                moments = _moments(surface, beta, table)
                sums = (moments.s0, moments.s1, moments.s2)
                assert sums == _sums(_pair_terms(surface, beta, table)), key
                if surface.k != 8:
                    assert sums == _expanded_sums(surface, beta, table), key
                classes += 1
    assert classes >= 15


def test_moments_are_kept_per_orbit_and_rebuilt_for_the_caller():
    surface = Surface.blowup(3)
    table = GwTable(surface=surface)
    first, second = CurveClass((5, 2, 1, 2)), CurveClass((5, 2, 2, 1))
    a = _moments(surface, first, table)
    assert list(table._engine.moments) == [(5, 2, 2, 1)]
    b = _moments(surface, second, table)
    assert len(table._engine.moments) == 1
    assert (a.beta, b.beta) == (first, second)
    assert (a.n0, a.s0, a.s1, a.s2) == (b.n0, b.s0, b.s1, b.s2)


def test_levels_hold_orbit_keys_only():
    surface = Surface.blowup(8)
    table = GwTable(surface=surface)
    beta = CurveClass((8, 4, 2, 2, 2, 2, 2, 2, 2))
    assert surface.anticanonical_degree(beta) == 6
    n0(surface, beta, table)
    engine = table._engine
    assert engine.ensured[9] == 5
    keys = [c for level in engine.support.values() for bucket in level.values() for c in bucket]
    assert len(keys) > 1000
    assert all(c == orbit_key(c) for c in keys)
    assert all(c == orbit_key(c) for c in engine.memo)
