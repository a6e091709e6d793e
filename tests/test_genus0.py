"""Genus-zero engine tests.

The classical plane recursion has an independent reference implementation
below, written straight from the closed formula before the engine existed;
the frozen table PLANE_TABLE came out of that reference and matches the
classical values.  The engine must agree with it everywhere, not just on
the frozen rows.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import stat
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo.errors import (
    CacheFormatError,
    InvalidClass,
    NonIntegralResult,
    RankMismatch,
    RecursionFailure,
    SurfaceMismatch,
)
from delpezzo.genus0 import (
    _BLOWUPS,
    GwTable,
    _blowup_candidates,
    _Engine,
    load_cache,
    n0,
    save_cache,
    support_enumerate,
    support_pairs,
)
from delpezzo.genus2 import genus2_report
from delpezzo.orbits import orbit_key, standard_form
from delpezzo.surface import CurveClass, Surface, quadric_to_blowup_class
from blowup_point import append_coefficient
from engine_walks import ordered_orbit_pairs
from recursion_limit import recursion_margin
from splitting_box import splittings


# ---------------------------------------------------------------------------
# Independent plane oracle.  n_1 = 1 and, for d >= 2,
#
#   n_d = sum_{d1+d2=d} C(3d-2, 3d1-1) d1 d2 n_{d1} n_{d2}
#         * (d1 d2 - 2 (d1-d2)^2 / (3d-2))  /  (6 (d-1)).
#
# Kept deliberately outside the package so the engine has something to
# disagree with.


@lru_cache(maxsize=None)
def plane_reference(d: int) -> int:
    if d == 1:
        return 1
    total = Fraction(0)
    for d1 in range(1, d):
        d2 = d - d1
        weight = math.comb(3 * d - 2, 3 * d1 - 1) * d1 * d2
        bracket = d1 * d2 - Fraction(2 * (d1 - d2) ** 2, 3 * d - 2)
        total += weight * plane_reference(d1) * plane_reference(d2) * bracket
    value = total / (6 * (d - 1))
    assert value.denominator == 1, f"plane recursion left a denominator at d={d}"
    return int(value)


PLANE_TABLE = [1, 1, 12, 620, 87304]  # d = 1..5, frozen from plane_reference

PLANE = Surface.blowup(0)
QUADRIC = Surface.quadric()

# The quadric's cache to anticanonical degree 30 in the older layout, which
# listed both orders of every bidegree (107 rows); and the sha256 of the same
# table written today, one sorted bidegree per orbit of the swap (57 rows).
TWO_ORDER_QUADRIC_FILE = Path(__file__).parent / "data" / "p1xp1-n30-two-orders.json"
QUADRIC_N30_SHA256 = "43fb64427882f7434b762f2119d947e40a07b67fc324454a63e069e0e6bb3b42"


def plane_class(d: int) -> CurveClass:
    return CurveClass((d,))


def test_plane_reference_matches_frozen_table():
    assert [plane_reference(d) for d in range(1, 6)] == PLANE_TABLE


def test_engine_matches_frozen_table():
    assert [n0(PLANE, plane_class(d)) for d in range(1, 6)] == PLANE_TABLE


def test_engine_matches_reference_through_degree_ten():
    for d in range(1, 11):
        assert n0(PLANE, plane_class(d)) == plane_reference(d)


# ---------------------------------------------------------------------------
# Base cases and zero rules.


@pytest.mark.parametrize(
    "k, coeffs, expected",
    [
        (1, (0, -1), 1),  # the exceptional curve itself
        (2, (0, 0, -1), 1),
        (1, (0, -2), 0),  # multiple cover of E_1
        (2, (0, -1, -1), 0),  # disconnected union E_1 + E_2
        (1, (1, -1), 0),  # L + E_1 has no irreducible members
        (1, (2, 3), 0),  # multiplicity exceeds degree
        (1, (-1, 0), 0),  # non-effective
        (1, (1, 1), 1),  # line through the blown-up point
        (2, (1, 1, 1), 1),  # line through both points
        (2, (3, 1, 1), 12),  # blow-down of the rational cubics
        (5, (2, 1, 1, 1, 1, 1), 1),  # the conic through five points
        (1, (2, 2), 0),  # conic doubled at a point degenerates
    ],
)
def test_blowup_fixtures(k, coeffs, expected):
    assert n0(Surface.blowup(k), CurveClass(coeffs)) == expected


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((1, 0), 1),
        ((0, 1), 1),
        ((2, 0), 0),
        ((0, 3), 0),
        ((1, 1), 1),
        ((-1, 2), 0),
    ],
)
def test_quadric_fixtures(coeffs, expected):
    assert n0(QUADRIC, CurveClass(coeffs)) == expected


def test_minus_one_classes_count_once():
    # A handful of classes with self-intersection -1 and anticanonical
    # degree 1: each is represented by a unique curve.
    cases = [
        (5, (2, 1, 1, 1, 1, 1)),
        (7, (3, 2, 1, 1, 1, 1, 1, 1)),
        (8, (4, 2, 2, 2, 1, 1, 1, 1, 1)),
        (8, (5, 2, 2, 2, 2, 2, 2, 1, 1)),
        (8, (6, 3, 2, 2, 2, 2, 2, 2, 2)),
    ]
    for k, coeffs in cases:
        surface = Surface.blowup(k)
        beta = CurveClass(coeffs)
        assert surface.self_intersection(beta) == -1
        assert surface.anticanonical_degree(beta) == 1
        assert n0(surface, beta) == 1


def test_degree_one_class_with_many_nodes():
    # Rational octics with eight general double points blow down to the
    # twelve rational cubics: drop the m=1 coefficients of (3; 1^8).
    surface = Surface.blowup(8)
    beta = CurveClass((3,) + (1,) * 8)
    assert surface.delta(beta) == 0
    assert n0(surface, beta) == 12


# The (-1)-curves of the plane blown up at k general points, classical
# (the root-system counts of del Pezzo surfaces), not from any recursion.
EXCEPTIONAL_CLASSES = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


@pytest.mark.parametrize("k", sorted(EXCEPTIONAL_CLASSES))
def test_degree_one_holds_the_exceptional_classes(k):
    # Anticanonical degree 1 holds the exceptional classes, each a single
    # curve, and on eight points also -K, with its twelve nodal cubics.
    surface = Surface.blowup(k)
    rows = support_enumerate(surface, 1)
    exceptional = [(beta, count) for beta, count in rows if surface.self_intersection(beta) == -1]
    assert len(exceptional) == EXCEPTIONAL_CLASSES[k]
    assert {count for _, count in exceptional} == {1}
    others = [row for row in rows if row not in exceptional]
    assert others == ([(surface.anticanonical, 12)] if k == 8 else [])


@pytest.mark.parametrize(
    "surface",
    [Surface.blowup(k) for k in range(9)] + [QUADRIC],
    ids=[f"k={k}" for k in range(9)] + ["quadric"],
)
def test_the_anticanonical_class_has_twelve_rational_curves(surface):
    # Rational curves in |-K| through the K^2 - 1 points: the twelve nodal
    # members of a pencil of elliptic curves, (2, 2) on the quadric.
    assert n0(surface, surface.anticanonical) == 12


def test_zero_class_rejected():
    with pytest.raises(InvalidClass):
        n0(PLANE, CurveClass((0,)))


# ---------------------------------------------------------------------------
# Structural properties.


def test_blow_down_invariance_small():
    for d in range(1, 6):
        base = n0(PLANE, plane_class(d))
        surface, beta = append_coefficient(PLANE, plane_class(d), 0)
        assert n0(surface, beta) == base
        surface2, beta2 = append_coefficient(surface, beta, -1)
        if surface2.delta(beta2) >= 0:
            assert n0(surface2, beta2) == base


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    ms=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
)
def test_point_permutation_symmetry(d, ms):
    surface = Surface.blowup(3)
    value = n0(surface, CurveClass((d, *ms)))
    for perm in ((ms[1], ms[2], ms[0]), (ms[2], ms[1], ms[0])):
        assert n0(surface, CurveClass((d, *perm))) == value


def test_cross_model_small():
    two_points = Surface.blowup(2)
    for a in range(0, 4):
        for b in range(0, 4):
            if a + b == 0:
                continue
            quadric_class = CurveClass((a, b))
            assert n0(QUADRIC, quadric_class) == n0(
                two_points, quadric_to_blowup_class(quadric_class)
            )


def test_support_pairs_agree_with_splittings_box():
    # The engine joins its support levels on the line degree; the oracle
    # enumerates a brute-force candidate box.  Filtered by nonzero counts
    # they must produce identical ordered pairs and counts, on one table
    # and with a fresh table per call.
    cases = [
        (Surface.blowup(2), CurveClass((2, 1, 1))),
        (Surface.blowup(2), CurveClass((3, 1, 1))),
        (Surface.blowup(1), CurveClass((3, 1))),
        (QUADRIC, CurveClass((2, 2))),
        (Surface.blowup(3), CurveClass((4, 2, 1, 1))),
        (Surface.blowup(3), CurveClass((3, 0, 1, 1))),
        (Surface.blowup(4), CurveClass((5, 2, 2, 1, 1))),
        (Surface.blowup(4), CurveClass((4, 2, 0, 1, 1))),
        (Surface.blowup(1), CurveClass((5, 2))),
        (Surface.blowup(0), CurveClass((5,))),
        (QUADRIC, CurveClass((3, 4))),
    ]
    exceptional_parts = 0
    for surface, beta in cases:
        for table in (GwTable(surface=surface), None):
            from_box = set()
            for b1, b2 in splittings(surface, beta):
                n1, n2 = n0(surface, b1, table), n0(surface, b2, table)
                if n1 and n2:
                    from_box.add((b1.coeffs, n1, b2.coeffs, n2))
            from_support = [
                (b1.coeffs, n1, b2.coeffs, n2)
                for b1, n1, b2, n2 in support_pairs(surface, beta, table)
            ]
            assert len(from_support) == len(set(from_support))
            assert set(from_support) == from_box
            exceptional_parts += sum(1 for c1, *_ in from_support if c1[0] == 0)
    assert exceptional_parts > 0


def test_warm_splitting_walk_makes_no_value_calls(monkeypatch):
    surface = Surface.blowup(4)
    table = GwTable(surface=surface)
    beta = CurveClass((7, 2, 2, 2, 2))
    before = list(support_pairs(surface, beta, table))
    calls = 0
    real_value = _Engine.value

    def counting_value(self, c):
        nonlocal calls
        calls += 1
        return real_value(self, c)

    monkeypatch.setattr(_Engine, "value", counting_value)
    assert list(support_pairs(surface, beta, table)) == before
    assert len(before) > 100
    assert calls == 0


def test_warm_quadric_splitting_walk_makes_no_value_calls(monkeypatch):
    table = GwTable(surface=QUADRIC)
    support_enumerate(QUADRIC, 30, table)
    assert 0 not in table._engine.memo.values()
    beta = CurveClass((8, 7))
    before = list(support_pairs(QUADRIC, beta, table))
    calls = 0
    real_value = _Engine.value

    def counting_value(self, c):
        nonlocal calls
        calls += 1
        return real_value(self, c)

    monkeypatch.setattr(_Engine, "value", counting_value)
    assert list(support_pairs(QUADRIC, beta, table)) == before
    assert len(before) > 40
    assert calls == 0


# sha256 of repr([(coeffs, count), ...]) for blp2:k=4 up to anticanonical
# degree 13, as computed by the engine that scanned every lower-degree
# support row and evaluated each complement.
K4_N13_ROWS_SHA256 = "48e6a85b3aad20c9c626a1e30e50174b2e4c99f25170b820e3bc75626e20eb6c"


def test_cold_support_rows_match_the_scanning_engine():
    surface = Surface.blowup(4)
    rows = support_enumerate(surface, 13, GwTable(surface=surface))
    digest = hashlib.sha256(repr([(c.coeffs, v) for c, v in rows]).encode())
    assert len(rows) == 1457
    assert digest.hexdigest() == K4_N13_ROWS_SHA256


# Computed by the engine that walked every ordered splitting in the
# relations: the number of memo entries and the sha256 of
# repr(sorted(memo.items())) after filling blp2:k=8 to anticanonical degree
# 8, when the line through two points (1; 1, 1, 0, ...) of each rank 4..9
# was a key of its own, and the number and sha256 of the support_pairs of a
# few classes, in the order they are yielded.
K8_N8_MEMO = (599, "a37975a8e4fbce23dabc7df3968241b4909fd517269dac3a55b49d3891e909f3")
# The same fill once the Cremona step at d = 1 took each of those lines to
# the exceptional key (0; 0, ..., -1) of its rank.
K8_N8_MEMO_JOINED = (593, "a414e1b18f5e0feefd1a835c3da311b83000e25e787b9040efcc94db208dad58")
ORDERED_PAIRS = (262, "243707c7757e3a9f9ba902c4abccee81d76f003761bc6a83501764c3968d5518")


def test_memo_and_ordered_pairs_match_the_ordered_relations():
    engine = _Engine(Surface.blowup(8))
    engine.ensure(9, 8)
    lines = [(1, 1, 1, *(0,) * (rank - 3)) for rank in range(4, 10)]
    assert not engine.memo.keys() & set(lines)
    assert all(engine.memo[(*(0,) * (rank - 1), -1)] == 1 for rank in range(4, 10))
    # Each line, of count 1, added back gives the memo of the separate keys.
    for memo, pin in (
        (engine.memo, K8_N8_MEMO_JOINED),
        ({**engine.memo, **dict.fromkeys(lines, 1)}, K8_N8_MEMO),
    ):
        memo = sorted(memo.items())
        assert (len(memo), hashlib.sha256(repr(memo).encode()).hexdigest()) == pin
    rows = []
    for descriptor, coeffs in [
        ("blp2:k=3", (7, 3, 2, 2)),
        ("blp2:k=4", (7, 2, 2, 2, 2)),
        ("p1xp1", (5, 4)),
        ("p1xp1", (4, 5)),
        ("blp2:k=0", (9,)),
    ]:
        surface = Surface.parse(descriptor)
        pairs = support_pairs(surface, CurveClass(coeffs))
        rows.append((descriptor, coeffs, [(b1.coeffs, n1, b2.coeffs, n2) for b1, n1, b2, n2 in pairs]))
    pairs_digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (sum(len(pairs) for *_, pairs in rows), pairs_digest) == ORDERED_PAIRS


# Computed by the two separate engines (blow-ups and quadric, with the plane
# on its closed degree recursion) before they were merged into one: for each
# (surface, bound), the row count and the sha256 of
# repr([(coeffs, count), ...]) for the support rows, and the sha256 of
# repr([(coeffs, sorted support_pairs), ...]) over the rows whose
# multiplicities are non-increasing (every row on the plane and the
# quadric, the 112 orbit representatives on k=8).
MERGE_PINS = {
    ("blp2:k=0", 180): (
        60,
        "0e4f9481303a479779b2d260de461024d3151d24d899088b1ddda41446e545d0",
        "1eb0c9e62ea53aed2fd4de8b3baf546db21791abec40d8a3c52a2e2b93f6c568",
    ),
    ("p1xp1", 60): (
        437,
        "e73195a6237db67c47e0d03a865e69fdeb2738122e2db40e3a7b763109434454",
        "7d840dc7e2d659b46b8257689a7c2286c36ee4e8bad43a2faeeab509ddcabd82",
    ),
    ("blp2:k=8", 3): (
        29043,
        "3e2d5a4fdb538268468f6570a74df126a84ffea2fd15c89bdaf47f7d6664803e",
        "1b03fdc9b12263746ace0030cce59a6258d465c4f345a7d99fbb3adbc8da59be",
    ),
}


@pytest.mark.parametrize("descriptor, bound", sorted(MERGE_PINS))
def test_rows_and_pairs_match_the_separate_engines(descriptor, bound):
    surface = Surface.parse(descriptor)
    table = GwTable(surface=surface)
    rows = support_enumerate(surface, bound, table)
    pairs = [
        (beta.coeffs, sorted(
            (b1.coeffs, n1, b2.coeffs, n2)
            for b1, n1, b2, n2 in support_pairs(surface, beta, table)
        ))
        for beta, _ in rows
        if list(beta.coeffs[1:]) == sorted(beta.coeffs[1:], reverse=True)
    ]
    count, rows_digest, pairs_digest = MERGE_PINS[(descriptor, bound)]
    assert len(rows) == count
    assert hashlib.sha256(repr([(c.coeffs, v) for c, v in rows]).encode()).hexdigest() == rows_digest
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == pairs_digest


def test_plane_evaluates_bottom_up():
    # A recursion over the degree would need hundreds of frames for
    # n0(150 L); filled in order of degree, the levels need a fixed few.
    expected = [plane_reference(d) for d in range(1, 151)][-1]  # warm bottom-up
    with recursion_margin(40):
        assert n0(PLANE, plane_class(150)) == expected


# ---------------------------------------------------------------------------
# Cremona-first reduction.  The engine applies the quadratic transformation
# before anything else, so only standard forms (m1 + m2 + m3 <= d) evaluate
# a relation.  The oracle below is the pipeline it replaced: a relation on
# every orbit representative it reaches, the quadratic transformation only
# where no relation applies (delta = 0, or beta^2 = 0 at delta = 1, 2).  It
# shares the relations and the walk with the engine; what it checks is that
# the order of the reductions does not change a count.


def cremona(c: tuple[int, ...]) -> tuple[int, ...]:
    """The quadratic transformation based at the first three points."""
    d, a, b, e, *rest = c
    return (2 * d - a - b - e, d - b - e, d - a - e, d - a - b, *rest)


def test_standard_form_is_the_chain_of_quadratic_transformations():
    # Every orbit key with d <= 6 on up to six points, multiplicities in
    # [-2, d + 1]: the transformation at the three largest multiplicities,
    # re-sorted, until d < 1 or m1 + m2 + m3 <= d.
    keys = 0
    for k in range(7):
        for d in range(-1, 7):
            for ms in itertools.combinations_with_replacement(range(d + 1, -3, -1), k):
                c = (d, *ms)
                while k >= 3 and c[0] >= 1 and sum(c[1:4]) > c[0]:
                    c = orbit_key(cremona(c))
                assert standard_form((d, *ms)) == c
                assert standard_form((d, *ms[::-1])) == c
                keys += 1
    assert keys == 19412


def test_a_quadratic_transformation_keeps_the_standard_form():
    # Every candidate of blp2:k=3..8 up to a small anticanonical degree and
    # its image under the transformation at any three points, where that has
    # d >= 0: one W(E_k)-orbit, so one standard form.  Degree 1 holds the
    # exceptional classes (0; 0, ..., -1) and the lines (1; 1, 1, 0, ...),
    # which the transformation at their points exchanges.
    pairs = exchanged = 0
    for k, bound in zip(range(3, 9), (8, 7, 6, 5, 5, 4)):
        triples = list(itertools.combinations(range(1, k + 1), 3))
        for degree in range(1, bound + 1):
            for c in _blowup_candidates(k + 1, degree):
                key = standard_form(c)
                for i, j, l in triples:
                    x = c[i] + c[j] + c[l] - c[0]
                    image = tuple(v - x if p in (0, i, j, l) else v for p, v in enumerate(c))
                    if image[0] >= 0:
                        assert standard_form(image) == key, (c, image)
                        pairs += 1
                        exchanged += {c[0], image[0]} == {0, 1}
    assert (pairs, exchanged) == (29122, 77)


def test_the_candidate_range_needs_no_guard():
    # _blowup_candidates tests neither the sign of its discriminant
    # k (D^2 - (9-k) D + 2 (9-k)), a quadratic in D of discriminant
    # (9-k)(1-k) <= 0, nor the multiplicity sum 3d - D of each d it tries.
    for k in range(1, 9):
        for degree in range(1, 201):
            disc = 9 * degree * degree - (9 - k) * (degree * degree + k * degree - 2 * k)
            assert disc >= 0, (k, degree)
            d_lo = max(1, (degree + 2) // 3)
            d_hi = (3 * degree + math.isqrt(disc)) // (9 - k)
            for d in range(d_lo, d_hi + 1):
                assert 0 <= 3 * d - degree <= k * d, (k, degree, d)


def test_every_standard_form_past_the_guards_has_delta_at_least_zero():
    # _reduce_blowup has no case for delta < 0: past d <= 0 and a
    # multiplicity outside [0, d], a standard form has sum m_i <= k d / 3 on
    # k >= 3 points and <= 2d on fewer.  Every orbit of a box, by its sorted
    # representative: d <= 12 and -2 <= m_i <= 12 on k <= 5 points, d <= 8
    # and -1 <= m_i <= 8 on more.
    forms = set()
    for k in range(9):
        top, low = (12, -2) if k <= 5 else (8, -1)
        values = range(top, low - 1, -1)
        for d in range(1, top + 1):
            for ms in itertools.combinations_with_replacement(values, k):
                form = standard_form((d, *ms))
                if form[0] < 1 or (k and (form[-1] < 0 or form[1] > form[0])):
                    continue
                assert 3 * form[0] - sum(form[1:]) - 1 >= 0, ((d, *ms), form)
                forms.add(form)
    assert len(forms) == 3889


def relation_first(engine: _Engine, c: tuple[int, ...]) -> int:
    d, ms = c[0], c[1:]
    if d < 0:
        return 0
    if d == 0:
        exceptional = all(m in (0, -1) for m in ms) and ms.count(-1) == 1
        return 1 if exceptional else 0
    if ms and (ms[-1] < 0 or ms[0] > d):
        return 0
    delta = 3 * d - sum(ms) - 1
    if delta < 0:
        return 0
    if d == 1:
        return 1
    if delta == 0 and d * d - sum(m * m for m in ms) == -1:
        return 1  # rigid class of self-intersection -1
    if ms and ms[-1] <= 1:
        return engine.value(c[:-1])
    if delta >= 3:
        return engine._two_point_relation(c, delta)
    if delta >= 1 and engine.dot(c, c) != 0:
        # Off the standard forms too, as long as its leading coefficient
        # 2 (1 - r) beta^2 is not zero.
        return engine._four_divisor_relation(c)
    assert len(ms) >= 3 and ms[0] + ms[1] + ms[2] > d, c
    return engine.value(cremona(c))


# The oracle keys its memo by orbit, so the quadratic transformation is one
# of its steps, not its key.
RELATION_FIRST = dataclasses.replace(_BLOWUPS, key=orbit_key, reduce=relation_first)

RELATION_FIRST_BOUNDS = {3: 10, 4: 8, 5: 7, 6: 6, 7: 5, 8: 3}


@pytest.mark.parametrize("k, bound", sorted(RELATION_FIRST_BOUNDS.items()))
def test_cremona_first_agrees_with_the_relation_first_engine(k, bound):
    surface = Surface.blowup(k)
    engine, oracle = _Engine(surface), _Engine(surface)
    oracle.lattice = RELATION_FIRST
    engine.ensure(surface.rank, bound)
    oracle.ensure(surface.rank, bound)
    # Every orbit representative of every level, with its count, and every
    # class of a lower rank that both reached.
    levels = [engine.support[(surface.rank, degree)] for degree in range(1, bound + 1)]
    assert levels == [oracle.support[(surface.rank, degree)] for degree in range(1, bound + 1)]
    assert all(oracle.memo.get(key, value) == value for key, value in engine.memo.items())
    # Some of them are not standard forms, where the two pipelines differ.
    assert any(
        c[0] >= 2 and sum(c[1:4]) > c[0]
        for level in levels
        for bucket in level.values()
        for c in bucket
    )


EIGHT_POINT_PINS = [
    ((6,) + (2,) * 8, 90),  # -2K, by the four-divisor relation at delta = 1
    ((9,) + (3,) * 8, 2880),  # -3K, by the four-divisor relation at delta = 2
    ((8,) + (2,) * 8, 664160448),
    ((8, 4) + (2,) * 7, 1214640),
    ((9,) + (3,) * 6 + (2, 1), 4209120),
]


@pytest.mark.parametrize("coeffs, expected", EIGHT_POINT_PINS)
def test_eight_point_pins(coeffs, expected):
    assert n0(Surface.blowup(8), CurveClass(coeffs)) == expected


def test_eight_point_fill_nests_a_few_frames_per_point(monkeypatch):
    # Cremona chains run in a loop and only drops nest a reduction in
    # another; the deepest chain of this fill is 10 reductions.  The
    # four-divisor relation fires only on -2K and -3K.
    fired = []
    real = _Engine._four_divisor_relation

    def recording(self, c):
        fired.append(c)
        return real(self, c)

    monkeypatch.setattr(_Engine, "_four_divisor_relation", recording)
    engine = _Engine(Surface.blowup(8))
    with recursion_margin(40):
        engine.ensure(9, 8)
    assert sorted(fired) == [(6,) + (2,) * 8, (9,) + (3,) * 8]


# ---------------------------------------------------------------------------
# The quadric's ruling swap.  The engine sends a bidegree with a < b to
# (b, a), so the relation never runs on a < b; the relation itself is
# invariant under the swap, and this keeps that under test.


def test_the_relation_on_both_orders_agrees_with_the_engine():
    # The two-point relation, called directly on (a, b) and on (b, a) over
    # the engine's levels, against the count the engine gives each order.
    engine = _Engine(QUADRIC)
    engine.ensure(2, 40)
    checked = 0
    for a in range(1, 20):
        for b in range(1, 21 - a):
            if a != b:
                relation = engine._two_point_relation((a, b), 2 * (a + b) - 1)
                assert relation == engine.value((a, b)), (a, b)
                checked += 1
    assert checked == 180


def test_a_quadric_fill_evaluates_the_relation_on_sorted_bidegrees_only(monkeypatch):
    evaluated = []
    real = _Engine._two_point_relation

    def recording(self, c, delta):
        evaluated.append(c)
        return real(self, c, delta)

    monkeypatch.setattr(_Engine, "_two_point_relation", recording)
    _Engine(QUADRIC).ensure(2, 60)
    assert len(evaluated) == len(set(evaluated)) == 225
    assert all(a >= b >= 1 for a, b in evaluated)


def _outcome(engine: _Engine, c: tuple[int, ...]) -> int | type:
    try:
        return engine.value(c)
    except Exception as exc:
        return type(exc)


def test_typed_classes_agree_with_the_relation_first_engine():
    # Every orbit key a user can type with d <= 6, in and out of the chamber:
    # a zero leading coefficient or a stalled reduction on either pipeline
    # shows up as a different value or a different error.
    keys = 0
    for k in range(9):
        surface = Surface.blowup(k)
        engine, oracle = _Engine(surface), _Engine(surface)
        oracle.lattice = RELATION_FIRST
        for d in range(-1, 7):
            for ms in itertools.combinations_with_replacement(range(d + 1, -3, -1), k):
                c = (d, *ms)
                assert _outcome(engine, c) == _outcome(oracle, c), c
                keys += 1
    assert keys == 92323


def test_a_stalled_reduction_is_a_recursion_failure():
    # Past the del Pezzo range, on nine points, (9; 3^8, 2) is a standard
    # form with delta = 0 and no multiplicity below 2: nothing applies.
    with pytest.raises(RecursionFailure, match="no reduction applies"):
        _Engine(Surface.blowup(8)).value((9,) + (3,) * 8 + (2,))


def _broken_half_walks(engine, monkeypatch, perturb):
    # Every half walk of ``engine`` yields its pairs with ``perturb(i, weight)``
    # as the weight of its i-th pair; the full walks are left alone.
    real = engine.pairs

    def pairs(c, pinned=False, half=False):
        for i, (weight, *rest) in enumerate(real(c, pinned, half)):
            yield (perturb(i, weight) if half else weight, *rest)

    monkeypatch.setattr(engine, "pairs", pairs)


def test_a_remainder_in_the_two_point_relation_is_a_non_integral_result(monkeypatch):
    # Halving the weight of the first pair of each half walk leaves 1/2 at
    # the first class a relation runs on, the bidegree (1, 1).
    engine = _Engine(Surface.quadric())
    _broken_half_walks(engine, monkeypatch, lambda i, w: w // 2 if i == 0 else w)
    with pytest.raises(
        NonIntegralResult, match=r"^expected integer in two-point relation of \(1, 1\), got 1/2$"
    ):
        engine.value((3, 2))


def test_a_remainder_in_the_four_divisor_relation_is_a_non_integral_result(monkeypatch):
    # With every half-walk pair of weight 1, the relations under -2K on
    # eight points still divide, and its own four-divisor relation leaves 3/2.
    engine = _Engine(Surface.blowup(8))
    _broken_half_walks(engine, monkeypatch, lambda i, w: 1)
    with pytest.raises(
        NonIntegralResult,
        match=r"^expected integer in four-divisor relation of \(6, 2, 2, 2, 2, 2, 2, 2, 2\), "
        r"got 3/2$",
    ):
        engine.value((6,) + (2,) * 8)


def test_classes_that_fail_a_base_check_past_the_chamber_count_zero():
    # The engine carries a class to its standard form before any base
    # check, so a class with m1 + m2 + m3 > d >= 2 that fails one (some
    # m_i < 0, m_1 > d, or delta < 0) reaches the checks only as its image.
    classes = 0
    for k, top in ((3, 5), (4, 5), (5, 5), (8, 4)):
        surface = Surface.blowup(k)
        table = GwTable(surface)
        for d in range(2, top + 1):
            for ms in itertools.combinations_with_replacement(range(d + 1, -2, -1), k):
                if ms[0] + ms[1] + ms[2] <= d:
                    continue
                if ms[-1] >= 0 and ms[0] <= d and 3 * d - sum(ms) >= 1:
                    continue
                assert n0(surface, CurveClass((d, *ms)), table) == 0, (d, ms)
                classes += 1
    assert classes == 6155


def _engines_without_a_table() -> list[_Engine]:
    gc.collect()
    objects = gc.get_objects()
    owned = {id(obj._engine) for obj in objects if isinstance(obj, GwTable)}
    return [obj for obj in objects if isinstance(obj, _Engine) and id(obj) not in owned]


def test_tableless_calls_leave_no_engine():
    surface = Surface.blowup(3)
    assert n0(surface, CurveClass((5, 2, 2, 1))) == n0(surface, CurveClass((5, 1, 2, 2)))
    assert _engines_without_a_table() == []
    assert len(list(support_pairs(surface, CurveClass((4, 2, 1, 1))))) > 0
    assert len(support_enumerate(QUADRIC, 8)) > 0
    assert genus2_report(QUADRIC, CurveClass((2, 3))).n0 == n0(QUADRIC, CurveClass((3, 2)))
    assert _engines_without_a_table() == []


def test_entries_are_a_read_only_view_of_the_memo():
    surface = Surface.blowup(2)
    table = GwTable(surface=surface)
    entries = table.entries
    assert len(entries) == 0
    n0(surface, CurveClass((4, 2, 1)), table)
    assert entries[CurveClass((4, 2, 1))] == 96
    assert CurveClass((1, 2, 1)) not in entries  # an orbit's other members are not keys
    assert all(len(c.coeffs) == surface.rank and v for c, v in entries.items())
    with pytest.raises(TypeError):
        entries[CurveClass((1, 0, 0))] = 1  # type: ignore[index]
    assert len(entries) == len(dict(entries)) > 0


def test_incremental_harvest_matches_a_full_scan(tmp_path):
    # After a mix of calls, a table's entries, fresh or loaded from a file
    # that lists every permutation, are the standard forms a cold scan
    # finds, with the same counts.
    surface = Surface.blowup(3)
    source = GwTable(surface=surface)
    support_enumerate(surface, 7, source)
    path = tmp_path / "permuted.json"
    permuted_cache(source, path)
    cold = GwTable(surface=surface)
    scan = {
        beta: value
        for beta, value in support_enumerate(surface, 11, cold)
        if standard_form(beta.coeffs) == beta.coeffs
    }
    for table in (GwTable(surface=surface), load_cache(path)):
        n0(surface, CurveClass((4, 2, 1, 1)), table)
        list(support_pairs(surface, CurveClass((5, 2, 2, 1)), table))
        support_enumerate(surface, 9, table)
        n0(surface, CurveClass((7, 3, 3, 2)), table)
        list(support_pairs(surface, CurveClass((6, 3, 2, 2)), table))
        support_enumerate(surface, 11, table)
        entries = dict(table.entries)
        assert CurveClass(standard_form((7, 3, 3, 2))) in entries
        assert CurveClass((7, 3, 3, 2)) not in entries
        assert {b: v for b, v in entries.items() if surface.anticanonical_degree(b) <= 11} == scan
        assert all(n0(surface, beta, cold) == value for beta, value in entries.items())


# ---------------------------------------------------------------------------
# Support enumeration.


def test_support_enumerate_plane():
    rows = support_enumerate(PLANE, 9)
    assert rows == [
        (plane_class(1), 1),
        (plane_class(2), 1),
        (plane_class(3), 12),
    ]


def test_support_enumerate_one_point():
    rows = dict(support_enumerate(Surface.blowup(1), 3))
    assert rows[CurveClass((0, -1))] == 1
    assert rows[CurveClass((1, 1))] == 1
    assert rows[CurveClass((1, 0))] == 1


def test_support_enumerate_quadric():
    rows = dict(support_enumerate(QUADRIC, 4))
    assert rows[CurveClass((1, 0))] == 1
    assert rows[CurveClass((0, 1))] == 1
    assert rows[CurveClass((1, 1))] == 1


@pytest.mark.parametrize("bound", [2.0, "3", Fraction(3), None, 0],
                         ids=["integral-float", "string", "fraction", "none", "zero"])
def test_support_enumerate_bound_must_be_a_positive_integer(bound):
    with pytest.raises(InvalidClass, match="bound must be an integer of at least 1"):
        support_enumerate(Surface.blowup(1), bound)


# The brute-force candidate box the engine used before it enumerated one
# multiplicity tuple per point-permutation orbit: every tuple in [0, d]^k
# with the right sum and genus budget, in lexicographic order.


def box_multiplicities(total, slots, hi, cap):
    if slots == 0:
        if total == 0:
            yield ()
        return
    lo = max(0, total - (slots - 1) * hi)
    for m in range(lo, min(hi, total) + 1):
        used = m * (m - 1)
        if used > cap:
            break
        for rest in box_multiplicities(total - m, slots - 1, hi, cap - used):
            yield (m,) + rest


def box_candidates(k, degree):
    out = []
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
    d_hi = (3 * degree + math.isqrt(disc)) // (9 - k)
    for d in range(d_lo, d_hi + 1):
        target = 3 * d - degree
        if target < 0 or target > k * d:
            continue
        for ms in box_multiplicities(target, k, d, (d - 1) * (d - 2)):
            out.append((d,) + ms)
    return out


# Largest anticanonical degree per k; the box needs about 2 s for all of them.
BOX_LIMITS = {0: 40, 1: 30, 2: 24, 3: 18, 4: 14, 5: 10, 6: 7, 7: 4, 8: 2}


@pytest.mark.parametrize("k", sorted(BOX_LIMITS))
def test_orbit_candidates_match_the_box(k):
    # The candidates are one representative of each orbit of the box.
    for degree in range(1, BOX_LIMITS[k] + 1):
        candidates = _blowup_candidates(k + 1, degree)
        assert len(candidates) == len(set(candidates))
        assert sorted(candidates) == sorted({orbit_key(c) for c in box_candidates(k, degree)})


def test_blowup_memo_holds_orbit_representatives():
    # The orbit is the W(E_k)-orbit: the memo and the entries hold standard
    # forms only, each an orbit representative of the point permutations.
    surface = Surface.blowup(4)
    table = GwTable(surface=surface)
    support_enumerate(surface, 10, table)
    memo = table._engine.memo
    assert len(memo) > 100
    for coeffs in memo:
        assert list(coeffs[1:]) == sorted(coeffs[1:], reverse=True)
        assert standard_form(coeffs) == coeffs
    assert all(standard_form(c.coeffs) == c.coeffs for c in table.entries)
    # A member off the chamber reads its standard form's count.
    assert (4, 2, 2, 2, 1) not in memo and memo[(2, 1, 0, 0, 0)] == 1
    with pytest.raises(KeyError):
        table.entries[CurveClass((4, 2, 2, 2, 1))]


def test_quadric_orbit_pairs_split_the_class_given():
    # The quadric has no points, so the orbit key of (2, 3) is (2, 3) itself,
    # not its sorted swap: every pair is a splitting of the class asked for.
    pairs = list(ordered_orbit_pairs(QUADRIC, CurveClass((2, 3))))
    assert len(pairs) > 0
    assert all(weight == 1 for weight, *_ in pairs)
    assert all(tuple(map(add, c1, c2)) == (2, 3) for _, _, c1, _, c2, _ in pairs)


def test_support_classes_are_geometric():
    for surface in (Surface.blowup(2), QUADRIC):
        for beta, value in support_enumerate(surface, 8):
            assert value != 0
            assert surface.genus(beta) >= 0
            assert surface.delta(beta) >= 0


# ---------------------------------------------------------------------------
# Cache round-trips.


def test_cache_round_trip(tmp_path):
    surface = Surface.blowup(1)
    table = GwTable(surface=surface)
    n0(surface, CurveClass((3, 1)), table)
    path = tmp_path / "k1.json"
    save_cache(table, path)
    loaded = load_cache(path)
    assert loaded == table
    save_cache(loaded, tmp_path / "k1-again.json")
    assert (tmp_path / "k1-again.json").read_bytes() == path.read_bytes()


def test_cache_warm_equals_cold(tmp_path):
    beta = CurveClass((4, 2, 2))
    surface = Surface.blowup(2)
    cold_table = GwTable(surface=surface)
    cold = n0(surface, beta, cold_table)
    path = tmp_path / "k2.json"
    save_cache(cold_table, path)
    warm = n0(surface, beta, load_cache(path))
    assert cold == warm


def test_cache_surface_mismatch(tmp_path):
    table = GwTable(surface=PLANE)
    n0(PLANE, plane_class(2), table)
    path = tmp_path / "plane.json"
    save_cache(table, path)
    loaded = load_cache(path)
    with pytest.raises(SurfaceMismatch):
        n0(Surface.blowup(1), CurveClass((1, 0)), loaded)


def test_cache_wrong_rank_rejected(tmp_path):
    path = tmp_path / "bad-rank.json"
    path.write_text(
        '{"version":1,"surface":"blp2:k=1","entries":[{"class":[1],"n0":"1"}]}'
    )
    with pytest.raises(SurfaceMismatch):
        load_cache(path)


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        '{"version":99,"surface":"blp2:k=0","entries":[]}',
        '{"version":1,"surface":"blp2:k=0","entries":[{"class":[2],"n0":"twelve"}]}',
        '{"version":1,"surface":"nowhere","entries":[]}',
        '{"version":1,"surface":"blp2:k=0"}',
        pytest.param(
            '{"version":1,"surface":"blp2:k=2","entries":[{"class":[3,1,1],"n0":"-5"}]}',
            id="negative-count",
        ),
        pytest.param(
            '{"version":1,"surface":"blp2:k=2","entries":[{"class":[3,1,1],"n0":"0"}]}',
            id="zero-count",
        ),
        pytest.param("[" * 200000, id="nested-too-deeply"),
        pytest.param(
            '{"version":1,"surface":"blp2:k=0","entries":[{"class":[%s],"n0":"1"}]}'
            % ("1" * 5001),
            id="integer-past-the-digit-limit",
        ),
        pytest.param(
            '{"version":1,"surface":"blp2:k=2\\n","entries":[]}',
            id="descriptor-with-newline",
        ),
        pytest.param('{"version":true,"surface":"blp2:k=0","entries":[]}', id="version-true"),
        pytest.param('{"version":1.0,"surface":"blp2:k=0","entries":[]}', id="version-float"),
        *(
            pytest.param(
                '{"version":1,"surface":"blp2:k=2","entries":[{"class":[3,1,1],"n0":"%s"}]}'
                % count,
                id=f"count-{name}",
            )
            for name, count in [
                ("leading-space", " 12"),
                ("trailing-newline", "12\\n"),
                ("plus-sign", "+12"),
                ("leading-zero", "012"),
                ("underscore", "1_2"),
                ("arabic-indic-digits", "\\u0661\\u0662"),
            ]
        ),
    ],
)
def test_cache_corrupt_files_rejected(tmp_path, payload):
    path = tmp_path / "corrupt.json"
    path.write_text(payload)
    with pytest.raises(CacheFormatError):
        load_cache(path)


def permuted_cache(table, path):
    """A v1 file that lists every permutation of every entry, as written
    before the memo was keyed by orbit."""
    rows = sorted(
        {
            (c.coeffs[0], *perm): value
            for c, value in table.entries.items()
            for perm in itertools.permutations(c.coeffs[1:])
        }.items()
    )
    document = {
        "version": 1,
        "surface": table.surface.descriptor,
        "entries": [{"class": list(c), "n0": str(value)} for c, value in rows],
    }
    path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
    return len(rows)


def test_permuted_v1_cache_matches_a_cold_table(tmp_path):
    surface = Surface.blowup(3)
    source = GwTable(surface=surface)
    support_enumerate(surface, 9, source)
    path = tmp_path / "permuted.json"
    assert permuted_cache(source, path) > len(source.entries)

    warm, cold = load_cache(path), GwTable(surface=surface)
    assert support_enumerate(surface, 11, warm) == support_enumerate(surface, 11, cold)
    for coeffs in [(5, 2, 1, 0), (5, 0, 1, 2), (6, 1, 3, 2), (7, 2, 2, 3), (4, 0, 0, 1)]:
        beta = CurveClass(coeffs)
        assert n0(surface, beta, warm) == n0(surface, beta, cold)
        assert (genus2_report(surface, beta, warm).to_json_dict()
                == genus2_report(surface, beta, cold).to_json_dict())


def test_cache_round_trip_past_the_digit_limit(tmp_path):
    # Counts pass CPython's 4300-digit int <-> str limit from n0(572 L) on.
    huge = 7**6000 + 1
    assert huge > 10**4300
    table = GwTable(surface=PLANE, entries={CurveClass((600,)): huge})
    path = tmp_path / "huge.json"
    save_cache(table, path)
    loaded = load_cache(path)
    assert loaded.entries[CurveClass((600,))] == huge
    assert loaded == table
    save_cache(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_orbit_inconsistent_cache_rejected(tmp_path):
    path = tmp_path / "poisoned.json"
    path.write_text(
        '{"version":1,"surface":"blp2:k=2","entries":['
        '{"class":[4,1,2],"n0":"95"},{"class":[4,2,1],"n0":"96"}]}'
    )
    with pytest.raises(CacheFormatError, match="earlier row of its orbit"):
        load_cache(path)


def test_quadric_cache_listing_a_class_twice_rejected(tmp_path):
    # The quadric's memo is keyed by the class itself; a later row must not
    # overwrite an earlier one.
    path = tmp_path / "q.json"
    path.write_text(
        '{"version":1,"surface":"p1xp1","entries":['
        '{"class":[1,1],"n0":"1"},{"class":[1,1],"n0":"7"}]}'
    )
    with pytest.raises(CacheFormatError, match="earlier row of its orbit"):
        load_cache(path)


@pytest.mark.parametrize("rows", [
    '{"class":[2,3],"n0":"95"},{"class":[3,2],"n0":"96"}',
    '{"class":[3,2],"n0":"96"},{"class":[2,3],"n0":"95"}',
])
def test_quadric_cache_disagreeing_with_the_swap_rejected(tmp_path, rows):
    # The memo is keyed by the sorted bidegree, so (2, 3) and (3, 2) are one
    # orbit and the generic orbit check rejects the later row.
    path = tmp_path / "q.json"
    path.write_text('{"version":1,"surface":"p1xp1","entries":[' + rows + ']}')
    with pytest.raises(CacheFormatError, match="earlier row of its orbit") as info:
        load_cache(path)
    first, second = (row["n0"] for row in json.loads(f"[{rows}]"))
    assert (f"has count {second}, but an earlier row of its orbit"
            f" (standard form [3, 2]) has {first}") in str(info.value)


def test_quadric_cache_rows_agree_with_their_swap(tmp_path):
    # One row per orbit of the ruling swap: the sorted bidegree a >= b.
    table = GwTable(surface=QUADRIC)
    support_enumerate(QUADRIC, 30, table)
    path = tmp_path / "q.json"
    save_cache(table, path)
    rows = {tuple(row["class"]): row["n0"] for row in json.loads(path.read_text())["entries"]}
    assert len(rows) == 57
    assert all(a >= b for a, b in rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == QUADRIC_N30_SHA256
    assert load_cache(path) == table
    # A file listing the unsorted order only loads and answers both orders.
    path.write_text('{"version":1,"surface":"p1xp1","entries":[{"class":[2,3],"n0":"96"}]}')
    loaded = load_cache(path)
    assert dict(loaded.entries) == {CurveClass((3, 2)): 96}
    assert [n0(QUADRIC, CurveClass(c), loaded) for c in ((3, 2), (2, 3))] == [96, 96]


def test_a_two_order_quadric_file_loads_and_is_rewritten_sorted_when_a_save_learns(tmp_path):
    path = tmp_path / "q.json"
    stored = TWO_ORDER_QUADRIC_FILE.read_bytes()
    path.write_bytes(stored)
    rows = {tuple(row["class"]): int(row["n0"]) for row in json.loads(stored)["entries"]}
    assert len(rows) == 107 and (2, 3) in rows and (3, 2) in rows
    fresh = GwTable(surface=QUADRIC)
    support_enumerate(QUADRIC, 30, fresh)
    table = load_cache(path)
    assert table == fresh
    assert all(n0(QUADRIC, CurveClass(c), table) == value for c, value in rows.items())
    # A save that learned nothing leaves the file as it was ...
    save_cache(table, path)
    assert path.read_bytes() == stored
    # ... and the first save that learns a count writes sorted rows only.
    n0(QUADRIC, CurveClass((2, 14)), table)
    save_cache(table, path)
    rewritten = [tuple(row["class"]) for row in json.loads(path.read_text())["entries"]]
    assert all(a >= b for a, b in rewritten) and (14, 2) in rewritten
    assert len(rewritten) == len(table.entries) > 57
    assert load_cache(path) == table


def test_table_entries_of_another_rank_are_rejected():
    # A rank-2 row would seed the slot the drop rule reads for 3,1,1.
    surface = Surface.blowup(2)
    with pytest.raises(RankMismatch, match="class 3,1 has rank 2"):
        GwTable(surface, {CurveClass((3, 1)): 7})
    with pytest.raises(InvalidClass, match="zero class"):
        GwTable(surface, {CurveClass((0, 0, 0)): 1})
    assert n0(surface, CurveClass((3, 1, 1))) == 12


@pytest.mark.parametrize("count", [0, -4, True], ids=["zero", "negative", "bool"])
def test_table_entries_that_are_not_positive_ints_are_rejected(count):
    with pytest.raises(InvalidClass, match=f"class 3,1,1 has count {count!r}, not a positive int"):
        GwTable(Surface.blowup(2), {CurveClass((3, 1, 1)): count})


@pytest.mark.parametrize("surface, first, second", [
    (Surface.blowup(2), (4, 2, 1), (4, 1, 2)),
    (QUADRIC, (3, 2), (2, 3)),
], ids=["blowup", "quadric"])
def test_table_entries_disagreeing_within_an_orbit_are_rejected(surface, first, second):
    with pytest.raises(InvalidClass) as info:
        GwTable(surface, {CurveClass(first): 5, CurveClass(second): 6})
    assert (f"class {list(second)} has count 6, but an earlier row of its"
            f" orbit (standard form {list(first)}) has 5") == str(info.value)
    agreeing = GwTable(surface, {CurveClass(first): 5, CurveClass(second): 5})
    assert dict(agreeing.entries) == {CurveClass(first): 5}


# Rows whose standard form the engine settles without a relation, with a
# count other than the one it settles them to: on blow-ups d <= 1 (the
# exceptional classes, lines, and the zero class), a multiplicity above d
# or below 0 (count 0), on the quadric (a, 0).
BASE_CASE_ROWS = [
    pytest.param("blp2:k=8", [0, 0, 0, 0, 0, 0, 0, 0, -1], 3, [0, 0, 0, 0, 0, 0, 0, 0, -1], 1,
                 id="exceptional"),
    pytest.param("blp2:k=3", [2, 1, 1, 1], 5, [1, 0, 0, 0], 1, id="conic-to-line"),
    pytest.param("blp2:k=3", [1, 1, 0, 0], 2, [1, 1, 0, 0], 1, id="line"),
    pytest.param("blp2:k=8", [1, 1, 1, 0, 0, 0, 0, 0, 0], 2, [0, 0, 0, 0, 0, 0, 0, 0, -1], 1,
                 id="line-to-exceptional"),
    pytest.param("blp2:k=2", [0, 0, 0], 5, [0, 0, 0], 0, id="zero-class"),
    pytest.param("blp2:k=2", [0, -1, -1], 1, [0, -1, -1], 0, id="two-exceptional"),
    pytest.param("blp2:k=2", [2, 3, 0], 5, [2, 3, 0], 0, id="multiplicity-above-degree"),
    pytest.param("blp2:k=3", [3, -1, 0, 0], 7, [3, 0, 0, -1], 0, id="negative-multiplicity"),
    pytest.param("p1xp1", [0, 1], 4, [1, 0], 1, id="ruling"),
    pytest.param("p1xp1", [3, 0], 2, [3, 0], 0, id="ruling-cover"),
]


@pytest.mark.parametrize("descriptor, row, count, standard, known", BASE_CASE_ROWS)
def test_cache_rows_must_carry_the_count_of_a_base_case(tmp_path, descriptor, row, count,
                                                        standard, known):
    path = tmp_path / "poisoned.json"
    path.write_text(json.dumps({
        "version": 1, "surface": descriptor, "entries": [{"class": row, "n0": str(count)}],
    }))
    with pytest.raises(CacheFormatError) as info:
        load_cache(path)
    assert str(info.value).endswith(
        f"class {row} has count {count}, but its orbit (standard form {standard}) has {known}"
    )


@pytest.mark.parametrize("descriptor, row, count, standard, known", BASE_CASE_ROWS)
def test_table_entries_must_carry_the_count_of_a_base_case(descriptor, row, count,
                                                           standard, known):
    surface = Surface.parse(descriptor)
    if not any(row):
        # The zero class is not a class of the surface at all.
        with pytest.raises(InvalidClass, match="zero class"):
            GwTable(surface, {CurveClass(tuple(row)): count})
        return
    with pytest.raises(InvalidClass) as info:
        GwTable(surface, {CurveClass(tuple(row)): count})
    assert str(info.value) == (
        f"class {row} has count {count}, but its orbit (standard form {standard}) has {known}"
    )


# Every base-case row that a table can hold, and two orbit conflicts.
SEED_CONFLICTS = [
    pytest.param(row.values[0], [(row.values[1], row.values[2])], id=row.id)
    for row in BASE_CASE_ROWS if any(row.values[1])  # the zero class is no class
] + [
    pytest.param("blp2:k=4", [([2, 1, 0, 0, 0], 1), ([4, 2, 2, 2, 1], 2)], id="orbit-conflict"),
    pytest.param("p1xp1", [([3, 2], 5), ([2, 3], 6)], id="quadric-orbit-conflict"),
]


@pytest.mark.parametrize("descriptor, rows", SEED_CONFLICTS)
def test_table_entries_and_cache_rows_are_refused_in_the_same_words(tmp_path, descriptor,
                                                                      rows):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"version": 1, "surface": descriptor, "entries": [
        {"class": row, "n0": str(count)} for row, count in rows
    ]}))
    with pytest.raises(CacheFormatError) as from_file:
        load_cache(path)
    with pytest.raises(InvalidClass) as from_table:
        GwTable(Surface.parse(descriptor), {CurveClass(tuple(row)): count for row, count in rows})
    assert str(from_file.value) == f"cache file {path}: {from_table.value}"


def test_base_case_rows_with_their_count_load():
    rows = {(2, 1, 1, 1): 1, (1, 1, 0, 0): 1, (0, 0, 0, -1): 1, (0, -1, 0, 0): 1}
    surface = Surface.blowup(3)
    table = GwTable(surface, {CurveClass(c): v for c, v in rows.items()})
    assert dict(table.entries) == {
        CurveClass((1, 0, 0, 0)): 1, CurveClass((1, 1, 0, 0)): 1, CurveClass((0, 0, 0, -1)): 1,
    }
    assert GwTable(QUADRIC, {CurveClass((0, 1)): 1}).entries[CurveClass((1, 0))] == 1


def test_cache_rows_of_one_standard_form_must_agree(tmp_path):
    # (4; 2, 2, 2, 1) is carried by one Cremona step to (2; 1, 0, 0, 0), so
    # the two rows are one orbit of W(E_4) and cannot carry different counts.
    path = tmp_path / "k4.json"
    path.write_text(
        '{"version":1,"surface":"blp2:k=4","entries":['
        '{"class":[2,1,0,0,0],"n0":"1"},{"class":[4,2,2,2,1],"n0":"2"}]}'
    )
    with pytest.raises(CacheFormatError) as info:
        load_cache(path)
    assert str(info.value).endswith(
        "class [4, 2, 2, 2, 1] has count 2, but an earlier row of its orbit"
        " (standard form [2, 1, 0, 0, 0]) has 1"
    )
    # In agreement they load as one entry, which answers for both.
    path.write_text(path.read_text().replace('"n0":"2"', '"n0":"1"'))
    table = load_cache(path)
    assert dict(table.entries) == {CurveClass((2, 1, 0, 0, 0)): 1}
    assert n0(Surface.blowup(4), CurveClass((4, 2, 2, 2, 1)), table) == 1


def test_cache_rows_of_the_exceptional_orbit_load_as_one(tmp_path):
    # The line through two points and the exceptional class are one orbit
    # of W(E_8), joined by the transformation at d = 1.  A file that lists
    # both loads as one entry, gives the same answers, and is left as it is
    # by a save that learns nothing; a save that learns a count writes the
    # standard form alone.
    surface = Surface.blowup(8)
    exceptional, line = (0, 0, 0, 0, 0, 0, 0, 0, -1), (1, 1, 1, 0, 0, 0, 0, 0, 0)
    path = tmp_path / "k8.json"
    path.write_text(json.dumps({"version": 1, "surface": "blp2:k=8", "entries": [
        {"class": list(c), "n0": "1"} for c in (exceptional, line)
    ]}))
    before = path.read_bytes()
    table = load_cache(path)
    assert dict(table.entries) == {CurveClass(exceptional): 1}
    for coeffs in (exceptional, line, (1, 0, 1, 0, 0, 0, 0, 1, 0), (1, 1, 1, 1, 0, 0, 0, 0, 0)):
        beta = CurveClass(coeffs)
        assert n0(surface, beta, table) == n0(surface, beta)
    save_cache(table, path)
    assert path.read_bytes() == before
    n0(surface, CurveClass((4, 2, 1, 1, 1, 1, 1, 1, 1)), table)
    save_cache(table, path)
    rows = [row["class"] for row in json.loads(path.read_text())["entries"]]
    assert list(exceptional) in rows and list(line) not in rows


def _saved_table(tmp_path):
    surface = Surface.blowup(2)
    table = GwTable(surface=surface)
    n0(surface, CurveClass((4, 2, 1)), table)
    path = tmp_path / "k2.json"
    save_cache(table, path)
    n0(surface, CurveClass((5, 2, 2)), table)  # the next save would differ
    return table, path, path.read_bytes()


def test_save_cache_writes_the_target_of_a_symlink(tmp_path):
    # The link stays a link, and the file it names gets the new rows.
    table, path, before = _saved_table(tmp_path)
    link = tmp_path / "link.json"
    link.symlink_to(path)
    save_cache(table, link)
    assert link.is_symlink() and os.readlink(link) == str(path)
    assert path.read_bytes() != before
    assert load_cache(path) == table
    assert sorted(os.listdir(tmp_path)) == ["k2.json", "link.json"]


@pytest.mark.parametrize("points_to", [os.devnull, "other.json"], ids=["device", "loop"])
def test_a_cache_path_naming_a_device_or_a_loop_is_neither_read_nor_replaced(
    tmp_path, points_to
):
    link = tmp_path / "link.json"
    link.symlink_to(points_to)
    if points_to == "other.json":
        (tmp_path / "other.json").symlink_to("link.json")
    surface = Surface.blowup(2)
    table = GwTable(surface=surface)
    n0(surface, CurveClass((3, 1, 1)), table)
    with pytest.raises(OSError, match="is not a regular file"):
        save_cache(table, link)
    with pytest.raises(CacheFormatError):
        load_cache(link)
    assert link.is_symlink() and os.readlink(link) == points_to
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_save_cache_failed_write_keeps_old_file(tmp_path, monkeypatch):
    table, path, before = _saved_table(tmp_path)
    real_write = Path.write_text

    def torn_write(self, data, *args, **kwargs):
        real_write(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError):
        save_cache(table, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]


def test_save_cache_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    table, path, before = _saved_table(tmp_path)
    attempts = []

    def failing_replace(src, dst):
        attempts.append(dst)
        raise OSError(1, "Operation not permitted")

    monkeypatch.setattr("delpezzo.genus0.os.replace", failing_replace)
    with pytest.raises(OSError):
        save_cache(table, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]
    # A failed write records nothing: the next save tries again.
    with pytest.raises(OSError):
        save_cache(table, path)
    assert attempts == [path, path]
    monkeypatch.undo()
    save_cache(table, path)
    assert path.read_bytes() != before
    assert load_cache(path) == table
    # Once written, the same table is not written again.
    os.utime(path, ns=(1, 1))
    save_cache(table, path)
    assert path.stat().st_mtime_ns == 1


def test_a_save_that_learned_nothing_keeps_a_concurrent_runs_counts(tmp_path):
    surface = Surface.blowup(2)
    seed = GwTable(surface=surface)
    n0(surface, CurveClass((3, 1, 1)), seed)
    path = tmp_path / "k2.json"
    save_cache(seed, path)
    first, second = load_cache(path), load_cache(path)
    n0(surface, CurveClass((5, 2, 2)), first)
    save_cache(first, path)
    grown = path.read_bytes()
    assert len(json.loads(grown)["entries"]) == 21
    assert n0(surface, CurveClass((3, 1, 1)), second) == 12  # a memo hit
    save_cache(second, path)
    assert path.read_bytes() == grown
    # A count the file lacks is written, next to the first run's counts.
    n0(surface, CurveClass((4, 2, 1)), second)
    save_cache(second, path)
    assert dict(load_cache(path).entries) == {**first.entries, **second.entries}


def test_two_runs_that_learn_counts_keep_both(tmp_path):
    surface = Surface.blowup(2)
    seed = GwTable(surface=surface)
    n0(surface, CurveClass((3, 1, 1)), seed)
    path = tmp_path / "k2.json"
    save_cache(seed, path)
    seeded = path.read_bytes()
    first, second = load_cache(path), load_cache(path)
    n0(surface, CurveClass((5, 2, 2)), first)
    for coeffs in ((4, 2, 1), (5, 1, 1)):  # the first run lacks 5,1,1
        n0(surface, CurveClass(coeffs), second)
    learned = dict(second.entries)
    save_cache(first, path)
    save_cache(second, path)
    merged = load_cache(path)  # the merged rows pass every check of a load
    assert dict(merged.entries) == {**first.entries, **second.entries}
    assert len(merged.entries) == len(first.entries) + 1 == 22
    # The file's rows go into the written file, not into the saving table.
    assert dict(second.entries) == learned
    # Saving in the other order writes the same bytes.
    union = path.read_bytes()
    path.write_bytes(seeded)
    first, second = load_cache(path), load_cache(path)
    n0(surface, CurveClass((5, 2, 2)), first)
    for coeffs in ((4, 2, 1), (5, 1, 1)):
        n0(surface, CurveClass(coeffs), second)
    save_cache(second, path)
    save_cache(first, path)
    assert path.read_bytes() == union


def _k2_file(rows: str) -> str:
    return '{"version":1,"surface":"blp2:k=2","entries":[' + rows + "]}"


@pytest.mark.parametrize(
    "found",
    [
        _k2_file('{"class":[3,1,1],"n0":"13"},{"class":[6,3,3],"n0":"5"}'),  # a count differs
        _k2_file('{"class":[3,3,0],"n0":"7"},{"class":[6,3,3],"n0":"5"}'),  # the table has 0
        _k2_file('{"class":[2,3,0],"n0":"5"},{"class":[6,3,3],"n0":"5"}'),  # a base case has 0
        '{"version":1,"surface":"blp2:k=3","entries":[{"class":[6,3,3,1],"n0":"5"}]}',
        '{"version":1,"surface":"blp2:k=2","entries":[{"class":[6,3,3],"n0":"05"}]}',
        "not json",
        _k2_file('{"class":[%s,3,3],"n0":"5"}' % ("6" * 5001)),
    ],
    ids=["conflict", "zero-conflict", "base-case", "other-surface", "unreadable-row",
         "unreadable", "integer-past-the-digit-limit"],
)
def test_a_file_that_cannot_be_merged_is_overwritten_from_the_table(tmp_path, found):
    surface = Surface.blowup(2)
    table = GwTable(surface=surface)
    assert [n0(surface, CurveClass(c), table) for c in ((3, 1, 1), (3, 3, 0))] == [12, 0]
    alone = tmp_path / "alone.json"
    save_cache(table, alone)
    path = tmp_path / "k2.json"
    path.write_text(found)
    save_cache(table, path)
    assert path.read_bytes() == alone.read_bytes()


def test_a_quadric_merge_keeps_swap_partners_in_agreement(tmp_path):
    path = tmp_path / "q.json"
    path.write_text('{"version":1,"surface":"p1xp1","entries":[{"class":[2,3],"n0":"96"}]}')
    table = load_cache(path)
    n0(QUADRIC, CurveClass((1, 1)), table)
    # A concurrent run's rows merge, one sorted row per orbit ...
    path.write_text('{"version":1,"surface":"p1xp1","entries":[{"class":[3,2],"n0":"96"},'
                    '{"class":[1,4],"n0":"1"},{"class":[4,1],"n0":"1"}]}')
    save_cache(table, path)
    merged = load_cache(path)
    assert CurveClass((3, 2)) in table.entries
    assert dict(merged.entries) == {**table.entries, CurveClass((4, 1)): 1}
    assert [row["class"] for row in json.loads(path.read_text())["entries"]] == [
        [1, 0], [1, 1], [3, 2], [4, 1],
    ]
    # ... and a file whose row, in either order, disagrees with the count
    # the table holds for its orbit is overwritten from the table alone.
    n0(QUADRIC, CurveClass((2, 2)), table)
    alone = tmp_path / "alone.json"
    save_cache(table, alone)
    for vector in ("[3,2]", "[2,3]"):
        path = tmp_path / f"q{vector}.json"
        path.write_text('{"version":1,"surface":"p1xp1","entries":[{"class":%s,"n0":"95"}]}'
                        % vector)
        save_cache(table, path)
        assert path.read_bytes() == alone.read_bytes()


def test_save_cache_skips_only_the_file_a_table_came_from(tmp_path, monkeypatch):
    surface = Surface.blowup(3)
    source = GwTable(surface=surface)
    support_enumerate(surface, 7, source)
    path = tmp_path / "permuted.json"
    permuted_cache(source, path)
    stored = path.read_bytes()
    table = load_cache(str(path))
    monkeypatch.chdir(tmp_path)
    save_cache(table, path.name)  # the same file by a relative name
    assert path.read_bytes() == stored
    # Another path, a table built from entries and a fresh table all write.
    other = tmp_path / "other.json"
    save_cache(table, other)
    assert load_cache(other) == table
    copy = GwTable(surface=surface, entries=table.entries)
    save_cache(copy, path)
    assert path.read_bytes() == other.read_bytes()
    # A fresh table writes too, keeping the file's rows as representatives.
    path.write_bytes(stored)
    save_cache(GwTable(surface=surface), path)
    assert path.read_bytes() == other.read_bytes()
    # A table that learns a count rewrites a permuted file as representatives.
    path.write_bytes(stored)
    table = load_cache(path)
    n0(surface, CurveClass((8, 3, 3, 3)), table)
    save_cache(table, path)
    assert load_cache(path) == table
    assert len(json.loads(path.read_text())["entries"]) == len(table.entries)


def test_concurrent_saves_leave_a_whole_file(tmp_path):
    small, large = GwTable(surface=Surface.blowup(2)), GwTable(surface=Surface.blowup(2))
    n0(small.surface, CurveClass((3, 1, 1)), small)
    n0(large.surface, CurveClass((5, 2, 2)), large)
    path = tmp_path / "shared.json"
    errors = []

    def writer(table):
        try:
            for _ in range(25):
                save_cache(table, path)
                assert load_cache(path) in (small, large)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in (small, large) * 3]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert load_cache(path) in (small, large)
    assert os.listdir(tmp_path) == [path.name]
