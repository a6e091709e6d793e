"""Acceptance gate: one test per shipped claim, everything exact.

Each criterion prints a single ``criterion N: PASS/FAIL`` line (visible
with ``pytest tests/test_acceptance.py -v -s``); the pytest verdicts carry
the same information when output capture is on.  Tolerance is zero
throughout: every comparison is integer or rational equality.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from delpezzo.checks import run_suite
from delpezzo.genus0 import GwTable, n0, support_enumerate, support_pairs
from delpezzo.genus2 import (
    cusp_count,
    n2j_main,
    plane_genus2_intermediate,
    plane_genus2_zinger,
    reconcile,
    rt2,
    taut_intersection,
    two_component_count,
)
from delpezzo.surface import CurveClass, Surface, quadric_to_blowup_class
from blowup_point import append_coefficient
from splitting_box import binomial

PLANE = Surface.blowup(0)
QUADRIC = Surface.quadric()

PLANE_TABLE = GwTable(surface=PLANE)
QUADRIC_TABLE = GwTable(surface=QUADRIC)


def criterion(num: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL — {label}")
                raise
            print(f"criterion {num}: PASS — {label}")

        return run

    return wrap


# Throwaway reference for criterion 1, written from the closed plane
# recursion and kept independent of the package internals.
@lru_cache(maxsize=None)
def _reference_plane(d: int) -> int:
    if d == 1:
        return 1
    total = Fraction(0)
    for d1 in range(1, d):
        d2 = d - d1
        weight = math.comb(3 * d - 2, 3 * d1 - 1) * d1 * d2
        bracket = d1 * d2 - Fraction(2 * (d1 - d2) ** 2, 3 * d - 2)
        total += weight * _reference_plane(d1) * _reference_plane(d2) * bracket
    value = total / (6 * (d - 1))
    assert value.denominator == 1
    return int(value)


@criterion(1, "genus-zero plane table 1, 1, 12, 620, 87304 (engine == reference, d <= 10)")
def test_criterion_1_plane_table():
    engine = [n0(PLANE, CurveClass((d,)), PLANE_TABLE) for d in range(1, 11)]
    assert engine[:5] == [1, 1, 12, 620, 87304]
    assert engine == [_reference_plane(d) for d in range(1, 11)]


@criterion(2, "cuspidal plane cubics: cusp(3L) = 24")
def test_criterion_2_cuspidal_cubics():
    assert cusp_count(PLANE, CurveClass((3,)), PLANE_TABLE) == 24


@criterion(3, "genus-two count vanishes on every published low-genus class")
def test_criterion_3_vanishing():
    for d in (2, 3):
        assert n2j_main(PLANE, CurveClass((d,)), PLANE_TABLE) == 0
    blowup_cases = (
        (1, (1, 0)),
        (1, (2, 0)),
        (1, (3, 0)),
        (1, (1, 1)),
        (1, (2, 1)),
        (1, (3, 1)),
        (2, (4, 2, 2)),
        (3, (4, 2, 2, 2)),
    )
    for k, coeffs in blowup_cases:
        assert n2j_main(Surface.blowup(k), CurveClass(coeffs)) == 0, coeffs
    quadric_cases = [(a, 0) for a in range(1, 6)] + [(a, 1) for a in range(1, 6)]
    quadric_cases.append((2, 2))
    for coeffs in quadric_cases:
        assert n2j_main(QUADRIC, CurveClass(coeffs), QUADRIC_TABLE) == 0, coeffs


@criterion(4, "blow-down invariance: quartic genus-two triple and genus-zero chains")
def test_criterion_4_blow_down_invariance():
    quartic = n2j_main(PLANE, CurveClass((4,)), PLANE_TABLE)
    one_point = Surface.blowup(1)
    assert n2j_main(one_point, CurveClass((4, 1))) == quartic
    assert n2j_main(one_point, CurveClass((4, 0))) == quartic

    for d in range(1, 6):
        base = n0(PLANE, CurveClass((d,)), PLANE_TABLE)
        for length in range(0, 4):
            for sigmas in itertools.product((-1, 0), repeat=length):
                surface, beta = PLANE, CurveClass((d,))
                for sigma in sigmas:
                    surface, beta = append_coefficient(surface, beta, sigma)
                if surface.delta(beta) < 0:
                    # more point conditions than the curves can satisfy;
                    # nothing to compare, both sides count zero curves
                    continue
                assert n0(surface, beta) == base, (d, sigmas)


@criterion(5, "plane genus-two closed forms agree for 2 <= d <= 12")
def test_criterion_5_zinger_equivalence():
    for d in range(2, 13):
        direct = n2j_main(PLANE, CurveClass((d,)), PLANE_TABLE, 2)
        assert plane_genus2_intermediate(d, PLANE_TABLE) == direct, d
        assert plane_genus2_zinger(d, PLANE_TABLE) == direct, d


@criterion(6, "quadric counts match the two-point blow-up for a+b <= 6")
def test_criterion_6_cross_model():
    two_points = Surface.blowup(2)
    b_table = GwTable(surface=two_points)
    for a in range(0, 7):
        for b in range(0, 7 - a):
            if a + b == 0:
                continue
            beta = CurveClass((a, b))
            assert n0(QUADRIC, beta, QUADRIC_TABLE) == n0(
                two_points, quadric_to_blowup_class(beta), b_table
            ), (a, b)


def _sweep_classes():
    for d in range(1, 9):
        yield PLANE, CurveClass((d,)), PLANE_TABLE
    for k in (1, 2, 3):
        surface = Surface.blowup(k)
        table = GwTable(surface=surface)
        for beta, _ in support_enumerate(surface, 12, table):
            if surface.delta(beta) >= 1:
                yield surface, beta, table
    for a in range(0, 6):
        for b in range(0, 6):
            if a + b == 0:
                continue
            beta = CurveClass((a, b))
            if n0(QUADRIC, beta, QUADRIC_TABLE) != 0 and QUADRIC.delta(beta) >= 1:
                yield QUADRIC, beta, QUADRIC_TABLE


def _summands_are_swap_symmetric(surface, beta, table) -> bool:
    # Independent transcription of every splitting summand, keyed by the
    # ordered pair; the sum is symmetric iff term(b1,b2) == term(b2,b1).
    delta = surface.delta(beta)
    deg = surface.anticanonical_degree(beta)
    terms = {}
    for b1, c1, b2, c2 in support_pairs(surface, beta, table):
        w = binomial(delta - 1, surface.delta(b1))
        dot = surface.intersect(b1, b2)
        deg1, deg2 = surface.anticanonical_degree(b1), surface.anticanonical_degree(b2)
        sq1, sq2 = surface.self_intersection(b1), surface.self_intersection(b2)
        terms[(b1.coeffs, b2.coeffs)] = (
            w * sq1 * sq2 * dot * c1 * c2,
            Fraction(w * c1 * c2 * dot * deg1 * deg2, 2 * deg),
            Fraction(w * c1 * c2 * dot, 2),
            w * c1 * c2 * dot * (-Fraction(6 * deg1 * deg2, deg) + Fraction(sq1 * sq2, 2) + 10),
        )
    return all(terms[(x, y)] == terms[(y, x)] for (x, y) in terms)


@criterion(7, "integrality and termwise swap symmetry over the lattice sweep")
def test_criterion_7_integrality_and_symmetry():
    examined = 0
    for surface, beta, table in _sweep_classes():
        examined += 1
        # each call performs exact divisions and raises if any fails
        assert isinstance(n2j_main(surface, beta, table), int)
        assert isinstance(cusp_count(surface, beta, table), int)
        assert isinstance(two_component_count(surface, beta, table), int)
        assert _summands_are_swap_symmetric(surface, beta, table), beta
    assert examined > 40  # the sweep must actually cover the lattice


@criterion(8, "reconciliation pin on the conic: (30, 6, 18, 0, 24, 12), report-only")
def test_criterion_8_reconcile_pin():
    report = reconcile(PLANE, CurveClass((2,)), PLANE_TABLE, 2)
    assert report.rt2 == 30
    assert report.cr_lemma == 6
    assert report.cr_proof == 18
    assert report.aut_n2j == 0
    # the residuals are pinned as a regression value, not asserted to vanish
    assert report.residual_lemma == 24
    assert report.residual_proof == 12


@criterion(9, "hand-derived fixtures: rt2, tautological intersection, two-component")
def test_criterion_9_fixtures():
    conic, cubic = CurveClass((2,)), CurveClass((3,))
    assert rt2(PLANE, conic, PLANE_TABLE) == 30
    assert rt2(PLANE, cubic, PLANE_TABLE) == 984
    assert taut_intersection(PLANE, conic, PLANE_TABLE) == Fraction(-3)
    assert two_component_count(PLANE, conic, PLANE_TABLE) == 3


@criterion(10, "reconcile identity rt2 = cr_proof + 2 n2j - 4 taut over the lattice sweep")
def test_criterion_10_reconcile_identity():
    examined = 0
    for surface, beta, table in _sweep_classes():
        examined += 1
        report = reconcile(surface, beta, table, 2)
        taut = taut_intersection(surface, beta, table)
        assert report.rt2 == report.cr_proof + report.aut_n2j - 4 * taut, beta
    assert examined > 40
    identity = [r for r in run_suite("all") if r.check_id.startswith("reconcile-identity-")]
    assert [r.check_id for r in identity] == [
        "reconcile-identity-blowups",
        "reconcile-identity-plane",
        "reconcile-identity-quadric",
    ]
    assert all(r.status == "pass" for r in identity)
