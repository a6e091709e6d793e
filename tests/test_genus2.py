"""Genus-two invariant tests.

All expected values below were evaluated by hand from the closed formulas
(with the genus-zero inputs 1, 1, 12, 620 frozen in test_genus0) before the
module was written.  Worked examples, plane degree 3: the tautological
number is 9/9*12 - (1/18)(21*2*3*6 + 21*2*6*3) = 12 - 84 = -72; the cusp
count is (3-1)*12 + 0 = 24; the two-component count is (21*2 + 21*2)/2 = 42;
the symplectic sum is 6*12*9 + 2*21*4*2 = 984.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from delpezzo.errors import InvalidClass, NegativeCount, NonIntegralResult
from delpezzo.genus0 import GwTable, moment_sums, n0, support_enumerate, support_pairs
from delpezzo.genus2 import (
    _Moments,
    _moments,
    _pair_terms,
    applicability_warnings,
    cr_components,
    cr_total,
    cusp_count,
    encode_exact,
    genus2_report,
    n2j_main,
    plane_genus2_intermediate,
    plane_genus2_zinger,
    reconcile,
    rt2,
    taut_intersection,
    two_component_count,
)
from delpezzo.numerics import exact_quotient
from delpezzo.orbits import orbit_key, standard_form
from delpezzo.surface import CurveClass, Surface, quadric_to_blowup_class
from engine_walks import record_walks
from splitting_box import binomial

PLANE = Surface.blowup(0)
QUADRIC = Surface.quadric()


def plane_class(d: int) -> CurveClass:
    return CurveClass((d,))


# ---------------------------------------------------------------------------
# Frozen plane fixtures.


@pytest.mark.parametrize("d, expected", [(1, 6), (2, 30), (3, 984)])
def test_rt2_plane(d, expected):
    assert rt2(PLANE, plane_class(d)) == expected


@pytest.mark.parametrize(
    "d, expected",
    [(1, Fraction(3)), (2, Fraction(-3)), (3, Fraction(-72))],
)
def test_taut_plane(d, expected):
    assert taut_intersection(PLANE, plane_class(d)) == expected


@pytest.mark.parametrize("d, expected", [(1, 0), (2, 0), (3, 24)])
def test_cusp_plane(d, expected):
    assert cusp_count(PLANE, plane_class(d)) == expected


@pytest.mark.parametrize("d, expected", [(1, 0), (2, 3), (3, 42)])
def test_two_component_plane(d, expected):
    assert two_component_count(PLANE, plane_class(d)) == expected


@pytest.mark.parametrize(
    "d, lemma, proof",
    [
        (1, Fraction(6), Fraction(18)),
        (2, Fraction(-6), Fraction(6)),
        (3, Fraction(-144), Fraction(0)),
    ],
)
def test_single_sphere_component_variants(d, lemma, proof):
    beta = plane_class(d)
    assert cr_components(PLANE, beta, variant="lemma").n11 == lemma
    assert cr_components(PLANE, beta, variant="proof").n11 == proof


@pytest.mark.parametrize(
    "d, lemma_total, proof_total",
    [
        (1, Fraction(6), Fraction(18)),
        (2, Fraction(6), Fraction(18)),
        (3, Fraction(552), Fraction(696)),
    ],
)
def test_correction_totals(d, lemma_total, proof_total):
    beta = plane_class(d)
    assert cr_total(PLANE, beta, variant="lemma") == lemma_total
    assert cr_total(PLANE, beta, variant="proof") == proof_total


def test_correction_components_shape():
    comps = cr_components(PLANE, plane_class(3))
    assert comps.n21x2 == 4 * 24
    assert comps.n31x18 == 18 * 24
    assert comps.n12 == 4 * 42
    assert comps.total == comps.n11 + 22 * 24 + 4 * 42


@pytest.mark.parametrize("d, expected", [(2, 0), (3, 0), (4, 14400)])
def test_n2j_plane(d, expected):
    assert n2j_main(PLANE, plane_class(d)) == expected


def test_n2j_scales_with_automorphism_order():
    assert n2j_main(PLANE, plane_class(4), aut_order=4) == 7200


def test_aut_order_must_be_even_and_positive():
    for bad in (0, -2, 1, 3):
        with pytest.raises(InvalidClass):
            n2j_main(PLANE, plane_class(4), aut_order=bad)


@pytest.mark.parametrize("quantity", [n2j_main, genus2_report, reconcile])
@pytest.mark.parametrize("aut_order", [2.0, "2", Fraction(2), None],
                         ids=["integral-float", "string", "fraction", "none"])
def test_aut_order_must_be_an_integer(quantity, aut_order):
    # Each is refused before any arithmetic: a float of value 2 would make
    # n2j a float, which the reports cannot encode as JSON.
    with pytest.raises(InvalidClass, match=r"positive even integer, got "):
        quantity(PLANE, plane_class(12), aut_order=aut_order)


def test_delta_zero_classes_rejected():
    surface = Surface.blowup(1)
    exceptional = CurveClass((0, -1))
    for fn in (rt2, taut_intersection, cusp_count, two_component_count):
        with pytest.raises(InvalidClass):
            fn(surface, exceptional)
    with pytest.raises(InvalidClass):
        n2j_main(surface, exceptional)


# ---------------------------------------------------------------------------
# The two plane closed forms and the lattice formula agree.


def test_plane_closed_forms_match_main_formula():
    for d in range(2, 9):
        direct = n2j_main(PLANE, plane_class(d))
        assert plane_genus2_intermediate(d) == direct
        assert plane_genus2_zinger(d) == direct


def test_plane_intermediate_degree_one():
    assert plane_genus2_intermediate(1) == 0


def test_plane_closed_form_rejects_degree_one():
    with pytest.raises(InvalidClass):
        plane_genus2_zinger(1)


# ---------------------------------------------------------------------------
# Classical cusp counts, and the blow-up law of the whole genus-two bundle.


@pytest.mark.parametrize("k", range(8))
def test_the_anticanonical_cusp_count_is_24(k):
    # A curve in -K = 3L - E1 - ... - Ek is a plane cubic through the k
    # blown-up points, so on every k <= 7 this is the classical count of 24
    # cuspidal cubics through 7 general points.
    surface = Surface.blowup(k)
    assert cusp_count(surface, surface.anticanonical) == 24


def test_plane_cusp_counts():
    assert [cusp_count(PLANE, plane_class(d)) for d in range(3, 7)] == [
        24, 2304, 435168, 156153600,
    ]


# The law appending a multiplicity 0 (blowing up a point off the curve)
# must obey, per quantity: (n0, n2j, cusp) stay, rt2 rises by 2 n0, taut
# falls by n0, two_comp rises by n0, so cr_lemma rises by 2 n0 and cr_proof
# falls by 2 n0.  A test of the engine's outputs only: nothing in the
# package reads a class through fewer points.
BUNDLE = ("n0", "n2j", "cusp", "rt2", "taut", "two_comp", "cr_lemma", "cr_proof")


def _blow_up_shift(report, image):
    """Each quantity of ``image`` minus that of ``report``, and what the law
    says the differences are."""
    n = report.n0
    actual = tuple(getattr(image, name) - getattr(report, name) for name in BUNDLE)
    return actual, (0, 0, 0, 2 * n, -n, n, 2 * n, -2 * n)


# k: (anticanonical degree bound on blp2:k, classes with delta >= 1 there).
BLOW_UP_LAW_BOUNDS = {0: (9, 3), 1: (9, 8), 2: (9, 22), 3: (9, 75), 4: (7, 131), 5: (7, 685)}


@pytest.mark.parametrize("k", sorted(BLOW_UP_LAW_BOUNDS))
def test_appending_a_zero_multiplicity_obeys_the_blow_up_law(k):
    bound, expected = BLOW_UP_LAW_BOUNDS[k]
    surface, blown_up = Surface.blowup(k), Surface.blowup(k + 1)
    table, blown_up_table = GwTable(surface=surface), GwTable(surface=blown_up)
    compared = 0
    for beta, _ in support_enumerate(surface, bound, table):
        if surface.delta(beta) < 1:
            continue
        image = CurveClass(beta.coeffs + (0,))
        actual, law = _blow_up_shift(
            genus2_report(surface, beta, table), genus2_report(blown_up, image, blown_up_table)
        )
        assert actual == law, beta
        compared += 1
    assert compared == expected


def test_the_quadric_blown_up_at_a_point_obeys_the_blow_up_law():
    # The two-point blow-up of the plane is the quadric blown up at one
    # point, and the image (a+b; b, a) of a bidegree meets that point's
    # exceptional curve L - E1 - E2 in 0.
    two_points = Surface.blowup(2)
    table, two_point_table = GwTable(surface=QUADRIC), GwTable(surface=two_points)
    compared = 0
    for beta, _ in support_enumerate(QUADRIC, 24, table):
        if QUADRIC.delta(beta) < 1:
            continue
        image = quadric_to_blowup_class(beta)
        assert two_points.intersect(image, CurveClass((1, 1, 1))) == 0
        actual, law = _blow_up_shift(
            genus2_report(QUADRIC, beta, table), genus2_report(two_points, image, two_point_table)
        )
        assert actual == law, beta
        compared += 1
    assert compared == 68


# ---------------------------------------------------------------------------
# Vanishing on low-genus classes and hypothesis warnings.


def test_quadric_bidegree_two_two_vanishes_with_warnings():
    beta = CurveClass((2, 2))
    assert n2j_main(QUADRIC, beta) == 0
    warnings = applicability_warnings(QUADRIC, beta)
    assert len(warnings) == 2


@pytest.mark.parametrize(
    "k, coeffs",
    [(1, (1, 1)), (1, (2, 1)), (1, (3, 1)), (2, (4, 2, 2))],
)
def test_blowup_vanishing_examples(k, coeffs):
    surface = Surface.blowup(k)
    beta = CurveClass(coeffs)
    assert surface.genus(beta) <= 1
    assert n2j_main(surface, beta) == 0


def test_applicability_plane():
    assert applicability_warnings(PLANE, plane_class(4)) == []
    assert any("d > 2" in w for w in applicability_warnings(PLANE, plane_class(2)))
    # 3L has d > 2 but an empty residual system.
    assert any("beta - 3L" in w for w in applicability_warnings(PLANE, plane_class(3)))


def test_applicability_quadric_partial():
    assert applicability_warnings(QUADRIC, CurveClass((3, 3))) == []
    warnings = applicability_warnings(QUADRIC, CurveClass((2, 3)))
    assert len(warnings) == 1 and "a > 2" in warnings[0]


def test_applicability_blowup_with_residual():
    # 6L - E1 - E2: d > 2 and the residual 3L - E1 - E2 still moves.
    surface = Surface.blowup(2)
    assert applicability_warnings(surface, CurveClass((6, 1, 1))) == []
    # ... while 6L - 2E1 - 2E2 leaves a residual of negative genus.
    assert len(applicability_warnings(surface, CurveClass((6, 2, 2)))) == 1


# ---------------------------------------------------------------------------
# Reconciliation regression pin (report-only upstream, asserted here as a
# fixture: the mismatch itself is the documented fact).


def test_reconcile_plane_conic_pin():
    report = reconcile(PLANE, plane_class(2))
    assert report.rt2 == 30
    assert report.cr_lemma == 6
    assert report.cr_proof == 18
    assert report.aut_n2j == 0
    assert report.residual_lemma == 24
    assert report.residual_proof == 12


def test_reconcile_aut_product_is_order_independent():
    base = reconcile(PLANE, plane_class(4), aut_order=2)
    scaled = reconcile(PLANE, plane_class(4), aut_order=4)
    assert base.aut_n2j == scaled.aut_n2j == 2 * 14400


def test_reconcile_plane_line():
    report = reconcile(PLANE, plane_class(1))
    assert report.rt2 == 6
    assert report.cr_lemma == 6
    assert report.aut_n2j == 0


def reconcile_identity_classes(name):
    if name == "plane":
        return PLANE, [plane_class(d) for d in range(1, 8)]
    if name == "quadric":
        return QUADRIC, [
            CurveClass((a, b)) for a in range(5) for b in range(5) if a + b > 0
        ]
    surface = Surface.blowup(2)
    support = support_enumerate(surface, 10)
    return surface, [beta for beta, _ in support if surface.delta(beta) >= 1]


@pytest.mark.parametrize("name", ["plane", "quadric", "blp2:k=2"])
def test_reconcile_residuals_are_tautological(name):
    # rt2 - cr - aut n2j in the moment basis: S0 and S2 cancel and what is
    # left of S1 is -4 taut; the lemma form adds back (2 x1^2 - 2 x2) n0.
    surface, classes = reconcile_identity_classes(name)
    table = GwTable(surface=surface)
    extra = 2 * surface.k_squared - 2 * surface.euler_number
    for beta in classes:
        report = reconcile(surface, beta, table)
        taut = taut_intersection(surface, beta, table)
        assert report.residual_proof == -4 * taut, beta
        assert report.residual_lemma == -4 * taut + extra * n0(surface, beta, table), beta


# ---------------------------------------------------------------------------
# Reports and serialization.


def test_genus2_report_bundle():
    report = genus2_report(PLANE, plane_class(3))
    assert report.n0 == 12
    assert report.rt2 == 984
    assert report.cusp == 24
    assert report.two_comp == 42
    assert report.taut == Fraction(-72)
    assert report.n2j == 0
    assert report.genus == 1
    assert report.delta == 8

    payload = report.to_json_dict()
    assert payload["class"] == [3]
    assert payload["n2j"] == "0"
    assert payload["rt2"] == "984"
    assert payload["taut"] == {"num": "-72", "den": "1"}
    assert isinstance(payload["warnings"], list)


def test_encode_exact():
    assert encode_exact(12) == "12"
    assert encode_exact(Fraction(-3, 2)) == {"num": "-3", "den": "2"}


def conic_moments(n0, s0, s1, s2):
    """A hand-built record on the plane conic class: deg 6, beta^2 = 4,
    x1^2 = 9, x2 = 3, b2 = 1, with free ``n0`` and moments (``S3``, which
    no genus-two quantity reads, is 0)."""
    return _Moments(PLANE, CurveClass((2,)), n0, (s0, s1, s2, 0))


# The record makes every division but n2j's when it is built, cusp first,
# so the moments of each case below leave the divisions before its own
# integral (and the cusp count nonnegative).
@pytest.mark.parametrize(
    "sums, quantity, message",
    [
        # cusp = (0 + 12 - 12) / 12 = 0
        ((0, 1, 12, 0), lambda m: m.two_comp, "two-component count of 2, got 1/2"),
        # (3 - 9/6) + 1/12 = 19/12
        ((1, 0, 1, 0), lambda m: m.cusp, "cusp count of 2, got 19/12"),
        # cusp = (18 + 6) / 12 = 2; (2/aut) ((12 - 30 - 9 + 18) - 36/6 + 11/2) = -19/aut
        ((1, 0, 6, 11), lambda m: m.n2j(2), "genus-two count of 2, got -19/2"),
        ((1, 0, 6, 11), lambda m: m.n2j(4), "genus-two count of 2, got -19/4"),
    ],
    ids=["two_comp", "cusp", "n2j-aut2", "n2j-aut4"],
)
def test_non_integral_quantities_name_the_class_and_the_rational(sums, quantity, message):
    with pytest.raises(NonIntegralResult) as failure:
        quantity(conic_moments(*sums))
    assert str(failure.value) == f"expected integer in {message}"


def test_negative_cusp_count_is_refused():
    with pytest.raises(NegativeCount) as failure:
        conic_moments(0, 3, 0, 0).cusp
    assert str(failure.value) == "cusp count of 2 came out -3"


def test_quantity_types_on_a_hand_built_record():
    # taut = (9/6) 2 = 3, cusp = (3 - 9/6) 2 - 2 = 1, two_comp = 1,
    # n2j = (12 - 30 - 9 + 18) 2 + 20 = 2.
    moments = conic_moments(2, 2, 0, 0)
    assert type(moments.taut) is Fraction and moments.taut == 3
    for variant, total in (("lemma", 32), ("proof", 56)):
        assert type(moments.cr(variant).total) is Fraction
        assert moments.cr(variant).total == total
    values = (moments.n2j(2), moments.cusp, moments.two_comp)
    assert [type(value) for value in values] == [int, int, int]
    assert values == (2, 1, 1)


def test_the_report_checks_its_genus(monkeypatch):
    # beta^2 and deg of a class have the same parity; a record where they
    # do not must not floor (5 - 6) / 2 + 1 to a genus of 0.
    moments = conic_moments(0, 0, 0, 0)
    moments.sq = 5
    monkeypatch.setattr("delpezzo.genus2._moments", lambda surface, beta, table: moments)
    with pytest.raises(NonIntegralResult, match=r"genus of 2, got 1/2$"):
        genus2_report(PLANE, plane_class(2))


def test_a_warm_report_formats_no_class_and_checks_it_a_pinned_number_of_times(monkeypatch):
    # Every exact division formats its error naming the class only when it
    # fails, and the class is validated once per quantity (twice per
    # report: once more by the applicability warnings).  These classes
    # raise no warning, whose text would name the residual class.
    calls = []
    real_str, real_check = CurveClass.__str__, Surface.check_class

    def counting_str(self):
        calls.append("str")
        return real_str(self)

    def counting_check(self, *args, **kwargs):
        calls.append("check_class")
        return real_check(self, *args, **kwargs)

    for surface, coeffs in ((PLANE, (4,)), (Surface.blowup(2), (5, 1, 1)), (QUADRIC, (3, 3))):
        beta = CurveClass(coeffs)
        table = GwTable(surface=surface)
        assert genus2_report(surface, beta, table).warnings == ()
        monkeypatch.setattr(CurveClass, "__str__", counting_str)
        monkeypatch.setattr(Surface, "check_class", counting_check)
        for quantity, checks in ((genus2_report, 2), (reconcile, 1), (n2j_main, 1)):
            for aut_order in (2, 4):
                calls.clear()
                quantity(surface, beta, table, aut_order=aut_order)
                assert calls == ["check_class"] * checks, (quantity.__name__, coeffs)
        monkeypatch.undo()


def test_a_warm_report_on_another_member_divides_only_for_the_genus_and_n2j(monkeypatch):
    # One record per standard form makes every other division when it is
    # built; a second member of the orbit, (5, 1, 2, 2) after (5, 2, 1, 2)
    # or the swapped bidegree, reads it and divides twice.
    divisions = []
    real = exact_quotient

    def counting(numerator, denominator, what, beta):
        divisions.append(what)
        return real(numerator, denominator, what, beta)

    for surface, first, second in (
        (Surface.blowup(3), (5, 2, 1, 2), (5, 1, 2, 2)),
        (QUADRIC, (4, 3), (3, 4)),
    ):
        table = GwTable(surface=surface)
        genus2_report(surface, CurveClass(first), table)
        monkeypatch.setattr("delpezzo.genus2.exact_quotient", counting)
        divisions.clear()
        genus2_report(surface, CurveClass(second), table)
        assert divisions == ["genus", "genus-two count"], second
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# Outputs frozen from the implementation before each quantity became one
# exact division per call: the reports, their JSON and the correction
# components, with every field's type (``repr`` tells ``3`` from
# ``Fraction(3, 1)``).


def _frozen_output_classes(surface, bound, table, members):
    """The classes with ``delta >= 1`` up to ``bound``: every member of the
    support, or (on eight points, where the members run to a million)
    its orbit representatives, from the engine's levels."""
    if members:
        classes = [beta for beta, _ in support_enumerate(surface, bound, table)]
    else:
        engine = table._engine
        engine.ensure(surface.rank, bound)
        classes = sorted(
            (CurveClass(c) for degree in range(1, bound + 1)
             for bucket in engine.support[(surface.rank, degree)].values() for c in bucket),
            key=lambda beta: beta.coeffs,
        )
    return [beta for beta in classes if surface.delta(beta) >= 1]


FROZEN_OUTPUTS = [
    ("blp2:k=0", 14, True, "f4daad21ec1e291478b12ecf4ebeade5627910a3c45792172406d145833e7490"),
    ("blp2:k=3", 13, True, "2365d69420fb10c01ddedda18cf285ff73086c80ab1f4c317fa41b088ac57d29"),
    ("blp2:k=5", 9, True, "9db7906fc97dd039136857dafced6cc7bfa1682e755c4f0367f157478884b7c0"),
    ("blp2:k=8", 5, False, "44f2cc03e7420ae273271323a00c1c914eefe6af7a1ddea548295beae6ae4c35"),
    ("p1xp1", 24, True, "89f76dcfbcce2d98ee157e37157f5ceabfd4e52b158c6f88e871e09082ad8a76"),
]


@pytest.mark.parametrize(
    "descriptor, bound, members, digest", FROZEN_OUTPUTS, ids=[d for d, *_ in FROZEN_OUTPUTS]
)
def test_reports_match_the_frozen_outputs(descriptor, bound, members, digest):
    surface = Surface.parse(descriptor)
    table = GwTable(surface=surface)
    sha = hashlib.sha256()
    for beta in _frozen_output_classes(surface, bound, table, members):
        for aut_order in (2, 4):
            for report in (
                genus2_report(surface, beta, table, aut_order),
                reconcile(surface, beta, table, aut_order),
            ):
                sha.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
                sha.update(repr(report).encode())
        for variant in ("lemma", "proof"):
            sha.update(repr(cr_components(surface, beta, table, variant)).encode())
    assert sha.hexdigest() == digest


# ---------------------------------------------------------------------------
# Structural properties of the splitting sums.


def sum_term_table(surface, beta):
    """Independent transcription of each summand, keyed by the ordered pair."""
    delta = surface.delta(beta)
    deg = surface.anticanonical_degree(beta)
    table = {}
    for b1, c1, b2, c2 in support_pairs(surface, beta):
        w = binomial(delta - 1, surface.delta(b1))
        dot = surface.intersect(b1, b2)
        deg1 = surface.anticanonical_degree(b1)
        deg2 = surface.anticanonical_degree(b2)
        sq1 = surface.self_intersection(b1)
        sq2 = surface.self_intersection(b2)
        table[(b1.coeffs, b2.coeffs)] = {
            "rt2": w * sq1 * sq2 * dot * c1 * c2,
            "taut": Fraction(w * c1 * c2 * dot * deg1 * deg2, 2 * deg),
            "cusp": w * c1 * c2 * dot * (Fraction(deg1 * deg2, 2 * deg) - 1),
            "two": Fraction(w * c1 * c2 * dot, 2),
            "n2j": w
            * c1
            * c2
            * dot
            * (-Fraction(6 * deg1 * deg2, deg) + Fraction(sq1 * sq2, 2) + 10),
        }
    return table


@pytest.mark.parametrize(
    "surface, coeffs",
    [
        (PLANE, (4,)),
        (Surface.blowup(2), (4, 2, 2)),
        (Surface.blowup(3), (4, 2, 2, 2)),
        (QUADRIC, (2, 2)),
        (QUADRIC, (3, 2)),
    ],
)
def test_splitting_sums_are_termwise_swap_symmetric(surface, coeffs):
    beta = CurveClass(coeffs)
    table = sum_term_table(surface, beta)
    assert table, f"no splittings found for {beta}"
    for (a, b), terms in table.items():
        mirrored = table[(b, a)]
        for key, value in terms.items():
            assert mirrored[key] == value


def pair_term_oracle(surface, beta, table):
    """Independent transcription of ``(t0, t0 deg1 deg2, t0 b1^2 b2^2,
    t0 (b1.b2)^2)`` for each ordered pair, through the checked Surface API."""
    delta = surface.delta(beta)
    terms = []
    for b1, c1, b2, c2 in support_pairs(surface, beta, table):
        pairing = surface.intersect(b1, b2)
        t0 = binomial(delta - 1, surface.delta(b1)) * c1 * c2 * pairing
        degs = surface.anticanonical_degree(b1) * surface.anticanonical_degree(b2)
        squares = surface.self_intersection(b1) * surface.self_intersection(b2)
        terms.append((b1.coeffs, b2.coeffs, (t0, t0 * degs, t0 * squares, t0 * pairing * pairing)))
    return terms


# One class with at least 20 splitting pairs on each surface.
MANY_PAIRS = [
    (PLANE, (21,)),
    (Surface.blowup(1), (8, 3)),
    (Surface.blowup(2), (5, 1, 2)),
    (Surface.blowup(3), (4, 1, 1, 1)),
    (Surface.blowup(4), (4, 0, 1, 1, 2)),
    (Surface.blowup(5), (3, 0, 0, 1, 1, 1)),
    (Surface.blowup(6), (3, 0, 0, 1, 1, 1, 1)),
    (Surface.blowup(7), (3, 0, 0, 1, 1, 1, 1, 1)),
    (Surface.blowup(8), (3, 0, 0, 1, 1, 1, 1, 1, 1)),
    (QUADRIC, (6, 5)),
]


@pytest.mark.parametrize(
    "surface, coeffs", MANY_PAIRS, ids=[s.descriptor for s, _ in MANY_PAIRS]
)
def test_pair_terms_match_the_surface_api_transcription(surface, coeffs):
    # The walk runs on the orbit key: each orbit's summand is the
    # transcription's summand of its member among the splittings of the
    # key, and the weights add up to the ordered pairs.
    beta = CurveClass(coeffs)
    table = GwTable(surface=surface)
    key = CurveClass(orbit_key(coeffs))
    expected = {(u, v): t for u, v, t in pair_term_oracle(surface, key, table)}
    actual = list(_pair_terms(surface, beta, table))
    assert len(expected) >= 20
    assert len({(u, v) for _, u, v, _ in actual}) == len(actual)
    for _, u, v, t in actual:
        assert expected[(u, v)] == t
    assert sum(weight for weight, *_ in actual) == len(expected)


def test_moment_pass_validates_per_class_not_per_pair(monkeypatch):
    # The parts of a splitting come from the genus-zero engine, already of
    # the surface's rank: a cold record checks beta once, by its degree.
    surface = Surface.blowup(4)
    table = GwTable(surface=surface)
    small, large = CurveClass((3, 1, 1, 0, 0)), CurveClass((7, 2, 2, 2, 2))
    sizes = [len(list(support_pairs(surface, beta, table))) for beta in (small, large)]
    assert sizes[0] < 20 and sizes[1] >= 150
    calls = []
    for name in ("check_class", "intersect"):
        real = getattr(Surface, name)

        def counting(self, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Surface, name, counting)
    counts = []
    for beta in (small, large):
        calls.clear()
        _moments(surface, beta, table)
        counts.append(len(calls))
    assert counts == [1, 1]


PINNED = [(PLANE, (2,)), (PLANE, (4,)), (Surface.blowup(2), (4, 1, 1)), (QUADRIC, (3, 3))]


@pytest.mark.parametrize("surface, coeffs", PINNED, ids=[str(c) for _, c in PINNED])
def test_reports_agree_on_empty_and_warm_tables(surface, coeffs):
    beta = CurveClass(coeffs)
    warm = GwTable(surface=surface)
    support_enumerate(surface, 16, warm)
    for other, _ in support_enumerate(surface, 12, warm):
        if surface.delta(other) >= 1:
            genus2_report(surface, other, warm)
    for aut_order in (2, 4):
        reports = [
            (
                genus2_report(surface, beta, table, aut_order).to_json_dict(),
                reconcile(surface, beta, table, aut_order).to_json_dict(),
            )
            for table in (GwTable(surface=surface), warm, None)
        ]
        assert reports[0] == reports[1] == reports[2]


@pytest.fixture
def pair_walks(monkeypatch):
    """Records every splitting walk the genus-two module starts."""
    return record_walks(monkeypatch)


@pytest.mark.parametrize(
    "surface, coeffs",
    [(PLANE, (4,)), (Surface.blowup(2), (4, 1, 1)), (QUADRIC, (3, 3))],
)
def test_report_and_reconcile_walk_the_splittings_once(pair_walks, surface, coeffs):
    beta = CurveClass(coeffs)
    table = GwTable(surface=surface)
    genus2_report(surface, beta, table)
    assert pair_walks == [beta.coeffs]
    pair_walks.clear()
    reconcile(surface, beta, table)  # the table keeps the moments
    assert pair_walks == []


@pytest.mark.parametrize(
    "quantity",
    [
        rt2,
        taut_intersection,
        cusp_count,
        two_component_count,
        cr_components,
        cr_total,
        n2j_main,
    ],
)
def test_each_quantity_walks_the_splittings_at_most_once(pair_walks, quantity):
    quantity(PLANE, plane_class(4))
    assert len(pair_walks) == 1


# ---------------------------------------------------------------------------
# The moments are W(E_k)-invariant, so the table keeps them per standard form.


def _walked_moments(surface, coeffs, table):
    """``(n0, S0, S1, S2, S3)`` of a class from its own walk, never the
    moments memo, or the type of the error the walk raised."""
    beta = CurveClass(coeffs)
    try:
        return (n0(surface, beta, table), *moment_sums(_pair_terms(surface, beta, table)))
    except Exception as exc:
        return type(exc)


# k: (largest d, largest anticanonical degree, keys in the box).  About
# 1 s in all, most of it on eight points.
CREMONA_BOXES = {
    3: (6, 8, 221),
    4: (5, 7, 426),
    5: (5, 6, 823),
    6: (4, 6, 866),
    7: (4, 5, 1195),
    8: (4, 5, 1889),
}


@pytest.mark.parametrize("k", sorted(CREMONA_BOXES))
def test_moments_of_a_key_are_those_of_its_standard_form(k):
    # Every orbit key with delta >= 1, d >= 2 and m1 + m2 + m3 > d in the
    # box, multiplicities in [-2, d + 1] (out of the chamber too): the key
    # and its standard form, each walked, give the same n0 and moments or
    # raise the same error.
    largest_d, largest_degree, expected_keys = CREMONA_BOXES[k]
    surface = Surface.blowup(k)
    table = GwTable(surface=surface)
    keys = 0
    for d in range(2, largest_d + 1):
        for ms in itertools.combinations_with_replacement(range(d + 1, -3, -1), k):
            key = (d, *ms)
            degree = 3 * d - sum(ms)
            if degree < 2 or degree > largest_degree or ms[0] + ms[1] + ms[2] <= d:
                continue
            std = standard_form(key)
            assert std == orbit_key(std) and 3 * std[0] - sum(std[1:]) == degree
            assert std[0] < 2 or std[1] + std[2] + std[3] <= std[0], key
            assert _walked_moments(surface, key, table) == _walked_moments(surface, std, table), key
            keys += 1
    assert keys == expected_keys


# (k, largest anticanonical degree): (orbit representatives with
# delta >= 1, standard forms among them, sha256 of the sorted rows
# (key, n0, S0, S1, S2)).  The digests were computed with the moments kept
# per orbit key, one walk per representative.
STANDARD_FORM_MOMENT_PINS = {
    (5, 10): (176, 43, "e8bdfee35e6e18e94349ba96bce6580a8e45dc73105139f04fdf7b4849c78082"),
    (7, 7): (509, 36, "fc6e45001fd3077c8b185d5b86a4a2dfe29e6df2434b9d8e1d8332a7fe606638"),
    (8, 6): (2973, 58, "0cd665ed9a86370fb7420040d2b373de6f3112e9f74a836914223fd65bf0ecbd"),
}


@pytest.mark.parametrize("k, bound", sorted(STANDARD_FORM_MOMENT_PINS))
def test_a_table_walks_each_standard_form_once(pair_walks, k, bound):
    reps, walks, digest = STANDARD_FORM_MOMENT_PINS[(k, bound)]
    surface = Surface.blowup(k)
    table = GwTable(surface=surface)
    engine = table._engine
    engine.ensure(surface.rank, bound)
    rows = []
    for degree in range(2, bound + 1):
        for bucket in engine.support[(surface.rank, degree)].values():
            for key in bucket:
                moments = _moments(surface, CurveClass(key), table)
                rows.append((key, moments.n0, moments.s0, moments.s1, moments.s2))
    rows.sort()
    assert len(rows) == reps
    assert len(pair_walks) == len(set(pair_walks)) == walks
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


# On the quadric the moments are swap-invariant, so the table keeps them
# per sorted bidegree (a, b) with a >= b.


def test_quadric_moments_are_those_of_the_class_itself():
    table, fresh = GwTable(surface=QUADRIC), GwTable(surface=QUADRIC)
    classes = 0
    for a in range(13):
        for b in range(13 - a):
            if a + b == 0:
                continue
            moments = _moments(QUADRIC, CurveClass((a, b)), table)
            stored = (moments.n0, moments.s0, moments.s1, moments.s2)
            assert stored == _walked_moments(QUADRIC, (a, b), fresh)[:4], (a, b)
            classes += 1
    assert classes == 90
    assert sorted(table._engine.moments) == sorted(
        (a, b) for a in range(13) for b in range(a + 1) if 0 < a + b <= 12
    )


def test_a_report_of_the_swapped_bidegree_makes_no_walk(pair_walks):
    table = GwTable(surface=QUADRIC)
    report = genus2_report(QUADRIC, CurveClass((2, 3)), table)
    swapped = genus2_report(QUADRIC, CurveClass((3, 2)), table)
    assert pair_walks == [(3, 2)]
    # The numbers are shared; the class and its warnings are each report's own.
    assert report.n2j == swapped.n2j == 960
    assert dataclasses.replace(report, beta=swapped.beta, warnings=()) == dataclasses.replace(
        swapped, warnings=()
    )
    assert report.warnings == ("hypothesis a > 2 fails: a = 2",)
    assert swapped.warnings == ("hypothesis b > 2 fails: b = 2",)


def test_integrality_small_sweep():
    cases = [
        (PLANE, plane_class(d)) for d in range(1, 7)
    ] + [
        (Surface.blowup(2), CurveClass((d, m1, m2)))
        for d in range(1, 5)
        for m1 in range(0, d + 1)
        for m2 in range(0, m1 + 1)
        if 3 * d - m1 - m2 - 1 >= 1
    ] + [
        (QUADRIC, CurveClass((a, b)))
        for a in range(1, 4)
        for b in range(1, 4)
    ]
    for surface, beta in cases:
        if n0(surface, beta) == 0:
            continue
        n2j_main(surface, beta)  # raises NonIntegralResult on failure
        cusp_count(surface, beta)  # also checks nonnegativity
        two_component_count(surface, beta)
