"""Lattice layer: classes, pairings, descriptors, and the splitting oracle."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from delpezzo.errors import InvalidClass, RankMismatch, RankOverflow
from delpezzo.surface import CurveClass, Surface, quadric_to_blowup_class
from blowup_point import append_coefficient
from splitting_box import splittings

PLANE = Surface.blowup(0)
ONE = Surface.blowup(1)
TWO = Surface.blowup(2)
QUADRIC = Surface.quadric()


# -- CurveClass --------------------------------------------------------------


def test_class_parse_and_str_round_trip():
    beta = CurveClass.parse(" 4, 2,2 ")
    assert beta.coeffs == (4, 2, 2)
    assert str(beta) == "4,2,2"
    assert CurveClass.parse(str(beta)) == beta


def test_class_parse_rejects_garbage():
    with pytest.raises(InvalidClass):
        CurveClass.parse("4;2")
    with pytest.raises(InvalidClass):
        CurveClass.parse("")


def test_class_needs_a_coefficient():
    with pytest.raises(InvalidClass):
        CurveClass(())
    with pytest.raises(InvalidClass):
        CurveClass([])


@pytest.mark.parametrize("text", ["1_0,0", "\u0661,0", "+3,1", "03,1", "-0,1", "3,,1"],
                         ids=["underscore", "arabic-indic-digit", "plus", "leading-zero",
                              "minus-zero", "empty-part"])
def test_class_parse_reads_only_what_str_writes(text):
    with pytest.raises(InvalidClass, match="cannot parse curve class"):
        CurveClass.parse(text)


@pytest.mark.parametrize("coefficient", [2.7, 3.0, "3", Fraction(3)],
                         ids=["float", "integral-float", "string", "fraction"])
def test_class_coefficients_that_are_not_integers_are_rejected(coefficient):
    with pytest.raises(InvalidClass, match="integer coefficients"):
        CurveClass((coefficient, 1))


def test_class_is_slotted_frozen_and_still_validated():
    # Slotted: no instance dict, and no room for an attribute beyond
    # ``coeffs``, not even past the frozen __setattr__.  Assigning a new
    # name raises too; CPython 3.10 to 3.13 raise TypeError there, from
    # the frozen __setattr__ of the class that slots=True replaces.  The
    # coefficients are still checked.
    beta = CurveClass((3, 1))
    assert not hasattr(beta, "__dict__")
    with pytest.raises(FrozenInstanceError):
        beta.coeffs = (4, 1)
    with pytest.raises((FrozenInstanceError, TypeError)):
        beta.label = "cubic"
    with pytest.raises(AttributeError):
        object.__setattr__(beta, "label", "cubic")
    assert beta == CurveClass((3, 1))
    for coefficient in (2.7, "3"):
        with pytest.raises(InvalidClass, match="integer coefficients"):
            CurveClass((coefficient, 1))


def test_class_coefficients_normalise_to_an_int_tuple():
    beta = CurveClass([3, True, False])
    assert beta.coeffs == (3, 1, 0)
    assert type(beta.coeffs) is tuple
    assert all(type(c) is int for c in beta.coeffs)
    assert beta == CurveClass((3, 1, 0))
    assert hash(beta) == hash(CurveClass((3, 1, 0)))
    assert CurveClass([False, 0]).is_zero


def test_class_arithmetic():
    a = CurveClass((3, 1, 1))
    b = CurveClass((1, 0, 1))
    assert (a + b).coeffs == (4, 1, 2)
    assert (a - b).coeffs == (2, 1, 0)
    assert CurveClass((0, 0)).is_zero
    assert not a.is_zero
    with pytest.raises(RankMismatch):
        a + CurveClass((1,))


# -- Surface construction and descriptors ------------------------------------


@pytest.mark.parametrize("descriptor", ["blp2:k=0", "blp2:k=5", "blp2:k=8", "p1xp1"])
def test_descriptor_round_trip(descriptor):
    assert Surface.parse(descriptor).descriptor == descriptor


@pytest.mark.parametrize(
    "descriptor", ["blp2:k=9", "blp2", "p2", "blp2:k=-1", "", "blp2:k=2\n"]
)
def test_bad_descriptors(descriptor):
    with pytest.raises(InvalidClass):
        Surface.parse(descriptor)


def test_blowup_count_bounds():
    with pytest.raises(RankOverflow):
        Surface.blowup(9)
    with pytest.raises(RankOverflow):
        Surface.blowup(-1)


@pytest.mark.parametrize("k", [2.0, "2", Fraction(2), None],
                         ids=["integral-float", "string", "fraction", "none"])
def test_blowup_counts_that_are_not_integers_are_rejected(k):
    # A float would give the descriptor blp2:k=2.0, which a cache file
    # written with it could not be read back under.
    with pytest.raises(InvalidClass, match="blow-up count must be an integer"):
        Surface.blowup(k)


def test_blowup_count_normalises_to_an_int():
    surface = Surface.blowup(True)
    assert type(surface.k) is int
    assert surface == ONE and hash(surface) == hash(ONE)
    assert surface.descriptor == "blp2:k=1"


@pytest.mark.parametrize("k", range(9))
def test_blowup_numerology(k):
    surface = Surface.blowup(k)
    assert surface.rank == k + 1
    assert surface.euler_number == 3 + k
    assert surface.k_squared == 9 - k
    # Noether: chi_top + K^2 = 12 on every rational surface here.
    assert surface.euler_number + surface.k_squared == 12
    assert surface.anticanonical.coeffs == (3,) + (1,) * k


def test_quadric_numerology():
    assert QUADRIC.rank == 2
    assert QUADRIC.euler_number == 4
    assert QUADRIC.k_squared == 8
    assert QUADRIC.euler_number + QUADRIC.k_squared == 12
    assert QUADRIC.anticanonical.coeffs == (2, 2)


# -- Pairing, degree, delta, genus -------------------------------------------


def test_intersection_examples():
    line = CurveClass((1, 0, 0))
    e1 = CurveClass((0, -1, 0))
    e2 = CurveClass((0, 0, -1))
    assert TWO.intersect(line, line) == 1
    assert TWO.intersect(e1, e1) == -1
    assert TWO.intersect(e1, e2) == 0
    assert TWO.intersect(line, e1) == 0
    conic = CurveClass((2, 1, 1))
    assert TWO.intersect(conic, e1) == 1  # beta . E_i = m_i
    assert TWO.self_intersection(conic) == 2
    assert QUADRIC.intersect(CurveClass((1, 0)), CurveClass((0, 1))) == 1
    assert QUADRIC.self_intersection(CurveClass((1, 0))) == 0
    assert QUADRIC.self_intersection(CurveClass((2, 3))) == 12


def test_degree_delta_genus_examples():
    for d in range(1, 6):
        beta = CurveClass((d,))
        assert PLANE.anticanonical_degree(beta) == 3 * d
        assert PLANE.delta(beta) == 3 * d - 1
        assert PLANE.genus(beta) == (d - 1) * (d - 2) // 2
    cubic = CurveClass((3, 1, 1))
    assert TWO.anticanonical_degree(cubic) == 7
    assert TWO.delta(cubic) == 6
    assert TWO.genus(cubic) == 1
    quartic = CurveClass((4, 2, 2))
    assert TWO.self_intersection(quartic) == 8
    assert TWO.delta(quartic) == 7
    assert TWO.genus(quartic) == 1
    assert QUADRIC.genus(CurveClass((3, 4))) == 6  # (a-1)(b-1)
    assert QUADRIC.delta(CurveClass((2, 2))) == 7


def test_zero_class_rejected():
    with pytest.raises(InvalidClass):
        TWO.anticanonical_degree(CurveClass((0, 0, 0)))
    TWO.check_class(CurveClass((0, 0, 0)), allow_zero=True)
    with pytest.raises(RankMismatch):
        TWO.check_class(CurveClass((1, 1)))


@st.composite
def _blowup_class(draw, k=2, nonzero=True):
    coeffs = tuple(
        draw(st.integers(min_value=-3, max_value=4)) for _ in range(k + 1)
    )
    if nonzero:
        assume(any(coeffs))
    return CurveClass(coeffs)


@given(_blowup_class(), _blowup_class())
def test_pairing_symmetric_and_additive(b1, b2):
    assert TWO.intersect(b1, b2) == TWO.intersect(b2, b1)
    total = b1 + b2
    assume(not total.is_zero)
    probe = CurveClass((1, 1, 0))
    assert TWO.intersect(total, probe) == TWO.intersect(b1, probe) + TWO.intersect(
        b2, probe
    )


@given(st.data())
def test_pairing_matches_the_intersection_form(data):
    k = data.draw(st.integers(min_value=0, max_value=8))
    vector = st.tuples(*[st.integers(min_value=-5, max_value=9)] * (k + 1))
    u, v = data.draw(vector), data.draw(vector)
    expected = u[0] * v[0] - sum(m1 * m2 for m1, m2 in zip(u[1:], v[1:]))
    assert Surface.blowup(k).intersect(CurveClass(u), CurveClass(v)) == expected


@given(_blowup_class(), _blowup_class())
def test_adjunction_is_additive(b1, b2):
    # genus(b1 + b2) = genus(b1) + genus(b2) + b1.b2 - 1 follows from the
    # quadratic form; it is what makes the splitting sums closed.
    total = b1 + b2
    assume(not total.is_zero)
    assert TWO.genus(total) == TWO.genus(b1) + TWO.genus(b2) + TWO.intersect(b1, b2) - 1


@given(_blowup_class(k=3))
def test_genus_is_always_an_integer(beta):
    assert isinstance(TWO.blowup(3).genus(beta), int)


# -- append_coefficient (blowup_point.py) ------------------------------------


def test_append_coefficient():
    bigger, extended = append_coefficient(PLANE, CurveClass((4,)), sigma=-1)
    assert bigger == ONE
    assert extended.coeffs == (4, 1)
    bigger, extended = append_coefficient(PLANE, CurveClass((4,)), sigma=0)
    assert extended.coeffs == (4, 0)


def test_append_coefficient_guards():
    with pytest.raises(InvalidClass):
        append_coefficient(PLANE, CurveClass((4,)), sigma=1)
    with pytest.raises(InvalidClass):
        append_coefficient(QUADRIC, CurveClass((1, 1)), sigma=0)
    full = Surface.blowup(8)
    with pytest.raises(RankOverflow):
        append_coefficient(full, CurveClass((3,) + (1,) * 8), sigma=0)


# -- the brute-force splitting oracle (splitting_box.py) ---------------------


def test_plane_splittings():
    assert list(splittings(PLANE, CurveClass((2,)))) == [
        (CurveClass((1,)), CurveClass((1,)))
    ]
    cubic_pairs = set(splittings(PLANE, CurveClass((3,))))
    assert cubic_pairs == {
        (CurveClass((1,)), CurveClass((2,))),
        (CurveClass((2,)), CurveClass((1,))),
    }


def test_blowup_splittings_include_exceptional_parts():
    pairs = set(splittings(ONE, CurveClass((2, 1))))
    assert (CurveClass((0, -1)), CurveClass((2, 2))) in pairs
    assert (CurveClass((1, 1)), CurveClass((1, 0))) in pairs
    for b1, b2 in pairs:
        assert b1 + b2 == CurveClass((2, 1))
        assert not b1.is_zero and not b2.is_zero


def test_quadric_splittings():
    pairs = set(splittings(QUADRIC, CurveClass((1, 1))))
    assert pairs == {
        (CurveClass((1, 0)), CurveClass((0, 1))),
        (CurveClass((0, 1)), CurveClass((1, 0))),
    }


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_splitting_delta_additivity(d, m1, m2):
    beta = CurveClass((d, m1, m2))
    assume(TWO.delta(beta) >= 1)
    for b1, b2 in splittings(TWO, beta):
        assert TWO.delta(b1) + TWO.delta(b2) == TWO.delta(beta) - 1


# -- the quadric / two-point-blow-up dictionary -------------------------------


def test_quadric_dictionary_preserves_structure():
    for a in range(-2, 7):
        for b in range(-2, 7):
            for a2 in range(0, 4):
                for b2 in range(0, 4):
                    if (a, b) == (0, 0) or (a2, b2) == (0, 0):
                        continue
                    q1, q2 = CurveClass((a, b)), CurveClass((a2, b2))
                    t1, t2 = quadric_to_blowup_class(q1), quadric_to_blowup_class(q2)
                    assert QUADRIC.intersect(q1, q2) == TWO.intersect(t1, t2)
    assert quadric_to_blowup_class(CurveClass((2, 2))) == CurveClass((4, 2, 2))
    beta = CurveClass((1, 2))
    assert QUADRIC.anticanonical_degree(beta) == TWO.anticanonical_degree(
        quadric_to_blowup_class(beta)
    )


def test_quadric_dictionary_rank_guard():
    with pytest.raises(RankMismatch):
        quadric_to_blowup_class(CurveClass((1, 2, 3)))
