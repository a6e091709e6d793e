"""Genus-two invariants with fixed complex structure.

Everything here is assembled from genus-zero counts.  Fix a surface with
anticanonical class ``x1``, Euler number ``x2`` and second Betti number
``b2``; write ``deg = beta . x1``, ``delta = deg - 1``, and for an ordered
splitting ``beta = beta1 + beta2`` into classes with nonzero genus-zero
counts write ``n_i = n0(beta_i)``, ``deg_i = beta_i . x1`` and
``w = C(delta - 1, delta(beta1))`` for the point-distribution weight.

Every quantity below is linear in ``n0 = n0(beta)`` and three splitting
moments, summed over those ordered pairs:

    S0 = sum w n1 n2 (b1.b2)
    S1 = sum w n1 n2 (b1.b2) deg1 deg2
    S2 = sum w n1 n2 (b1.b2) b1^2 b2^2

Each summand is invariant under swapping the two parts, because
C(delta-1, delta(beta1)) = C(delta-1, delta(beta2)), and under the
permutations of blown-up points, because counts, pairings and degrees
are.  So the moments are read from one half walk of the orbit key of
``beta`` (``genus0._Engine.pairs`` with ``half``): one pair per orbit of
unordered splittings under its stabiliser, its summand weighted by the
orbit size, doubled off the middle bucket, where the pair also stands
for its mirror, which the walk skips.  The consistency suite's sweep reads the
full ordered walk of the same summands instead.  ``n0`` and the moments are
invariant under W(E_k) on blow-ups and under swapping the rulings on the
quadric, so a table computes them once per standard form, the key its
genus-zero counts are stored at too: the class ``orbits.standard_form``
reaches, or the sorted bidegree ``(a, b)`` with ``a >= b``.  In this basis:

    rt2       = (4 + 2 b2) beta^2 n0 + S2
    taut      = (x1^2/deg) n0 - S1/(2 deg)
    cusp      = (x2 - x1^2/deg) n0 + S1/(2 deg) - S0
    two_comp  = S0/2
    n11       = 2 taut                                 (lemma form)
              = 2 taut + (2 x1^2 - 2 x2) n0            (proof form)
    cr        = n11 + 22 cusp + 4 two_comp

The central quantity is the count ``n2j`` of genus-two curves with a fixed
generic complex structure on the domain, through ``delta - 1`` generic
points:

    n2j = (2 / aut) [ ((2 + b2) beta^2 - 10 x2 - x1^2 + 12 x1^2/deg) n0
                      - 6 S1/deg + S2/2 + 10 S0 ]

with ``aut`` the order of the automorphism group of the domain curve (2
for generic genus-two curves, which are hyperelliptic).  The other
quantities are the intermediate ones of the same computation: the
degree-two symplectic sum ``rt2``, the count of rational curves with a
cusp, the count of two-component rational configurations weighted by their
intersection points, the tautological intersection number on the universal
curve over the space of rational curves, and the correction components
(one per boundary stratum type) that tie them together.

Cleared of denominators, ``cusp``, ``two_comp`` and ``n2j`` are each one
integer division (``numerics.exact_quotient``), and a call evaluates each
quantity once: ``genus2_report``, ``reconcile`` and ``cr_components`` read
every correction term from ``_Moments.corrections``, and the
moments validate the class once, by ``Surface.anticanonical_degree``,
before reading ``beta^2`` off its coefficients.  The error naming the
class and the rational is built only when a division leaves a remainder.

``reconcile`` reports ``residual = rt2 - cr - aut n2j`` without asserting
that it vanishes.  In the moment basis ``S0`` and ``S2`` cancel, which
leaves ``residual_proof = -4 taut`` and ``residual_lemma = -4 taut +
(2 x1^2 - 2 x2) n0`` for every class; on the plane conic the residuals are
``(24, 12)``, pinned as a regression value.  The consistency suite
asserts the proof-form identity ``rt2 = cr_proof + 2 n2j - 4 taut`` on
every class of its sweep (``reconcile-identity-*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import index
from typing import Iterator

from .errors import InvalidClass, NegativeCount
from .genus0 import GwTable, _engine, n0
from .numerics import exact_quotient, to_decimal_string
from .orbits import Coeffs, orbit_key
from .surface import CurveClass, Surface

__all__ = [
    "rt2",
    "taut_intersection",
    "cusp_count",
    "two_component_count",
    "CrComponents",
    "cr_components",
    "cr_total",
    "n2j_main",
    "plane_genus2_intermediate",
    "plane_genus2_zinger",
    "applicability_warnings",
    "Genus2Report",
    "genus2_report",
    "ReconcileReport",
    "reconcile",
    "encode_exact",
]


def _pair_terms(
    surface: Surface, beta: CurveClass, table: GwTable | None, half: bool = False
) -> Iterator[tuple[int, Coeffs, Coeffs, tuple[int, int, int]]]:
    """The summands of ``S0, S1, S2``, one per orbit of ordered splittings
    of the orbit key of ``beta`` under its stabiliser:
    ``(weight, u, v, (t0, t0 deg1 deg2, t0 b1^2 b2^2))`` with ``u``, ``v``
    the coefficient tuples of one member ``(beta1, beta2)``, ``weight`` the
    orbit size and ``t0 = w n1 n2 (b1.b2)``.  Each summand is the same on
    every member of its orbit, so ``S_i`` is the weighted sum.  With
    ``half`` the walk yields each unordered splitting once
    (``genus0._Engine.pairs``): the summands are swap-invariant, so a pair
    whose mirror is not walked carries twice its orbit size as weight.

    ``beta`` is validated once per call.  The parts come from the genus-zero
    engine, which only builds classes of the surface's rank, so each pair's
    ``b1.b2``, ``b1^2`` and ``b2^2`` are read off the coefficient tuples with
    the unchecked pairing ``Surface._dot``.  The rest follows from
    additivity of the degree: ``deg2 = deg - deg1`` and
    ``w = C(delta - 1, delta(beta1)) = C(deg - 2, deg1 - 1)``, which
    ``math.comb`` gives inside the triangle, since both parts have
    ``deg1, deg2 >= 1``.
    """
    deg = surface.anticanonical_degree(beta)
    dot = surface._dot
    walk = _engine(surface, table).pairs(orbit_key(beta.coeffs), 0, half)
    for weight, deg1, u, count1, v, count2 in walk:
        t0 = comb(deg - 2, deg1 - 1) * count1 * count2 * dot(u, v)
        yield weight, u, v, (t0, t0 * deg1 * (deg - deg1), t0 * dot(u, u) * dot(v, v))


@dataclass(frozen=True)
class _Moments:
    """``n0`` and the moments ``S0, S1, S2`` of one class, with the invariants
    the formulas of the module docstring read; one member per quantity,
    each evaluated anew on every access, so a caller reads each one once,
    and :meth:`corrections`, the one place each correction term is written.
    Cleared of denominators, each quantity is one integer numerator over
    one denominator, so an integral one is a single
    ``numerics.exact_quotient``, which formats the error naming ``beta``
    only when the division leaves a remainder:

        taut      = (2 x1^2 n0 - S1) / (2 deg)
        cusp      = (2 (x2 deg - x1^2) n0 + S1 - 2 deg S0) / (2 deg)
        two_comp  = S0 / 2
        n2j       = (2 deg ((2 + b2) beta^2 - 10 x2 - x1^2) n0 + 24 x1^2 n0
                     - 12 S1 + deg S2 + 20 deg S0) / (aut deg)
    """

    beta: CurveClass
    deg: int  # beta . x1
    sq: int  # beta^2
    x1sq: int  # x1^2
    x2: int
    b2: int
    n0: int
    s0: int
    s1: int
    s2: int

    def rt2(self) -> int:
        return (4 + 2 * self.b2) * self.n0 * self.sq + self.s2

    @property
    def taut(self) -> Fraction:
        return Fraction(2 * self.x1sq * self.n0 - self.s1, 2 * self.deg)

    @property
    def cusp(self) -> int:
        deg = self.deg
        numerator = 2 * (self.x2 * deg - self.x1sq) * self.n0 + self.s1 - 2 * deg * self.s0
        value = exact_quotient(numerator, 2 * deg, "cusp count", self.beta)
        if value < 0:
            raise NegativeCount(f"cusp count of {self.beta} came out {value}")
        return value

    @property
    def two_comp(self) -> int:
        return exact_quotient(self.s0, 2, "two-component count", self.beta)

    def cr(self, variant: str) -> CrComponents:
        """The correction components of one form, read off :meth:`corrections`."""
        if variant not in ("lemma", "proof"):
            raise InvalidClass(f"unknown correction variant {variant!r}")
        _, _, _, n11, rest, extra, _, _ = self.corrections()
        return CrComponents(n11 + extra if variant == "proof" else n11, *rest)

    def corrections(
        self,
    ) -> tuple[Fraction, int, int, Fraction, tuple[int, int, int], int, Fraction, Fraction]:
        """``taut``, ``cusp``, ``two_comp``, the lemma form's ``n11``, the
        other three correction components, what the proof form adds to
        ``n11``, and the totals ``cr_lemma`` and ``cr_proof``, each quantity
        evaluated once."""
        taut, cusp, two_comp = self.taut, self.cusp, self.two_comp
        # taut * 2, not 2 * taut: Fraction's own multiply, not the reflected one.
        n11, rest = taut * 2, (4 * cusp, 18 * cusp, 4 * two_comp)
        # The proof of the same statement carries an extra (2 x1^2 - 2 x2) n0;
        # the evaluation term against the diagonal cycle vanishes identically.
        extra = (2 * self.x1sq - 2 * self.x2) * self.n0
        lemma = n11 + sum(rest)
        return taut, cusp, two_comp, n11, rest, extra, lemma, lemma + extra

    def n2j(self, aut_order: int) -> int:
        deg, x1sq = self.deg, self.x1sq
        numerator = (
            2 * deg * ((2 + self.b2) * self.sq - 10 * self.x2 - x1sq) * self.n0
            + 24 * x1sq * self.n0 - 12 * self.s1 + deg * self.s2 + 20 * deg * self.s0
        )
        return exact_quotient(numerator, aut_order * deg, "genus-two count", self.beta)


def _sums(terms) -> tuple[int, int, int]:
    """``S0, S1, S2`` of a walk's summands (see :func:`_pair_terms`)."""
    s0 = s1 = s2 = 0
    for weight, _, _, (t0, t1, t2) in terms:
        s0 += weight * t0
        s1 += weight * t1
        s2 += weight * t2
    return s0, s1, s2


def _record(
    surface: Surface, beta: CurveClass, deg: int, count: int, s0: int, s1: int, s2: int
) -> _Moments:
    """The :class:`_Moments` of ``beta``, of anticanonical degree ``deg``:
    the caller has validated ``beta`` (``Surface.anticanonical_degree``),
    so ``beta^2`` is the unchecked pairing."""
    c = beta.coeffs
    return _Moments(
        beta, deg, surface._dot(c, c), surface.k_squared, surface.euler_number,
        surface.rank, count, s0, s1, s2,
    )


def _moments(surface: Surface, beta: CurveClass, table: GwTable | None) -> _Moments:
    """One ``n0`` call and one splitting pass: everything the genus-two
    quantities of ``beta`` need.  ``n0`` and the moments are invariant
    under the lattice's symmetries, so the table's engine keeps them per
    standard form (``_Lattice.key``, the genus-zero memo's key), the class
    it walks; the record is built around the caller's ``beta``, so its
    errors name that class."""
    if table is None:
        table = GwTable(surface)
    deg = surface.anticanonical_degree(beta)
    delta = deg - 1
    if delta < 1:
        raise InvalidClass(
            f"class {beta} has delta = {delta}; need at least one point constraint"
        )
    engine = _engine(surface, table)
    key = engine.lattice.key(beta.coeffs)
    moments = engine.moments
    stored = moments.get(key)
    if stored is None:
        walked = CurveClass(key)
        count = n0(surface, walked, table)
        # The half walk: the summands are swap-invariant.
        stored = moments[key] = (count, *_sums(_pair_terms(surface, walked, table, True)))
    return _record(surface, beta, deg, *stored)


def rt2(surface: Surface, beta: CurveClass, table: GwTable | None = None) -> int:
    """Degree-two symplectic invariant of the class: ``(4 + 2 b2) n0 beta^2 + S2``."""
    return _moments(surface, beta, table).rt2()


def taut_intersection(
    surface: Surface, beta: CurveClass, table: GwTable | None = None
) -> Fraction:
    """Intersection of the first Chern class of the relative cotangent line
    with the anticanonical evaluation cycle, as an exact rational:
    ``x1^2/deg n0 - S1/(2 deg)``.
    """
    return _moments(surface, beta, table).taut


def cusp_count(surface: Surface, beta: CurveClass, table: GwTable | None = None) -> int:
    """Number of rational curves in the class, through ``delta`` generic
    points, that carry a cusp: ``(x2 - x1^2/deg) n0 + S1/(2 deg) - S0``.
    """
    return _moments(surface, beta, table).cusp


def two_component_count(
    surface: Surface, beta: CurveClass, table: GwTable | None = None
) -> int:
    """Number of two-component rational configurations through the points,
    weighted by the intersection points of the components: ``S0/2``
    (integral by swap symmetry).
    """
    return _moments(surface, beta, table).two_comp


@dataclass(frozen=True)
class CrComponents:
    """The four correction components, one per boundary stratum type."""

    n11: Fraction  # single sphere with one marked Weierstrass datum
    n21x2: int  # cuspidal stratum, weight 2, doubled by orientation
    n31x18: int  # cuspidal stratum through the six Weierstrass points
    n12: int  # two-sphere stratum, weight 4

    @property
    def total(self) -> Fraction:
        return self.n11 + self.n21x2 + self.n31x18 + self.n12


def cr_components(
    surface: Surface,
    beta: CurveClass,
    table: GwTable | None = None,
    variant: str = "lemma",
) -> CrComponents:
    """Correction components in either printed form.

    The two variants differ only in the single-sphere component: the stated
    form and the form its own derivation produces disagree by
    ``(2 x1^2 - 2 x2) n0``; both are exposed and neither is treated as
    canonical.
    """
    return _moments(surface, beta, table).cr(variant)


def cr_total(
    surface: Surface,
    beta: CurveClass,
    table: GwTable | None = None,
    variant: str = "lemma",
) -> Fraction:
    """Sum of the four correction components."""
    return cr_components(surface, beta, table, variant).total


def _check_aut_order(aut_order: int) -> int:
    """``aut_order`` as an int.  index() refuses floats, strings, None and
    Fractions, which would turn the counts into floats or fail inside them."""
    try:
        value = index(aut_order)
    except TypeError:
        value = 0
    if value < 2 or value % 2:
        raise InvalidClass(
            f"the automorphism order must be a positive even integer, got {aut_order!r}"
        )
    return value


def n2j_main(
    surface: Surface,
    beta: CurveClass,
    table: GwTable | None = None,
    aut_order: int = 2,
) -> int:
    """Count of genus-two curves with fixed generic complex structure in the
    class, through ``delta - 1`` generic points.  See the module docstring
    for the closed formula; the result must be integral and is asserted so.
    """
    return _moments(surface, beta, table).n2j(_check_aut_order(aut_order))


# ---------------------------------------------------------------------------
# Plane specializations: two closed forms of the same degree-d count.


def plane_genus2_intermediate(d: int, table: GwTable | None = None) -> int:
    """The main formula specialized to plane degree-d classes, kept in its
    unreduced shape: with n_e the plane genus-zero numbers,

    ``3(d^2-1) n_d + n_d (-36 + 36/d)
      + sum C(3d-2, 3d1-1) n_d1 n_d2 d1 d2 (-18 d1 d2 / d + d1^2 d2^2 / 2 + 10)``.
    """
    if d < 1:
        raise InvalidClass(f"need a positive plane degree, got {d}")
    plane = Surface.blowup(0)
    if table is None:
        table = GwTable(plane)

    def count(e: int) -> int:
        return n0(plane, CurveClass((e,)), table)

    nd = count(d)
    total = 3 * (d * d - 1) * nd + nd * (-36 + Fraction(36, d))
    for d1 in range(1, d):
        d2 = d - d1
        bracket = -Fraction(18 * d1 * d2, d) + Fraction(d1 * d1 * d2 * d2, 2) + 10
        total += comb(3 * d - 2, 3 * d1 - 1) * count(d1) * count(d2) * d1 * d2 * bracket
    return exact_quotient(total.numerator, total.denominator, "plane genus-two intermediate", d)


def plane_genus2_zinger(d: int, table: GwTable | None = None) -> int:
    """Zinger's closed form of the plane genus-two count:

    ``3(d^2-1) n_d + (1/2) sum C(3d-2, 3d1-1) d1 d2 n_d1 n_d2
      (d1^2 d2^2 + 28 - 16 (9 d1 d2 - 1)/(3d - 2))``.

    Must agree with :func:`plane_genus2_intermediate` for every ``d >= 2``.
    """
    if d < 2:
        raise InvalidClass(f"the closed form needs degree at least 2, got {d}")
    plane = Surface.blowup(0)
    if table is None:
        table = GwTable(plane)

    def count(e: int) -> int:
        return n0(plane, CurveClass((e,)), table)

    total = Fraction(3 * (d * d - 1) * count(d))
    for d1 in range(1, d):
        d2 = d - d1
        bracket = d1 * d1 * d2 * d2 + 28 - Fraction(16 * (9 * d1 * d2 - 1), 3 * d - 2)
        total += (
            Fraction(comb(3 * d - 2, 3 * d1 - 1) * d1 * d2 * count(d1) * count(d2))
            * bracket
            / 2
        )
    return exact_quotient(total.numerator, total.denominator, "plane genus-two closed form", d)


# ---------------------------------------------------------------------------
# Hypothesis predicates, reporting, reconciliation.


def applicability_warnings(
    surface: Surface, beta: CurveClass, table: GwTable | None = None
) -> list[str]:
    """Hypothesis violations of the main count's derivation.

    Warnings never block a computation: the formula is expected to hold
    beyond its proven range, and the consistency checks exercise exactly
    the flagged classes.
    """
    surface.check_class(beta)
    warnings: list[str] = []
    if surface.is_blowup:
        d = beta.coeffs[0]
        if d <= 2:
            warnings.append(f"hypothesis d > 2 fails: d = {d}")
        # beta - 3L, of the surface's rank and nonzero when d > 3.
        residual = (d - 3,) + beta.coeffs[1:]
        if d <= 3 or _engine(surface, table).value(residual) <= 0:
            warnings.append(
                "hypothesis n0(beta - 3L) > 0 fails for residual class "
                f"{CurveClass(residual)}"
            )
    else:
        a, b = beta.coeffs
        if a <= 2:
            warnings.append(f"hypothesis a > 2 fails: a = {a}")
        if b <= 2:
            warnings.append(f"hypothesis b > 2 fails: b = {b}")
    return warnings


def encode_exact(value: int | Fraction) -> str | dict[str, str]:
    """JSON encoding shared by every report: integers become decimal
    strings, rationals become {"num", "den"} pairs of decimal strings."""
    if isinstance(value, int):
        return to_decimal_string(value)
    return {
        "num": to_decimal_string(value.numerator),
        "den": to_decimal_string(value.denominator),
    }


@dataclass(frozen=True)
class Genus2Report:
    """Everything the genus-two computation produces for one class."""

    surface: Surface
    beta: CurveClass
    n0: int
    delta: int
    genus: int
    rt2: int
    taut: Fraction
    cusp: int
    two_comp: int
    cr_lemma: Fraction
    cr_proof: Fraction
    n2j: int
    aut_order: int
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface.descriptor,
            "class": list(self.beta.coeffs),
            "n0": encode_exact(self.n0),
            "delta": encode_exact(self.delta),
            "genus": encode_exact(self.genus),
            "rt2": encode_exact(self.rt2),
            "taut": encode_exact(self.taut),
            "cusp": encode_exact(self.cusp),
            "twoComponent": encode_exact(self.two_comp),
            "crLemma": encode_exact(self.cr_lemma),
            "crProof": encode_exact(self.cr_proof),
            "n2j": encode_exact(self.n2j),
            "autOrder": encode_exact(self.aut_order),
            "warnings": list(self.warnings),
        }


def genus2_report(
    surface: Surface,
    beta: CurveClass,
    table: GwTable | None = None,
    aut_order: int = 2,
) -> Genus2Report:
    """Assemble the full bundle of genus-two quantities for one class."""
    aut_order = _check_aut_order(aut_order)
    if table is None:
        table = GwTable(surface)
    moments = _moments(surface, beta, table)
    deg = moments.deg
    taut, cusp, two_comp, _, _, _, cr_lemma, cr_proof = moments.corrections()
    return Genus2Report(
        surface=surface,
        beta=beta,
        n0=moments.n0,
        delta=deg - 1,
        # beta^2 and x1.beta have the same parity (x1 is characteristic), so
        # this divides; checked, as Surface.genus checks it.
        genus=exact_quotient(moments.sq - deg + 2, 2, "genus", beta),
        rt2=moments.rt2(),
        taut=taut,
        cusp=cusp,
        two_comp=two_comp,
        cr_lemma=cr_lemma,
        cr_proof=cr_proof,
        n2j=moments.n2j(aut_order),
        aut_order=aut_order,
        warnings=tuple(applicability_warnings(surface, beta, table)),
    )


@dataclass(frozen=True)
class ReconcileReport:
    """How the symplectic invariant, the corrections, and the main count fit.

    ``residual_* = rt2 - cr_* - aut_order * n2j``.  No claim is made that
    the residuals vanish; on the plane conic class they are (24, 12), and
    that pair is pinned as a regression value documenting the mismatch.
    """

    surface: Surface
    beta: CurveClass
    aut_order: int
    rt2: int
    cr_lemma: Fraction
    cr_proof: Fraction
    aut_n2j: int
    residual_lemma: Fraction
    residual_proof: Fraction

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface.descriptor,
            "class": list(self.beta.coeffs),
            "autOrder": encode_exact(self.aut_order),
            "rt2": encode_exact(self.rt2),
            "crLemma": encode_exact(self.cr_lemma),
            "crProof": encode_exact(self.cr_proof),
            "autTimesN2j": encode_exact(self.aut_n2j),
            "residualLemma": encode_exact(self.residual_lemma),
            "residualProof": encode_exact(self.residual_proof),
        }


def reconcile(
    surface: Surface,
    beta: CurveClass,
    table: GwTable | None = None,
    aut_order: int = 2,
) -> ReconcileReport:
    aut_order = _check_aut_order(aut_order)
    moments = _moments(surface, beta, table)
    rt = moments.rt2()
    *_, lemma, proof = moments.corrections()
    scaled = aut_order * moments.n2j(aut_order)
    return ReconcileReport(
        surface=surface,
        beta=beta,
        aut_order=aut_order,
        rt2=rt,
        cr_lemma=lemma,
        cr_proof=proof,
        aut_n2j=scaled,
        residual_lemma=rt - lemma - scaled,
        residual_proof=rt - proof - scaled,
    )
