"""Executable consistency checks.

Each check either asserts a value the theory pins down (status ``pass`` /
``fail``) or reports a diagnostic the artifact deliberately refuses to
assert (status ``report-only``).  The suite builds its own tables and never
reads cache files, so a damaged cache can never change its verdict.

Check groups:

* ``genus0-classical-plane`` — the engine against the frozen classical
  plane table 1, 1, 12, 620, 87304.
* ``genus0-cross-model`` — quadric counts against the two-point blow-up
  through the shared-lattice embedding, computed by independent recursions.
* ``genus2-blow-down-4L`` — the quartic count is unchanged when a point is
  blown up off the curve or on it with multiplicity one.
* ``sweep-*`` — integrality of every genus-two quantity and termwise swap
  symmetry of every splitting sum over a lattice sweep, from one walk of
  the splittings per orbit key (the multiplicities sorted; a quadric
  bidegree is its own key): each stabiliser orbit of splittings and its
  swapped orbit carry the same weight and summand.  Every quantity is the
  same on the members of an orbit, so a key's walk stands for all of them:
  they all count as examined, and a violation names the key once.
* ``vanish-*`` — the fixed-complex-structure count vanishes on classes
  whose members have genus at most one.
* ``zinger-plane`` — the lattice formula, its plane specialization, and
  the closed form agree for all degrees up to 12.
* ``reconcile-identity-*`` — the residual identity
  ``rt2 = cr_proof + 2 n2j - 4 taut`` on every class of the same sweep,
  read from the moments of the same walk, one walk per orbit key.
* ``reconcile-plane-conic`` — report-only: the bookkeeping residuals on
  the plane conic class, pinned but never asserted to vanish.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import DelPezzoError
from .genus0 import GwTable, moment_sums, n0, support_enumerate
from .genus2 import (
    _Moments,
    _pair_terms,
    n2j_main,
    plane_genus2_intermediate,
    plane_genus2_zinger,
    reconcile,
)
from .numerics import to_decimal_string
from .orbits import orbit_key
from .surface import CurveClass, Surface, quadric_to_blowup_class

__all__ = ["CheckResult", "run_suite", "render_text", "SCOPES"]

SCOPES = ("all", "plane", "blowups", "quadric")

PLANE_TABLE = (1, 1, 12, 620, 87304)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "report-only"
    expected: str
    actual: str
    justification: str

    def to_json_dict(self) -> dict[str, str]:
        return {
            "checkId": self.check_id,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "justification": self.justification,
        }


def _verdict(check_id, expected, actual, justification) -> CheckResult:
    status = "pass" if expected == actual else "fail"
    return CheckResult(check_id, status, str(expected), str(actual), justification)


# ---------------------------------------------------------------------------
# Individual checks.  Every function builds its own fresh tables.


def _check_plane_classical() -> list[CheckResult]:
    plane = Surface.blowup(0)
    table = GwTable(surface=plane)
    actual = tuple(n0(plane, CurveClass((d,)), table) for d in range(1, 6))
    return [
        _verdict(
            "genus0-classical-plane",
            str(PLANE_TABLE),
            str(actual),
            "rational plane curves of degree 1..5 through 3d-1 points; the"
            " classical values are frozen from an independent evaluation of"
            " the degree recursion",
        )
    ]


def _check_zinger() -> list[CheckResult]:
    plane = Surface.blowup(0)
    table = GwTable(surface=plane)
    mismatches = []
    for d in range(2, 13):
        direct = n2j_main(plane, CurveClass((d,)), table)
        forms = (plane_genus2_intermediate(d, table), plane_genus2_zinger(d, table))
        if forms != (direct, direct):
            mismatches.append((d, direct, forms))
    return [
        _verdict(
            "zinger-plane",
            "agreement for d = 2..12",
            "agreement for d = 2..12" if not mismatches else f"mismatch at {mismatches}",
            "the lattice formula specialized to the plane and Zinger's"
            " closed form are algebraically equal once the genus-zero"
            " recursion is substituted",
        )
    ]


def _check_cross_model() -> list[CheckResult]:
    quadric = Surface.quadric()
    two_points = Surface.blowup(2)
    q_table = GwTable(surface=quadric)
    b_table = GwTable(surface=two_points)
    bad = []
    for a in range(0, 7):
        for b in range(0, 7 - a):
            if a + b == 0:
                continue
            beta = CurveClass((a, b))
            left = n0(quadric, beta, q_table)
            right = n0(two_points, quadric_to_blowup_class(beta), b_table)
            if left != right:
                bad.append(((a, b), left, right))
    return [
        _verdict(
            "genus0-cross-model",
            "agreement for a+b <= 6",
            "agreement for a+b <= 6" if not bad else f"mismatch at {bad}",
            "the bidegree lattice embeds into the two-point blow-up lattice"
            " preserving intersections and anticanonical degrees, so the two"
            " independent recursions must count the same curves",
        )
    ]


def _check_blow_down() -> list[CheckResult]:
    plane = Surface.blowup(0)
    quartic = CurveClass((4,))
    base = n2j_main(plane, quartic)
    one_point = Surface.blowup(1)
    off_curve = n2j_main(one_point, CurveClass((4, 0)))
    through_point = n2j_main(one_point, CurveClass((4, 1)))
    return [
        _verdict(
            "genus2-blow-down-4L",
            f"({base}, {base})",
            f"({off_curve}, {through_point})",
            "blowing up a point off the curve, or on it with multiplicity"
            " one, is a bijection on the counted genus-two quartics",
        )
    ]


# Classes whose members have genus at most one, per scope: (surface
# descriptor, coefficient vector, check-id prefix), and why the count of
# each must vanish.
_VANISH = {
    "blowups": (
        (
            *(("blp2:k=1", (d, m), "blowup-k1") for m in (0, 1) for d in (1, 2, 3)),
            ("blp2:k=2", (4, 2, 2), "blowup-k2"),
            ("blp2:k=3", (4, 2, 2, 2), "blowup-k3"),
        ),
        "no immersed genus-two curve exists in a class of genus at"
        " most one, so the count must vanish even where the"
        " derivation's positivity hypotheses fail",
    ),
    "quadric": (
        (
            *(("p1xp1", (a, b), "quadric") for a in range(1, 6) for b in (0, 1)),
            ("p1xp1", (2, 2), "quadric"),
        ),
        "bidegrees (a,0), (a,1) and (2,2) only contain curves of"
        " genus at most one, so the genus-two count must vanish",
    ),
}


def _check_vanish(scope: str) -> list[CheckResult]:
    cases, justification = _VANISH[scope]
    tables = {}
    results = []
    for descriptor, coeffs, prefix in cases:
        surface = Surface.parse(descriptor)
        table = tables.setdefault(descriptor, GwTable(surface=surface))
        beta = CurveClass(coeffs)
        value = n2j_main(surface, beta, table)
        results.append(
            _verdict(f"vanish-{prefix}-{beta}", "0", to_decimal_string(value), justification)
        )
    return results


# The support each sweep reads, per scope: (surface descriptor,
# anticanonical degree bound, largest coefficient or None).  Only the
# quadric needs the box, to the bidegrees a, b <= 5.
_SWEEPS = {
    "plane": (("blp2:k=0", 24, None),),
    "blowups": (("blp2:k=1", 12, None), ("blp2:k=2", 12, None), ("blp2:k=3", 12, None)),
    "quadric": (("p1xp1", 20, 5),),
}


def _sweep_classes(scope: str):
    """The orbit keys of the support members with ``delta >= 1`` within the
    scope's bounds, each once with its member count, in order of first
    member; a quadric bidegree is its own key."""
    for descriptor, bound, box in _SWEEPS[scope]:
        surface = Surface.parse(descriptor)
        table = GwTable(surface=surface)
        members = Counter(
            orbit_key(beta.coeffs)
            for beta, _ in support_enumerate(surface, bound, table)
            if surface.delta(beta) >= 1 and (box is None or max(beta.coeffs) <= box)
        )
        for key, count in members.items():
            yield surface, CurveClass(key), count, table


def _check_sweep(scope: str) -> list[CheckResult]:
    problems = []
    unbalanced = []
    examined = balanced = 0
    for surface, beta, members, table in _sweep_classes(scope):
        examined += members
        key = beta.coeffs
        try:
            walk = list(_pair_terms(surface, beta, table))
            # Every splitting summand is a fixed combination of (t0, ..., t3)
            # and each of those is a summand up to a constant, so comparing
            # them is exact.  The walk of the orbit key beta, never the moments
            # memo, yields one pair per orbit of the permutations of points
            # fixing the key, keyed here by the parts' multiplicities sorted
            # within each block of equal multiplicity of the key.  Swapping
            # the parts maps an orbit onto an orbit of the same size, so the
            # swapped orbit must have been walked too, with the same weight
            # and summand.  This runs before the record is built from the
            # walk, whose defects can also break exact divisions.
            terms = {}
            for weight, u, v, t in walk:
                orbits = tuple((p[0], *sorted(zip(key[1:], p[1:]))) for p in (u, v))
                terms[orbits] = weight, t
            if any(terms.get((b, a)) != term for (a, b), term in terms.items()):
                problems.append(f"{surface.descriptor}:{beta}: asymmetric summand")
            # Building the record makes every exact division but n2j's.
            moments = _Moments(surface, beta, n0(surface, beta, table), moment_sums(walk))
            n2j = moments.n2j(2)
        except DelPezzoError as exc:
            problems.append(f"{surface.descriptor}:{beta}: {exc}")
            continue
        balanced += members
        if moments.rt2 != moments.cr_proof + 2 * n2j - 4 * moments.taut:
            unbalanced.append(f"{surface.descriptor}:{beta}")
    return [
        _verdict(
            f"sweep-{scope}",
            "0 violations",
            "0 violations" if not problems else f"{len(problems)} violations: {problems[:3]}",
            "every genus-two quantity must come out an integer (all exact"
            " divisions clear) and every splitting summand must be invariant"
            f" under swapping the parts ({examined} classes examined)",
        ),
        _verdict(
            f"reconcile-identity-{scope}",
            "0 violations",
            "0 violations"
            if not unbalanced
            else f"{len(unbalanced)} violations: {unbalanced[:3]}",
            "rt2 = cr_proof + 2 n2j - 4 taut: in the moment basis S0 and S2"
            " cancel and the residual of the proof form is exactly the"
            " tautological term of the single-sphere component"
            f" ({balanced} classes examined)",
        ),
    ]


def _check_reconcile_pin() -> list[CheckResult]:
    plane = Surface.blowup(0)
    report = reconcile(plane, CurveClass((2,)))
    actual = (
        report.rt2,
        report.cr_lemma,
        report.cr_proof,
        report.aut_n2j,
        report.residual_lemma,
        report.residual_proof,
    )
    return [
        CheckResult(
            "reconcile-plane-conic",
            "report-only",
            "(30, 6, 18, 0, 24, 12)",
            f"({', '.join(map(to_decimal_string, actual))})",
            "the symplectic sum, the two correction-term variants, and the"
            " main count do not balance on the conic class; the residuals"
            " are reported as data, not asserted to vanish",
        )
    ]


# ---------------------------------------------------------------------------
# Suite driver.

_CHECKS_BY_SCOPE = {
    "plane": (
        _check_plane_classical,
        _check_zinger,
        lambda: _check_sweep("plane"),
        _check_reconcile_pin,
    ),
    "blowups": (
        _check_blow_down,
        lambda: _check_vanish("blowups"),
        lambda: _check_sweep("blowups"),
    ),
    "quadric": (
        _check_cross_model,
        lambda: _check_vanish("quadric"),
        lambda: _check_sweep("quadric"),
    ),
}


def run_suite(scope: str = "all") -> list[CheckResult]:
    """Run the consistency checks for the given scope, ordered by check id."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    selected = ("plane", "blowups", "quadric") if scope == "all" else (scope,)
    results: list[CheckResult] = []
    for name in selected:
        for check in _CHECKS_BY_SCOPE[name]:
            results.extend(check())
    results.sort(key=lambda result: result.check_id)
    return results


def render_text(results: list[CheckResult]) -> str:
    """Human-readable table, one line per check plus a summary line."""
    width = max(len(result.check_id) for result in results) if results else 0
    lines = [
        f"{result.status.upper():11} {result.check_id:{width}}  "
        f"expected {result.expected}  actual {result.actual}"
        for result in results
    ]
    failed = sum(1 for result in results if result.status == "fail")
    passed = sum(1 for result in results if result.status == "pass")
    noted = sum(1 for result in results if result.status == "report-only")
    lines.append(
        f"{passed} passed, {failed} failed, {noted} report-only, {len(results)} total"
    )
    return "\n".join(lines)
