"""Consistency-check suite: structure, determinism, and verdicts."""

import hashlib
from collections import Counter
from itertools import permutations

import pytest

from delpezzo import checks
from delpezzo.checks import CheckResult, _check_sweep, _sweep_classes, render_text, run_suite
from delpezzo.cli import main
from delpezzo.errors import RecursionFailure
from delpezzo.genus0 import GwTable, n0
from delpezzo.orbits import orbit_key
from delpezzo.surface import CurveClass, Surface
from engine_walks import record_walks


# sha256 of the stdout of `delpezzo check --scope all --format json`.  The
# benchmark's check-suite workload compares a digest of every check of this
# output with its reference, so any byte change here fails it as well.
CHECK_ALL_JSON_SHA256 = "9b40a0e800a2797802b6080bcd38635cef50824cb5e231aa89fa8a064ae82d54"


@pytest.fixture(scope="module")
def all_results():
    return run_suite("all")


def test_check_all_json_is_pinned(capsys):
    assert main(["check", "--scope", "all", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_JSON_SHA256


def test_suite_is_green(all_results):
    assert all(r.status in ("pass", "fail", "report-only") for r in all_results)
    failed = [r.check_id for r in all_results if r.status == "fail"]
    assert failed == []


def test_suite_sorted_and_deterministic(all_results):
    ids = [r.check_id for r in all_results]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert run_suite("all") == all_results


def test_expected_checks_present(all_results):
    ids = {r.check_id for r in all_results}
    assert "genus0-classical-plane" in ids
    assert "genus0-cross-model" in ids
    assert "genus2-blow-down-4L" in ids
    assert "zinger-plane" in ids
    assert {"sweep-plane", "sweep-blowups", "sweep-quadric"} <= ids
    assert {
        "reconcile-identity-plane",
        "reconcile-identity-blowups",
        "reconcile-identity-quadric",
    } <= ids
    assert "vanish-blowup-k2-4,2,2" in ids
    assert "vanish-quadric-2,2" in ids
    assert "reconcile-plane-conic" in ids


def test_vanishing_checks_cover_the_published_list(all_results):
    vanish = sorted(r.check_id for r in all_results if r.check_id.startswith("vanish-"))
    blowup = [c for c in vanish if c.startswith("vanish-blowup")]
    quadric = [c for c in vanish if c.startswith("vanish-quadric")]
    assert len(blowup) == 8
    assert len(quadric) == 11
    assert all(r.status == "pass" for r in all_results if r.check_id in vanish)


def test_reconcile_check_is_report_only(all_results):
    (pin,) = [r for r in all_results if r.check_id == "reconcile-plane-conic"]
    assert pin.status == "report-only"
    assert pin.actual == "(30, 6, 18, 0, 24, 12)"


def test_scope_filtering():
    plane = {r.check_id for r in run_suite("plane")}
    quadric = {r.check_id for r in run_suite("quadric")}
    blowups = {r.check_id for r in run_suite("blowups")}
    assert plane == {
        "genus0-classical-plane",
        "zinger-plane",
        "sweep-plane",
        "reconcile-identity-plane",
        "reconcile-plane-conic",
    }
    assert all(
        c.startswith(
            ("genus0-cross", "vanish-quadric", "sweep-quadric", "reconcile-identity-quadric")
        )
        for c in quadric
    )
    assert "genus2-blow-down-4L" in blowups
    assert plane | quadric | blowups == {r.check_id for r in run_suite("all")}


def test_bad_scope_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_render_text(all_results):
    text = render_text(all_results)
    lines = text.splitlines()
    assert len(lines) == len(all_results) + 1
    assert lines[-1].endswith(f"{len(all_results)} total")
    assert "0 failed" in lines[-1]
    assert any("REPORT-ONLY" in line for line in lines)


def test_json_shape(all_results):
    payload = all_results[0].to_json_dict()
    assert set(payload) == {"checkId", "status", "expected", "actual", "justification"}
    assert all(isinstance(v, str) for v in payload.values())


def test_failure_renders_as_fail():
    result = CheckResult("demo", "fail", "0", "1", "demo")
    assert "FAIL" in render_text([result])


def test_sweep_walks_the_splittings_once_per_class(monkeypatch):
    # The swap test and the genus-two moments read one walk of each orbit
    # key, and never the moments memo, so each of the 100 keys is walked
    # once, and its members are counted as examined.  The recorder wraps
    # the engine's walk under `_pair_terms`.
    recorded = record_walks(monkeypatch)
    result, identity = _check_sweep("blowups")
    walks = Counter(recorded)
    assert result.status == identity.status == "pass"
    assert "247 classes examined" in result.justification
    assert "247 classes examined" in identity.justification
    assert len(walks) == 100
    assert all(c == orbit_key(c) for c in walks)
    assert sum(walks.values()) == 100


def test_sweep_lists_the_classes_of_its_scope():
    def listed(scope):
        return [(s.descriptor, c.coeffs, members) for s, c, members, _ in _sweep_classes(scope)]

    assert listed("plane") == [("blp2:k=0", (d,), 1) for d in range(1, 9)]
    # The quadric: every bidegree a, b <= 5 with n0 != 0 and delta >= 1,
    # each its own key, read off a table of its own.
    quadric = Surface.quadric()
    table = GwTable(surface=quadric)
    boxed = [CurveClass((a, b)) for a in range(6) for b in range(6) if a + b]
    swept = [c for c in boxed if n0(quadric, c, table) and quadric.delta(c) >= 1]
    assert len(swept) == 27
    assert listed("quadric") == [("p1xp1", c.coeffs, 1) for c in swept]
    # The blow-ups: the 100 orbit keys of blp2:k=1..3 up to degree 12, each
    # with as many members as its multiplicities have distinct orders.
    blowups = listed("blowups")
    assert len(blowups) == len({(s, c) for s, c, _ in blowups}) == 100
    assert [s for s, _, _ in blowups] == sorted(s for s, _, _ in blowups)
    assert all(c == orbit_key(c) for _, c, _ in blowups)
    assert all(members == len(set(permutations(c[1:]))) for _, c, members in blowups)
    assert sum(members for _, _, members in blowups) == 247


def test_a_failed_walk_of_an_orbit_key_is_one_violation(monkeypatch):
    # The key (2; 1, 0, 0) of blp2:k=3 has three members; the sweep walks
    # the key once, so a failure in that walk is one violation naming the
    # key, and its three members are not counted as balanced.
    real = checks._pair_terms

    def failing(surface, beta, table):
        if (surface.k, beta.coeffs) == (3, (2, 1, 0, 0)):
            raise RecursionFailure("walk failed")
        return real(surface, beta, table)

    monkeypatch.setattr(checks, "_pair_terms", failing)
    result, identity = _check_sweep("blowups")
    assert result.status == "fail"
    assert result.actual == "1 violations: ['blp2:k=3:2,1,0,0: walk failed']"
    assert "247 classes examined" in result.justification
    assert identity.status == "pass"
    assert "244 classes examined" in identity.justification


def test_quadric_sweep_walks_each_bidegree_itself(monkeypatch):
    # The moments memo is keyed by the sorted bidegree; the sweep walks
    # (a, b) and (b, a) each, once, and the engine walks the class it is
    # handed.
    recorded = record_walks(monkeypatch)
    result, identity = _check_sweep("quadric")
    walks = Counter(recorded)
    assert result.status == identity.status == "pass"
    assert "27 classes examined" in result.justification
    assert len(walks) == sum(walks.values()) == 27
    assert all((b, a) in walks for a, b in walks)


def test_sweep_reports_a_failed_walk(monkeypatch, capsys):
    # A computation error in the walk is a failed check with exit 3, not an
    # error escaping the suite.
    real = checks._pair_terms

    def failing(surface, beta, table):
        if beta == CurveClass((4,)):
            raise RecursionFailure("walk failed at 4")
        return real(surface, beta, table)

    monkeypatch.setattr(checks, "_pair_terms", failing)
    result, identity = _check_sweep("plane")
    assert result.status == "fail"
    assert result.actual == "1 violations: ['blp2:k=0:4: walk failed at 4']"
    assert identity.status == "pass"
    assert main(["check", "--scope", "plane"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_sweep_fails_on_a_missing_swap_partner(monkeypatch, capsys):
    # A walk that yields (a, b) without (b, a) is the defect the swap test
    # exists to catch: it must be reported, not raised.
    real = checks._pair_terms

    def drop_one(surface, beta, table):
        terms = real(surface, beta, table)
        for weight, b1, b2, t in terms:
            if b1 != b2:
                break  # the first pair with distinct parts goes missing
            yield weight, b1, b2, t
        yield from terms

    monkeypatch.setattr(checks, "_pair_terms", drop_one)
    result, identity = _check_sweep("plane")
    assert result.status == "fail"
    assert "asymmetric summand" in result.actual
    assert identity.status == "pass"
    assert main(["check", "--scope", "plane"]) == 3
    assert "FAIL" in capsys.readouterr().out


def _drop_a_cross_orbit_pair(terms):
    # The first pair whose parts differ in line degree, so its partner lies
    # in another orbit, goes missing.
    for weight, u, v, t in terms:
        if u[0] != v[0]:
            break
        yield weight, u, v, t
    yield from terms


def _double_an_orbit_weight(terms):
    # The first orbit of more than one pair is counted twice.
    for weight, u, v, t in terms:
        if weight > 1:
            yield 2 * weight, u, v, t
            break
        yield weight, u, v, t
    yield from terms


@pytest.mark.parametrize("defect", [_drop_a_cross_orbit_pair, _double_an_orbit_weight])
def test_sweep_fails_on_a_blowup_swap_defect(monkeypatch, defect):
    # On blow-ups the walk yields one pair per stabiliser orbit with the
    # orbit size as weight, so the swap test must compare orbits and their
    # weights, not only the ordered pairs they stand for.
    real = checks._pair_terms
    monkeypatch.setattr(
        checks, "_pair_terms", lambda surface, beta, table: defect(real(surface, beta, table))
    )
    result, identity = _check_sweep("blowups")
    assert result.status == "fail"
    assert "asymmetric summand" in result.actual
    assert identity.status == "pass"
