"""One cold repetition of a benchmark workload.

``run.py`` starts this script in a fresh interpreter for every repetition,
with ``DELPEZZO_CACHE_DIR`` removed from the environment and a private
scratch directory for cache files, so no memo and no cache survives from one
repetition to the next.  The script imports the program from the checkout's
``src``, runs the workload's set-up and timed phase, verifies every output
against ``reference.json`` and the independent anchors, and writes one JSON
result file::

    python3 perfbench/worker.py --workload g2-sweep --seed 1 --rep 0 --trace 0 \\
        --spawned-ns 0 --scratch DIR --out FILE

Times are reported in reference seconds (see ``HostClock``).  With
``--trace 1`` the repetition also records spans around every call the
benchmark makes into a layer (``genus0``, ``genus2``, ``cli``, ``checks``)
and derives the per-layer metrics from them.  The program itself is not
modified: where a layer is only reachable through ``cli.main``, the layer
functions that ``cli`` imported are replaced, in this process only, by
wrappers that record a span and call the original.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, SRC)

import delpezzo  # noqa: E402
from delpezzo import (  # noqa: E402
    CurveClass,
    GwTable,
    Surface,
    applicability_warnings,
    cli,
    cusp_count,
    genus2_report,
    n0,
    n2j_main,
    rt2,
    save_cache,
    support_enumerate,
    support_pairs,
    taut_intersection,
    two_component_count,
)
from delpezzo.genus2 import cr_total  # noqa: E402

WORKLOADS = ("g0-ladder", "g2-sweep", "count-warm", "check-suite")

# g0-ladder: (rung name, surface, anticanonical bound).  k=4 is dominated by
# the splitting scan, k=7 and k=8 by candidate enumeration, and p1xp1 takes
# the quadric engine, which blow-up-only changes bypass.
RUNGS = (
    ("blp2-k4", "blp2:k=4", 13),
    ("blp2-k7", "blp2:k=7", 4),
    ("blp2-k8", "blp2:k=8", 2),
    ("p1xp1", "p1xp1", 60),
)

# g2-sweep: genus2_report on every class with delta >= 1 in these supports.
SWEEP = (("blp2:k=3", 13), ("p1xp1", 24))
G2_QUANTITIES = {
    # public function -> (callable, Genus2Report field it must reproduce)
    "rt2": (rt2, "rt2"),
    "taut_intersection": (taut_intersection, "taut"),
    "cusp_count": (cusp_count, "cusp"),
    "two_component_count": (two_component_count, "two_comp"),
    "cr_total": (cr_total, "cr_lemma"),
    "n2j_main": (n2j_main, "n2j"),
    "applicability_warnings": (applicability_warnings, "warnings"),
}

# count-warm: cache files built in set-up, and the query deck.
CACHES = (("blp2:k=0", 30), ("p1xp1", 30), ("blp2:k=4", 12))
QUANTITIES = ("genus0", "genus2", "reconcile", "taut")
POOL_PER_DEGREE = 8
ROUNDS = 5  # 100 queries: ten samples beyond the 90th percentile
MID_DEGREES = (5, 6, 7, 8, 9)  # one per round
TOP_DEGREE = 10

# check-suite: the per-scope calls a traced repetition makes instead of "all".
SCOPES = ("plane", "blowups", "quadric")

# The cli names through which count and check reach the other layers.
CLI_LAYER_CALLS = (
    "load_cache",
    "save_cache",
    "n0",
    "support_enumerate",
    "n2j_main",
    "reconcile",
    "rt2",
    "cusp_count",
    "two_component_count",
    "taut_intersection",
    "applicability_warnings",
    "run_suite",
)

# Independent anchors: the classical plane numbers, the genus-two quartic
# count, and the genus-two and cuspidal counts of the (3,3) quadric class.
# A class with a zero multiplicity counts what the plane counts.
PLANE_N0 = (1, 1, 12, 620, 87304)
ANCHORS = {
    **{("blp2:k=0", "genus0", (d,)): v for d, v in enumerate(PLANE_N0, 1)},
    **{("blp2:k=4", "genus0", (d, 0, 0, 0, 0)): v for d, v in enumerate(PLANE_N0, 1)},
    ("blp2:k=0", "genus2", (4,)): 14400,
    ("p1xp1", "genus2", (3, 3)): 135360,
    ("p1xp1", "cusp", (3, 3)): 14880,
}

# Host-speed calibration: see HostClock.
CHUNK_ITERATIONS = 7500
REFERENCE_CHUNK_S = 0.002
PROBE_INTERVAL_S = 0.1


def calibration_chunk() -> float:
    """Seconds taken by a fixed pure-Python loop of tuple building and dict
    updates.  It shares no code with the program, so no change to the
    program can change it."""
    start = time.perf_counter()
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(CHUNK_ITERATIONS):
        key = (i & 1023, i % 7, i * i % 97)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


class HostClock:
    """Times operations in reference seconds.

    The host this benchmark was written on runs the same Python code up to
    1.6 times slower for stretches of a fraction of a second to minutes.  So
    while a phase is timed, an interval timer interrupts the process every
    ``PROBE_INTERVAL_S`` to time ``calibration_chunk``, a probe.  The time
    between two probes is multiplied by ``REFERENCE_CHUNK_S`` over the mean
    of their two chunk times, and the probes' own time is left out.  The
    result is the time the work would take on a host that runs the chunk in
    2 ms, whatever the host did meanwhile.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[int, int, float]] = []  # (start ns, end ns, chunk s)
        self.intervals: list[tuple[int, int, bool]] = []  # (start ns, end ns, is an operation)

    def probe(self, *_signal) -> None:
        start = time.perf_counter_ns()
        chunk = calibration_chunk()
        self.probes.append((start, time.perf_counter_ns(), chunk))

    @contextlib.contextmanager
    def sampling(self):
        """Probe before, every PROBE_INTERVAL_S during, and after the block."""
        self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def record(self, start_ns: int, operation: bool = True) -> None:
        """Close an interval of the timed phase that began at ``start_ns``."""
        self.intervals.append((start_ns, time.perf_counter_ns(), operation))

    def seconds(self, start_ns: int, end_ns: int, scaled: bool = True) -> float:
        """Reference seconds (or, unscaled, plain seconds) that the work in
        [start, end] took, the probes inside it left out."""
        probes = self.probes
        i = bisect.bisect_right(probes, (start_ns,))
        before = probes[max(i - 1, 0)][2]
        total, cursor = 0.0, start_ns
        while cursor < end_ns:
            probe_start, probe_end, after = probes[i] if i < len(probes) else (end_ns, end_ns, before)
            if probe_start > cursor:
                scale = 2 * REFERENCE_CHUNK_S / (before + after) if scaled else 1.0
                total += (min(probe_start, end_ns) - cursor) / 1e9 * scale
            cursor = max(cursor, probe_end)
            before = after
            i += 1
        return total

    def wall_s(self, scaled: bool = True) -> float:
        return sum(self.seconds(start, end, scaled) for start, end, _ in self.intervals)

    def latencies_ms(self) -> list[float]:
        return [1e3 * self.seconds(start, end) for start, end, op in self.intervals if op]


def digest(obj) -> str:
    """Short digest of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def class_key(desc: str, coeffs) -> str:
    return f"{desc}|{','.join(map(str, coeffs))}"


def rows_digest(rows) -> str:
    return digest([[list(beta.coeffs), str(value)] for beta, value in rows])


def anchor_agrees(desc: str, quantity: str, coeffs, value) -> bool:
    expected = ANCHORS.get((desc, quantity, tuple(coeffs)))
    return expected is None or expected == value


class Ledger:
    """Operations attempted and failed in one repetition."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, operation: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{operation}: {detail}" if detail else operation)


class Tracer:
    """Spans kept in memory as [id, parent id, name, tag, start ns, end ns]."""

    def __init__(self, enabled: bool, clock: HostClock) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def _record(self, name: str, tag):
        span = [len(self.spans), self._open[-1] if self._open else None, name, tag,
                time.perf_counter_ns(), None]
        self.spans.append(span)
        self._open.append(span[0])
        try:
            yield
        finally:
            span[5] = time.perf_counter_ns()
            self._open.pop()

    def span(self, name: str, tag=None):
        return self._record(name, tag) if self.enabled else contextlib.nullcontext()

    def wrap_cli_calls(self) -> None:
        """Record a span around every call ``cli`` makes into another layer."""
        for attr in CLI_LAYER_CALLS:
            original = getattr(cli, attr)
            layer = original.__module__.rsplit(".", 1)[-1]

            def wrapper(*args, _original=original, _name=f"{layer}.{attr}", **kwargs):
                with self._record(_name, None):
                    return _original(*args, **kwargs)

            setattr(cli, attr, wrapper)

    def seconds(self, name: str, tag=None, parent_tag=None) -> list[float]:
        """Durations in reference seconds of the spans with this name (and
        tag, and parent tag)."""
        out = []
        for _, parent, span_name, span_tag, start, end in self.spans:
            if span_name != name or (tag is not None and span_tag != tag):
                continue
            if parent_tag is not None and self.spans[parent][3] != parent_tag:
                continue
            out.append(self.clock.seconds(start, end))
        return out


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def check_anchors(ledger: Ledger) -> None:
    """Assert the anchors directly, on fresh tables, after the timed phase."""
    plane = Surface.blowup(0)
    table = GwTable(surface=plane)
    for d, expected in enumerate(PLANE_N0, 1):
        value = n0(plane, CurveClass((d,)), table)
        ledger.check(f"anchor n0({d}L)", value == expected, f"got {value}")
    value = n2j_main(plane, CurveClass((4,)), table)
    ledger.check("anchor n2j(4L)", value == 14400, f"got {value}")
    quadric = Surface.quadric()
    report = genus2_report(quadric, CurveClass((3, 3)), GwTable(surface=quadric))
    ledger.check("anchor p1xp1 (3,3) n2j", report.n2j == 135360, f"got {report.n2j}")
    ledger.check("anchor p1xp1 (3,3) cusp", report.cusp == 14880, f"got {report.cusp}")


# ---------------------------------------------------------------------------
# g0-ladder


def run_g0_ladder(rng, clock, tracer, ledger, reference) -> dict:
    layer = {}
    for name, desc, bound in RUNGS:
        surface = Surface.parse(desc)
        table = GwTable(surface=surface)
        with clock.sampling():
            start = time.perf_counter_ns()
            with tracer.span("genus0.support_enumerate", name):
                rows = support_enumerate(surface, bound, table)
            clock.record(start)

        # Verified between the rungs, outside the timed intervals, so that
        # no rung's rows are alive during the next one.
        expected = reference["g0-ladder"][name]
        wrong = [beta for beta, value in rows
                 if not anchor_agrees(desc, "genus0", beta.coeffs, value)]
        ledger.check(
            f"rung {name}",
            len(rows) == expected["rows"] and rows_digest(rows) == expected["digest"]
            and not wrong,
            f"{len(rows)} rows, digest {rows_digest(rows)}, anchor mismatches {wrong[:3]}",
        )
        layer[f"genus0.support_rows.{name}"] = len(rows)
        layer[f"genus0.table_entries.{name}"] = len(table.entries)
        del rows, table
    if tracer.enabled:
        for name, _, _ in RUNGS:
            layer[f"genus0.support_enumerate_s.{name}"] = sum(
                tracer.seconds("genus0.support_enumerate", name))
    return {"layer": layer}


# ---------------------------------------------------------------------------
# g2-sweep


def run_g2_sweep(rng, clock, tracer, ledger, reference) -> dict:
    reports, tables = [], []
    with clock.sampling():
        for desc, bound in SWEEP:
            surface = Surface.parse(desc)
            table = GwTable(surface=surface)
            start = time.perf_counter_ns()
            with tracer.span("genus0.support_enumerate", "g2"):
                rows = support_enumerate(surface, bound, table)
            clock.record(start, operation=False)
            classes = [beta for beta, _ in rows if surface.delta(beta) >= 1]
            rng.shuffle(classes)
            for beta in classes:
                start = time.perf_counter_ns()
                with tracer.span("genus2.genus2_report"):
                    report = genus2_report(surface, beta, table)
                clock.record(start)
                reports.append((desc, report))
            tables.append((surface, table, classes))

    layer = {"genus2.classes": len(reports)}
    expected_reports = reference["g2-sweep"]["reports"]
    for desc, report in reports:
        coeffs = report.beta.coeffs
        found = digest(report.to_json_dict())
        ledger.check(
            f"report {class_key(desc, coeffs)}",
            found == expected_reports.get(class_key(desc, coeffs))
            and anchor_agrees(desc, "genus0", coeffs, report.n0)
            and anchor_agrees(desc, "genus2", coeffs, report.n2j)
            and anchor_agrees(desc, "cusp", coeffs, report.cusp),
            f"digest {found}",
        )
    ledger.check("g2-sweep class count", len(reports) == len(expected_reports),
                 f"{len(reports)} reports, expected {len(expected_reports)}")
    if tracer.enabled:
        layer["genus0.support_enumerate_s.g2"] = sum(
            tracer.seconds("genus0.support_enumerate", "g2"))
        layer["genus2.genus2_report_s"] = sum(tracer.seconds("genus2.genus2_report"))
        layer.update(_g2_quantities_one_by_one(clock, tracer, ledger, tables, reports, reference))
    return {"layer": layer}


def _g2_quantities_one_by_one(clock, tracer, ledger, tables, reports, reference) -> dict:
    """Call each public genus-two quantity on its own for every swept class,
    after the timed phase, and walk ``support_pairs`` once per class."""
    by_key = {class_key(desc, r.beta.coeffs): r for desc, r in reports}
    pairs = 0
    with clock.sampling():
        for surface, table, classes in tables:
            for beta in classes:
                key = class_key(surface.descriptor, beta.coeffs)
                for name, (function, field) in G2_QUANTITIES.items():
                    with tracer.span(f"genus2.{name}"):
                        value = function(surface, beta, table)
                    if name == "applicability_warnings":
                        value = tuple(value)
                    ledger.check(f"{name} {key}", value == getattr(by_key[key], field),
                                 f"{value!r} differs from the report's {field}")
                with tracer.span("genus0.support_pairs"):
                    pairs += sum(1 for _ in support_pairs(surface, beta, table))
    expected = reference["g2-sweep"]["support_pairs_yielded"]
    ledger.check("support_pairs_yielded", pairs == expected, f"{pairs} != {expected}")
    layer = {f"genus2.{name}_s": sum(tracer.seconds(f"genus2.{name}")) for name in G2_QUANTITIES}
    layer["genus0.support_pairs_yielded"] = pairs
    return layer


# ---------------------------------------------------------------------------
# count-warm


def build_caches(scratch: str) -> dict:
    """Write the three cache files; return per-surface (path, degree -> class pool)."""
    caches = {}
    for desc, bound in CACHES:
        surface = Surface.parse(desc)
        table = GwTable(surface=surface)
        rows = support_enumerate(surface, bound, table)
        path = os.path.join(scratch, desc.replace(":", "-").replace("=", "") + ".json")
        save_cache(table, path)
        caches[desc] = (path, query_pool(surface, rows))
    return caches


def query_pool(surface: Surface, rows) -> dict[int, list[tuple[int, ...]]]:
    """Up to POOL_PER_DEGREE classes per anticanonical degree >= 2, evenly
    spaced through the sorted support, so every drawn class is in the cache."""
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for beta, _ in rows:
        degree = surface.anticanonical_degree(beta)
        if degree >= 2:
            by_degree.setdefault(degree, []).append(beta.coeffs)
    pools = {}
    for degree, classes in by_degree.items():
        size = min(POOL_PER_DEGREE, len(classes))
        pools[degree] = [classes[i * len(classes) // size] for i in range(size)]
    return pools


def round_slots(round_index: int) -> list[tuple[str, str, int | None]]:
    """One round of 20 queries as (surface, quantity, degree or None for any).

    The composition is fixed and the seed only picks classes within a
    degree, so neither the total work nor the percentiles depend on it.
    Sorted by latency, five rounds give 30 genus-two-side queries on the
    small caches, 45 genus0 memo hits on the k=4 cache (the median falls
    in the middle of them), 10 genus2/taut queries at degrees 5 to 9, and
    15 genus2/taut/reconcile queries at degree 10 (the 90th percentile falls
    in the middle of them).
    """
    slots: list[tuple[str, str, int | None]] = [
        (desc, quantity, None) for desc in ("blp2:k=0", "p1xp1") for quantity in QUANTITIES[1:]
    ]
    slots += [("blp2:k=4", "genus0", None)] * 9
    slots += [("blp2:k=4", quantity, MID_DEGREES[round_index]) for quantity in ("genus2", "taut")]
    slots += [("blp2:k=4", quantity, TOP_DEGREE) for quantity in QUANTITIES[1:]]
    return slots


def generate_queries(rng: random.Random, caches: dict) -> list[tuple[str, str, tuple]]:
    queries = []
    for round_index in range(ROUNDS):
        slots = round_slots(round_index)
        rng.shuffle(slots)
        for desc, quantity, degree in slots:
            pool = caches[desc][1]
            choices = [c for d in sorted(pool) if degree in (None, d) for c in pool[d]]
            queries.append((desc, quantity, rng.choice(choices)))
    return queries


def query_argv(desc: str, quantity: str, coeffs, path: str) -> list[str]:
    return ["count", quantity, "--surface", desc, "--class", ",".join(map(str, coeffs)),
            "--cache", path, "--format", "json"]


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def count_output_digest(stdout: str):
    """Digest of ``count --format json`` output with the timings removed,
    and the value of a single-record output."""
    payload = json.loads(stdout)
    records = payload if isinstance(payload, list) else [payload]
    for record in records:
        record.pop("timeMs", None)
    value = None
    if isinstance(payload, dict) and isinstance(payload["value"], str):
        value = int(payload["value"])
    return digest(payload), value


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_count_warm(rng, clock, tracer, ledger, reference, caches) -> dict:
    queries = generate_queries(rng, caches)
    before = {desc: file_digest(path) for desc, (path, _) in caches.items()}
    if tracer.enabled:
        tracer.wrap_cli_calls()
    outputs = []
    with clock.sampling():
        for desc, quantity, coeffs in queries:
            argv = query_argv(desc, quantity, coeffs, caches[desc][0])
            start = time.perf_counter_ns()
            with tracer.span("cli.main", quantity):
                outputs.append(call_cli(argv))
            clock.record(start)

    expected = reference["count-warm"]
    for (desc, quantity, coeffs), (code, stdout, stderr) in zip(queries, outputs):
        key = f"{quantity}|{class_key(desc, coeffs)}"
        if code != 0:
            ledger.check(f"count {key}", False, f"exit {code}: {stderr.strip()[:200]}")
            continue
        found, value = count_output_digest(stdout)
        ledger.check(
            f"count {key}",
            found == expected.get(key) and anchor_agrees(desc, quantity, coeffs, value),
            f"digest {found}",
        )
    for desc, (path, _) in caches.items():
        ledger.check(f"cache {desc} unchanged", file_digest(path) == before[desc],
                     "a query changed the cache file")

    layer = {"genus0.cache_bytes": sum(os.path.getsize(path) for path, _ in caches.values())}
    if tracer.enabled:
        for quantity in QUANTITIES:
            layer[f"cli.main_ms.{quantity}"] = 1e3 * statistics.fmean(
                tracer.seconds("cli.main", quantity))
        for call in ("load_cache", "save_cache"):
            layer[f"genus0.{call}_ms"] = 1e3 * statistics.median(
                tracer.seconds(f"genus0.{call}"))
    counts: dict[str, int] = {}
    for _, quantity, _ in queries:
        counts[quantity] = counts.get(quantity, 0) + 1
    return {"layer": layer, "query_counts": counts}


# ---------------------------------------------------------------------------
# check-suite


def run_check_suite(rng, clock, tracer, ledger, reference) -> dict:
    # Untraced: the user's command.  Traced: one call per scope, in the
    # order "all" runs them, so the shared memos see the same sequence.
    calls = [["check", "--scope", scope, "--format", "json"]
             for scope in (SCOPES if tracer.enabled else ("all",))]
    if tracer.enabled:
        tracer.wrap_cli_calls()
    outputs = []
    with clock.sampling():
        for argv in calls:
            start = time.perf_counter_ns()
            with tracer.span("cli.main", argv[2]):
                outputs.append(call_cli(argv))
            clock.record(start, operation=not tracer.enabled)

    results = []
    for argv, (code, stdout, _) in zip(calls, outputs):
        ledger.check(f"check --scope {argv[2]} exit", code == 0, f"exit {code}")
        results.extend(json.loads(stdout) if stdout.strip() else [])
    by_id = {result["checkId"]: result for result in results}
    for check_id, expected_digest in reference["check-suite"]["checks"].items():
        found = by_id.get(check_id)
        ledger.check(f"check {check_id}", found is not None and digest(found) == expected_digest,
                     "missing" if found is None else f"digest {digest(found)}")
    anchors = {
        "genus0-classical-plane": str(PLANE_N0),
        "genus2-blow-down-4L": "(14400, 14400)",
    }
    for check_id, actual in anchors.items():
        found = by_id.get(check_id, {}).get("actual")
        ledger.check(f"anchor {check_id}", found == actual, f"got {found}")

    layer = {
        f"checks.status_count.{status}": sum(1 for r in results if r["status"] == status)
        for status in ("pass", "report-only", "fail")
    }
    if tracer.enabled:
        for scope in SCOPES:
            layer[f"checks.run_suite_s.{scope}"] = sum(
                tracer.seconds("checks.run_suite", parent_tag=scope))
    return {"layer": layer}


# ---------------------------------------------------------------------------


def main() -> int:
    started_ns = time.monotonic_ns()
    parser = argparse.ArgumentParser(description="one cold benchmark repetition")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this process")
    parser.add_argument("--scratch", required=True, help="private directory for cache files")
    parser.add_argument("--out", required=True, help="result file to write")
    args = parser.parse_args()

    if not os.path.abspath(delpezzo.__file__).startswith(SRC + os.sep):
        print(f"worker: imported delpezzo from {delpezzo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if cli.CACHE_DIR_ENV in os.environ:
        print(f"worker: {cli.CACHE_DIR_ENV} must not be set", file=sys.stderr)
        return 2

    # Set-up is the interpreter start and imports, scaled by the first probe,
    # then the workload's own set-up, timed like an operation.
    clock = HostClock()
    with clock.sampling():
        setup_start = time.perf_counter_ns()
        caches = build_caches(args.scratch) if args.workload == "count-warm" else None
        setup_end = time.perf_counter_ns()
    startup_s = (started_ns - args.spawned_ns) / 1e9
    result: dict = {
        "raw_setup_s": startup_s + clock.seconds(setup_start, setup_end, scaled=False),
        "setup_s": (startup_s * REFERENCE_CHUNK_S / clock.probes[0][2]
                    + clock.seconds(setup_start, setup_end)),
    }
    if not args.setup_only:
        reference = load_reference()
        # Every repetition of a run replays the same inputs.
        rng = random.Random(f"{args.workload}/{args.seed}")
        tracer = Tracer(bool(args.trace), clock)
        ledger = Ledger()
        if args.workload == "g0-ladder":
            result.update(run_g0_ladder(rng, clock, tracer, ledger, reference))
        elif args.workload == "g2-sweep":
            result.update(run_g2_sweep(rng, clock, tracer, ledger, reference))
        elif args.workload == "count-warm":
            result.update(run_count_warm(rng, clock, tracer, ledger, reference, caches))
        else:
            result.update(run_check_suite(rng, clock, tracer, ledger, reference))
        check_anchors(ledger)
        result.update({
            "wall_s": clock.wall_s(),
            "raw_wall_s": clock.wall_s(scaled=False),
            "latencies_ms": clock.latencies_ms(),
            "chunk_ms": 1e3 * statistics.median(chunk for _, _, chunk in clock.probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": ledger.attempted,
            "failures": ledger.failures,
            "traced": tracer.enabled,
            "spans": tracer.spans,
        })
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
