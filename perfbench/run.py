"""The delpezzo benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload g0-ladder --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it measures the program in the
checkout's ``src``.  Every repetition runs cold in a fresh interpreter
(``worker.py``) with ``DELPEZZO_CACHE_DIR`` removed and cache files in a
private directory under ``.perfbench_tmp/``, one after another (a closed
loop with one client).  Every repetition of a run replays the same inputs,
drawn from ``--seed``.  Repetitions start until the next one would end past
``--seconds``; a run makes at least ``MIN_REPS`` untraced ones and takes at
least ``SETUP_SAMPLES`` set-up samples.

Times are in reference seconds: the worker scales the time between two
probes of a fixed calibration loop, taken every 100 ms, by how fast the host
ran that loop (``worker.HostClock``), so that a host that slows down for a
while does not move the result.  ``wall_s`` is the median timed phase over the run's
repetitions; an operation's latency is its median over the repetitions, and
the percentiles are taken over the operations.  The details line also gives
the unscaled times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run alternates untraced and traced repetitions and reports
the per-layer metrics, with ``trace.overhead_s`` the traced minus the
untraced median wall time.  A per-layer metric of a call the workload does
not make is 0.  Exact per-layer counts must be identical in every
repetition.  The line before the result holds the run's details:
repetitions, the operation count, per-quantity query counts and
``failed_ratio``.
Traced runs also write every span to ``.perfbench_out/``.

Exit status: 0 when every output was verified correct, 1 when an output was
wrong or a repetition failed, 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PROGRAM = os.path.join(ROOT, "src", "delpezzo", "__init__.py")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
TRACES = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("g0-ladder", "g2-sweep", "count-warm", "check-suite")
MIN_REPS = 2
SETUP_SAMPLES = 3
DEADLINE_S = 165  # a run must end within 180 s
EXACT_UNITS = ("count", "bytes")


class RepetitionFailed(Exception):
    pass


def run_worker(args, rep: int, traced: bool, setup_only: bool, deadline: float) -> dict:
    scratch = os.path.join(args.scratch, f"rep-{rep}")
    os.makedirs(scratch)
    out = os.path.join(scratch, "result.json")
    env = {k: v for k, v in os.environ.items() if k != "DELPEZZO_CACHE_DIR"}
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
               "--rep", str(rep), "--trace", str(int(traced)), "--scratch", scratch,
               "--out", out]
    if setup_only:
        command.append("--setup-only")
    try:
        started = time.monotonic_ns()
        done = subprocess.run(command + ["--spawned-ns", str(started)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(f"repetition {rep} did not finish before the deadline") from None
    if done.returncode != 0 or not os.path.exists(out):
        raise RepetitionFailed(
            f"repetition {rep} exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    with open(out) as handle:
        result = json.load(handle)
    shutil.rmtree(scratch)
    return result


def repetitions(args) -> tuple[list[dict], list[dict]]:
    """Run repetitions until the time is used; return them and the set-up
    samples."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[dict] = []
    longest = 0.0

    def enough() -> bool:
        untraced = sum(1 for r in reps if not r["traced"])
        if args.trace:
            return 0 < untraced < len(reps)
        return untraced >= MIN_REPS

    while not enough() or time.monotonic() - start + longest <= args.seconds:
        t0 = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_worker(args, len(reps), traced, False, deadline))
        longest = max(longest, time.monotonic() - t0)
    setups = [{k: r[k] for k in ("setup_s", "raw_setup_s")} for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args, len(reps) + len(setups), False, True, deadline))
    return reps, setups


def end_to_end(reps: list[dict], setups: list[dict]) -> dict:
    untraced = [r for r in reps if not r["traced"]]
    # Repetitions replay the same operations in the same order.
    latencies = [statistics.median(samples)
                 for samples in zip(*(r["latencies_ms"] for r in untraced))]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "query_ms_p50": statistics.median(latencies),
        "query_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
                         if len(latencies) > 1 else latencies[0]),
    }


def exact_count_failures(reps: list[dict], units: dict) -> list[str]:
    """A difference in an exact count between repetitions is a bug, not noise."""
    failures = []
    for name in sorted({name for r in reps for name in r["layer"]}):
        if name not in units:
            raise SystemExit(f"run.py: per-layer metric {name} is not in BENCHMARK.json")
        samples = [r["layer"][name] for r in reps if name in r["layer"]]
        if units[name] in EXACT_UNITS and len(set(samples)) != 1:
            failures.append(f"exact count {name} differs between repetitions: {samples}")
    return failures


def per_layer(reps: list[dict], units: dict) -> dict:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    values: dict = {name: 0 for name in units}
    for name in {name for r in traced for name in r["layer"]}:
        samples = [r["layer"][name] for r in traced]
        values[name] = samples[0] if units[name] in EXACT_UNITS else statistics.median(samples)
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in untraced))
    return values


def write_spans(args, reps: list[dict]) -> None:
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "span_fields": ["id", "parent", "name", "tag", "start_ns", "end_ns"],
            "repetitions": [r["spans"] for r in reps if r["traced"]],
        }, handle)


def main() -> int:
    parser = argparse.ArgumentParser(description="delpezzo benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(PROGRAM):
        print(f"run.py: no program to measure: {PROGRAM} is missing", file=sys.stderr)
        return 2
    with open(SPEC) as handle:
        spec = json.load(handle)

    args.scratch = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(args.scratch)
    try:
        reps, setups = repetitions(args)
    except RepetitionFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
    untraced = [r for r in reps if not r["traced"]]
    raw_setups = [s["raw_setup_s"] for s in setups]

    # Each exact count that differs between repetitions is one more
    # failed operation.
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = exact_count_failures(reps, layer_units)
    metrics = per_layer(reps, layer_units) if args.trace else end_to_end(reps, setups)
    if args.trace:
        write_spans(args, reps)
    attempted = sum(r["attempted"] for r in reps) + len(failures)
    failures += [f for r in reps for f in r["failures"]]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    query_counts: dict[str, int] = {}
    for r in reps:
        for quantity, n in r.get("query_counts", {}).items():
            query_counts[quantity] = query_counts.get(quantity, 0) + n
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "traced_repetitions": len(reps) - len(untraced),
        "rep_wall_s": [round(r["wall_s"], 4) for r in reps],
        "rep_raw_wall_s": [round(r["raw_wall_s"], 4) for r in reps],
        "raw_setup_s": round(statistics.median(raw_setups), 4),
        "calibration_chunk_ms": round(statistics.median(r["chunk_ms"] for r in reps), 3),
        "setup_samples": len(setups),
        "operations": len(untraced[0]["latencies_ms"]),
        "query_counts": query_counts,
        "failed_ratio": len(failures) / attempted,
    }
    for failure in failures[:20]:
        print(f"run.py: FAILED {failure}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
