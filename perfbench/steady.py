"""Check that the benchmark is steady across seeds.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads g0-ladder --seeds 1-5
    python3 perfbench/steady.py --trace 1 --seeds 1-3

Runs ``run.py`` once per seed and workload (seeds outer, so slow drift of
the host spreads over every workload), one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints each run's duration and
details line.  Every run must exit 0 with ``correct`` true.

With ``--trace 0`` it prints, per workload and end-to-end metric, the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
must stay below a third of the metric's bound; ``setup_s`` is reported but
exempt.  With ``--trace 1`` it asserts that every exact per-layer count
(unit ``count`` or ``bytes``) is identical across all runs of a workload.
Exit status 1 when any of this fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "bytes")


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    problems = []
    for seed in args.seeds:
        for workload in args.workloads:
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            started = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.monotonic() - started
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                problems.append(f"{workload} seed {seed}: exit {done.returncode}, "
                                f"{done.stderr.strip()[-500:]}")
                continue
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs[workload].append(values)
            print(f"{workload} seed {seed} ({elapsed:.1f} s): {lines[-2]}", file=sys.stderr)

    summary = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload, results in runs.items():
            for name, unit in units.items():
                seen = {r[name] for r in results}
                if unit in EXACT_UNITS and len(seen) > 1:
                    problems.append(f"{workload}: exact count {name} varies: {sorted(seen)}")
            summary[workload] = {name: results[0][name] for name, unit in units.items()
                                 if unit in EXACT_UNITS and results}
    else:
        for workload, results in runs.items():
            rows = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in results]
                if len(values) < 2:
                    continue
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                rows[name] = {"median": median, "spread": round(spread, 4), "bound": bound}
                print(f"{workload:12} {name:13} median {median:12.4f}  spread {spread:7.4f}"
                      f"  bound {bound}")
                if name != "setup_s" and spread >= bound / 3:
                    problems.append(f"{workload}: {name} spread {spread:.4f} is not below "
                                    f"a third of its bound {bound}")
            summary[workload] = rows
    for problem in problems:
        print(f"steady.py: {problem}", file=sys.stderr)
    print(json.dumps({"seeds": args.seeds, "trace": args.trace, "ok": not problems,
                      "workloads": summary}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
