#!/usr/bin/env python3
"""Paired benchmark runs of a base commit and the working tree.

    python3 scripts/bench_pair.py --workload g0-ladder --seeds 21-30 \\
        --out BENCH_4.json --change "what the change does" --claim g0-ladder:wall_s
    python3 scripts/bench_pair.py --workload g2-sweep --seeds 21-30 --out BENCH_4.json
    python3 scripts/bench_pair.py --workload g0-ladder --seeds 1-4 --quick

Exports ``--base`` (default ``HEAD``, so an uncommitted change is compared
with its parent; pass ``HEAD~1`` once the change is committed) with ``git
archive``, and copies the working tree's files that git does not ignore,
into two sibling directories of a temporary directory, ``base`` and
``work``.  The two paths have the same length: path strings are part of
what the interpreter allocates, and a longer checkout path alone moved
``peak_rss_mb`` by about 0.1 MB.  Equal length is not enough, as the name
itself moved count-warm ``peak_rss_mb`` by 0.2 to 0.4 MB, so the two
checkouts swap names by renaming every two seeds.  Then for each seed it
runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each copy, back to back, with odd seeds running the change first
and even seeds the base (see ``schedule``).  ``T`` is the ``run_seconds``
of ``BENCHMARK.json``, the same on both sides.  ``--quick`` is a pre-check
of a few seconds per run: ``T`` is 0, which makes run.py take its minimum
of untraced repetitions and set-up samples, on the same schedule and
checkouts; it prints the same medians and verdicts, ``raw_setup_s``
beside ``setup_s``, and writes no file, so a shift of ``setup_s`` or a
lost gain shows before the full runs.

The result goes to ``--out`` in the ``BENCH_<n>.json`` layout: per workload
the seeds, ``correct``, ``attempted`` and ``failed`` of both sides, and per
end-to-end metric each side's median, quartiles
(``statistics.quantiles(n=4, method="inclusive")``) and runs, plus the
number of pairs in which the change is strictly better in the direction
``BENCHMARK.json`` gives, and a ``verdict`` (see ``verdict``), which is
also printed.  Beside ``setup_s`` each side also gets the medians of
``raw_setup_s`` (the unscaled start-up) and ``calibration_chunk_ms`` (the
median probe time of a run) from run.py's details line (see
``startup_details``), also printed: ``setup_s`` is the start-up divided
by the worker's first calibration probe, so a change of that probe alone,
such as a garbage collection falling inside it or not, moves ``setup_s``
while ``raw_setup_s`` stays.  An existing ``--out`` file keeps its other
workloads and its claim, so each workload can be run by its own
invocation.  Exit status 1
when a run fails or reports ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("base", "work")
# The fields of run.py's details line recorded beside setup_s.
STARTUP = ("raw_setup_s", "calibration_chunk_ms")


def schedule(seed: int) -> list[tuple[str, str]]:
    """The side and directory name of each run of ``seed``, in run order.

    The run order has period 2 in the seed (odd seeds run the change
    first) and the names period 4 (the parent is in ``base`` for seeds
    0 and 1 mod 4), so over any four consecutive seeds each side runs
    from each name once in each position.
    """
    order = ("change", "parent") if seed % 2 else ("parent", "change")
    names = NAMES if seed % 4 < 2 else NAMES[::-1]
    return [(side, names[side == "change"]) for side in order]


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export(rev: str, checkout: str) -> str:
    """Write the tree of ``rev`` into ``checkout``; return the commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    os.makedirs(checkout)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", checkout], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pair.py: git archive {commit} failed")
    return commit


def copy_working_tree(checkout: str) -> None:
    """Copy the tracked and the untracked, not ignored files into ``checkout``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):  # a deleted tracked file is still listed
            target = os.path.join(checkout, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def startup_details(lines: list[str]) -> dict[str, float]:
    """The ``STARTUP`` fields of run.py's details line, the line before its
    result line, from the lines of its standard output."""
    details = json.loads(lines[-2])
    return {name: details[name] for name in STARTUP}


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    # run.py exits 1 with a result line when an output was wrong.
    if done.returncode not in (0, 1) or len(lines) < 2 or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pair.py: {workload} seed {seed} in {checkout} exited "
                         f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["startup"] = startup_details(lines)
    print(f"{workload} seed {seed} {checkout}: {lines[-1]}", flush=True)
    return result


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 5), "q1": round(q1, 5),
            "q3": round(q3, 5), "runs": [round(r, 5) for r in runs]}


def verdict(metric: dict, entry: dict, claimed: bool) -> str:
    """The verdict on one end-to-end metric of one workload.

    ``metric`` is its ``end_to_end`` record in ``BENCHMARK.json`` and
    ``entry`` its record in the result: each side's ``summary`` and
    ``change_better_pairs``.  A claimed metric is "met" when the change is
    better in at least nine tenths of the pairs and its median is better
    than the parent's by more than the parent's quartile distance.  Any
    metric is "worse" when the change's median is worse than the parent's
    by more than the metric's relative ``bound``; else a claim is "not met"
    and any other metric "within bound".
    """
    parent, change = entry["parent"], entry["change"]
    sign = 1 if metric["better"] == "lower" else -1
    gain = sign * (parent["median"] - change["median"])
    if claimed and (10 * entry["change_better_pairs"] >= 9 * len(parent["runs"])
                    and gain > parent["q3"] - parent["q1"]):
        return "met"
    if -gain > metric["bound"] * abs(parent["median"]):
        return "worse"
    return "not met" if claimed else "within bound"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 21-30")
    parser.add_argument("--out", help="BENCH_<n>.json to write or update (not with --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="run.py --seconds 0 on each side: print the verdicts, write no file")
    parser.add_argument("--base", default="HEAD", help="commit to compare with (default HEAD)")
    parser.add_argument("--change", help="one line on what the change does")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed gain")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    if not args.quick and not args.out:
        parser.error("--out is required without --quick")
    seconds = 0 if args.quick else spec["run_seconds"]

    scratch = tempfile.mkdtemp(prefix="bench-pair-")
    try:
        where = dict(schedule(args.seeds[0]))
        commit = export(args.base, os.path.join(scratch, where["parent"]))
        copy_working_tree(os.path.join(scratch, where["change"]))
        sides: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in args.seeds:
            runs = schedule(seed)
            if dict(runs) != where:
                first, second, held = (os.path.join(scratch, n) for n in (*NAMES, "held"))
                os.rename(first, held)
                os.rename(second, first)
                os.rename(held, second)
                where = dict(runs)
            for side, name in runs:
                sides[side].append(run(os.path.join(scratch, name), args.workload, seed,
                                       seconds))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    document: dict = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as handle:
            document = json.load(handle)
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        document["claimed"] = {"workload": workload, "metric": metric}
    claim = document.get("claimed", {})

    metrics = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sides.items()}
        better = sum(1 for p, c in zip(values["parent"], values["change"])
                     if (c < p if lower else c > p))
        row = metrics[name] = {"unit": metric["unit"],
                               **{side: summary(v) for side, v in values.items()},
                               "change_better_pairs": better}
        claimed = claim == {"workload": args.workload, "metric": name}
        row["verdict"] = verdict(metric, row, claimed)
        print(f"{args.workload} {name}: parent {row['parent']['median']}, change "
              f"{row['change']['median']}, {better}/{len(values['parent'])} pairs better: "
              f"{row['verdict']}{' (claimed)' if claimed else ''}")
    setup = metrics["setup_s"]
    for side, runs in sides.items():
        setup[side].update({name: round(statistics.median(r["startup"][name] for r in runs), 5)
                            for name in STARTUP})
    print(f"{args.workload} setup_s details: " + "; ".join(
        f"{side} " + ", ".join(f"{name} {setup[side][name]}" for name in STARTUP)
        for side in sides))
    correct = all(r["correct"] for runs in sides.values() for r in runs)
    if args.quick:
        return 0 if correct else 1
    entry = {
        "seeds": args.seeds,
        "correct": correct,
        "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
        "metrics": metrics,
    }

    document.update({
        "harness": f"python3 perfbench/run.py --workload W --seed S --seconds {spec['run_seconds']} "
                   "--trace 0, run in a git archive of the base and in a copy of the "
                   "working tree, two sibling directories with paths of equal length "
                   "that swap their names base and work by renaming every two seeds "
                   "(parent in base for seeds 0 and 1 mod 4)",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}; times are "
                "perfbench reference seconds (host-speed normalised), see perfbench/README.md",
        "pairing": "base and change run back to back per seed, alternating which side runs "
                   "first (odd seeds: change first)",
        "base": commit,
    })
    if args.change:
        document["change"] = args.change
    document.setdefault("workloads", {})[args.workload] = entry
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
