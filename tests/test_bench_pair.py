"""The run schedule of ``scripts/bench_pair.py``: neither the run order nor
the checkout's directory name may favour a side."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


@pytest.mark.parametrize("first", [0, 1, 2, 3, 81])
def test_four_seeds_balance_names_and_positions(first):
    placed = {"parent": [], "change": []}
    for seed in range(first, first + 4):
        runs = bench_pair.schedule(seed)
        assert sorted(name for _, name in runs) == ["base", "work"]
        for position, (side, name) in enumerate(runs):
            placed[side].append((name, position))
    for side, runs in placed.items():
        # Each name twice, each position twice, and every combination once.
        assert sorted(runs) == [("base", 0), ("base", 1), ("work", 0), ("work", 1)], side


def test_odd_seeds_run_the_change_first():
    assert [bench_pair.schedule(seed)[0][0] for seed in (1, 2, 3, 4)] == [
        "change", "parent", "change", "parent",
    ]


WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
ROWS = {"name": "rows", "unit": "count", "better": "higher", "bound": 0.1}


def entry(metric, parent, change):
    lower = metric["better"] == "lower"
    better = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    return {"parent": bench_pair.summary(parent), "change": bench_pair.summary(change),
            "change_better_pairs": better}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_claim_is_met_by_nine_pairs_and_a_gap_past_the_quartiles():
    change = [0.80] * 9 + [1.10]  # nine pairs better, medians 0.20 apart
    assert bench_pair.verdict(WALL, entry(WALL, PARENT, change), claimed=True) == "met"


def test_a_claim_is_not_met_by_eight_pairs():
    change = [0.80] * 8 + [1.10] * 2
    assert bench_pair.verdict(WALL, entry(WALL, PARENT, change), claimed=True) == "not met"


def test_a_claim_is_not_met_inside_the_parents_spread():
    # Every pair better, but the medians differ by less than the quartile distance.
    change = [p - 0.005 for p in PARENT]
    result = entry(WALL, PARENT, change)
    assert result["change_better_pairs"] == 10
    assert bench_pair.verdict(WALL, result, claimed=True) == "not met"
    assert bench_pair.verdict(WALL, result, claimed=False) == "within bound"


def test_worse_past_the_bound_in_the_metrics_direction():
    slower = [p * 1.25 for p in PARENT]
    assert bench_pair.verdict(WALL, entry(WALL, PARENT, slower), claimed=False) == "worse"
    assert bench_pair.verdict(WALL, entry(WALL, PARENT, slower), claimed=True) == "worse"
    inside = [p * 1.15 for p in PARENT]
    assert bench_pair.verdict(WALL, entry(WALL, PARENT, inside), claimed=False) == "within bound"
    # A higher-is-better metric is worse when it falls.
    fewer = [p * 0.85 for p in PARENT]
    assert bench_pair.verdict(ROWS, entry(ROWS, PARENT, fewer), claimed=False) == "worse"
    more = [p * 1.25 for p in PARENT]
    assert bench_pair.verdict(ROWS, entry(ROWS, PARENT, more), claimed=True) == "met"


def test_startup_details_read_the_line_before_the_result():
    details = {"workload": "g2-sweep", "raw_setup_s": 0.1123, "calibration_chunk_ms": 2.071,
               "setup_samples": 3}
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {}}
    lines = ["a progress line", json.dumps(details), json.dumps(result)]
    assert bench_pair.startup_details(lines) == {
        "raw_setup_s": 0.1123, "calibration_chunk_ms": 2.071,
    }
