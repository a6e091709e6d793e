"""The run schedule of ``scripts/bench_pair.py``: neither the run order nor
the checkout's directory name may favour a side."""

import importlib.util
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
