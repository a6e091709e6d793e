"""Smoke tests of the scripts in ``scripts/``: each runs as a program on a
small surface, exits 0 and prints a known row."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_genus0_table_writes_and_reuses_its_cache(tmp_path):
    cache = tmp_path / "k1.json"
    args = ("--surface", "blp2:k=1", "--max-anticanonical", "8", "--cache", str(cache))
    first = _run("genus0_table.py", *args)
    # class, deg, delta, sq, genus, n0: the plane cubic through 8 points
    # and the blown-up point.
    assert ["3,1", "8", "7", "8", "1", "12"] in first
    assert cache.exists()
    assert _run("genus0_table.py", *args) == first


def test_genus2_survey_lists_the_plane_quartic():
    rows = _run(
        "genus2_survey.py", "--surface", "blp2:k=0", "--max-anticanonical", "12",
        "--nonzero-only",
    )
    # class, n0, rt2, cusp, v2, crL, crP, n2j; classes 1..3 have n2j = 0.
    assert rows[2:] == [["4", "620", "104808", "2304", "2124", "49800", "57240", "14400"]]
