"""Command-line interface: outputs, formats, exit codes, caching."""

import csv
import gc
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from delpezzo import cli
from delpezzo.cli import OutputRecord, _emit_records, main
from delpezzo.genus0 import n0
from delpezzo.genus2 import encode_exact
from delpezzo.numerics import to_decimal_string
from recursion_limit import recursion_margin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count ---------------------------------------------------------------


def test_count_genus0_text(capsys):
    code, out, err = run(capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1")
    assert code == 0
    assert out == "12\n"
    assert err == ""


def test_count_genus0_json(capsys):
    code, out, _ = run(
        capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["surface"] == "blp2:k=2"
    assert payload["class"] == [3, 1, 1]
    assert payload["quantity"] == "genus0"
    assert payload["value"] == "12"
    assert payload["warnings"] == []
    assert payload["timeMs"].isdigit()


def test_count_taut_json_fraction(capsys):
    code, out, _ = run(
        capsys, "count", "taut", "--surface", "blp2:k=0", "--class", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == {"num": "-72", "den": "1"}


def test_count_genus2_quadric_with_warnings(capsys):
    code, out, err = run(
        capsys, "count", "genus2", "--surface", "p1xp1", "--class", "2,2", "--aut", "2"
    )
    assert code == 0
    assert out == "0\n"
    assert err.count("hypothesis") == 2


def test_count_genus2_aut_scaling(capsys):
    _, out4, _ = run(
        capsys, "count", "genus2", "--surface", "blp2:k=0", "--class", "4", "--aut", "4"
    )
    _, out2, _ = run(capsys, "count", "genus2", "--surface", "blp2:k=0", "--class", "4")
    assert out2 == "14400\n"
    assert out4 == "7200\n"


def test_count_reconcile_text(capsys):
    code, out, _ = run(capsys, "count", "reconcile", "--surface", "blp2:k=0", "--class", "2")
    assert code == 0
    assert out.splitlines() == [
        "reconcile.rt2 = 30",
        "reconcile.crLemma = 6",
        "reconcile.crProof = 18",
        "reconcile.autTimesN2j = 0",
        "reconcile.residualLemma = 24",
        "reconcile.residualProof = 12",
    ]


def test_count_reconcile_csv(capsys):
    code, out, _ = run(
        capsys, "count", "reconcile", "--surface", "blp2:k=0", "--class", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["surface", "class", "quantity", "value", "warnings", "timeMs"]
    assert len(rows) == 7
    assert [row[2] for row in rows[1:]] == [
        "reconcile.rt2",
        "reconcile.crLemma",
        "reconcile.crProof",
        "reconcile.autTimesN2j",
        "reconcile.residualLemma",
        "reconcile.residualProof",
    ]
    assert rows[1][3] == "30"


def test_count_reconcile_json_keeps_exact_types(capsys):
    # Integral rationals stay {"num", "den"} pairs; text and CSV cannot show it.
    code, out, _ = run(
        capsys, "count", "reconcile", "--surface", "blp2:k=0", "--class", "2",
        "--format", "json",
    )
    assert code == 0
    values = {record["quantity"]: record["value"] for record in json.loads(out)}
    assert values == {
        "reconcile.rt2": "30",
        "reconcile.crLemma": {"num": "6", "den": "1"},
        "reconcile.crProof": {"num": "18", "den": "1"},
        "reconcile.autTimesN2j": "0",
        "reconcile.residualLemma": {"num": "24", "den": "1"},
        "reconcile.residualProof": {"num": "12", "den": "1"},
    }


# -- table ---------------------------------------------------------------


def test_table_genus0_text_sorted(capsys):
    code, out, _ = run(
        capsys, "table", "genus0", "--surface", "p1xp1", "--max-anticanonical", "8"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["class", "value"]
    vectors = [line.split()[0] for line in lines[1:]]
    assert vectors == sorted(vectors, key=lambda s: tuple(int(x) for x in s.split(",")))
    assert "2,2 12" in [" ".join(line.split()) for line in lines]


def test_table_genus2_json(capsys):
    code, out, _ = run(
        capsys, "table", "genus2", "--surface", "blp2:k=0", "--max-anticanonical", "12",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    values = {tuple(rec["class"]): rec["value"] for rec in payload}
    assert values == {(1,): "0", (2,): "0", (3,): "0", (4,): "14400"}


def test_table_rejects_empty_bound(capsys):
    code, _, err = run(
        capsys, "table", "genus0", "--surface", "blp2:k=1", "--max-anticanonical", "0"
    )
    assert code == 1
    assert "at least 1" in err


@pytest.mark.parametrize("surface", ["blp2:k=2", "p1xp1"])
@pytest.mark.parametrize("quantity", cli.QUANTITIES)
def test_table_is_count_over_the_support(capsys, surface, quantity):
    code, out, _ = run(
        capsys, "table", quantity, "--surface", surface, "--max-anticanonical", "8",
        "--format", "json",
    )
    assert code == 0
    by_class = {}
    for record in json.loads(out):
        del record["timeMs"]
        by_class.setdefault(tuple(record["class"]), []).append(record)
    assert by_class
    for vector, records in by_class.items():
        code, out, _ = run(
            capsys, "count", quantity, "--surface", surface,
            "--class", ",".join(map(str, vector)), "--format", "json",
        )
        assert code == 0
        counted = json.loads(out)
        counted = counted if isinstance(counted, list) else [counted]
        for record in counted:
            del record["timeMs"]
        assert records == counted


def test_table_lists_the_quartic_genus_two_bundle(capsys):
    # The plane quartic: n0, rt2, cusp, v2, both correction totals and n2j.
    def values(quantity):
        code, out, _ = run(
            capsys, "table", quantity, "--surface", "blp2:k=0", "--max-anticanonical", "12",
            "--format", "json",
        )
        assert code == 0
        return {rec["quantity"]: rec["value"] for rec in json.loads(out) if rec["class"] == [4]}

    bundle = {}
    for quantity in ("genus0", "rt2", "cusp", "v2", "reconcile", "genus2"):
        bundle.update(values(quantity))
    row = [bundle[name] for name in (
        "genus0", "rt2", "cusp", "v2", "reconcile.crLemma", "reconcile.crProof", "genus2",
    )]
    assert row == [
        "620", "104808", "2304", "2124",
        {"num": "49800", "den": "1"}, {"num": "57240", "den": "1"}, "14400",
    ]


def test_table_genus0_writes_and_reuses_its_cache(tmp_path, capsys):
    cache = tmp_path / "k1.json"
    args = ("table", "genus0", "--surface", "blp2:k=1", "--max-anticanonical", "8",
            "--cache", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == 0
    # The plane cubic through 8 points and the blown-up point.
    assert "3,1 12" in [" ".join(line.split()) for line in first.splitlines()]
    assert cache.exists()
    assert run(capsys, *args) == (0, first, "")


def test_table_reconcile_text_names_each_quantity(capsys):
    code, out, _ = run(
        capsys, "table", "reconcile", "--surface", "blp2:k=0", "--max-anticanonical", "6"
    )
    assert code == 0
    header, *rows = [line.split() for line in out.splitlines()]
    assert header == ["class", "quantity", "value"]
    # Classes 1 and 2, six records each; the conic's as count prints them.
    assert [row[0] for row in rows] == ["1"] * 6 + ["2"] * 6
    assert rows[6:] == [
        ["2", "reconcile.rt2", "30"],
        ["2", "reconcile.crLemma", "6"],
        ["2", "reconcile.crProof", "18"],
        ["2", "reconcile.autTimesN2j", "0"],
        ["2", "reconcile.residualLemma", "24"],
        ["2", "reconcile.residualProof", "12"],
    ]
    assert [row[1] for row in rows[:6]] == [row[1] for row in rows[6:]]


def test_table_odd_aut_is_usage_error(capsys):
    code, out, err = run(
        capsys, "table", "genus2", "--surface", "blp2:k=0", "--max-anticanonical", "4",
        "--aut", "3",
    )
    assert code == 1
    assert out == ""
    assert "--aut" in err


# -- usage and computation errors -----------------------------------------


def test_unknown_surface_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "genus0", "--surface", "p3", "--class", "1")
    assert code == 1
    assert "descriptor" in err


def test_wrong_rank_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1")
    assert code == 1
    assert "rank" in err


def test_bad_class_vector_is_usage_error(capsys):
    code, _, _ = run(capsys, "count", "genus0", "--surface", "blp2:k=0", "--class", "x")
    assert code == 1


@pytest.mark.parametrize("vector", ["1_0,0", "\u0661,0"], ids=["underscore", "arabic-indic"])
def test_class_vector_written_otherwise_than_str_writes_it_is_usage_error(capsys, vector):
    # int() would read 1_0 as 10 and the Arabic-Indic one as 1.
    code, out, err = run(capsys, "count", "genus0", "--surface", "blp2:k=1", "--class", vector)
    assert (code, out) == (1, "")
    assert "cannot parse curve class" in err


def test_a_class_vector_that_starts_with_a_minus_sign_goes_after_an_equals_sign(capsys):
    # As a word of its own, -1,3 reads as an option, so --class has no value.
    with pytest.raises(SystemExit) as info:
        main(["count", "genus0", "--surface", "p1xp1", "--class", "-1,3"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --class: expected one argument" in captured.err
    assert run(capsys, "count", "genus0", "--surface", "p1xp1", "--class=-1,3") == (0, "0\n", "")


def test_odd_aut_is_usage_error(capsys):
    code, _, err = run(
        capsys, "count", "genus2", "--surface", "blp2:k=0", "--class", "4", "--aut", "3"
    )
    assert code == 1
    assert "--aut" in err


def test_unknown_quantity_exits_1():
    with pytest.raises(SystemExit) as info:
        main(["count", "genus3", "--surface", "blp2:k=0", "--class", "4"])
    assert info.value.code == 1


def test_one_parser_serves_every_call(capsys, monkeypatch):
    parsers = []
    real = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)

    def usage_error():
        with pytest.raises(SystemExit) as info:
            main(["count", "genus3", "--surface", "blp2:k=0", "--class", "4"])
        return info.value.code, capsys.readouterr().err

    cli._build_parser.cache_clear()
    fresh = usage_error()
    assert fresh[0] == 1 and "invalid choice: 'genus3'" in fresh[1]
    assert run(capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1") == (
        0, "12\n", ""
    )
    assert usage_error() == fresh
    assert len(parsers) == 3 and parsers[0] is parsers[1] is parsers[2]


def test_computation_error_is_exit_2(capsys):
    # rt2 needs at least one point constraint; an exceptional class has none.
    code, _, err = run(capsys, "count", "rt2", "--surface", "blp2:k=1", "--class", "0,-1")
    assert code == 2
    assert err.startswith("delpezzo: error:")


def test_deep_recursion_is_exit_2_without_traceback(tmp_path, capsys, monkeypatch):
    # Evaluation is bottom-up, so no degree nests deeply; the engine is run
    # under a recursion limit a few frames above the stack instead.
    def shallow_n0(*args):
        with recursion_margin(5):
            return n0(*args)

    monkeypatch.setattr(cli, "n0", shallow_n0)
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=4", "--class", "7,2,2,2,2",
        "--cache", str(tmp_path / "k4.json"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("delpezzo: error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_closed_pipe_ends_quietly_with_the_sigpipe_status():
    # The reader of standard output has gone before the first write, as
    # with `| head -1` on a long table.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "delpezzo.cli", "table", "genus0",
             "--surface", "blp2:k=3", "--max-anticanonical", "12"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in done.stderr
    assert done.stderr == b""
    assert done.returncode == cli.EXIT_BROKEN_PIPE == 141


# Past CPython's default limit of 4300 digits for int <-> str conversion.
HUGE = 7**6000 + 1


def test_counts_past_the_digit_limit_reach_every_format(capsys):
    digits = to_decimal_string(HUGE)
    assert len(digits) > 4300
    assert encode_exact(HUGE) == digits
    assert encode_exact(Fraction(HUGE, 3)) == {"num": digits, "den": "3"}
    record = OutputRecord("blp2:k=0", (600,), "genus0", HUGE)
    assert record.to_json_dict()["value"] == digits

    _emit_records([record], "text", single=True)
    assert capsys.readouterr().out == digits + "\n"
    _emit_records([record], "text", single=False)
    assert capsys.readouterr().out.splitlines()[1].split() == ["600", digits]
    _emit_records([record], "csv", single=True)
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1][3] == digits
    _emit_records([record], "json", single=True)
    assert json.loads(capsys.readouterr().out)["value"] == digits


# -- check ----------------------------------------------------------------


def test_check_scope_plane(capsys):
    code, out, _ = run(capsys, "check", "--scope", "plane")
    assert code == 0
    assert "genus0-classical-plane" in out
    assert "0 failed" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--scope", "quadric", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(item["status"] == "pass" for item in payload)
    assert any(item["checkId"] == "vanish-quadric-2,2" for item in payload)


# -- caching ---------------------------------------------------------------


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "k2.json"
    code, cold, _ = run(
        capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1",
        "--cache", str(cache),
    )
    assert code == 0
    assert cache.exists()
    stored = cache.read_bytes()
    code, warm, _ = run(
        capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1",
        "--cache", str(cache),
    )
    assert code == 0
    assert warm == cold
    assert cache.read_bytes() == stored  # canonical serialization is stable


def test_unchanged_cache_is_left_untouched(tmp_path, capsys):
    cache = tmp_path / "k2.json"
    query = ["count", "genus0", "--surface", "blp2:k=2", "--cache", str(cache)]
    assert run(capsys, *query, "--class", "3,1,1")[0] == 0
    os.utime(cache, ns=(1, 1))  # no write leaves this modification time
    before = cache.stat()
    stored = cache.read_bytes()
    assert run(capsys, *query, "--class", "3,1,1")[0] == 0
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert os.listdir(tmp_path) == [cache.name]
    # A query that grows the table still writes it back.
    assert run(capsys, *query, "--class", "5,2,2")[0] == 0
    grown = cache.stat()
    assert grown.st_mtime_ns != before.st_mtime_ns
    assert cache.read_bytes() != stored
    assert os.listdir(tmp_path) == [cache.name]
    # So does a table whose bound the cache already covers.
    os.utime(cache, ns=(1, 1))
    warm = cache.stat()
    assert run(capsys, "table", "genus0", "--surface", "blp2:k=2", "--max-anticanonical",
               "3", "--cache", str(cache))[0] == 0
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (warm.st_ino, warm.st_mtime_ns)
    assert os.listdir(tmp_path) == [cache.name]


def test_cached_and_uncached_values_agree(tmp_path, capsys):
    args = ["table", "genus0", "--surface", "blp2:k=1", "--max-anticanonical", "9",
            "--format", "json"]
    _, without, _ = run(capsys, *args)
    _, once, _ = run(capsys, *args, "--cache", str(tmp_path / "t.json"))
    _, twice, _ = run(capsys, *args, "--cache", str(tmp_path / "t.json"))

    def values(text):
        return [(rec["class"], rec["value"]) for rec in json.loads(text)]

    assert values(without) == values(once) == values(twice)


def test_corrupt_cache_is_advisory(tmp_path, capsys):
    cache = tmp_path / "bad.json"
    cache.write_text("not json at all")
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=0", "--class", "4",
        "--cache", str(cache),
    )
    assert code == 0
    assert out == "620\n"
    assert "ignoring unreadable cache" in err
    # and the file was rebuilt into a valid cache
    assert json.loads(cache.read_text())["surface"] == "blp2:k=0"


@pytest.mark.parametrize(
    "payload",
    [
        '{"version":1,"surface":"blp2:k=2","entries":[{"class":[3,1,1],"n0":"-5"}]}',
        '{"version":1,"surface":"blp2:k=2","entries":[{"class":[3,1,1],"n0":"0"}]}',
        "[" * 200000,
    ],
    ids=["negative-count", "zero-count", "nested-too-deeply"],
)
def test_cache_with_a_bad_count_or_deep_json_is_advisory(tmp_path, capsys, payload):
    cache = tmp_path / "bad.json"
    cache.write_text(payload)
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1",
        "--cache", str(cache),
    )
    assert (code, out) == (0, "12\n")
    assert err.count("warning: ignoring unreadable cache") == 1
    assert err.count("\n") == 1


def test_cache_with_an_integer_past_the_digit_limit_is_advisory(tmp_path, capsys):
    # json.loads raises a bare ValueError, not JSONDecodeError, for an int
    # literal longer than the interpreter's int <-> str digit limit.
    cache = tmp_path / "huge.json"
    cache.write_text(
        '{"version":1,"surface":"blp2:k=0","entries":[{"class":[%s],"n0":"1"}]}' % ("1" * 5001)
    )
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=0", "--class", "3",
        "--cache", str(cache),
    )
    assert (code, out) == (0, "12\n")
    assert err.startswith("warning: ignoring unreadable cache")
    assert "Traceback" not in err
    assert json.loads(cache.read_text())["entries"][-1] == {"class": [3], "n0": "12"}


def test_cache_under_a_regular_file_is_skipped(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    query = ["count", "genus0", "--surface", "blp2:k=0", "--class", "3"]
    for extra, env in (([], str(blocker)), (["--cache", str(blocker / "x.json")], None)):
        if env:
            monkeypatch.setenv("DELPEZZO_CACHE_DIR", env)
        else:
            monkeypatch.delenv("DELPEZZO_CACHE_DIR", raising=False)
        code, out, err = run(capsys, *query, *extra)
        assert (code, out) == (0, "12\n")
        assert err.startswith("warning: cache ") and "not written" in err
        assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def test_cache_path_naming_a_directory_is_advisory(tmp_path, capsys):
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=0", "--class", "3",
        "--cache", str(tmp_path),
    )
    assert (code, out) == (0, "12\n")
    assert "ignoring unreadable cache" in err
    assert "not written" in err
    assert os.listdir(tmp_path) == []


def test_a_cache_symlink_is_followed_and_a_device_left_alone(tmp_path, capsys):
    query = ["count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1", "--cache"]
    null = tmp_path / "null.json"
    null.symlink_to(os.devnull)
    code, out, err = run(capsys, *query, str(null))
    assert (code, out) == (0, "12\n")
    assert err.count("warning: ignoring unreadable cache") == 1
    assert err.count("not written: cache file") == 1
    assert null.is_symlink() and stat.S_ISCHR(os.stat(os.devnull).st_mode)
    # A link to a regular file: the file it names gets the rows.
    rows, link = tmp_path / "rows.json", tmp_path / "link.json"
    link.symlink_to(rows)
    run(capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "4,2,1",
        "--cache", str(rows))
    before = json.loads(rows.read_text())["entries"]
    assert run(capsys, *query, str(link)) == (0, "12\n", "")
    assert link.is_symlink()
    after = json.loads(rows.read_text())["entries"]
    assert len(after) > len(before) and all(row in after for row in before)
    assert sorted(os.listdir(tmp_path)) == ["link.json", "null.json", "rows.json"]


def test_a_fifo_as_the_cache_is_ignored_and_left_in_place(tmp_path):
    # Opening a FIFO to read it blocks until a writer comes, so the run
    # would hang before it computed anything.  The read is refused with a
    # warning, and so is the write.
    fifo = tmp_path / "cache.json"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop(cli.CACHE_DIR_ENV, None)
    done = subprocess.run(
        [sys.executable, "-m", "delpezzo.cli", "count", "genus0", "--surface", "blp2:k=2",
         "--class", "3,1,1", "--cache", str(fifo)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert (done.returncode, done.stdout) == (0, "12\n")
    assert done.stderr.count("warning: ignoring unreadable cache") == 1
    assert done.stderr.count("not a regular file") == 2
    assert "Traceback" not in done.stderr
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["cache.json"]


def test_undecodable_cache_is_advisory(tmp_path, capsys):
    cache = tmp_path / "bad.json"
    cache.write_bytes(b"\xff\xfe")
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=0", "--class", "3",
        "--cache", str(cache),
    )
    assert (code, out) == (0, "12\n")
    assert "ignoring unreadable cache" in err
    assert json.loads(cache.read_text())["surface"] == "blp2:k=0"


def test_orbit_inconsistent_cache_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "k2.json"
    cache.write_text(
        '{"version":1,"surface":"blp2:k=2","entries":['
        '{"class":[4,1,2],"n0":"95"},{"class":[4,2,1],"n0":"96"}]}'
    )
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "4,1,2",
        "--cache", str(cache),
    )
    assert code == 0
    assert out == "96\n"
    assert "ignoring unreadable cache" in err
    assert '"n0":"95"' not in cache.read_text()


def test_count_writes_one_row_for_the_exceptional_orbit(tmp_path, capsys):
    # The line through two points and the exceptional class share the
    # standard form (0; 0, ..., -1): one row, not one per member.
    cache = tmp_path / "k8.json"
    code, _, _ = run(
        capsys, "count", "genus2", "--surface", "blp2:k=8", "--class", "4,2,1,1,1,1,1,1,1",
        "--cache", str(cache),
    )
    assert code == 0
    rows = [row["class"] for row in json.loads(cache.read_text())["entries"]]
    assert [0, 0, 0, 0, 0, 0, 0, 0, -1] in rows
    assert [1, 1, 1, 0, 0, 0, 0, 0, 0] not in rows


def test_cache_miscounting_the_exceptional_orbit_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "k8.json"
    cache.write_text(
        '{"version":1,"surface":"blp2:k=8","entries":['
        '{"class":[1,1,1,0,0,0,0,0,0],"n0":"2"}]}'
    )
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=8", "--class", "1,1,1,0,0,0,0,0,0",
        "--cache", str(cache),
    )
    assert (code, out) == (0, "1\n")
    assert "ignoring unreadable cache" in err
    assert '"n0":"2"' not in cache.read_text()


def test_cache_miscounting_a_class_of_count_zero_is_rebuilt(tmp_path, capsys):
    # No conic has a point of multiplicity three: the count is 0.
    cache = tmp_path / "k2.json"
    cache.write_text('{"version":1,"surface":"blp2:k=2","entries":[{"class":[2,3,0],"n0":"5"}]}')
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "2,3,0",
        "--cache", str(cache),
    )
    assert (code, out) == (0, "0\n")
    assert "ignoring unreadable cache" in err
    assert '"n0":"5"' not in cache.read_text()


def test_quadric_cache_listing_a_class_twice_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "q.json"
    cache.write_text(
        '{"version":1,"surface":"p1xp1","entries":['
        '{"class":[1,1],"n0":"1"},{"class":[1,1],"n0":"7"}]}'
    )
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "p1xp1", "--class", "2,2",
        "--cache", str(cache),
    )
    assert code == 0
    assert out == "12\n"
    assert "ignoring unreadable cache" in err
    assert '"n0":"7"' not in cache.read_text()


def test_quadric_cache_disagreeing_with_the_swap_is_rebuilt(tmp_path, capsys):
    # (2, 3) and (3, 2) are one orbit of the ruling swap; a poisoned row of
    # either order makes the file unreadable.
    cache = tmp_path / "q.json"
    cache.write_text(
        '{"version":1,"surface":"p1xp1","entries":['
        '{"class":[2,3],"n0":"95"},{"class":[3,2],"n0":"96"}]}'
    )
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "p1xp1", "--class", "2,3",
        "--cache", str(cache),
    )
    assert code == 0
    assert out == "96\n"
    assert "ignoring unreadable cache" in err
    assert ("class [3, 2] has count 96, but an earlier row of its orbit"
            " (standard form [3, 2]) has 95") in err
    rows = {tuple(row["class"]): row["n0"] for row in json.loads(cache.read_text())["entries"]}
    assert rows[(3, 2)] == "96" and (2, 3) not in rows


def test_a_poisoned_exceptional_row_is_rebuilt(tmp_path, capsys):
    # The exceptional class is a base case of the engine, so a row giving it
    # any count but 1 is rejected: read, its 3 made this genus-two count 4392.
    cache = tmp_path / "k8.json"
    exceptional = [0] * 8 + [-1]
    cache.write_text(json.dumps({
        "version": 1, "surface": "blp2:k=8", "entries": [{"class": exceptional, "n0": "3"}],
    }))
    code, out, err = run(
        capsys, "count", "genus2", "--surface", "blp2:k=8", "--class", "4,2,1,1,1,1,1,1,1",
        "--cache", str(cache),
    )
    assert code == 0
    assert out == "960\n"
    assert "ignoring unreadable cache" in err
    assert "has count 3, but its orbit (standard form [0, 0, 0, 0, 0, 0, 0, 0, -1]) has 1" in err
    rows = {tuple(row["class"]): row["n0"] for row in json.loads(cache.read_text())["entries"]}
    assert rows[tuple(exceptional)] == "1"


@pytest.mark.parametrize("cls", ["2,1,1,1", "1,0,0,0"])
def test_a_poisoned_row_of_a_line_orbit_is_rebuilt(tmp_path, capsys, cls):
    # The conic through three points is carried by Cremona to the line, so
    # the row (2; 1, 1, 1) = 5 would answer for both classes.
    cache = tmp_path / "k3.json"
    cache.write_text(
        '{"version":1,"surface":"blp2:k=3","entries":[{"class":[2,1,1,1],"n0":"5"}]}'
    )
    code, out, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=3", "--class", cls,
        "--cache", str(cache),
    )
    assert code == 0
    assert out == "1\n"
    assert "class [2, 1, 1, 1] has count 5, but its orbit (standard form [1, 0, 0, 0]) has 1" in err
    assert '"n0":"5"' not in cache.read_text()


def test_foreign_cache_is_protected(tmp_path, capsys):
    cache = tmp_path / "k2.json"
    run(capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1",
        "--cache", str(cache))
    before = cache.read_bytes()
    code, _, err = run(
        capsys, "count", "genus0", "--surface", "blp2:k=0", "--class", "4",
        "--cache", str(cache),
    )
    assert code == 2
    assert "belongs to" in err
    assert cache.read_bytes() == before


def test_full_collections_wait_for_the_end_of_a_command(capsys, monkeypatch):
    returned, full_passes = [], []
    count = cli._cmd_count

    def counting(args):
        full_passes.append(("in", gc.get_threshold()))
        code = count(args)
        returned.append(code)
        return code

    def callback(phase, info):
        if phase == "start" and info["generation"] == 2:
            full_passes.append(("pass", len(returned)))

    monkeypatch.setattr(cli, "_cmd_count", counting)
    thresholds = gc.get_threshold()
    # Start from empty generations, so that no pass is due before the command.
    gc.collect()
    gc.set_threshold(10, 1, 0)  # a full pass is due after every second young one
    gc.callbacks.append(callback)
    try:
        code, out, _ = run(capsys, "count", "genus0", "--surface", "blp2:k=2", "--class", "3,1,1")
        held = gc.get_threshold()
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*thresholds)
    assert (code, out) == (0, "12\n")
    assert held == (10, 1, 0)
    (_, during), *passes = full_passes
    assert during[:2] == (10, 1) and during[2] > 10**6
    assert passes and all(after == 1 for _, after in passes)


def test_cache_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DELPEZZO_CACHE_DIR", str(tmp_path / "caches"))
    code, out, _ = run(capsys, "count", "genus0", "--surface", "p1xp1", "--class", "2,2")
    assert code == 0
    assert out == "12\n"
    assert (tmp_path / "caches" / "p1xp1.json").exists()


def test_explicit_cache_beats_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DELPEZZO_CACHE_DIR", str(tmp_path / "unused"))
    explicit = tmp_path / "mine.json"
    run(capsys, "count", "genus0", "--surface", "p1xp1", "--class", "2,2",
        "--cache", str(explicit))
    assert explicit.exists()
    assert not (tmp_path / "unused").exists()
