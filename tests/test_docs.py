"""The README's examples and the package quick start, run as written."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

import delpezzo
from delpezzo.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# Elapsed times differ from run to run.
TIME_MS = re.compile(r'"timeMs": "\d+"')


def fenced_blocks(text: str) -> list[list[str]]:
    """The lines of every code block of a markdown text, fences left out."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```$", text, re.M | re.S)
    return [block.splitlines() for block in blocks]


def run_doctest(test: doctest.DocTest) -> None:
    report: list[str] = []
    runner = doctest.DocTestRunner()
    failed, attempted = runner.run(test, out=report.append)
    assert attempted > 0
    assert failed == 0, "".join(report)


def test_readme_library_examples(tmp_path, monkeypatch):
    # The Library block writes plane.json into the working directory.  The
    # blocks are read without their fences, so a closing fence is never
    # taken for expected output.
    monkeypatch.chdir(tmp_path)
    blocks = [lines for lines in fenced_blocks(README.read_text()) if lines[0].startswith(">>>")]
    assert len(blocks) == 2
    text = "\n\n".join("\n".join(lines) for lines in blocks) + "\n"
    run_doctest(doctest.DocTestParser().get_doctest(text, {}, "README", str(README), 0))
    assert (tmp_path / "plane.json").is_file()


def test_package_quick_start():
    (test,) = [t for t in doctest.DocTestFinder().find(delpezzo) if t.examples]
    assert test.name == "delpezzo"
    run_doctest(test)


def test_readme_cli_examples(capsys):
    # Every `$ delpezzo ...` line of the README, against what `main` prints:
    # warnings (stderr) first, then the records.  A closing `...` line means
    # the example shows the first lines of the output only.
    examples = []
    for lines in fenced_blocks(README.read_text()):
        expected = None
        for line in lines:
            if line.startswith("$ "):
                argv = shlex.split(line[2:])
                assert argv[0] == "delpezzo"
                expected = []
                examples.append((argv[1:], expected))
            elif expected is not None:
                expected.append(line)
    assert len(examples) == 5
    for argv, expected in examples:
        assert main(argv) == 0
        captured = capsys.readouterr()
        actual = TIME_MS.sub('"timeMs": "0"', captured.err + captured.out).splitlines()
        if expected[-1] == "...":
            expected = expected[:-1]
            actual = actual[: len(expected)]
        assert actual == expected, argv
