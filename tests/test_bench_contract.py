"""What ``perfbench/worker.py`` reads off the program: the names it wraps on
``delpezzo.cli``, the genus-two quantities it times and the digest of each
consistency check it compares with ``reference.json``.  The worker is
loaded as a module, without running ``main``, so a change that moves one
of these names, or that changes a check's output, fails here and not only
in a traced benchmark run."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from delpezzo import cli
from delpezzo.checks import run_suite
from delpezzo.genus2 import Genus2Report

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _load_worker():
    # Loading runs the worker's imports and constants only; it must leave
    # neither a bytecode file in perfbench/ nor its own src on sys.path.
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
    return module


worker = _load_worker()


@pytest.mark.parametrize("name", worker.CLI_LAYER_CALLS)
def test_each_wrapped_cli_name_is_a_layer_function(name):
    # wrap_cli_calls names each span after the module of the function.
    function = getattr(cli, name)
    assert callable(function)
    assert function.__module__ in {"delpezzo.genus0", "delpezzo.genus2", "delpezzo.checks"}


def test_each_timed_genus_two_quantity_is_callable_and_names_a_report_field():
    fields = {field.name for field in dataclasses.fields(Genus2Report)}
    for name, (function, field) in worker.G2_QUANTITIES.items():
        assert callable(function), name
        assert field in fields, name


CHECK_DIGESTS = worker.load_reference()["check-suite"]["checks"]


@pytest.fixture(scope="module")
def check_results():
    return {result.check_id: result.to_json_dict() for result in run_suite("all")}


@pytest.mark.parametrize("check_id", sorted(CHECK_DIGESTS))
def test_each_check_matches_the_benchmark_reference(check_results, check_id):
    # check-suite digests each check of `check --scope all --format json`
    # and refuses a run whose digest differs from reference.json; this
    # names the drifted check in the test run.
    assert check_id in check_results
    assert worker.digest(check_results[check_id]) == CHECK_DIGESTS[check_id]
