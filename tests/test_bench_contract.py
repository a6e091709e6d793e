"""What ``perfbench/worker.py`` reads off the program: the names it wraps on
``delpezzo.cli`` and the genus-two quantities it times.  The worker is
loaded as a module, without running ``main``, so a change that moves one
of these names fails here and not only in a traced benchmark run."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from delpezzo import cli
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
