"""Command-line interface.

Three subcommands::

    delpezzo count <quantity> --surface <desc> --class <ints> [options]
    delpezzo table <quantity> --surface <desc> --max-anticanonical N [options]
    delpezzo check [--scope all|plane|blowups|quadric] [--format text|json]

Quantities: genus0, genus2, rt2, cusp, v2, taut, reconcile.  ``table`` is
``count`` run on every class of the genus-zero support up to the bound;
every quantity but genus0 skips the classes with no point constraint
(delta < 1).  ``--aut`` is the automorphism order of the genus-two complex
structure, read by genus2 and reconcile.

Surface descriptors are ``blp2:k=N`` (the plane blown up at N general
points, 0 <= N <= 8) and ``p1xp1``.  Class vectors are comma-separated
integers; on ``blp2:k=N`` the vector ``d,m1,...,mN`` denotes the class of
degree d with multiplicity m_i at the i-th point (so the conic through
both points of ``blp2:k=2`` is ``--class 2,1,1``), and on ``p1xp1`` the
vector ``a,b`` is the bidegree.  A vector that starts with ``-`` goes after
``=``, as in ``--class=-1,3``: argparse reads the word ``-1,3`` as an option.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 an asserted
consistency check failed, 141 (128 + SIGPIPE) the reader closed standard
output early.

Caching: pass ``--cache PATH`` to read/write a genus-zero table as JSON,
or set ``DELPEZZO_CACHE_DIR`` to give every invocation a per-surface
default cache file in that directory.  Every command hands its table to
``save_cache``, which writes the file only when the run learned a count
the file lacks or the file could not be read, so a run that learned
nothing cannot undo a concurrent run's additions.  Caches are advisory:
an unreadable cache file is ignored (with a warning) and rewritten, and
cached runs produce byte-identical values to cold runs.  A well-formed
cache written for a different surface is an error, never silently
overwritten.  A cache that cannot be written is skipped with a warning.
The cache path may name a regular file, nothing yet, or a symlink to
either, whose target is read and written; a directory, a device, a FIFO
or a symlink loop is neither read nor replaced, with a warning for each.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field

from .checks import SCOPES, render_text, run_suite
from .errors import CacheFormatError, DelPezzoError
from .genus0 import GwTable, load_cache, n0, save_cache, support_enumerate
from .genus2 import (
    applicability_warnings,
    cusp_count,
    encode_exact,
    n2j_main,
    reconcile,
    rt2,
    taut_intersection,
    two_component_count,
)
from .numerics import to_decimal_string
from .surface import CurveClass, Surface

__all__ = ["main", "OutputRecord", "CACHE_DIR_ENV"]

CACHE_DIR_ENV = "DELPEZZO_CACHE_DIR"

QUANTITIES = ("genus0", "genus2", "rt2", "cusp", "v2", "taut", "reconcile")


class _UsageError(Exception):
    """Raised by command handlers for bad inputs detected after parsing."""


@dataclass(frozen=True)
class OutputRecord:
    """One computed value, ready for any of the output formats."""

    surface: str
    class_vector: tuple[int, ...]
    quantity: str
    value: object  # int or Fraction
    warnings: tuple[str, ...] = ()
    time_ms: str = "0"

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface,
            "class": list(self.class_vector),
            "quantity": self.quantity,
            "value": encode_exact(self.value),
            "warnings": list(self.warnings),
            "timeMs": self.time_ms,
        }

    def to_csv_row(self) -> list[str]:
        return [
            self.surface,
            ",".join(str(c) for c in self.class_vector),
            self.quantity,
            to_decimal_string(self.value),
            "; ".join(self.warnings),
            self.time_ms,
        ]


CSV_HEADER = ["surface", "class", "quantity", "value", "warnings", "timeMs"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; remap to 1 (usage)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: parsing leaves it unchanged, and
    building it takes about a third of a warm ``count``."""
    parser = _Parser(
        prog="delpezzo",
        description="Exact curve counts on del-Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="compute one quantity for one class")
    _add_common(count)
    count.add_argument(
        "--class",
        dest="class_vector",
        required=True,
        metavar="D,M1,...",
        help="comma-separated class vector",
    )

    table = sub.add_parser("table", help="tabulate a quantity over the support")
    _add_common(table)
    table.add_argument(
        "--max-anticanonical",
        type=int,
        required=True,
        metavar="N",
        help="largest anticanonical degree to include (at least 1)",
    )

    check = sub.add_parser("check", help="run the consistency-check suite")
    check.add_argument("--scope", choices=SCOPES, default="all")
    check.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("quantity", choices=QUANTITIES)
    sub.add_argument(
        "--surface",
        required=True,
        metavar="DESC",
        help="surface descriptor: blp2:k=N or p1xp1",
    )
    sub.add_argument("--cache", metavar="PATH", help="genus-zero table cache file")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.add_argument(
        "--aut",
        type=int,
        default=2,
        help="order of the automorphism group of the fixed genus-two"
        " complex structure (even, default 2)",
    )


# ---------------------------------------------------------------------------
# Cache plumbing.


def _cache_path(args, surface: Surface) -> str | None:
    if args.cache:
        return args.cache
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    if not cache_dir:
        return None
    stem = re.sub(r"[^A-Za-z0-9]+", "-", surface.descriptor)
    return os.path.join(cache_dir, f"{stem}.json")


def _open_table(surface: Surface, path: str | None) -> GwTable:
    if path and os.path.exists(path):
        try:
            return load_cache(path)
        except CacheFormatError as exc:
            print(f"warning: ignoring unreadable cache {path}: {exc}", file=sys.stderr)
        # SurfaceMismatch is NOT swallowed: the file is valid data for some
        # other surface, and rewriting it would destroy it.
    return GwTable(surface=surface)


def _save_table(table: GwTable, path: str | None) -> None:
    if path is None:
        return
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        save_cache(table, path)
    except OSError as exc:
        print(f"warning: cache {path} not written: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Output.


def _emit_records(records: list[OutputRecord], fmt: str, single: bool) -> None:
    if fmt == "json":
        if single and len(records) == 1:
            payload = records[0].to_json_dict()
        else:
            payload = [record.to_json_dict() for record in records]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record.to_csv_row())
        sys.stdout.write(buffer.getvalue())
        return
    # text
    for record in records:
        for warning in record.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if single and len(records) == 1:
        print(to_decimal_string(records[0].value))
    elif single:
        for record in records:
            print(f"{record.quantity} = {to_decimal_string(record.value)}")
    else:
        # A quantity column only where the records carry several names.
        named = len({record.quantity for record in records}) > 1
        width = max((len(",".join(map(str, r.class_vector))) for r in records), default=5)
        name_width = max((len(r.quantity) for r in records), default=0)
        print(f"{'class':{width}}  " + (f"{'quantity':{name_width}}  " if named else "") + "value")
        for record in records:
            vector = ",".join(str(c) for c in record.class_vector)
            name = f"{record.quantity:{name_width}}  " if named else ""
            print(f"{vector:{width}}  {name}{to_decimal_string(record.value)}")


def _elapsed_ms(start_ns: int) -> str:
    return str((time.monotonic_ns() - start_ns) // 1_000_000)


# ---------------------------------------------------------------------------
# Subcommands.


def _parse_inputs(args, *, with_class: bool):
    """Surface/class parsing; failures here are usage errors, not math."""
    try:
        surface = Surface.parse(args.surface)
        if not with_class:
            return surface, None
        beta = CurveClass.parse(args.class_vector)
        surface.check_class(beta)
        return surface, beta
    except DelPezzoError as exc:
        raise _UsageError(str(exc)) from None


def _check_aut_usage(aut: int) -> None:
    if aut < 2 or aut % 2 != 0:
        raise _UsageError(f"--aut must be a positive even integer, got {aut}")


def _records(surface, beta, table, quantity: str, aut: int) -> list[OutputRecord]:
    """One quantity of one class: one record, or six for ``reconcile``."""
    start = time.monotonic_ns()
    # The layer functions are looked up when called, so a caller that
    # replaces this module's names (a tracer, a test) is honoured.
    compute = {
        "genus0": lambda: n0(surface, beta, table),
        "genus2": lambda: n2j_main(surface, beta, table, aut),
        "rt2": lambda: rt2(surface, beta, table),
        "cusp": lambda: cusp_count(surface, beta, table),
        "v2": lambda: two_component_count(surface, beta, table),
        "taut": lambda: taut_intersection(surface, beta, table),
        "reconcile": lambda: reconcile(surface, beta, table, aut),
    }[quantity]
    result = compute()
    if quantity == "reconcile":
        named = [
            ("reconcile.rt2", result.rt2),
            ("reconcile.crLemma", result.cr_lemma),
            ("reconcile.crProof", result.cr_proof),
            ("reconcile.autTimesN2j", result.aut_n2j),
            ("reconcile.residualLemma", result.residual_lemma),
            ("reconcile.residualProof", result.residual_proof),
        ]
    else:
        named = [(quantity, result)]
    warnings: tuple[str, ...] = ()
    if quantity in ("genus2", "reconcile"):
        warnings = tuple(applicability_warnings(surface, beta, table))
    elapsed = _elapsed_ms(start)
    return [
        OutputRecord(
            surface=surface.descriptor,
            class_vector=beta.coeffs,
            quantity=name,
            value=value,
            warnings=warnings if index == 0 else (),
            time_ms=elapsed,
        )
        for index, (name, value) in enumerate(named)
    ]


def _cmd_count(args) -> int:
    surface, beta = _parse_inputs(args, with_class=True)
    _check_aut_usage(args.aut)
    path = _cache_path(args, surface)
    table = _open_table(surface, path)
    records = _records(surface, beta, table, args.quantity, args.aut)
    _save_table(table, path)
    _emit_records(records, args.format, single=True)
    return 0


def _cmd_table(args) -> int:
    surface, _ = _parse_inputs(args, with_class=False)
    if args.max_anticanonical < 1:
        raise _UsageError(
            f"--max-anticanonical must be at least 1, got {args.max_anticanonical}"
        )
    _check_aut_usage(args.aut)
    path = _cache_path(args, surface)
    table = _open_table(surface, path)
    records = []
    for beta, _ in support_enumerate(surface, args.max_anticanonical, table):
        # Only the genus-zero count is defined without a point constraint.
        if args.quantity == "genus0" or surface.delta(beta) >= 1:
            records += _records(surface, beta, table, args.quantity, args.aut)
    _save_table(table, path)
    _emit_records(records, args.format, single=False)
    return 0


def _cmd_check(args) -> int:
    results = run_suite(args.scope)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in results], indent=2, sort_keys=True))
    else:
        print(render_text(results))
    if any(result.status == "fail" for result in results):
        return 3
    return 0


# 128 + SIGPIPE, the status of a filter whose reader closed the pipe.
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    # A full pass of the cyclic collector walks every tracked object, for
    # milliseconds, in whichever step crosses its count: held back while
    # the command runs, it is made at the end if it fell due.
    thresholds = gc.get_threshold()
    gc.set_threshold(*thresholds[:2], 1 << 30)
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        handlers = {"count": _cmd_count, "table": _cmd_table, "check": _cmd_check}
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early, as `| head` does: end quietly, like a
        # filter killed by SIGPIPE, and send the interpreter's last flush
        # of the unwritten output to /dev/null.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"delpezzo: error: {exc}", file=sys.stderr)
        return 1
    except DelPezzoError as exc:
        print(f"delpezzo: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(
            "delpezzo: error: the recursion for this class is nested too deeply"
            " for the interpreter's recursion limit",
            file=sys.stderr,
        )
        return 2
    finally:
        gc.set_threshold(*thresholds)
        if gc.isenabled() and thresholds[0] and gc.get_count()[2] > thresholds[2]:
            gc.collect()


if __name__ == "__main__":
    sys.exit(main())
