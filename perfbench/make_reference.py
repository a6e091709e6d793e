"""Record the expected outputs of every workload in ``reference.json``.

Run once, from the root of a checkout of the commit whose outputs are taken
as correct::

    python3 perfbench/make_reference.py

It computes the outputs through the same calls ``worker.py`` makes: the
support rows of every g0-ladder rung, the ``Genus2Report`` of every g2-sweep
class, the ``count --format json`` output (without ``timeMs``) of every
class any seed can draw in count-warm, and every ``check --scope all``
result.  Only digests are stored.  Every output must also agree with the
independent anchors in ``worker.py``; the script refuses to write otherwise.
The numbers must never change, so a later change that needs a new reference
has changed an answer.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from worker import (
    QUANTITIES,
    REFERENCE,
    ROOT,
    RUNGS,
    SWEEP,
    GwTable,
    Surface,
    anchor_agrees,
    build_caches,
    call_cli,
    class_key,
    count_output_digest,
    digest,
    genus2_report,
    query_argv,
    rows_digest,
    support_enumerate,
    support_pairs,
)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"make_reference.py: {what}; reference.json not written")


def ladder() -> dict:
    out = {}
    for name, desc, bound in RUNGS:
        surface = Surface.parse(desc)
        rows = support_enumerate(surface, bound, GwTable(surface=surface))
        require(all(anchor_agrees(desc, "genus0", beta.coeffs, value) for beta, value in rows),
                f"rung {name} disagrees with an anchor")
        out[name] = {"rows": len(rows), "digest": rows_digest(rows)}
        print(f"g0-ladder {name}: {len(rows)} rows", file=sys.stderr)
    return out


def sweep() -> dict:
    reports, pairs = {}, 0
    for desc, bound in SWEEP:
        surface = Surface.parse(desc)
        table = GwTable(surface=surface)
        for beta, _ in support_enumerate(surface, bound, table):
            if surface.delta(beta) < 1:
                continue
            report = genus2_report(surface, beta, table)
            require(anchor_agrees(desc, "genus2", beta.coeffs, report.n2j)
                    and anchor_agrees(desc, "cusp", beta.coeffs, report.cusp),
                    f"report {beta} on {desc} disagrees with an anchor")
            reports[class_key(desc, beta.coeffs)] = digest(report.to_json_dict())
            pairs += sum(1 for _ in support_pairs(surface, beta, table))
    print(f"g2-sweep: {len(reports)} classes, {pairs} pairs", file=sys.stderr)
    return {"reports": reports, "support_pairs_yielded": pairs}


def count_warm(scratch: str) -> dict:
    out = {}
    for desc, (path, pool) in build_caches(scratch).items():
        for degree in sorted(pool):
            for coeffs in pool[degree]:
                for quantity in QUANTITIES:
                    code, stdout, stderr = call_cli(query_argv(desc, quantity, coeffs, path))
                    require(code == 0, f"count {quantity} {coeffs} on {desc} exited {code}: {stderr}")
                    found, value = count_output_digest(stdout)
                    require(anchor_agrees(desc, quantity, coeffs, value),
                            f"count {quantity} {coeffs} on {desc} disagrees with an anchor")
                    out[f"{quantity}|{class_key(desc, coeffs)}"] = found
        print(f"count-warm {desc}: {len(out)} queries so far", file=sys.stderr)
    return out


def check_suite() -> dict:
    code, stdout, _ = call_cli(["check", "--scope", "all", "--format", "json"])
    require(code == 0, f"check --scope all exited {code}")
    return {"checks": {result["checkId"]: digest(result) for result in json.loads(stdout)}}


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench_tmp", "reference")
    os.makedirs(scratch, exist_ok=True)
    try:
        reference = {
            "g0-ladder": ladder(),
            "g2-sweep": sweep(),
            "count-warm": count_warm(scratch),
            "check-suite": check_suite(),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE, ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
