"""Write perfbench/digests.json: the expected report of every operation.

    python3 perfbench/make_digests.py

Runs every benchmark operation untraced at seed 0 and traced at seed 1. For
each it records the exit code, the sha256 of the seed-0 report and the
number of `compare_at` calls and items of the traced run; the traced seed-1
report must then pass the benchmark's own check against that entry.  Run it
only at a commit whose reports are known good: the benchmark treats any
other report as wrong.  `pair_groupoid` is recorded by verdict (exit 1 and
the failing checks the README names), because the commit that made this
table had no report for it.
"""

from __future__ import annotations

import json
import sys
import time

import run

VERDICT_ONLY = {"pair_groupoid": {"exit": 1, "fails": ["comonoidal.counit_left",
                                                        "bimonad.counit_mult"]}}


def record(op: run.Op) -> dict:
    plain = run.run_op(op, 0, time.monotonic() + 900)
    if plain["error"] or not plain["report"]:
        sys.exit(f"{op.name}: no report ({plain['error']})")
    if run.canonical(json.loads(plain["report"])) != plain["report"]:
        sys.exit(f"{op.name}: the report is not in the CLI's JSON form")
    entry = {"exit": plain["exit"], "sha256": run.sha256(plain["report"])}
    traced = run.run_op(op, 1, time.monotonic() + 900, trace=True)
    if traced["trace"] is None:
        sys.exit(f"{op.name}: the traced run made no trace ({traced['error']})")
    entry["compare_at"] = run.compare_at_counts(traced["trace"])
    why = run.judge(traced, 1, entry)
    if why is not None:
        sys.exit(f"{op.name}: traced seed-1 run: {why}")
    print(f"{op.name}: {plain['wall_s']:.2f} s, {traced['wall_s']:.2f} s traced",
          flush=True)
    return entry


def main() -> int:
    table = {}
    for workload, wl_ops in run.WORKLOADS.items():
        run.prepare(workload, time.monotonic() + run.HARD_LIMIT_S)
        for op in wl_ops:
            table[op.name] = VERDICT_ONLY.get(op.name) or record(op)
    doc = {"about": "Expected exit code, seed-0 report sha256 and compare_at "
                    "counts per operation; written by make_digests.py",
           "ops": table}
    run.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
