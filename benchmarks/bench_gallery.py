"""Fresh-process timings of the perfbench gallery builtins, two checkouts
side by side.

Each run is one `hopfmonad report <builtin>` in a new interpreter, timed
as perfbench times an operation: the wall time of `verify_model` plus
`Report.dumps` (interpreter start, imports and the load are left out), at
seed 0.  The checkouts take turns, builtin by builtin and run by run
(which one goes first alternates too), so a drift of the host's speed
reaches both alike.  Each checkout runs from its own `src/`.

Prints, per builtin, the label count of its base, the median of each
checkout's runs and their ratio; then the sums of the medians over the
graded builtins (more than one label: the two groupoid algebras), over
the one-label ones and over all.  `--only` restricts the builtins (say,
to the graded ones, which are measured first).

Usage:  python benchmarks/bench_gallery.py PARENT CHANGE [--runs 10]
            [--only disconnected_groupoid pair_groupoid]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# the builtins of the perfbench gallery workload, in its order
GALLERY = ("trivial", "kz2", "ks3", "ks3_f3", "sweedler", "taft3", "double_z2",
           "double_z2_f3", "disconnected_groupoid", "pair_groupoid")

# one operation in a fresh interpreter: prints {"s": verify + dumps, "labels": L}
CHILD = """\
import contextlib, io, json, sys, time
from hopfmonad import cli
from hopfmonad.report import Report
spent = {"s": 0.0}
labels = {}

def timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent["s"] += time.perf_counter() - t0
    return wrapper

verify = cli.verify_model

def verify_model(model, *args, **kwargs):
    labels["n"] = model.t.base.nlabels
    return verify(model, *args, **kwargs)

cli.verify_model = timed(verify_model)
Report.dumps = timed(Report.dumps)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["report", sys.argv[1], "--seed", "0"])
print(json.dumps({"s": spent["s"], "labels": labels["n"]}))
"""


def run_once(checkout: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, name], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--only", nargs="+", choices=GALLERY, default=GALLERY)
    args = parser.parse_args()
    sides = (args.parent.resolve(), args.change.resolve())
    times = {name: ([], []) for name in args.only}
    labels = {}
    for run in range(args.runs):
        for name in args.only:
            order = (0, 1) if run % 2 == 0 else (1, 0)
            for side in order:
                res = run_once(sides[side], name)
                times[name][side].append(res["s"])
                labels[name] = res["labels"]
    rows = []
    print(f"{'builtin':24s} {'labels':>6s} {'parent s':>9s} {'change s':>9s} {'ratio':>6s}")
    for name in args.only:
        parent, change = (statistics.median(t) for t in times[name])
        rows.append({"builtin": name, "labels": labels[name], "parent_s": round(parent, 4),
                     "change_s": round(change, 4)})
        print(f"{name:24s} {labels[name]:6d} {parent:9.4f} {change:9.4f} {change / parent:6.3f}")
    for group, keep in (("graded", lambda r: r["labels"] > 1),
                        ("one-label", lambda r: r["labels"] == 1), ("all", lambda r: True)):
        chosen = [r for r in rows if keep(r)]
        if chosen:
            parent = sum(r["parent_s"] for r in chosen)
            change = sum(r["change_s"] for r in chosen)
            print(f"{'sum ' + group:24s} {'':6s} {parent:9.4f} {change:9.4f} "
                  f"{change / parent:6.3f}")


if __name__ == "__main__":
    main()
