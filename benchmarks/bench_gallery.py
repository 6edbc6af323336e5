"""Fresh-process timings of the perfbench gallery builtins, two checkouts
side by side.

Each run is one `hopfmonad report <builtin>` in a new interpreter, timed
as perfbench times an operation: the wall time and the CPU time
(`time.process_time()`, every thread of the process) of `verify_model`
plus `Report.dumps` (interpreter start, imports and the load are left
out), at seed 0.  The child also counts its threads in /proc/self/task
(None where there is no such directory), so an idle BLAS thread that
burns CPU beside the verification shows.  The checkouts take turns,
builtin by builtin and run by run (which one goes first alternates too),
so a drift of the host's speed reaches both alike.  Each checkout runs
from its own `src/`.

Prints, per builtin, the label count of its base, the median wall and
CPU seconds of each checkout's runs with their ratios and the thread
counts; then the sums of the medians over the graded builtins (more than
one label: the two groupoid algebras), over the one-label ones and over
all.  `--only` restricts the builtins (say, to the graded ones, which are
measured first).  `--json PATH` appends the table to PATH with the date,
each checkout's commit (a trailing `+` when its `src/` has uncommitted
changes), the CPU count and the BLAS thread variables.

Usage:  python benchmarks/bench_gallery.py PARENT CHANGE [--runs 10]
            [--only disconnected_groupoid pair_groupoid]
            [--json BENCH_gallery.json --label NAME]
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# the builtins of the perfbench gallery workload, in its order
GALLERY = ("trivial", "kz2", "ks3", "ks3_f3", "sweedler", "taft3", "double_z2",
           "double_z2_f3", "disconnected_groupoid", "pair_groupoid")

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# one operation in a fresh interpreter: prints {"s": verify + dumps wall,
# "cpu_s": their CPU, "threads": the process's threads, "labels": L}
CHILD = """\
import contextlib, io, json, os, sys, time
from hopfmonad import cli
from hopfmonad.report import Report
spent = {"s": 0.0, "cpu_s": 0.0}
labels = {}

def timed(fn):
    def wrapper(*args, **kwargs):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent["s"] += time.perf_counter() - t0
            spent["cpu_s"] += time.process_time() - c0
    return wrapper

verify = cli.verify_model

def verify_model(model, *args, **kwargs):
    labels["n"] = model.t.base.nlabels
    return verify(model, *args, **kwargs)

cli.verify_model = timed(verify_model)
Report.dumps = timed(Report.dumps)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["report", sys.argv[1], "--seed", "0"])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps(dict(spent, threads=threads, labels=labels["n"])))
"""


def run_once(checkout: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, name], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def checkout_commit(root: Path) -> str:
    """The short HEAD of the checkout at root, with a trailing `+` when its
    src/ has uncommitted changes ("unknown" outside git)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "--short", "HEAD")
    if not head:
        return "unknown"
    return head + ("+" if git("status", "--porcelain", "--", "src") else "")


def append_run(path: str, run: dict) -> None:
    """Append one run to the {"runs": [...]} JSON file at path."""
    doc = {"runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].append(run)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--only", nargs="+", choices=GALLERY, default=GALLERY)
    parser.add_argument("--json", metavar="PATH")
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    sides = (args.parent.resolve(), args.change.resolve())
    results = {name: ([], []) for name in args.only}
    for run in range(args.runs):
        for name in args.only:
            order = (0, 1) if run % 2 == 0 else (1, 0)
            for side in order:
                results[name][side].append(run_once(sides[side], name))
    rows = []
    print(f"{'builtin':24s} {'labels':>6s} {'parent s':>9s} {'change s':>9s} {'ratio':>6s} "
          f"{'parent cpu':>10s} {'change cpu':>10s} {'ratio':>6s} {'threads':>7s}")
    for name in args.only:
        row = {"builtin": name, "labels": results[name][0][0]["labels"]}
        for side, runs in zip(("parent", "change"), results[name]):
            row[side + "_s"] = round(statistics.median(r["s"] for r in runs), 4)
            row[side + "_cpu_s"] = round(statistics.median(r["cpu_s"] for r in runs), 4)
            row[side + "_threads"] = runs[-1]["threads"]
        rows.append(row)
        threads = f"{row['parent_threads']}/{row['change_threads']}"
        print(f"{name:24s} {row['labels']:6d} {row['parent_s']:9.4f} {row['change_s']:9.4f} "
              f"{row['change_s'] / row['parent_s']:6.3f} {row['parent_cpu_s']:10.4f} "
              f"{row['change_cpu_s']:10.4f} {row['change_cpu_s'] / row['parent_cpu_s']:6.3f} "
              f"{threads:>7s}")
    sums = {}
    for group, keep in (("graded", lambda r: r["labels"] > 1),
                        ("one-label", lambda r: r["labels"] == 1), ("all", lambda r: True)):
        chosen = [r for r in rows if keep(r)]
        if chosen:
            total = {k: round(sum(r[k] for r in chosen), 4)
                     for k in ("parent_s", "change_s", "parent_cpu_s", "change_cpu_s")}
            sums[group] = total
            print(f"{'sum ' + group:24s} {'':6s} {total['parent_s']:9.4f} "
                  f"{total['change_s']:9.4f} {total['change_s'] / total['parent_s']:6.3f} "
                  f"{total['parent_cpu_s']:10.4f} {total['change_cpu_s']:10.4f} "
                  f"{total['change_cpu_s'] / total['parent_cpu_s']:6.3f}")
    if args.json:
        append_run(args.json, {
            "label": args.label,
            "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d %H:%M UTC"),
            "commits": {"parent": checkout_commit(sides[0]),
                        "change": checkout_commit(sides[1])},
            "cpus": os.cpu_count(),
            "blas_threads_env": {v: os.environ[v] for v in BLAS_THREAD_VARIABLES
                                 if v in os.environ},
            "runs": args.runs, "statistic": "median", "rows": rows, "sums": sums})


if __name__ == "__main__":
    main()
