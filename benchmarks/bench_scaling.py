"""Time every suite of the Drinfeld doubles D(Z_n) and of double_s3_f7.

The models are D(Z_n) for n = 2 ... 12 (carrier dimension n^2) over GF(29),
GF(17) for n = 8, GF(19) for n = 9 and GF(23) for n = 10 and 11, built in
code by `zoo`, and the 36-dimensional double of S3 over GF(7).  Each model
runs in its own process, one after the other, so the peak resident set of
one model is not inherited by the next.  That process may map at most 4 GiB
(RLIMIT_AS), so a model that outgrows it ends in a recorded row, a
`ChainOverflow` or the error line of a `MemoryError`, and the host keeps
its memory.  In that process the presentation is built once and loaded
afresh for each timing:

- `load_s` is the seconds of the first load;
- every suite runs on a freshly loaded model (`all_s`), while each
  pairwise contraction of the one-label chain evaluator is watched for the
  largest intermediate it stores (`peak_entries`: the nonzeros of a sparse
  intermediate, all entries of a dense one); a `ChainOverflow` is recorded
  instead of a time;
- then each suite runs alone on a freshly loaded model (`suites`, seconds
  per suite);
- each of those times is the median of REPEAT timings, each on a model
  loaded afresh (the run records the count as `repeat`), since one timing
  of a fraction of a second moves by a fifth between runs of one commit;
- `calibration_s` is the best of three timings of the calibration loop of
  bench_kernels.py, taken in that process right after its timings: the
  host's load drifts during a run of several minutes, so two runs' rows
  compare by their ratio to their own calibrations;
- `maxrss_mb` is the process's peak resident set (`ru_maxrss`).

Rows are appended to the JSON file, never rewritten: each invocation adds
one run with its commit, a label, the date, the machine (CPU count, the
BLAS thread settings, the process's thread count and one calibration
taken before the first model) and the numpy version.  The commit is the
checkout's HEAD that holds the imported `hopfmonad`, with a trailing `+`
when its `src/` has uncommitted changes.

Usage:  python benchmarks/bench_scaling.py [--label NAME]
(from the root of a checkout, with its src/ on PYTHONPATH; the rows go to
BENCH_scaling.json in the working directory)
"""

import argparse
import datetime
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# hopfmonad before numpy: the package picks the BLAS thread count as numpy loads
import hopfmonad
from bench_gallery import append_run, checkout_commit
from bench_kernels import _best, _calibrate, _machine
from hopfmonad import chain, presentation, zoo
from hopfmonad.exactla import ChainOverflow, FieldSpec
from hopfmonad.verify import SUITES, verify_model

import numpy as np

PRIMES = {8: 17, 9: 19, 10: 23, 11: 23}
MODELS = [f"double_z{n}_f{PRIMES.get(n, 29)}" for n in range(2, 13)] + ["double_s3_f7"]
TIMEOUT_S = 1800
OUT = "BENCH_scaling.json"
REPEAT = 3


def _parse(name: str) -> tuple:
    """(group table, prime) of a model name double_<group>_f<p>."""
    group, p = name[len("double_"):].split("_f")
    table = zoo.symmetric3_table() if group == "s3" else zoo.cyclic_group_table(int(group[1:]))
    return table, int(p)


def _timed(pres, checks) -> float:
    """The median seconds of REPEAT runs of verify_model, each on a model
    freshly loaded from pres outside the timer."""
    times = []
    for _ in range(REPEAT):
        model = presentation.load(pres)
        t0 = time.perf_counter()
        verify_model(model, checks=checks, samples=1)
        times.append(time.perf_counter() - t0)
        del model
    return round(statistics.median(times), 3)


def _one(name: str) -> dict:
    """Measure one model in this process; the row, without the commit."""
    table, p = _parse(name)
    row = {"model": name, "dim": len(table) ** 2, "field": f"GF({p})"}
    pres = zoo.build_drinfeld_double_group(table, FieldSpec.prime(p), name)
    t0 = time.perf_counter()
    presentation.load(pres)
    row["load_s"] = round(time.perf_counter() - t0, 3)
    peak = {"entries": 0}
    plain = chain._contract

    def watched(field, x, y):
        out = plain(field, x, y)
        # a SparseTensor stores its nonzeros
        peak["entries"] = max(peak["entries"], getattr(out[0], "nnz", out[0].size))
        return out

    chain._contract = watched
    try:
        row["all_s"] = _timed(pres, SUITES)
    except ChainOverflow as e:
        row["all_s"] = f"ChainOverflow: {e}"
    chain._contract = plain
    row["peak_entries"] = peak["entries"]
    row["suites"] = {}
    for suite in SUITES:
        try:
            row["suites"][suite] = _timed(pres, (suite,))
        except ChainOverflow as e:
            row["suites"][suite] = f"ChainOverflow: {e}"
    row["calibration_s"] = round(_best(_calibrate), 6)
    row["maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return row


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", default="")
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
        print(json.dumps(_one(args.one)))
        return

    commit = checkout_commit(Path(hopfmonad.__file__).resolve().parents[2])
    rows = []
    for name in MODELS:
        try:
            proc = subprocess.run([sys.executable, __file__, "--one", name],
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
            row = json.loads(proc.stdout) if proc.returncode == 0 else \
                {"model": name, "error": proc.stderr.strip().splitlines()[-1:]}
        except subprocess.TimeoutExpired:
            row = {"model": name, "error": f"timeout after {TIMEOUT_S} s"}
        row["commit"] = commit
        print(json.dumps(row), flush=True)
        rows.append(row)

    append_run(OUT, {
        "label": args.label, "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d %H:%M UTC"),
        "machine": _machine(), "numpy": np.__version__, "repeat": f"median of {REPEAT}",
        "rows": rows})


if __name__ == "__main__":
    main()
