"""End-to-end benchmark of hopfmonad verification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A closed loop with one client: each
operation is one `hopfmonad` CLI call in a fresh interpreter (worker.py), and
the next starts when it has ended.  A pass runs every operation of the
workload once; passes repeat until S seconds have passed.  The seed is
handed to the program as its `--seed`.  The time metrics are scaled to a
nominal host speed (see CAL_EXPONENT).  Every report is checked against
perfbench/digests.json (see judge).  The last line of stdout is the JSON
result; the full record, with the environment, goes to
perfbench/_work/results/.

--trace 1 alternates untraced and traced passes (at least one of each) and
reports the per-layer metrics of the traced ones; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
from tracing import SUITE_ORDER  # noqa: E402

# a run must end within 180 s; no operation or pass starts past this
HARD_LIMIT_S = 165.0
# an untraced run samples at least this many operation set-ups: set-up-only
# passes (interpreter start to loaded presentation) top up the measured ones,
# half before and half after them, because the set-up of one operation swings
# by a factor of about 1.5 within seconds on a shared host
SETUP_OPS = 12
# The speed of a shared host drifts by up to 1.8x within minutes, more than
# any bound allows.  Before each operation of an untraced run the benchmark
# times a fixed task (calibrate) CAL_SAMPLES times; host_speed is
# CAL_NOMINAL_S over the mean of those timings.  A workload's time metrics
# are scaled by host_speed ** CAL_EXPONENT[workload], so they read as seconds
# on a host where the task takes CAL_NOMINAL_S.  The exponent is how closely
# the workload's times follow the task's, fitted on sets of ten runs (see
# README.md): gallery follows it about half-way on a log scale; fp_qtri25,
# which is numpy-bound, follows it too little and too unevenly to scale.
CAL_SAMPLES = 3
CAL_NOMINAL_S = 0.015
CAL_EXPONENT = {"fp_qtri25": 0.0, "gallery": 0.5}

Q25 = "double_z5_f11"
Q25_FILE = WORK / f"{Q25}.json"
# D(Z5) over GF(11), 25-dimensional: above monad.CROSSCHECK_DIM = 16
Q25_BUILD = ("import json, sys\n"
             "from hopfmonad import zoo\n"
             "from hopfmonad.exactla import FieldSpec\n"
             "pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(5), "
             f"FieldSpec.prime(11), {Q25!r})\n"
             "with open(sys.argv[1], 'w') as fh:\n"
             "    json.dump(pres, fh, indent=2, sort_keys=True)\n")

GALLERY = ("trivial", "kz2", "ks3", "ks3_f3", "sweedler", "taft3", "double_z2",
           "double_z2_f3", "disconnected_groupoid", "pair_groupoid")


@dataclass(frozen=True)
class Op:
    name: str          # key in digests.json
    cli: tuple         # CLI arguments before --seed/--json


WORKLOADS = {
    # canonical-element inversion above CROSSCHECK_DIM: mod-p RREF plus matmul
    "fp_qtri25": (Op(Q25, ("verify", str(Q25_FILE.relative_to(ROOT)),
                           "--checks", "quasitriangular")),),
    # every small builtin: per-call plumbing, the graded backend, the Q lane
    "gallery": tuple(Op(n, ("report", n)) for n in GALLERY),
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "ok_ratio": "ratio"}
LAYER_UNITS = {"calls": "count", "items": "count", "entries": "count",
               "max_entries": "count", "max_out_entries": "count", "s": "s",
               "self_s": "s", "gflop": "GFLOP", "gflop_per_s": "GFLOP/s",
               "mb": "MB", "hit_ratio": "ratio", "overhead_ratio": "ratio"}
DERIVED = ("qtrib.drinfeld_element", "qtrib.drinfeld_inverse",
           "qtrib.star_inverse_of_r", "antipode.is_involutory",
           "antipode.square_of_antipode", "hopfstruct.gamma_family")
TIMED = ("modcat.module_hom_space", "hopfstruct.fundamental_iso",
         "hopfstruct.solve_integrals", "hopfstruct.maschke_verdict",
         "report.dumps")


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    return LAYER_UNITS[metric.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("HOPFMONAD_PURE_NUMPY", None)
    return env


def calibrate() -> float:
    """Seconds taken by a fixed dict-and-tuple loop, the kind of work the
    program's plumbing does."""
    t = time.perf_counter()
    acc: dict = {}
    for i in range(40000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i
    return time.perf_counter() - t


def run_op(op: Op, seed: int, deadline: float, trace: bool = False,
           setup_only: bool = False) -> dict:
    """Run one CLI call in a fresh interpreter and return its measurements."""
    sidecar = WORK / f"{op.name}.sidecar.json"
    spans = WORK / "spans" / f"{op.name}.json"
    sidecar.unlink(missing_ok=True)
    args = [sys.executable, str(HERE / "worker.py"), str(sidecar)]
    if setup_only:
        args.append("--setup-only")
    if trace:
        args += ["--spans", str(spans)]
    args += ["--", *op.cli, "--seed", str(seed), "--json"]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(args, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    t_exit = time.monotonic()
    res = {"op": op.name, "exit": proc.returncode, "report": out,
           "stderr_tail": err.decode(errors="replace")[-2000:],
           "timed_out": timed_out, "process_s": t_exit - t_spawn}
    if not sidecar.exists():
        res.update(error="no sidecar: the worker ended abnormally",
                   wall_s=t_exit - t_spawn, setup_s=0.0, cpu_s=0.0, rss_mb=0.0)
        return res
    side = json.loads(sidecar.read_text())
    marks = side["marks"]
    res.update(error=side["error"], env=side["env"],
               rss_mb=side["maxrss_kb"] / 1024.0,
               setup_s=marks.get("load_end", t_exit) - t_spawn,
               trace=side.get("trace"), cache=side.get("cache"))
    wall = cpu = 0.0
    for key in ("verify", "dumps"):
        if key + "_start" in marks:
            wall += marks[key + "_end"] - marks[key + "_start"]
            cpu += marks[key + "_cpu_end"] - marks[key + "_cpu_start"]
    res.update(wall_s=wall, cpu_s=cpu)
    return res


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(doc: dict) -> bytes:
    """A report as `hopfmonad ... --json` prints it (Report.dumps, newline)."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def compare_at_counts(trace: dict) -> dict:
    """The checks and simple tuples `monad.compare_at` saw in a traced op."""
    measured = trace["run"]
    return {"calls": measured["totals"].get("monad.compare_at", {}).get("calls", 0),
            "items": measured["counters"].get("monad.compare_at.items", 0)}


def judge(res: dict, seed: int, expected: dict) -> str | None:
    """None when the operation is correct, else why it failed.

    The report must carry `seed` as its `info.seed`, be in the CLI's JSON
    form byte for byte, and, with its `info.seed` set to 0, have the sha256
    recorded for the operation.  A traced operation must also have made the
    recorded number of `compare_at` calls and items.  A verdict-only entry
    (`fails`) needs its exit code and those failing checks.

    A failure whose reason starts with "mismatch" produced a wrong report;
    the others (raised, abnormal exit, no report) produced none.
    """
    if res["timed_out"]:
        return "timed out"
    if res["error"]:
        return f"raised {res['error']}"
    if not res["report"]:
        return f"exit {res['exit']} without a report"
    if res["exit"] != expected["exit"]:
        return f"mismatch: exit {res['exit']}, expected {expected['exit']}"
    try:
        doc = json.loads(res["report"])
        failed = {c.get("check") for c in doc["checks"] if c.get("status") == "fail"}
        got_seed = doc.get("info", {}).get("seed")
    except (ValueError, KeyError, TypeError, AttributeError):
        return "mismatch: report is not a JSON report"
    if "fails" in expected:
        missing = [c for c in expected["fails"] if c not in failed]
        return f"mismatch: report does not fail {missing}" if missing else None
    if got_seed != seed:
        return f"mismatch: report carries seed {got_seed!r}, not {seed}"
    if canonical(doc) != res["report"]:
        return "mismatch: report is not in the CLI's JSON form"
    doc["info"]["seed"] = 0
    if sha256(canonical(doc)) != expected["sha256"]:
        return "mismatch: report (seed field set to 0) differs from the recorded one"
    if res.get("trace"):
        counts = compare_at_counts(res["trace"])
        if counts != expected["compare_at"]:
            return (f"mismatch: compare_at made {counts}, "
                    f"recorded {expected['compare_at']}")
    return None


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------


def run_pass(ops, seed: int, deadline: float, trace: bool = False,
             setup_only: bool = False, calibrated: bool = False) -> dict:
    results, calibration = [], []
    for op in ops:
        if calibrated:
            calibration += [calibrate() for _ in range(CAL_SAMPLES)]
        results.append(run_op(op, seed, deadline, trace, setup_only))
    return {"traced": trace, "ops": results,
            "wall_s": sum(r["wall_s"] for r in results),
            "setup_s": sum(r["setup_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "process_s": sum(r["process_s"] for r in results),
            "calibration_s": calibration}


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (sums over its operations)."""
    # the "run" phase spans verify_model and Report.dumps, the window of
    # wall_s; only presentation.load.s is taken from the "setup" phase
    totals = {"setup": {}, "run": {}}
    counters, maxima = {}, {}
    hits = lookups = entries = 0
    for r in results:
        tr = r.get("trace") or {}
        for phase, acc_phase in totals.items():
            for name, t in tr.get(phase, {}).get("totals", {}).items():
                acc = acc_phase.setdefault(
                    name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for k in acc:
                    acc[k] += t[k]
        run_phase = tr.get("run", {})
        for name, v in run_phase.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + v
        for name, v in run_phase.get("maxima", {}).items():
            maxima[name] = max(maxima.get(name, 0), v)
        c = r.get("cache") or {"hits": 0, "misses": 0, "entries": 0}
        hits += c["hits"]
        lookups += c["hits"] + c["misses"]
        entries += c["entries"]

    def tot(name, key, phase="run"):
        return totals[phase].get(name, {}).get(key, 0)

    m = {}
    for kind in ("Fp", "Q"):
        mm, rr = f"exactla.matmul.{kind}", f"exactla.rref.{kind}"
        m[f"{mm}.calls"], m[f"{mm}.s"] = tot(mm, "calls"), tot(mm, "s")
        m[f"{mm}.gflop"] = counters.get(f"{mm}.flop", 0) / 1e9
        m[f"{rr}.calls"], m[f"{rr}.s"] = tot(rr, "calls"), tot(rr, "s")
    fp = "exactla.matmul.Fp"
    m[f"{fp}.gflop_per_s"] = m[f"{fp}.gflop"] / m[f"{fp}.s"] if m[f"{fp}.s"] else 0.0
    m[f"{fp}.mb"] = counters.get(f"{fp}.bytes", 0) / 1e6
    m["exactla.rref.Fp.max_entries"] = maxima.get("exactla.rref.Fp.max_entries", 0)
    for name in ("exactla.solve_affine",) + DERIVED:
        m[f"{name}.calls"], m[f"{name}.s"] = tot(name, "calls"), tot(name, "s")
    m["chain.eval.calls"] = tot("chain.eval", "calls")
    m["chain.eval.self_s"] = tot("chain.eval", "self_s")
    m["chain.eval.max_out_entries"] = maxima.get("chain.eval.max_out_entries", 0)
    m["cat.compose.calls"] = tot("cat.compose", "calls")
    m["cat.compose.self_s"] = tot("cat.compose", "self_s")
    m["cat.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["cat.cache.entries"] = entries
    m["monad.compare_at.calls"] = tot("monad.compare_at", "calls")
    m["monad.compare_at.items"] = counters.get("monad.compare_at.items", 0)
    m["monad.compare_at.self_s"] = tot("monad.compare_at", "self_s")
    for suite in SUITE_ORDER:
        m[f"verify.suite.{suite}.s"] = tot(f"verify.suite.{suite}", "s")
    for name in TIMED:
        m[f"{name}.s"] = tot(name, "s")
    m["presentation.load.s"] = tot("presentation.load", "s", phase="setup")
    return m


def per_layer_names() -> list[str]:
    return list(layer_metrics([])) + ["trace.overhead_ratio"]


def _median(values):
    return statistics.median(values) if values else 0.0


def environment(seed: int, first_op: dict | None) -> dict:
    src = ROOT / "src" / "hopfmonad"
    h = hashlib.sha256()
    for f in sorted(src.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": commit, "source_sha256": h.hexdigest(),
            "program": (first_op or {}).get("env")}


def prepare(workload: str, deadline: float) -> None:
    WORK.mkdir(exist_ok=True)
    (WORK / "spans").mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    if workload == "fp_qtri25":
        subprocess.run([sys.executable, "-c", Q25_BUILD, str(Q25_FILE)], cwd=ROOT,
                       env=_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    ops = WORKLOADS[workload]
    expected = json.loads(DIGESTS.read_text())["ops"]
    prepare(workload, deadline)

    setup_target = 0 if trace else -(-SETUP_OPS // len(ops))
    cal = not trace
    setup_passes = [run_pass(ops, seed, deadline, setup_only=True, calibrated=cal)
                    for _ in range((setup_target - 1) // 2)]
    passes = []
    t_measure = time.monotonic()
    while True:
        # a traced run alternates, starting untraced, so both kinds are measured
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(ops, seed, deadline, traced, calibrated=cal))
        now = time.monotonic()
        est = max(p["process_s"] for p in passes)
        both = len({p["traced"] for p in passes}) == 2
        if ((both or not trace)
                and (now - t_measure >= seconds or now + est > deadline)):
            break
    setups = [p["setup_s"] for p in setup_passes + passes if not p["traced"]]
    while (len(setups) < setup_target
           and time.monotonic() + passes[0]["process_s"] < deadline):
        setup_passes.append(run_pass(ops, seed, deadline, setup_only=True,
                                     calibrated=cal))
        setups.append(setup_passes[-1]["setup_s"])
    calibration = [c for p in setup_passes + passes for c in p["calibration_s"]]
    host_speed = CAL_NOMINAL_S / statistics.fmean(calibration) if cal else 1.0
    scale = host_speed ** CAL_EXPONENT[workload]

    failures, mismatch = [], False
    for op in ops:
        first = None
        for k, p in enumerate(passes):
            res = next(r for r in p["ops"] if r["op"] == op.name)
            why = judge(res, seed, expected[op.name])
            # a verdict-only entry has no digest: hold every pass, traced or
            # not, to the first pass that passed
            if why is None and "fails" in expected[op.name]:
                first = first or res["report"]
                if res["report"] != first:
                    why = "mismatch: report differs from an earlier pass"
            if why is not None:
                failures.append({"op": op.name, "pass": k, "why": why,
                                 "stderr_tail": res["stderr_tail"]})
                mismatch = mismatch or why.startswith("mismatch")

    attempted = sum(len(p["ops"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        per_pass = [layer_metrics(p["ops"]) for p in traced]
        metrics = {k: _median([pp[k] for pp in per_pass]) for k in per_pass[0]}
        metrics["trace.overhead_ratio"] = (_median([p["wall_s"] for p in traced])
                                           / _median([p["wall_s"] for p in plain]))
        raw = {}
    else:
        raw = {k: _median([p[k] for p in plain]) for k in ("wall_s", "cpu_s")}
        raw["setup_s"] = _median(setups)
        metrics = {k: v * scale for k, v in raw.items()}
        metrics["peak_rss_mb"] = _median([p["peak_rss_mb"] for p in plain])
        metrics["ok_ratio"] = (attempted - len(failures)) / attempted
    record = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "environment": environment(seed, passes[0]["ops"][0]),
        "host_speed": host_speed, "calibration_samples": len(calibration),
        "scale": scale, "unscaled": raw,
        "passes": [{k: v for k, v in p.items() if k not in ("ops", "calibration_s")}
                   | {"ops": [{k: r[k] for k in ("op", "exit", "wall_s", "setup_s",
                                                 "cpu_s", "rss_mb")}
                              for r in p["ops"]]} for p in passes],
        "setup_samples": setups if not trace else None,
        "failures": failures,
        "correct": not mismatch, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    out = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return record


def summary_lines(rec: dict) -> list[str]:
    plain = [p for p in rec["passes"] if not p["traced"]]
    lines = [f"workload {rec['workload']}: {len(rec['passes'])} pass(es), "
             f"{rec['attempted']} operation(s), {rec['failed']} failed, "
             f"correct={rec['correct']}",
             f"  fail_ratio {rec['failed']}/{rec['attempted']} = "
             f"{rec['failed'] / rec['attempted']:.4f}"]
    for name, m in rec["metrics"].items():
        how = ""
        if name in ("wall_s", "cpu_s", "peak_rss_mb"):
            how = f"  (median of {len(plain)} pass(es))"
        elif name == "setup_s":
            how = f"  (median of {len(rec['setup_samples'])} set-ups)"
        if name in rec["unscaled"]:
            how += f", {rec['unscaled'][name]:.6g} {m['unit']} unscaled"
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}{how}")
    if rec["calibration_samples"]:
        lines.append(f"  times scaled by {rec['scale']:.4f} = host speed "
                     f"{rec['host_speed']:.4f} ** {CAL_EXPONENT[rec['workload']]}; host "
                     f"speed is {CAL_NOMINAL_S} s over the mean of "
                     f"{rec['calibration_samples']} calibration timings")
    for f in rec["failures"]:
        lines.append(f"  FAILED {f['op']} (pass {f['pass']}): {f['why']}")
    lines.append("environment: " + json.dumps(rec["environment"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hopfmonad" / "cli.py").is_file():
        print(f"perfbench: no hopfmonad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(rec)))
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
