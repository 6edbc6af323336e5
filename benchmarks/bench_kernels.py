"""Time the kernels behind FieldSpec.matmul and FieldSpec.rref.

Prints one table:
- dense mod-p matrix product and mod-p reduced row echelon form of random
  n x n matrices at p = 7919;
- the sparse traffic of the quasitriangular suite on the 25-dim Drinfeld
  double of Z5 over GF(11): a (25x625)@(625x15625) product at the
  densities measured there (0.008 and 0.0003; the density column shows
  the right factor's);
- `qtrib.drinfeld_inverse` on the 25-dim double of Z5 over GF(11) and the
  36-dim double of S3 over GF(7), with R⁻¹ built outside the timer;
- the three costliest rational product shapes of the ks3 report, at the
  densities measured there (left/right factor), with small rationals over
  the denominators seen there, and the rational row reduction of ks3's
  `decomp.kernel_match` probe (the 432x72 matrix whose kernel
  fundamental_iso compares with the unit's image, for a randomized
  induced Hopf module);
- `presentation.load` of the 25-dim double of Z5 over GF(11) and over Q,
  the 36-dim double of S3 over GF(7) and the 49-dim double of Z7 over
  GF(29), each presentation read back from its JSON text, as the CLI
  reads a file;
- the one-label chain evaluator's fixed cost, per call: a one-step
  chain (the unit inserted beside T(S), S the last simple) and a two-step
  one (the unit, then the product) on kz2 and ks3_f3, each chain built
  once and evaluated many times, and one 4 x 4 contraction over Q and over
  GF(7919) (`FieldSpec.tensordot`);
- the graded layer's fixed cost, per call on fresh words (every word's
  memo and every atom's flattening tables emptied before each call,
  outside the timer): the split positions
  of one whiskered step and the extension of the comonoidal family t2 to
  the pair (A, A), both on the two-label disconnected_groupoid;
- end-to-end verifications: ks3, the 4-dim double of Z2 and the 4-dim
  Sweedler algebra over Q against GF(3) and GF(1048573), the rational
  lane's ratios; then every suite of each of the ten small builtins of
  the perfbench `gallery` workload (the two groupoid algebras among them
  run on the two-label graded backend); then the long one-label chains:
  the quasitriangular suite of the 25-dim double of Z5 over GF(11), and
  every suite of the 36-dim double of S3 over GF(7) and of the 49-dim
  double of Z7 over GF(29).

Each time is the best of three runs.  A verification loads a fresh model
for each run, outside the timer, and collects the previous one first: the
words and the family steps a model builds are kept while it lives, so a
second run on the same model would time less work than any CLI call
does.  The header line gives the CPU count, the BLAS thread settings
and the process's thread count, which move the GF(p) rows.  Right after
each row is timed, the best of three timings of a fixed pure-Python loop
is taken and printed beside it (`calibration_s`): the host's load drifts
during a run, so two runs' rows compare by their ratio to their own
calibrations.  With --json PATH the rows are also written to PATH, with
the machine (those settings included), the numpy version and the seed,
under the column --column, each row's calibration under
<column>_calibration_s; a column already in PATH is replaced and the
other columns are kept, so two runs (say, of two commits, by pointing
PYTHONPATH at each one's src/) fill one file side by side.

Usage:  python benchmarks/bench_kernels.py [--sizes 128 256 512]
            [--json BENCH_kernels.json --column change]
"""

import argparse
import gc
import inspect
import json
import os
import platform
import random
import time
from fractions import Fraction

from bench_gallery import BLAS_THREAD_VARIABLES
# hopfmonad before numpy: the package picks the BLAS thread count as numpy loads
from hopfmonad import cat, chain, hopfstruct, presentation, qtrib, zoo
from hopfmonad.chain import Chain
from hopfmonad.cli import EXAMPLES
from hopfmonad.exactla import FieldSpec
from hopfmonad.verify import SUITES, verify_model

import numpy as np

# (rows, inner, cols, density of a, density of b) of the ks3 report
KS3_Q_SHAPES = [(36, 6, 1296, 0.84, 0.14), (216, 36, 36, 0.14, 0.14),
                (12, 72, 2592, 0.083, 0.0015)]
KS3_DENOMINATORS = [1, 7, 21, 31, 63, 217]
# the builtins of the perfbench gallery workload, in its order
GALLERY = ("trivial", "kz2", "ks3", "ks3_f3", "sweedler", "taft3", "double_z2",
           "double_z2_f3", "disconnected_groupoid", "pair_groupoid")
REPEAT = 3
SEED = 0


def _best(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _sparse(rng, shape, density, p) -> np.ndarray:
    m = np.zeros(shape, dtype=np.int64)
    n = max(1, round(density * m.size))
    m.flat[rng.choice(m.size, n, replace=False)] = rng.integers(1, p, n)
    return m


def _sparse_q(rng, shape, density):
    size = shape[0] * shape[1]
    n = max(1, round(density * size))
    nums = rng.integers(1, 100, n) * rng.choice([-1, 1], n)
    dens = rng.choice(KS3_DENOMINATORS, n)
    flat = [Fraction(0)] * size
    for k, x, d in zip(rng.choice(size, n, replace=False), nums, dens):
        flat[k] = Fraction(int(x), int(d))
    return FieldSpec.rationals().asarray(
        [flat[i * shape[1]:(i + 1) * shape[1]] for i in range(shape[0])])


def _ks3_probe():
    """The matrix of ks3's decomp.kernel_match probe: the largest one
    fundamental_iso hands to `kernel`, for an induced Hopf module built from
    a randomized comodule (seed SEED)."""
    model = presentation.load(zoo.build_group_algebra(
        zoo.symmetric3_table(), FieldSpec.rationals(), "ks3"))
    t = model.t
    car, rho = hopfstruct.random_comodule(t, model.grouplikes, random.Random(SEED), 2)
    h = hopfstruct.induced_hopf_module(t, car, rho)
    seen = []
    kernel = hopfstruct.kernel

    def recording(spec, a):
        seen.append(a)
        return kernel(spec, a)

    hopfstruct.kernel = recording
    try:
        hopfstruct.fundamental_iso(t, hopfstruct.gamma_family(t, model.antipode), h)
    finally:
        hopfstruct.kernel = kernel
    return max(seen, key=lambda a: a.size)


def _builder(name, field):
    return {
        "sweedler": lambda: zoo.build_sweedler(field, name),
        "double_z5_f11": lambda: zoo.build_drinfeld_double_group(
            zoo.cyclic_group_table(5), field, name),
        "double_s3_f7": lambda: zoo.build_drinfeld_double_group(
            zoo.symmetric3_table(), field, name),
        "double_z7_f29": lambda: zoo.build_drinfeld_double_group(
            zoo.cyclic_group_table(7), field, name),
        "ks3": lambda: zoo.build_group_algebra(zoo.symmetric3_table(), field, name),
        "double_z2": lambda: zoo.build_drinfeld_double_group(
            zoo.cyclic_group_table(2), field, name),
    }[name]


def _verify(build, checks=SUITES) -> float:
    """Best of REPEAT timings of verify_model, each on a model just loaded
    from build() outside the timer, after the previous one is collected."""
    best = float("inf")
    for _ in range(REPEAT):
        gc.collect()
        model = presentation.load(build())
        t0 = time.perf_counter()
        verify_model(model, checks=checks, samples=1)
        best = min(best, time.perf_counter() - t0)
        del model
    return best


def _drinfeld_inverse(build) -> float:
    """Best of REPEAT timings of qtrib.drinfeld_inverse on one model loaded
    from build(), with R⁻¹ built outside the timer (the model keeps the
    words and steps the first call builds, so this is a repeated call).

    Until u⁻¹ was built through R⁻¹ the function took R itself, as a
    parameter named `r`; it is handed what its signature names, so one
    script times the commits on either side of that change."""
    model = presentation.load(build())
    t, a, r = model.t, model.antipode, model.rmatrix
    takes_r_inv = "r_inv" in inspect.signature(qtrib.drinfeld_inverse).parameters
    return _best(qtrib.drinfeld_inverse, t, a,
                 qtrib.star_inverse_of_r(t, a, r) if takes_r_inv else r)


def _load(build) -> float:
    """Best of REPEAT timings of presentation.load, each on a presentation
    decoded afresh, outside the timer, from the JSON text of build()."""
    text = json.dumps(build())
    best = float("inf")
    for _ in range(REPEAT):
        pres = json.loads(text)
        t0 = time.perf_counter()
        presentation.load(pres)
        best = min(best, time.perf_counter() - t0)
    return best


def _per_call(fn, calls: int = 2000) -> float:
    """Best of REPEAT mean times of `calls` calls of fn()."""
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def _chain_rows(row) -> None:
    """The per-call rows of the one-label chain evaluator."""
    for name in ("kz2", "ks3_f3"):
        t = presentation.load(EXAMPLES[name]()).t
        ts = t.on_obj(t.simple(t.simples()[-1]))
        one = Chain(ts).then(t.u, at=0)
        two = Chain(ts).then(t.u, at=0).then(t.m, at=0)
        row(f"chain eval one step {name}", "per call", _per_call(one.eval))
        row(f"chain eval two steps {name}", "per call", _per_call(two.eval))
    rng = np.random.default_rng(SEED)
    for field in (FieldSpec.rationals(), FieldSpec.prime(7919)):
        top = 5 if field.is_rationals else field.p
        a, b = (field.asarray(rng.integers(0, top, size=(4, 4)).tolist()) for _ in range(2))
        if field.is_rationals:
            a = a * Fraction(1, 3)
        row(f"tensordot 4x4 ({field.describe()})", "per call",
            _per_call(lambda: field.tensordot(a, b, ([1], [0]))))


def _per_fresh_call(fn, calls: int = 300) -> float:
    """Best of REPEAT mean times of fn(), each call on fresh words: before
    it, outside the timer, the memo of every live word and the flattening
    tables of every live atom are emptied, so nothing derived from a word
    (paths, offsets, positions) or an atom is kept, as for words a process
    meets for the first time."""
    best = float("inf")
    for _ in range(REPEAT):
        spent = 0.0
        for _ in range(calls):
            for word in list(cat._WORDS.values()):
                word._memo.clear()
            for atom in list(cat._ATOMS.values()):
                object.__setattr__(atom, "_cells", None)
            t0 = time.perf_counter()
            fn()
            spent += time.perf_counter() - t0
        best = min(best, spent / calls)
    return best


def _graded_rows(row) -> None:
    """The per-call rows of the graded layer on disconnected_groupoid, on
    fresh words: the split positions of id_A ⊗ (A ⊗ A) ⊗ id_S at the first
    grade of A ⊗ A ⊗ A ⊗ S (S the first simple), and the extension of the
    comonoidal family t2 to the arguments (A, A)."""
    t = presentation.load(EXAMPLES["disconnected_groupoid"]()).t
    a, s = t.carrier, t.simple(t.simples()[0])
    aa = a.tensor(a)
    i, l = a.tensor(aa).tensor(s).grades()[0]
    split = chain._split_positions.__wrapped__
    after = tuple(s.count(k, l) for k in range(t.base.nlabels))
    row("graded split positions disconnected_groupoid", "per call",
        _per_fresh_call(lambda: split(a, aa, i, after)))
    row("graded extend t2 at (A, A) disconnected_groupoid", "per call",
        _per_fresh_call(lambda: chain.extend(t.t2.src, t.t2.dst, (a, a), t.t2.comps)))


def _calibrate() -> None:
    """A fixed dict-and-tuple loop, the kind of work the plumbing does."""
    acc: dict = {}
    for i in range(40000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i


def _machine() -> dict:
    machine = {"platform": platform.platform(), "processor": platform.machine(),
               "cpus": os.cpu_count(), "python": platform.python_version()}
    machine.update({var.lower(): os.environ.get(var) for var in BLAS_THREAD_VARIABLES})
    if os.path.isdir("/proc/self/task"):
        machine["process_threads"] = len(os.listdir("/proc/self/task"))
    machine["calibration_s"] = round(_best(_calibrate), 6)
    return machine


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--json", metavar="PATH")
    parser.add_argument("--column", default="s")
    args = parser.parse_args()

    rows = []

    def row(kernel, shape, seconds, density=""):
        shown = density if isinstance(density, str) else f"{density:.4f}"
        calibration = _best(_calibrate)
        print(f"{kernel:<40}{shape:>18}{shown:>14}{seconds:>13.7f}s{calibration:>13.6f}s")
        rows.append({"kernel": kernel, "shape": shape, "density": shown,
                     args.column: round(seconds, 9),
                     f"{args.column}_calibration_s": round(calibration, 6)})

    f = FieldSpec.prime(7919)
    rng = np.random.default_rng(SEED)
    machine = _machine()
    print(", ".join(f"{k}={v}" for k, v in machine.items()
                    if k == "cpus" or k.endswith("threads")))
    print(f"{'kernel':<40}{'shape':>18}{'density':>14}{'time':>14}{'calibration':>14}")
    for n in args.sizes:
        a = rng.integers(0, f.p, size=(n, n), dtype=np.int64)
        b = rng.integers(0, f.p, size=(n, n), dtype=np.int64)
        row("mod-p matmul", f"{n}x{n}x{n}", _best(f.matmul, a, b), 1.0)
        row("mod-p rref", f"{n}x{n}", _best(f.rref, a), 1.0)

    f11 = FieldSpec.prime(11)
    a = _sparse(rng, (25, 625), 0.008, f11.p)
    b = _sparse(rng, (625, 15625), 0.0003, f11.p)
    row("sparse mod-p matmul", "25x625x15625", _best(f11.matmul, a, b),
        np.count_nonzero(b) / b.size)
    for name, field in (("double_z5_f11", f11), ("double_s3_f7", FieldSpec.prime(7))):
        row(f"drinfeld_inverse {name}", "", _drinfeld_inverse(_builder(name, field)))

    q = FieldSpec.rationals()
    for m, k, c, da, db in KS3_Q_SHAPES:
        a = _sparse_q(rng, (m, k), da)
        b = _sparse_q(rng, (k, c), db)
        row("sparse Q matmul", f"{m}x{k}x{c}", _best(q.matmul, a, b),
            f"{da}/{db}")
    probe = _ks3_probe()
    row("Q rref (ks3 kernel_match probe)", "x".join(map(str, probe.shape)),
        _best(q.rref, probe))

    for shown, name, field in (("double_z5", "double_z5_f11", f11),
                               ("double_s3", "double_s3_f7", FieldSpec.prime(7)),
                               ("double_z7", "double_z7_f29", FieldSpec.prime(29)),
                               ("double_z5", "double_z5_f11", q)):
        row(f"presentation.load {shown} ({field.describe()})", "",
            _load(_builder(name, field)))

    _chain_rows(row)
    _graded_rows(row)

    f3 = FieldSpec.prime(3)
    big = FieldSpec.prime(1048573)
    for name in ("double_z2", "ks3", "sweedler"):
        row(f"verify {name} (GF(3))", "", _verify(_builder(name, f3)))
        row(f"verify {name} (GF(1048573))", "", _verify(_builder(name, big)))
        row(f"verify {name} (Q)", "", _verify(_builder(name, q)))
    for name in GALLERY:
        row(f"verify builtin {name}", "", _verify(EXAMPLES[name]))
    row("verify double_z5_f11 (quasitriangular)", "",
        _verify(_builder("double_z5_f11", f11), ("quasitriangular",)))
    row("verify double_s3_f7", "", _verify(_builder("double_s3_f7", FieldSpec.prime(7))))
    row("verify double_z7_f29", "", _verify(_builder("double_z7_f29", FieldSpec.prime(29))))

    if args.json:
        _write_json(args.json, rows, args, machine)


def _write_json(path, rows, args, machine):
    doc = {"rows": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    # what moves between runs is kept per column, beside the rows it scales
    before = doc.get("machine", {})
    doc["machine"] = dict(machine, **{
        key: dict(before.get(key, {}), **{args.column: machine.get(key)})
        for key in ("calibration_s", "process_threads")})
    doc["numpy"] = np.__version__
    doc["seed"] = SEED
    doc["repeat"] = f"best of {REPEAT}"
    doc["sizes"] = args.sizes
    old = {(r["kernel"], r["shape"]): r for r in doc["rows"]}
    for r in rows:
        key = (r["kernel"], r["shape"])
        old.setdefault(key, {}).update(r)
    doc["rows"] = list(old.values())
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
