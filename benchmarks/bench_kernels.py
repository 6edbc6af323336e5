"""Time the kernels behind FieldSpec.matmul and FieldSpec.rref.

Prints one table:
- dense mod-p matrix product and mod-p reduced row echelon form of random
  n x n matrices at p = 7919;
- the sparse traffic of the quasitriangular suite on the 25-dim Drinfeld
  double of Z5 over GF(11): a (25x625)@(625x15625) product at the
  densities measured there (0.008 and 0.0003; the density column shows
  the right factor's), and the 625x1250 [A | I] row reduction that
  inverts a 625-dim braiding, with A a scaled permutation matrix plus a
  few extra entries;
- the three costliest rational product shapes of the ks3 report, at the
  densities measured there (left/right factor), with small rationals over
  the denominators seen there;
- end-to-end verifications: the 4-dim Drinfeld double of Z2 over GF(3),
  and ks3 and the 4-dim double of Z2 over Q against GF(3), the rational
  lane's ratios; then the two groupoid algebras on the two-label graded
  backend (all suites each).

Each time is the best of three runs.  The header line gives the CPU count
and the OpenBLAS/OpenMP thread settings, which move the GF(p) rows.  With
--json PATH the rows are also written to PATH, with the machine (those
settings included), the numpy version and the seed, under the column
--column; a column already in PATH is replaced and the other columns are
kept, so two runs (say, of two commits, by pointing PYTHONPATH at each
one's src/) fill one file side by side.

Usage:  python benchmarks/bench_kernels.py [--sizes 128 256 512]
            [--json BENCH_kernels.json --column change]
"""

import argparse
import json
import os
import platform
import time
from fractions import Fraction

import numpy as np

from hopfmonad import presentation, zoo
from hopfmonad.exactla import FieldSpec
from hopfmonad.verify import verify_model

# (rows, inner, cols, density of a, density of b) of the ks3 report
KS3_Q_SHAPES = [(36, 6, 1296, 0.84, 0.14), (216, 36, 36, 0.14, 0.14),
                (12, 72, 2592, 0.083, 0.0015)]
KS3_DENOMINATORS = [1, 7, 21, 31, 63, 217]
REPEAT = 3
SEED = 0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


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


def _sparse_q(rng, shape, density) -> np.ndarray:
    m = FieldSpec.rationals().zeros(shape)
    n = max(1, round(density * m.size))
    nums = rng.integers(1, 100, n) * rng.choice([-1, 1], n)
    dens = rng.choice(KS3_DENOMINATORS, n)
    for k, x, d in zip(rng.choice(m.size, n, replace=False), nums, dens):
        m.flat[k] = Fraction(int(x), int(d))
    return m


def _verify(name, field):
    builders = {
        "ks3": lambda: zoo.build_group_algebra(zoo.symmetric3_table(), field, name),
        "double_z2": lambda: zoo.build_drinfeld_double_group(
            zoo.cyclic_group_table(2), field, name),
        "disconnected_groupoid": lambda: zoo.build_disconnected_groupoid(field, name),
        "pair_groupoid": lambda: zoo.build_pair_groupoid(field, name),
    }
    model = presentation.load(builders[name]())
    return lambda: verify_model(model, samples=1).passed


def _machine() -> dict:
    machine = {"platform": platform.platform(), "processor": platform.machine(),
               "cpus": os.cpu_count(), "python": platform.python_version()}
    machine.update({var.lower(): os.environ.get(var) for var in THREAD_VARIABLES})
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
        print(f"{kernel:<30}{shape:>18}{shown:>14}{seconds:>11.4f}s")
        rows.append({"kernel": kernel, "shape": shape, "density": shown,
                     args.column: round(seconds, 6)})

    f = FieldSpec.prime(7919)
    rng = np.random.default_rng(SEED)
    print(", ".join(f"{k}={v}" for k, v in _machine().items()
                    if k == "cpus" or k.endswith("threads")))
    print(f"{'kernel':<30}{'shape':>18}{'density':>14}{'time':>12}")
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
    n = 625
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n), rng.permutation(n)] = rng.integers(1, f11.p, n)
    extra = rng.integers(0, n, size=(2, n // 8))
    a[extra[0], extra[1]] = rng.integers(1, f11.p, n // 8)
    ai = np.hstack([a, f11.eye(n)])
    row("sparse mod-p rref [A|I]", f"{n}x{2 * n}", _best(f11.rref, ai),
        np.count_nonzero(ai) / ai.size)

    q = FieldSpec.rationals()
    for m, k, c, da, db in KS3_Q_SHAPES:
        a = _sparse_q(rng, (m, k), da)
        b = _sparse_q(rng, (k, c), db)
        row("sparse Q matmul", f"{m}x{k}x{c}", _best(q.matmul, a, b),
            f"{da}/{db}")

    f3 = FieldSpec.prime(3)
    row("verify double_z2 (GF(3))", "", _best(_verify("double_z2", f3)))
    row("verify double_z2 (Q)", "", _best(_verify("double_z2", q)))
    row("verify ks3 (GF(3))", "", _best(_verify("ks3", f3)))
    row("verify ks3 (Q)", "", _best(_verify("ks3", q)))
    for name in ("disconnected_groupoid", "pair_groupoid"):
        row(f"verify {name}", "", _best(_verify(name, q)))

    if args.json:
        _write_json(args.json, rows, args)


def _write_json(path, rows, args):
    doc = {"rows": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["machine"] = _machine()
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
