"""Time the GF(p) kernels behind FieldSpec.matmul and FieldSpec.rref.

Prints one table:
- dense mod-p matrix product and mod-p reduced row echelon form of random
  n x n matrices at p = 7919;
- the sparse traffic of the quasitriangular suite on the 25-dim Drinfeld
  double of Z5 over GF(11): a (25x625)@(625x15625) product at the
  densities measured there (0.008 and 0.0003; the density column shows
  the right factor's), and the 625x1250 [A | I] row reduction that
  inverts a 625-dim braiding, with A a scaled permutation matrix plus a
  few extra entries;
- one end-to-end verification of the 4-dim Drinfeld double of Z2 over GF(3).

Usage:  python benchmarks/bench_kernels.py [--sizes 128 256 512]
"""

import argparse
import time

import numpy as np

from hopfmonad import presentation, zoo
from hopfmonad.exactla import FieldSpec
from hopfmonad.verify import verify_model


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _sparse(rng, shape, density, p) -> np.ndarray:
    m = np.zeros(shape, dtype=np.int64)
    n = max(1, round(density * m.size))
    m.flat[rng.choice(m.size, n, replace=False)] = rng.integers(1, p, n)
    return m


def _row(kernel, shape, seconds, density=None):
    shown = "" if density is None else f"{density:.4f}"
    print(f"{kernel:<24}{shape:>18}{shown:>10}{seconds:>11.4f}s")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512])
    args = parser.parse_args()

    f = FieldSpec.prime(7919)
    rng = np.random.default_rng(0)
    print(f"{'kernel':<24}{'shape':>18}{'density':>10}{'time':>12}")
    for n in args.sizes:
        a = rng.integers(0, f.p, size=(n, n), dtype=np.int64)
        b = rng.integers(0, f.p, size=(n, n), dtype=np.int64)
        _row("mod-p matmul", f"{n}x{n}x{n}", _timed(f.matmul, a, b), 1.0)
        _row("mod-p rref", f"{n}x{n}", _timed(f.rref, a), 1.0)

    f11 = FieldSpec.prime(11)
    a = _sparse(rng, (25, 625), 0.008, f11.p)
    b = _sparse(rng, (625, 15625), 0.0003, f11.p)
    _row("sparse mod-p matmul", "25x625x15625", _timed(f11.matmul, a, b),
         np.count_nonzero(b) / b.size)
    n = 625
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n), rng.permutation(n)] = rng.integers(1, f11.p, n)
    extra = rng.integers(0, n, size=(2, n // 8))
    a[extra[0], extra[1]] = rng.integers(1, f11.p, n // 8)
    ai = np.hstack([a, f11.eye(n)])
    _row("sparse mod-p rref [A|I]", f"{n}x{2 * n}", _timed(f11.rref, ai),
         np.count_nonzero(ai) / ai.size)

    model = presentation.load(zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(2), FieldSpec.prime(3), "bench_double"))
    t0 = time.perf_counter()
    assert verify_model(model, samples=1).passed
    _row("verify double (GF(3))", "", time.perf_counter() - t0)


if __name__ == "__main__":
    main()
