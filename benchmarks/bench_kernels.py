"""Time the GF(p) kernels behind FieldSpec.matmul and FieldSpec.rref.

Prints one table: dense mod-p matrix product and mod-p reduced row
echelon form of random n x n matrices at p = 7919, plus one end-to-end
verification of the 4-dim Drinfeld double of Z2 over GF(3).

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


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512])
    args = parser.parse_args()

    f = FieldSpec.prime(7919)
    rng = np.random.default_rng(0)
    print(f"{'kernel':<24}{'size':>6}{'time':>12}")
    for n in args.sizes:
        a = rng.integers(0, f.p, size=(n, n), dtype=np.int64)
        b = rng.integers(0, f.p, size=(n, n), dtype=np.int64)
        print(f"{'mod-p matmul':<24}{n:>6}{_timed(f.matmul, a, b):>11.4f}s")
        print(f"{'mod-p rref':<24}{n:>6}{_timed(f.rref, a):>11.4f}s")

    model = presentation.load(zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(2), FieldSpec.prime(3), "bench_double"))
    t0 = time.perf_counter()
    assert verify_model(model, samples=1).passed
    print(f"{'verify double (GF(3))':<24}{'':>6}{time.perf_counter() - t0:>11.4f}s")


if __name__ == "__main__":
    main()
