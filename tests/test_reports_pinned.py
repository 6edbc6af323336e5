"""The full report of every small builtin is pinned byte for byte.

Each entry is the exit code and the sha256 of the stdout of
`hopfmonad report <example> --json --seed 0`.  A refactor that changes
one byte of a report fails here; a change that is meant to alter a
report must say so and re-pin the hash.  One 25-dimensional report on
one label is pinned too: the quasitriangular suite of the Drinfeld
double of Z5 over GF(11).

The number of `compare_at` calls and of the simple tuples they evaluate
is pinned as well, per operation of the benchmark in perfbench/, against
the counts its digests file records (read here, never written).  Merging
two item generators into one must keep both numbers.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfmonad import BLAS_THREAD_VARIABLES, zoo
from hopfmonad.cli import main
from hopfmonad.exactla import FieldSpec
from hopfmonad.monad import compare_at

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json")
                     .read_text())["ops"]

PINNED = {
    "trivial": (0, "c76b33786bc62e4192095e5c2bece29979c1d4064e4df838e38d5d5591d7f1ed"),
    "kz2": (0, "3534494da3233c06db1585649f0f20eb437265aa229d88f0815acf65764d5d37"),
    "ks3": (0, "4154d8fdb8732770d9937e9518ee3a64ec87c00f056972c2b5e40b4a035b585b"),
    "ks3_f3": (0, "c609bbc859bfd2d2524e96743732aa8e23224b3f4e0ba04d03659f08376677ee"),
    "sweedler": (0, "72d6c66589fb33c46ab5a96dd5991a6525ac361a0532ee9a62f0e62fbe354032"),
    "taft3": (0, "34993b059b648b1d877c6c2bc0606aa05cf37fc9e1c057f325da9273cf38a3bb"),
    "double_z2": (0, "61e6dbebcf95bf335656eee1f239168489010fa59c68621d7e0ad2ec37552bfb"),
    "double_z2_f3": (0, "129338f3b1aeb52472fbdd7501070a87835a01da8dda8058fe86296addda39f6"),
    "disconnected_groupoid":
        (0, "a56bfcc49dfee71e68ed89674ac2bb5f7a45229a31570a4c123edd3984e78fca"),
    "pair_groupoid": (1, "5e8f1cafc0d3608ab65320dd09eacdf19072a44951ba7d313005e7e617404cfb"),
}


@pytest.mark.parametrize("example", sorted(PINNED))
def test_report_is_pinned(example, capsys):
    code = main(["report", example, "--json", "--seed", "0"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PINNED[example]


@pytest.mark.parametrize("example", ["kz2", "taft3", "disconnected_groupoid"])
def test_report_does_not_depend_on_blas_threads(example):
    # over Q, over GF(7) and on the graded backend, in fresh interpreters
    # with OPENBLAS_NUM_THREADS unset, 1 and 2
    plain = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    for threads in (None, "1", "2"):
        env = plain if threads is None else dict(plain, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-m", "hopfmonad.cli", "report", example,
                              "--json", "--seed", "0"], env=env, capture_output=True)
        assert (out.returncode, hashlib.sha256(out.stdout).hexdigest()) == PINNED[example]


def double_z5_f11(tmp_path) -> str:
    pres = zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(5), FieldSpec.prime(11), "double_z5_f11")
    path = tmp_path / "double_z5_f11.json"
    path.write_text(json.dumps(pres, indent=2, sort_keys=True))
    return str(path)


def test_double_z5_f11_quasitriangular_is_pinned(tmp_path, capsys):
    code = main(["verify", double_z5_f11(tmp_path), "--checks", "quasitriangular",
                 "--json", "--seed", "0"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (
        0, "e9d1eae9e8948501699d423eae97b6a9c2fc56eb39e02bf86d981cf75f871550")


def count_compare_at(monkeypatch) -> dict:
    """Count `compare_at` calls and the items they consume, through every
    hopfmonad module that binds the name, as the traced benchmark does."""
    counts = {"calls": 0, "items": 0}

    def counted(report, check, items):
        def each():
            for item in items:
                counts["items"] += 1
                yield item
        counts["calls"] += 1
        return compare_at(report, check, each())

    for name, mod in list(sys.modules.items()):
        if name == "hopfmonad" or name.startswith("hopfmonad."):
            for attr, value in list(vars(mod).items()):
                if value is compare_at:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


@pytest.mark.parametrize("example", sorted(n for n in PINNED if "compare_at" in DIGESTS[n]))
def test_report_compare_at_counts_are_pinned(example, monkeypatch, capsys):
    counts = count_compare_at(monkeypatch)
    assert main(["report", example, "--json", "--seed", "1"]) == DIGESTS[example]["exit"]
    assert counts == DIGESTS[example]["compare_at"]


def test_double_z5_f11_compare_at_counts_are_pinned(tmp_path, monkeypatch, capsys):
    path = double_z5_f11(tmp_path)
    counts = count_compare_at(monkeypatch)
    assert main(["verify", path, "--checks", "quasitriangular", "--json", "--seed", "1"]) == 0
    assert counts == DIGESTS["double_z5_f11"]["compare_at"]
