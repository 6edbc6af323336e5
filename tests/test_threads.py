"""The BLAS thread policy of `import hopfmonad`, seen from fresh interpreters.

With no thread variable set, the package loads numpy with one OpenBLAS
thread and leaves os.environ as it found it; a thread count the caller
sets, or a numpy imported before the package, is left alone.  Threads are
counted in /proc/self/task, so the tests run on Linux only.
"""

import json
import os
import subprocess
import sys

import pytest

from hopfmonad import BLAS_THREAD_VARIABLES

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc/self/task")

CHILD = """\
import json, os
before = dict(os.environ)
{first}
import hopfmonad
print(json.dumps({{"tasks": len(os.listdir("/proc/self/task")),
                  "environ_kept": dict(os.environ) == before}}))
"""


def blas_env(**settings) -> dict:
    """os.environ without any BLAS thread variable, plus `settings`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(settings)
    return env


def fresh(first: str = "", **settings) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD.format(first=first)],
                         env=blas_env(**settings), capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout)


def test_one_thread_by_default():
    assert fresh() == {"tasks": 1, "environ_kept": True}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_caller_thread_count_is_respected(variable):
    assert fresh(**{variable: "2"}) == {"tasks": 2, "environ_kept": True}


def test_numpy_imported_first_is_left_alone():
    bare = subprocess.run(
        [sys.executable, "-c", "import os, numpy; print(len(os.listdir('/proc/self/task')))"],
        env=blas_env(), capture_output=True, text=True, check=True)
    assert fresh("import numpy") == {"tasks": int(bare.stdout), "environ_kept": True}
