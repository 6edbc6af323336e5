"""Exact verification toolkit for tensoring bimonads with antipodes.

Layers, bottom up:

- exactla: exact scalars (Q, GF(p)) and dense linear algebra.
- cat: the two backend monoidal categories (vector spaces, graded bimodules).
- monad / antipode / modcat / hopfstruct / qtrib: structure data plus the
  axiom checkers, derived-identity suites and solvers.
- zoo / presentation / report / cli: example builders, the JSON interchange
  format and the command line front end.

Threads: the exact products are small float64 tiles (see exactla), which a
second BLAS thread does not speed up, while OpenBLAS's idle helper threads
spin beside the verification.  So when this package is imported before
numpy and the caller has set none of OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS and OMP_NUM_THREADS, numpy is loaded with
OPENBLAS_NUM_THREADS=1, which OpenBLAS reads once, as it loads; os.environ
is then restored, so child processes and later imports see it unchanged.
A thread count the caller sets is respected, and a numpy loaded before
this package is left as it is.
"""

import importlib
import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .exactla import FieldSpec  # noqa: E402

__all__ = ["FieldSpec"]
__version__ = "0.1.0"
