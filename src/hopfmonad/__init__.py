"""Exact verification toolkit for tensoring bimonads with antipodes.

Layers, bottom up:

- exactla: exact scalars (Q, GF(p)) and dense linear algebra.
- cat: the two backend monoidal categories (vector spaces, graded bimodules).
- monad / antipode / modcat / hopfstruct / qtrib: structure data plus the
  axiom checkers, derived-identity suites and solvers.
- zoo / presentation / report / cli: example builders, the JSON interchange
  format and the command line front end.
"""

from .exactla import FieldSpec

__all__ = ["FieldSpec"]
__version__ = "0.1.0"
