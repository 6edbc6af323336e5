"""Backend monoidal categories: vector spaces and label-graded bimodules.

A base with one label is the category of finite-dimensional vector
spaces; with L labels it is the category of L x L graded vector spaces
(bimodules over the split semisimple algebra k^L), which is autonomous
and not braided for L >= 2.

Objects are *words* of atoms.  An atom is a generating graded object (an
L x L grid of dimensions); a word realizes to the tensor product of its
atoms, and the tensor product of words is concatenation.  This makes the
monoidal structure strictly associative and unital on the nose: the unit
is the empty word, and duality reverses words, so no coherence
isomorphisms ever appear in formulas.

Concretely, the graded piece of a word at (i, l) has one basis vector
per *path* i -> ... -> l through the atoms, ordered lexicographically by
(label, position) read left to right.  For a one-label base a path is
just a row-major multi-index.

Morphisms are grade-preserving linear maps, stored as one dense exact
matrix per grade.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .exactla import DimensionMismatch, ExactError, FieldSpec


class BaseMismatch(ExactError):
    pass


@dataclass(frozen=True)
class BaseSpec:
    """Ground field plus the ordered label set of the grading."""

    field: FieldSpec
    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ExactError("need at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ExactError("labels must be distinct")

    @property
    def nlabels(self) -> int:
        return len(self.labels)

    @property
    def is_vector(self) -> bool:
        return len(self.labels) == 1

    @staticmethod
    def vector(field: FieldSpec) -> "BaseSpec":
        return BaseSpec(field, ("*",))


def _dual_name(name: str) -> str:
    return name[:-1] if name.endswith("*") else name + "*"


@dataclass(frozen=True)
class Atom:
    """Generating graded object: a name plus an L x L dimension grid."""

    name: str
    dims: tuple  # tuple of tuples of ints
    _hash: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(d < 0 for row in self.dims for d in row):
            raise ExactError("negative dimension")
        object.__setattr__(self, "_hash", hash((self.name, self.dims)))

    def __hash__(self):
        return self._hash

    @property
    def nlabels(self) -> int:
        return len(self.dims)

    def dual(self) -> "Atom":
        grid = tuple(tuple(self.dims[j][i] for j in range(self.nlabels))
                     for i in range(self.nlabels))
        return Atom(_dual_name(self.name), grid)

    def dim(self, i: int, j: int) -> int:
        return self.dims[i][j]


@dataclass(frozen=True)
class GradedObj:
    """A word of atoms over a base; the empty word is the unit object."""

    base: BaseSpec
    atoms: tuple
    # words key the caches below: hash each once, not on every lookup
    _hash: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in self.atoms:
            if a.nlabels != self.base.nlabels:
                raise BaseMismatch("atom grid does not match the label set")
        object.__setattr__(self, "_hash", hash((self.base, self.atoms)))

    def __hash__(self):
        return self._hash

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit(base: BaseSpec) -> "GradedObj":
        return GradedObj(base, ())

    @staticmethod
    def simple(base: BaseSpec, i: int, j: int) -> "GradedObj":
        L = base.nlabels
        grid = tuple(tuple(1 if (a, b) == (i, j) else 0 for b in range(L))
                     for a in range(L))
        return GradedObj(base, (Atom(f"S{i}{j}", grid),))

    @staticmethod
    def from_grid(base: BaseSpec, grid, name: str = "V") -> "GradedObj":
        grid = tuple(tuple(int(d) for d in row) for row in grid)
        return GradedObj(base, (Atom(name, grid),))

    @staticmethod
    def space(base: BaseSpec, n: int, name: str = "V") -> "GradedObj":
        """A plain n-dimensional space on a one-label base."""
        if not base.is_vector:
            raise ExactError("space() needs a one-label base")
        return GradedObj(base, (Atom(name, ((n,),)),))

    # -- structure -----------------------------------------------------------

    def tensor(self, other: "GradedObj") -> "GradedObj":
        if self.base != other.base:
            raise BaseMismatch("tensor across different bases")
        return GradedObj(self.base, self.atoms + other.atoms)

    def dual(self) -> "GradedObj":
        return GradedObj(self.base, tuple(a.dual() for a in reversed(self.atoms)))

    def count(self, i: int, l: int) -> int:
        return _grade_counts(self)[i][l]

    def dims_grid(self) -> list[list[int]]:
        return [list(row) for row in _grade_counts(self)]

    def total_dim(self) -> int:
        return sum(sum(row) for row in _grade_counts(self))

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def grades(self) -> list[tuple[int, int]]:
        """Grades with at least one basis path, in lexicographic order."""
        L = self.base.nlabels
        c = _grade_counts(self)
        return [(i, l) for i in range(L) for l in range(L) if c[i][l] > 0]

    def axis_dims(self) -> list[int]:
        """Per-atom dimensions on a one-label base (the tensor axes)."""
        return [a.dims[0][0] for a in self.atoms]

    def __repr__(self):
        return "Obj[" + " ".join(a.name for a in self.atoms) + "]" if self.atoms else "Obj[1]"


@lru_cache(maxsize=None)
def _grade_counts(obj: GradedObj) -> tuple:
    L = obj.base.nlabels
    # counts[i][l] = number of paths i -> l; matrix product over atom grids
    cur = [[1 if i == l else 0 for l in range(L)] for i in range(L)]
    for a in obj.atoms:
        nxt = [[sum(cur[i][j] * a.dims[j][l] for j in range(L)) for l in range(L)]
               for i in range(L)]
        cur = nxt
    return tuple(tuple(row) for row in cur)


@lru_cache(maxsize=None)
def paths(obj: GradedObj, i: int, l: int) -> tuple:
    """All basis paths of a word at grade (i, l), in canonical order.

    A path is a tuple of (label, position) steps, one per atom: the label
    is the target label after the atom, the position picks a basis vector
    of that atom's graded piece.
    """
    L = obj.base.nlabels
    out: list[tuple] = []

    def rec(at: int, cur_label: int, acc: tuple):
        if at == len(obj.atoms):
            if cur_label == l:
                out.append(acc)
            return
        a = obj.atoms[at]
        # prune: no continuation can reach l
        rest = GradedObj(obj.base, obj.atoms[at + 1:])
        for j in range(L):
            d = a.dims[cur_label][j]
            if d == 0 or _grade_counts(rest)[j][l] == 0:
                continue
            for b in range(d):
                rec(at + 1, j, acc + ((j, b),))

    rec(0, i, ())
    return tuple(out)


@lru_cache(maxsize=None)
def path_index(obj: GradedObj, i: int, l: int) -> dict:
    return {p: k for k, p in enumerate(paths(obj, i, l))}


def _reversed_path(p: tuple, i: int) -> tuple:
    """Path of the dual word corresponding to a path of the word.

    For a path i ->(...) -> l with steps ((j1,b1),...,(jn,bn)) the dual
    word path runs l -> ... -> i with the same positions in reverse and
    target labels read off the original label sequence.
    """
    labels = [i] + [j for (j, _) in p]
    n = len(p)
    return tuple((labels[n - 1 - t], p[n - 1 - t][1]) for t in range(n))


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


class GradedMor:
    """Grade-preserving linear map between two words.

    `blocks` maps a grade (i, l) to a dense matrix of shape
    (dst.count(i,l), src.count(i,l)); grades where either count is zero
    are omitted.
    """

    __slots__ = ("src", "dst", "blocks")

    def __init__(self, src: GradedObj, dst: GradedObj, blocks: dict):
        if src.base != dst.base:
            raise BaseMismatch("morphism across different bases")
        self.src = src
        self.dst = dst
        self.blocks = {}
        for g in set(src.grades()) & set(dst.grades()):
            m = blocks.get(g)
            if m is None:
                m = src.base.field.zeros((dst.count(*g), src.count(*g)))
            if m.shape != (dst.count(*g), src.count(*g)):
                raise DimensionMismatch(
                    f"block {g}: expected {(dst.count(*g), src.count(*g))}, got {m.shape}")
            self.blocks[g] = m

    @property
    def base(self) -> BaseSpec:
        return self.src.base

    @property
    def field(self) -> FieldSpec:
        return self.src.base.field

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(obj: GradedObj) -> "GradedMor":
        f = obj.base.field
        return GradedMor(obj, obj, {g: f.eye(obj.count(*g)) for g in obj.grades()})

    @staticmethod
    def zero(src: GradedObj, dst: GradedObj) -> "GradedMor":
        return GradedMor(src, dst, {})

    def block(self, i: int, l: int) -> np.ndarray:
        """Dense block at a grade (zeros when absent)."""
        g = (i, l)
        if g in self.blocks:
            return self.blocks[g]
        return self.field.zeros((self.dst.count(i, l), self.src.count(i, l)))

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "GradedMor") -> "GradedMor":
        """self after other."""
        if other.dst != self.src:
            raise DimensionMismatch("composition mismatch")
        f = self.field
        blocks = {}
        for g in self.blocks:
            if g in other.blocks:
                blocks[g] = f.matmul(self.blocks[g], other.blocks[g])
        return GradedMor(other.src, self.dst, blocks)

    def __matmul__(self, other: "GradedMor") -> "GradedMor":
        return self.compose(other)

    def _blockwise(self, op, other: "GradedMor") -> "GradedMor":
        """`op` (np.add or np.subtract) of the blocks, absent ones read as zero."""
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch(f"{op.__name__} of morphisms with different ends")
        f = self.field
        return GradedMor(self.src, self.dst,
                         {g: f.reduce(op(self.block(*g), other.block(*g)))
                          for g in set(self.blocks) | set(other.blocks)})

    def __add__(self, other: "GradedMor") -> "GradedMor":
        return self._blockwise(np.add, other)

    def __sub__(self, other: "GradedMor") -> "GradedMor":
        return self._blockwise(np.subtract, other)

    def __neg__(self) -> "GradedMor":
        f = self.field
        return GradedMor(self.src, self.dst,
                         {g: f.reduce(-m) for g, m in self.blocks.items()})

    def scale(self, c) -> "GradedMor":
        f = self.field
        c = f.coerce(c)
        return GradedMor(self.src, self.dst,
                         {g: f.reduce(m * c) for g, m in self.blocks.items()})

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(bool(np.all(m == zero)) for m in self.blocks.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMor):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        # exact on both fields: Fractions are canonical, and reduce puts
        # GF(p) entries in [0, p)
        f = self.field
        return all(np.array_equal(f.reduce(self.block(*g)), f.reduce(other.block(*g)))
                   for g in set(self.blocks) | set(other.blocks))

    def __hash__(self):
        raise TypeError("GradedMor is unhashable")

    def __repr__(self):
        return f"Mor({self.src!r} -> {self.dst!r})"

    def tensor(self, other: "GradedMor") -> "GradedMor":
        return tensor_mor(self, other)

    # -- duality ---------------------------------------------------------------

    def ldual(self) -> "GradedMor":
        """Transpose along the duality pairing: dual(dst) -> dual(src)."""
        f = self.field
        src_d, dst_d = self.dst.dual(), self.src.dual()
        blocks = {}
        for (i, l), m in self.blocks.items():
            # block of the dual morphism at grade (l, i)
            rp = _perm_to_dual(self.src, i, l)
            cp = _perm_to_dual(self.dst, i, l)
            out = f.zeros((self.src.count(i, l), self.dst.count(i, l)))
            out[np.ix_(rp, cp)] = m.T
            blocks[(l, i)] = out
        return GradedMor(src_d, dst_d, blocks)

    def rdual(self) -> "GradedMor":
        """With the fixed dual bases the right transpose equals the left one."""
        return self.ldual()


@lru_cache(maxsize=None)
def _perm_to_dual(obj: GradedObj, i: int, l: int) -> tuple:
    """perm[k] = index of the reversal of the k-th (i,l)-path in dual(obj)."""
    if obj.base.is_vector:
        dims = obj.axis_dims()
        if not dims:
            return (0,)
        n = int(np.prod(dims))
        # element at multi-index (b1..bn) maps to (bn..b1) in the reversed dims
        idx = np.arange(n).reshape(list(reversed(dims)))
        order = tuple(reversed(range(len(dims))))
        return tuple(int(x) for x in idx.transpose(order).ravel())
    dual = obj.dual()
    pidx = path_index(dual, l, i)
    return tuple(pidx[_reversed_path(p, i)] for p in paths(obj, i, l))


# ---------------------------------------------------------------------------
# Monoidal structure on morphisms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tensor_positions(x: GradedObj, y: GradedObj, i: int, l: int) -> dict:
    """For each middle label j: (row positions of x-paths ⊗ y-paths) inside
    the combined word's (i,l) path order, in row-major (p, q) order.

    The arrays are cached and shared, so they are read-only."""
    combined = x.tensor(y)
    cidx = path_index(combined, i, l)
    out = {}
    L = x.base.nlabels
    nx = len(x.atoms)
    for j in range(L):
        px = paths(x, i, j)
        py = paths(y, j, l)
        if not px or not py:
            continue
        pos = np.array([cidx[p + q] for p in px for q in py], dtype=np.int64)
        pos.flags.writeable = False
        out[j] = pos
    return out


def tensor_mor(f: GradedMor, g: GradedMor) -> GradedMor:
    """Tensor product of morphisms; blocks follow the path ordering."""
    if f.base != g.base:
        raise BaseMismatch("tensor across different bases")
    fld = f.field
    src = f.src.tensor(g.src)
    dst = f.dst.tensor(g.dst)
    if f.base.is_vector:
        blocks = {}
        if (0, 0) in set(src.grades()) & set(dst.grades()):
            blocks[(0, 0)] = fld.kron(f.block(0, 0), g.block(0, 0))
        return GradedMor(src, dst, blocks)
    blocks = {}
    for (i, l) in set(src.grades()) & set(dst.grades()):
        out = fld.zeros((dst.count(i, l), src.count(i, l)))
        col_pos = _tensor_positions(f.src, g.src, i, l)
        row_pos = _tensor_positions(f.dst, g.dst, i, l)
        for j in set(col_pos) & set(row_pos):
            k = fld.kron(f.block(i, j), g.block(j, l))
            out[np.ix_(row_pos[j], col_pos[j])] = k
        blocks[(i, l)] = out
    return GradedMor(src, dst, blocks)


def identity(obj: GradedObj) -> GradedMor:
    return GradedMor.identity(obj)


# ---------------------------------------------------------------------------
# Duality data
# ---------------------------------------------------------------------------


def _pairing(x: GradedObj, dual_first: bool) -> tuple:
    """The word dual(x) ⊗ x (dual_first) or x ⊗ dual(x), with its pairing
    row of the standard dual bases at every diagonal grade (i, i)."""
    f = x.base.field
    word = x.dual().tensor(x) if dual_first else x.tensor(x.dual())
    rows = {}
    if x.base.is_vector:
        # the identity matrix read as a row: index k of x meets its reversal
        # perm[k] in dual(x), row-major over the two factors of the word
        n = x.count(0, 0)
        if n:
            k = np.arange(n)
            perm = np.array(_perm_to_dual(x, 0, 0), dtype=np.int64)
            m = f.zeros((1, n * n))
            m[0, perm * n + k if dual_first else k * n + perm] = f.one
            rows[(0, 0)] = m
        return word, rows
    for (i, l) in word.grades():
        if i != l:
            continue
        m = f.zeros((1, word.count(i, i)))
        idx = path_index(word, i, i)
        for j in range(x.base.nlabels):
            # p runs through x, its reversal through dual(x), from label a
            a, b = (j, i) if dual_first else (i, j)
            for p in paths(x, a, b):
                dp = _reversed_path(p, a)
                m[0, idx[dp + p if dual_first else p + dp]] = f.one
        rows[(i, i)] = m
    return word, rows


def _ev(x: GradedObj, dual_first: bool) -> GradedMor:
    word, rows = _pairing(x, dual_first)
    return GradedMor(word, GradedObj.unit(x.base), rows)


def _coev(x: GradedObj, dual_first: bool) -> GradedMor:
    word, rows = _pairing(x, dual_first)
    return GradedMor(GradedObj.unit(x.base), word,
                     {g: m.T.copy() for g, m in rows.items()})


def ev_mor(x: GradedObj) -> GradedMor:
    """Evaluation  dual(x) ⊗ x -> 1  for the standard dual bases."""
    return _ev(x, True)


def coev_mor(x: GradedObj) -> GradedMor:
    """Coevaluation  1 -> x ⊗ dual(x)."""
    return _coev(x, False)


def ev_right_mor(x: GradedObj) -> GradedMor:
    """Right evaluation  x ⊗ dual(x) -> 1."""
    return _ev(x, False)


def coev_right_mor(x: GradedObj) -> GradedMor:
    """Right coevaluation  1 -> dual(x) ⊗ x."""
    return _coev(x, True)


def left_dual(x: GradedObj) -> dict:
    """Left dual with its evaluation and coevaluation."""
    return {"obj": x.dual(), "ev": ev_mor(x), "coev": coev_mor(x)}


def right_dual(x: GradedObj) -> dict:
    """Right dual with its evaluation and coevaluation."""
    return {"obj": x.dual(), "ev": ev_right_mor(x), "coev": coev_right_mor(x)}


def sovereign_phi(x: GradedObj) -> GradedMor:
    """The canonical identification of x with its double left dual.

    Words dualize by reversing and dualizing atoms, and atom duals are
    involutive, so the double dual is literally x and phi is the identity.
    """
    assert x.dual().dual() == x
    return GradedMor.identity(x)


# ---------------------------------------------------------------------------
# Summand decomposition (used by the extension machinery)
# ---------------------------------------------------------------------------


def summand_inclusions(x: GradedObj):
    """Yield (grade, inclusion, projection) for each simple summand of x.

    The k-th path at grade (i, l) spans a summand isomorphic to the
    simple S(i, l); the inclusion and projection are the corresponding
    coordinate morphisms.  Ordering is deterministic: grades in
    lexicographic order, paths in path order.
    """
    f = x.base.field
    for (i, l) in x.grades():
        n = x.count(i, l)
        s = GradedObj.simple(x.base, i, l)
        for k in range(n):
            col = f.zeros((n, 1))
            col[k, 0] = f.one
            inc = GradedMor(s, x, {(i, l): col})
            proj = GradedMor(x, s, {(i, l): col.T.copy()})
            yield (i, l), inc, proj
