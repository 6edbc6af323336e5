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

Atoms and words are interned (hash-consed): building one looks it up in
a weak table, so there is one live object per (name, grid) and per
(base, atoms), and equality is identity.  A word computes its grade
counts once, when it is first built, and keeps its dual; the path
positions, dual permutations and tensor positions derived from it are
kept in a memo the word owns (keyed by the further words for the tensor
positions, on the first word).  Everything derived from a word is
therefore dropped together with it, and the tables hold only live words.

Concretely, the graded piece of a word at (i, l) has one basis vector
per *path* i -> ... -> l through the atoms.  Each atom is flattened over
its grid cells in row-major order, a basis vector at its place in its
cell, and a path is its row-major multi-index over the atoms, its *flat
position*.  The (i, l)-paths are ordered by flat position, and a path's
index is its rank among them (`positions`); on one label every flat
position is a path, so the index is the position itself.  The dual of a
basis vector sits at the same place of the transposed cell, in the dual
atom: the dual of a path reverses its multi-index and moves each digit
to the transposed cell (`_dual_positions`).

Morphisms are grade-preserving linear maps, one exact matrix per grade.
On a multi-label base every block is a dense array.  On one label the
single block is held as chain.py holds a tensor: an exactla.SparseTensor
when it has more than chain.SPARSE_FIXED entries, a dense array
otherwise.  A block is held sparse as a chain result whose last
contraction was sparse, as a pairing row (one nonzero per path, built
sparse on both backends and made dense where the rule says so), or once
a chain step has read it for its nonzeros: every step over a morphism,
a natural family's component included, keeps that form on the morphism
(with the dense array it was read from).  Equality, is_zero, + and -
read either form as it is (a sum with a sparse block merges the
nonzeros); block() gives the dense array, for the consumers
that need one (products, row reduction, the transpose, the report),
bounded by chain.MAX_STATE_ENTRIES.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field as dataclass_field
from functools import wraps
from math import prod

import numpy as np

from .exactla import (INT64_BOUND, DimensionMismatch, ExactError, FieldSpec, SparseTensor,
                      sparse_sum)


class BaseMismatch(ExactError):
    pass


@dataclass(frozen=True)
class BaseSpec:
    """Ground field plus the ordered label set of the grading."""

    field: FieldSpec
    labels: tuple
    # every word key holds its base: hash it once, not on every lookup
    _hash: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ExactError("need at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ExactError("labels must be distinct")
        object.__setattr__(self, "_hash", hash((self.field, self.labels)))

    def __hash__(self):
        return self._hash

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


class _Interned:
    """One live object per key, equal only to itself and hashed as its key;
    frozen after construction, and copies and pickles are the object."""

    __slots__ = ("_hash", "_dual", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), self._key()

    @classmethod
    def _make(cls, table, key: tuple, **slots):
        obj = object.__new__(cls)
        for slot, value in dict(slots, _hash=hash(key), _dual=None).items():
            object.__setattr__(obj, slot, value)
        table[key] = obj
        return obj


# the live atoms by (name, dims) and the live words by (base, atoms)
_ATOMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_WORDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Atom(_Interned):
    """Generating graded object: a name plus an L x L dimension grid."""

    __slots__ = ("name", "dims")

    def __new__(cls, name: str, dims: tuple):
        atom = _ATOMS.get((name, dims))
        if atom is None:
            if any(d < 0 for row in dims for d in row):
                raise ExactError("negative dimension")
            atom = cls._make(_ATOMS, (name, dims), name=name, dims=dims)
        return atom

    def _key(self) -> tuple:
        return self.name, self.dims

    def __repr__(self):
        return f"Atom(name={self.name!r}, dims={self.dims!r})"

    @property
    def nlabels(self) -> int:
        return len(self.dims)

    def dual(self) -> "Atom":
        if self._dual is None:
            grid = tuple(zip(*self.dims))
            object.__setattr__(self, "_dual", Atom(_dual_name(self.name), grid))
        return self._dual

    def dim(self, i: int, j: int) -> int:
        return self.dims[i][j]


class GradedObj(_Interned):
    """A word of atoms over a base; the empty word is the unit object."""

    __slots__ = ("base", "atoms", "_counts", "_grades", "_memo")

    def __new__(cls, base: BaseSpec, atoms: tuple):
        word = _WORDS.get((base, atoms))
        if word is None:
            L = base.nlabels
            # counts[i][l] = number of paths i -> l; product of the atom grids
            counts = tuple(tuple(int(i == l) for l in range(L)) for i in range(L))
            for a in atoms:
                if a.nlabels != L:
                    raise BaseMismatch("atom grid does not match the label set")
                counts = tuple(tuple(sum(row[j] * a.dims[j][l] for j in range(L))
                                     for l in range(L)) for row in counts)
            grades = tuple((i, l) for i in range(L) for l in range(L) if counts[i][l])
            word = cls._make(_WORDS, (base, atoms), base=base, atoms=atoms,
                             _counts=counts, _grades=grades, _memo={})
        return word

    def _key(self) -> tuple:
        return self.base, self.atoms

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
        if self._dual is None:
            object.__setattr__(self, "_dual", GradedObj(
                self.base, tuple(a.dual() for a in reversed(self.atoms))))
        return self._dual

    def count(self, i: int, l: int) -> int:
        return self._counts[i][l]

    def dims_grid(self) -> list[list[int]]:
        return [list(row) for row in self._counts]

    def total_dim(self) -> int:
        return sum(map(sum, self._counts))

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def grades(self) -> tuple[tuple[int, int], ...]:
        """Grades with at least one basis path, in lexicographic order."""
        return self._grades

    def axis_dims(self) -> list[int]:
        """Per-atom dimensions on a one-label base (the tensor axes)."""
        return [a.dims[0][0] for a in self.atoms]

    def __repr__(self):
        return "Obj[" + " ".join(a.name for a in self.atoms) + "]" if self.atoms else "Obj[1]"


def _owned_memo(fn):
    """Memoize fn(word, *args) in the word's own memo, so that each value
    lives exactly as long as the word it was derived from."""
    @wraps(fn)
    def memoized(obj: GradedObj, *args):
        key = (fn, *args)
        try:
            return obj._memo[key]
        except KeyError:
            out = obj._memo[key] = fn(obj, *args)
            return out
    return memoized


@_owned_memo
def _flat_size(word: GradedObj) -> int:
    """The number of flat positions of a word: the product of its atoms'
    sizes.  Flat positions are int64, so it must stay below 2**63."""
    n = prod(sum(map(sum, a.dims)) for a in word.atoms)
    if n >= INT64_BOUND:
        raise ExactError(f"{word!r} has {n} flat positions, past int64")
    return n


def _cell_starts(dims: tuple) -> np.ndarray:
    """Where each cell of an atom grid starts in the atom's flattening."""
    sizes = np.ravel(dims)
    return (np.cumsum(sizes) - sizes).reshape(len(dims), -1)


@_owned_memo
def _positions_from(word: GradedObj, i: int) -> dict:
    """The sorted flat positions of a word's paths from label i, by the
    label they end at (read-only).

    Built atom by atom from the paths of each prefix, so no array is longer
    than a path count.
    """
    _flat_size(word)
    front = {i: np.zeros(1, dtype=np.int64)}
    for a in word.atoms:
        size, starts = sum(map(sum, a.dims)), _cell_starts(a.dims)
        front = {k: np.sort(np.concatenate([
            (pos[:, None] * size + starts[j, k] + np.arange(a.dims[j][k])).ravel()
            for j, pos in front.items()]))
            for k in range(word.base.nlabels) if any(a.dims[j][k] for j in front)}
    for pos in front.values():
        pos.flags.writeable = False
    return front


def positions(word: GradedObj, i: int, l: int) -> np.ndarray:
    """The sorted flat positions of a word's (i, l)-paths (read-only)."""
    return _positions_from(word, i).get(l, np.zeros(0, dtype=np.int64))


def _joined(word: GradedObj, i: int, l: int, parts: list) -> np.ndarray:
    """The indices in a word's (i, l) path order of the paths cut into
    pieces on consecutive sub-words: `parts` lists (sub-word, flat
    positions of the pieces), the arrays broadcast against each other.

    An index is the rank of the path's flat position among
    positions(word, i, l), or the position itself when every flat
    position is an (i, l)-path (always, on one label)."""
    n = _flat_size(word)
    flat = 0
    for sub, pos in parts:
        flat = flat * _flat_size(sub) + pos
    if word.count(i, l) == n:
        return flat
    return np.searchsorted(positions(word, i, l), flat)


@_owned_memo
def _dual_positions(word: GradedObj, i: int, l: int) -> np.ndarray:
    """The flat positions in dual(word) of the duals of the (i, l)-paths,
    in path order: the atoms reversed, each digit at the same place of the
    transposed cell (read-only)."""
    flat = positions(word, i, l)
    out = np.zeros_like(flat)
    for a in reversed(word.atoms):
        size = sum(map(sum, a.dims))
        shift = (_cell_starts(a.dual().dims).T - _cell_starts(a.dims)).ravel()
        flat, digit = np.divmod(flat, size)
        out = out * size + digit + np.repeat(shift, np.ravel(a.dims))[digit]
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


class GradedMor:
    """Grade-preserving linear map between two words.

    `blocks` maps a grade (i, l) to a matrix of shape
    (dst.count(i,l), src.count(i,l)), dense or, on one label, a
    SparseTensor (see the module docstring); grades where either count
    is zero are omitted.
    """

    # step: the morphism as a whole chain step, made by chain.Step.whole
    # on first use and kept here
    __slots__ = ("src", "dst", "blocks", "step")

    def __init__(self, src: GradedObj, dst: GradedObj, blocks: dict):
        if src.base != dst.base:
            raise BaseMismatch("morphism across different bases")
        self.src = src
        self.dst = dst
        self.step = None
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
    def of_blocks(src: GradedObj, dst: GradedObj, blocks: dict) -> "GradedMor":
        """The morphism with these blocks, already one of the right shape
        at each grade of both words: taken as they are, unchecked."""
        mor = object.__new__(GradedMor)
        mor.src, mor.dst, mor.blocks, mor.step = src, dst, blocks, None
        return mor

    @staticmethod
    def zero(src: GradedObj, dst: GradedObj) -> "GradedMor":
        return GradedMor(src, dst, {})

    def held(self, i: int, l: int):
        """The block at a grade as it is held, dense or a SparseTensor
        (zeros when absent)."""
        g = (i, l)
        if g in self.blocks:
            return self.blocks[g]
        return self.field.zeros((self.dst.count(i, l), self.src.count(i, l)))

    def block(self, i: int, l: int):
        """Dense block at a grade (zeros when absent)."""
        m = self.held(i, l)
        if not isinstance(m, SparseTensor):
            return m
        from .chain import _dense  # chain builds on this module
        return _dense(self.field, m)

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "GradedMor") -> "GradedMor":
        """self after other."""
        if other.dst != self.src:
            raise DimensionMismatch("composition mismatch")
        f = self.field
        blocks = {}
        for g in self.blocks:
            if g in other.blocks:
                blocks[g] = f.matmul(self.block(*g), other.block(*g))
        return GradedMor(other.src, self.dst, blocks)

    def __matmul__(self, other: "GradedMor") -> "GradedMor":
        return self.compose(other)

    def _blockwise(self, op, other: "GradedMor") -> "GradedMor":
        """`op` (operator.add or operator.sub) of the blocks, absent ones read
        as zero.  Where either block is held sparse the nonzeros are merged
        (exactla.sparse_sum) and the sum held as chain holds a tensor; the
        dense arrays are added only when the int64 sums could wrap."""
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch(f"{op.__name__} of morphisms with different ends")
        f = self.field
        blocks = {}
        for g in set(self.blocks) | set(other.blocks):
            a, b = self.held(*g), other.held(*g)
            out = None
            if isinstance(a, SparseTensor) or isinstance(b, SparseTensor):
                out = sparse_sum(f, a, b, negate=op is operator.sub)
            if out is None:
                out = f.reduce(op(self.block(*g), other.block(*g)))
            else:
                from .chain import _held  # chain builds on this module
                out = _held(f, out)
            blocks[g] = out
        return GradedMor(self.src, self.dst, blocks)

    def __add__(self, other: "GradedMor") -> "GradedMor":
        return self._blockwise(operator.add, other)

    def __sub__(self, other: "GradedMor") -> "GradedMor":
        return self._blockwise(operator.sub, other)

    def __neg__(self) -> "GradedMor":
        f = self.field
        return GradedMor(self.src, self.dst,
                         {g: f.reduce(-self.block(*g)) for g in self.blocks})

    def scale(self, c) -> "GradedMor":
        f = self.field
        c = f.coerce(c)
        return GradedMor(self.src, self.dst,
                         {g: f.reduce(self.block(*g) * c) for g in self.blocks})

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(not m.vals.any() if isinstance(m, SparseTensor) else bool(np.all(m == zero))
                   for m in self.blocks.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMor):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        f = self.field
        return all(f.equal(self.held(*g), other.held(*g))
                   for g in set(self.blocks) | set(other.blocks))

    def __hash__(self):
        raise TypeError("GradedMor is unhashable")

    def __repr__(self):
        return f"Mor({self.src!r} -> {self.dst!r})"

    # -- duality ---------------------------------------------------------------

    def ldual(self) -> "GradedMor":
        """Transpose along the duality pairing: dual(dst) -> dual(src).

        With the fixed dual bases the left and right transposes coincide,
        so this one map serves both sides."""
        f = self.field
        src_d, dst_d = self.dst.dual(), self.src.dual()
        blocks = {}
        for (i, l) in self.blocks:
            # block of the dual morphism at grade (l, i)
            rp = _perm_to_dual(self.src, i, l)
            cp = _perm_to_dual(self.dst, i, l)
            out = f.zeros((self.src.count(i, l), self.dst.count(i, l)))
            out[np.ix_(rp, cp)] = self.block(i, l).T
            blocks[(l, i)] = out
        return GradedMor(src_d, dst_d, blocks)


@_owned_memo
def _perm_to_dual(obj: GradedObj, i: int, l: int) -> np.ndarray:
    """perm[k] = the index in dual(obj)'s (l, i) path order of the dual of
    obj's k-th (i, l)-path (read-only)."""
    dual = obj.dual()
    out = _joined(dual, l, i, [(dual, _dual_positions(obj, i, l))])
    out.flags.writeable = False
    return out


def identity(obj: GradedObj) -> GradedMor:
    return GradedMor.identity(obj)


# ---------------------------------------------------------------------------
# Duality data
# ---------------------------------------------------------------------------


def _pairing(x: GradedObj, dual_first: bool) -> tuple:
    """The word dual(x) ⊗ x (dual_first) or x ⊗ dual(x), with its pairing
    row of the standard dual bases at every diagonal grade (i, i): each
    path of x meets its dual in dual(x).  A row is built as a SparseTensor,
    its one nonzero per path at sorted positions, and held so on one label
    when it has more than chain.SPARSE_FIXED entries, dense otherwise."""
    from .chain import SPARSE_FIXED  # chain builds on this module
    xd = x.dual()
    word = xd.tensor(x) if dual_first else x.tensor(xd)
    rows = {}
    for (i, l) in word.grades():
        if i != l:
            continue
        hits = []
        for j in range(x.base.nlabels):
            # p runs through x from label a to b, its dual through dual(x)
            a, b = (j, i) if dual_first else (i, j)
            p, dp = positions(x, a, b), _dual_positions(x, a, b)
            parts = [(xd, dp), (x, p)] if dual_first else [(x, p), (xd, dp)]
            hits.append(_joined(word, i, i, parts))
        n = word.count(i, i)
        index = np.sort(np.concatenate(hits))
        row = SparseTensor((1, n), index, np.ones(len(index), dtype=np.int64))
        rows[(i, i)] = row if x.base.is_vector and n > SPARSE_FIXED else row.dense(x.base.field)
    return word, rows


def _ev(x: GradedObj, dual_first: bool) -> GradedMor:
    word, rows = _pairing(x, dual_first)
    return GradedMor(word, GradedObj.unit(x.base), rows)


def _coev(x: GradedObj, dual_first: bool) -> GradedMor:
    word, rows = _pairing(x, dual_first)
    return GradedMor(GradedObj.unit(x.base), word,
                     {g: m.reshape((m.shape[1], 1)) for g, m in rows.items()})


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
