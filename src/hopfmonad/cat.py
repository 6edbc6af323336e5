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
counts once, when it is first built, and keeps its dual; its path data,
dual permutations and offsets, and the split and layout positions derived
from it, are kept in a memo the word owns (keyed by the further words for
the positions, on the first word).  Everything derived from a word is
therefore dropped together with it, and the tables hold only live words.

Concretely, the graded piece of a word at (i, l) has one basis vector
per *path* i -> ... -> l through the atoms.  Each atom is flattened over
its grid cells in row-major order, a basis vector at its place in its
cell, and a path is its row-major multi-index over the atoms, its *flat
position*.  The (i, l)-paths are ordered by flat position (`positions`),
and a path's index is its rank among them.  A word's paths from i are
built once, from its prefix's in one step over the last atom, with the
label each ends at (`_paths_from`).  The index of a path cut into pieces
on consecutive sub-words is the sum of per-piece offsets: a piece's
offset counts, over the paths of its sub-word from the same label before
it, the paths through the sub-words after it to l (`_offsets`).  So the
pieces' indices in a longer word never need the longer word; on one label
every flat position is a path, the offsets are the flat positions, and
one rule serves both backends.  The dual of a basis vector sits at the
same place of the transposed cell, in the dual atom: the dual of a path
reverses its multi-index and moves each digit to the transposed cell,
and its index in the dual word is built with the path (`_perm_to_dual`).

Morphisms are grade-preserving linear maps, one exact matrix per grade.
On a multi-label base every block is a dense array.  On one label the
single block is held by exactla's size rule (_held): an
exactla.SparseTensor past SPARSE_FIXED entries, a dense array otherwise.
It is held sparse as a chain result or a product `@` (per grade the held
product exactla.held_tensordot, held by the rule), as a pairing row (one
nonzero per path), or once a chain step has read it for its nonzeros:
every step over a morphism keeps that form on it (with the dense array
it was read from).  Equality, is_zero, +, -, @, the solvers of exactla
and the dual (ldual, which reindexes the nonzeros and is kept on the
morphism) read either form as it is; block() gives the dense array, for
the report, negation and scaling, bounded by exactla.MAX_STATE_ENTRIES.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field as dataclass_field
from functools import wraps
from typing import NamedTuple

import numpy as np

from .exactla import (INT64_BOUND, DimensionMismatch, ExactError, FieldSpec, SparseTensor,
                      _dense, _held, held_tensordot, sparse_sum)


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

    # _cells: the flattening tables of cells(), made on first use
    __slots__ = ("name", "dims", "_cells")

    def __new__(cls, name: str, dims: tuple):
        atom = _ATOMS.get((name, dims))
        if atom is None:
            if any(d < 0 for row in dims for d in row):
                raise ExactError("negative dimension")
            atom = cls._make(_ATOMS, (name, dims), name=name, dims=dims, _cells=None)
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

    def cells(self) -> tuple:
        """The atom's flattening as read-only arrays, made once: per row j
        of the grid, its basis vectors' places in the flattening (padded
        with -1 to the widest row) and their number; the column of each
        vector; and per vector, in cell (j, k) at place b, the weights of
        its dual's offset in the dual atom from k: by label x, the vectors
        of cell (x, k) for x < j, and b for x = j."""
        if self._cells is None:
            L = self.nlabels
            dims = np.array(self.dims, dtype=np.int64).reshape(L, L)
            sizes = dims.ravel()
            row, col = np.divmod(np.repeat(np.arange(L * L), sizes), L)
            place = np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            x = np.arange(L)
            dual = (np.where(x < row[:, None], dims[x, col[:, None]], 0)
                    + np.where(x == row[:, None], place[:, None], 0))
            width = dims.sum(axis=1)
            t = np.arange(width.max())
            rows = np.where(t < width[:, None], np.cumsum(width)[:, None] - width[:, None] + t, -1)
            cells = (rows, width, col, dual)
            for arr in cells:
                arr.flags.writeable = False
            object.__setattr__(self, "_cells", cells)
        return self._cells


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
                if len(a.dims) != L:
                    raise BaseMismatch("atom grid does not match the label set")
                cols = tuple(zip(*a.dims))
                counts = tuple([tuple([sum(map(operator.mul, row, col)) for col in cols])
                                for row in counts])
            grades = tuple([(i, l) for i in range(L) for l in range(L) if counts[i][l]])
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
        return _tensor(self, other)

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
def _tensor(x: GradedObj, y: GradedObj) -> GradedObj:
    """x ⊗ y, kept in x's memo: the words a word is tensored with are few
    and met again and again (the carrier with every argument)."""
    return GradedObj(x.base, x.atoms + y.atoms)


class _Paths(NamedTuple):
    """A word's paths from one label, in path order (see _paths_from)."""

    prefix: "GradedObj | None"  # the word without its last atom, kept alive
    size: int  # the word's number of flat positions
    continuations: "np.ndarray | None"  # per path of the prefix
    vectors: "np.ndarray | None"  # per path, its vector of the last atom
    ends: np.ndarray  # per path, the label it ends at
    order: np.ndarray  # the paths, stably sorted by end label
    bounds: dict  # per end label l, the slice of order of the (i, l)-paths


@_owned_memo
def _paths_from(word: GradedObj, i: int) -> _Paths:
    """A word's paths from label i, in path order, built from its prefix's
    paths in one step over the last atom: each path is followed by the
    basis vectors of its end label's row of the atom grid, in flattening
    order (Atom.cells), so nothing is sorted.  The arrays are read-only.

    Flat positions are int64, so the word's flat size, the product of its
    atoms' sizes, must stay below 2**63."""
    if not word.atoms:
        prefix, size, n, digit, ends = None, 1, None, None, np.full(1, i)
    else:
        prefix = GradedObj(word.base, word.atoms[:-1])
        rows, width, col, _ = word.atoms[-1].cells()
        before = _paths_from(prefix, i)
        size = before.size * len(col)
        if size >= INT64_BOUND:
            raise ExactError(f"{word!r} has {size} flat positions, past int64")
        n, grid = width[before.ends], rows[before.ends]
        digit = grid[grid >= 0]
        ends = col[digit]
    order, bounds, start = np.argsort(ends, kind="stable"), {}, 0
    for l, count in enumerate(word._counts[i]):
        if count:
            bounds[l] = slice(start, start + count)
            start += count
    for arr in (n, digit, ends, order):
        if arr is not None:
            arr.flags.writeable = False
    return _Paths(prefix, size, n, digit, ends, order, bounds)


@_owned_memo
def _flat_and_duals(word: GradedObj, i: int) -> tuple:
    """For a word's paths from label i, in path order, the flat position of
    each and the index of its dual among the paths of dual(word) from its
    end label back to i (read-only).  The dual of a path extended by a
    vector starts with the vector's dual, so its index is the prefix path's
    dual index plus the vector's dual offset, weighted by the prefix's
    paths from i to each label (Atom.cells)."""
    paths = _paths_from(word, i)
    if paths.prefix is None:
        flat = duals = np.zeros(1, dtype=np.int64)
    else:
        flat, duals = _flat_and_duals(paths.prefix, i)
        _, _, col, dual = word.atoms[-1].cells()
        shift = dual @ np.array(paths.prefix._counts[i], dtype=np.int64)
        flat = np.repeat(flat, paths.continuations) * len(col) + paths.vectors
        duals = np.repeat(duals, paths.continuations) + shift[paths.vectors]
    flat.flags.writeable = duals.flags.writeable = False
    return flat, duals


def positions(word: GradedObj, i: int, l: int) -> np.ndarray:
    """The sorted flat positions of a word's (i, l)-paths (read-only)."""
    paths = _paths_from(word, i)
    out = (_flat_and_duals(word, i)[0][paths.order[paths.bounds[l]]] if l in paths.bounds
           else np.zeros(0, dtype=np.int64))
    out.flags.writeable = False
    return out


@_owned_memo
def _offsets(word: GradedObj, i: int, weights: tuple) -> dict:
    """off(p; w) for a word's paths p from label i, by the label they end
    at (read-only): the sum of w[end(p')] over the paths p' from i before p.

    With w[j] the number of paths from j to a label l through the words
    that follow, off(p; w) is the index of p's first continuation among the
    (i, l)-paths of the longer word.  So the index of a path cut into
    pieces is the sum of its pieces' offsets, each weighted by the paths
    through the pieces after it: a ranking by counting completions, for
    which the joined word is never built."""
    paths = _paths_from(word, i)
    w = np.array(weights, dtype=np.int64)[paths.ends]
    off = (np.cumsum(w) - w)[paths.order]
    off.flags.writeable = False
    return {l: off[b] for l, b in paths.bounds.items()}


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

    __slots__ = ("src", "dst", "blocks", "_ldual")

    def __init__(self, src: GradedObj, dst: GradedObj, blocks: dict):
        if src.base != dst.base:
            raise BaseMismatch("morphism across different bases")
        self.src = src
        self.dst = dst
        self._ldual = None
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
        mor.src, mor.dst, mor.blocks, mor._ldual = src, dst, blocks, None
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
        return _dense(self.field, self.held(i, l))

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "GradedMor") -> "GradedMor":
        """self after other: per grade the held product of the blocks, held
        by _held's size rule on one label and dense on several."""
        if other.dst != self.src:
            raise DimensionMismatch("composition mismatch")
        f = self.field
        hold = _held if self.base.is_vector else _dense
        return GradedMor(other.src, self.dst, {
            g: hold(f, held_tensordot(f, m, other.blocks[g], [1], [0]))
            for g, m in self.blocks.items() if g in other.blocks})

    def __matmul__(self, other: "GradedMor") -> "GradedMor":
        return self.compose(other)

    def _blockwise(self, op, other: "GradedMor") -> "GradedMor":
        """`op` (operator.add or operator.sub) of the blocks, absent ones read
        as zero.  Where either block is held sparse the nonzeros are merged
        (exactla.sparse_sum) and the sum held (_held); the dense arrays are
        added only when the int64 sums could wrap."""
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch(f"{op.__name__} of morphisms with different ends")
        f = self.field
        blocks = {}
        for g in set(self.blocks) | set(other.blocks):
            a, b = self.held(*g), other.held(*g)
            out = None
            if isinstance(a, SparseTensor) or isinstance(b, SparseTensor):
                out = sparse_sum(f, a, b, negate=op is operator.sub)
            blocks[g] = (f.reduce(op(self.block(*g), other.block(*g))) if out is None
                         else _held(f, out))
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
        so this one map serves both sides.  Built on the first call and
        kept on the morphism; the dual refers to nothing of this morphism
        but its words, so the two make no reference cycle.  A block held
        sparse on one label (by _held's size rule) gives a dual block held
        sparse, its nonzeros reindexed, so no dense copy is kept."""
        if self._ldual is None:
            f = self.field
            blocks = {}
            for (i, l), m in self.blocks.items():
                # block of the dual morphism at grade (l, i): entry (r, c)
                # goes to (rp[c], cp[r])
                rp = _perm_to_dual(self.src, i, l)
                cp = _perm_to_dual(self.dst, i, l)
                rows, cols = m.shape
                if self.base.is_vector:
                    m = _held(f, m)
                if isinstance(m, SparseTensor):
                    r, c = np.divmod(m.index, cols)
                    blocks[(l, i)] = SparseTensor((cols, rows), rp[c] * rows + cp[r],
                                                  m.vals, m.den)
                    continue
                out = f.zeros((cols, rows))
                out[np.ix_(rp, cp)] = m.T
                blocks[(l, i)] = out
            self._ldual = GradedMor(self.dst.dual(), self.src.dual(), blocks)
        return self._ldual


@_owned_memo
def _perm_to_dual(obj: GradedObj, i: int, l: int) -> np.ndarray:
    """perm[k] = the index in dual(obj)'s (l, i) path order of the dual of
    obj's k-th (i, l)-path (read-only)."""
    paths = _paths_from(obj, i)
    out = (_flat_and_duals(obj, i)[1][paths.order[paths.bounds[l]]] if l in paths.bounds
           else np.zeros(0, dtype=np.int64))
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
    its one nonzero per path at sorted positions, and held by _held's size
    rule on one label, dense otherwise."""
    xd = x.dual()
    word = xd.tensor(x) if dual_first else x.tensor(xd)
    labels = range(x.base.nlabels)
    rows = {}
    for (i, l) in word.grades():
        if i != l:
            continue
        if dual_first:
            # (dual of p, p) for the paths p of x from j to i: the dual's
            # offset in dual(x), weighted by x's paths from j to i, plus
            # the index of p
            off = _offsets(xd, i, tuple(x.count(j, i) for j in labels))
            hits = [o[_perm_to_dual(x, j, i)] + np.arange(len(o)) for j, o in off.items()]
        else:
            # (p, dual of p) for the paths p of x from i to j: p's offset,
            # weighted by dual(x)'s paths from j to i, plus the dual's index
            off = _offsets(x, i, tuple(x.count(i, j) for j in labels))
            hits = [o + _perm_to_dual(x, i, j) for j, o in off.items()]
        n = word.count(i, i)
        index = np.sort(np.concatenate(hits))
        row = SparseTensor((1, n), index, np.ones(len(index), dtype=np.int64))
        rows[(i, i)] = (_held if x.base.is_vector else _dense)(x.base.field, row)
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
