"""Evaluation of long composites of whiskered morphisms.

Every axiom in this package is a composite of steps of the form
id_L ⊗ g ⊗ id_R where g is either a small stored morphism or the
extension of a stored transformation component.  A Chain records the
steps; eval() turns the composite into an honest GradedMor.  It is the
one place the library whiskers: T(f) = id_A ⊗ f, eta_X = u ⊗ id_X and
mu_X = m ⊗ id_X are one-step chains too (TensoringBimonad.on_mor and
eta_mor, modcat.free_module); the tests compare chains with dense
Kronecker products of whiskers.

Neither backend materializes a whiskered factor id_L ⊗ g ⊗ id_R.  On a
one-label base a chain is a tensor network applied to an identity.
Each atom of the running word carries a wire, and each step is a core
tensor whose legs are the wires it produces and the wires it consumes
(its out_axes and in_axes: all of its atoms when the step is a whole
morphism); the wires a step passes through keep their labels.
The network is contracted one pair at a time: of the pairs of tensors
that share a wire, the one whose result is smallest, the first by
position among equals (_next_pair).  A disconnected remainder is joined
by outer products.  The wires that go from source to target untouched
are not contracted: the network's result is placed beside the identity
on them once at the end (_place: each of its entries written on the
diagonal of its own block, by a strided write into zeros or by index
arithmetic on its nonzeros, nothing multiplied), and a chain of no steps
is the scalar 1 so placed.  The result's axes are then put in the order
(target wires, source wires).  So steps on disjoint wires commute, and
an inserted element (an R-matrix, a coevaluation) meets the products on
its legs before any identity width: on the 25-, 36- and 64-dimensional
doubles no intermediate exceeds carrier-dim^4.
Re-associating exact products cannot change a result; the tests compare
the evaluator against dense whiskered matrices and another pair order.

A tensor of the network is a dense array or an exactla.SparseTensor,
its nonzeros by linear position.  On the builtin doubles the structure
cores send basis vectors to a few basis vectors, and most pairwise
products are almost empty (one nonzero in 10^3 to 10^4 entries).  So
each pair is contracted on the route that a cost estimate says is
cheaper (_sparse_product): dense, by one FieldSpec.tensordot (a single
integer product on float64 BLAS), or sparse, by joining the nonzeros on
the shared wires and summing the products per output position
(exactla.sparse_tensordot).  The
estimate counts the operands' entries, their nonzeros and the pairs of
nonzeros the join makes; small products stay dense without a count.
The sparse sums run in int64, and the route is taken
only where they are exact (exactla.sparse_exact): over GF(p) each
product of residues is below 2**40, so fewer than 2**23 of them may meet
at one entry; over Q the numerators must satisfy the bound of the dense
integer product, inner * max|a| * max|b| < 2**63.  Both routes give the
same exact tensor, so no report depends on the choice.  A tensor of
more than SPARSE_FIXED entries is held as a SparseTensor (_held), one of
at most that many as a dense array.  A step's core is a GradedMor whose
block is held once and kept so on the morphism (Step.tensor): every step
over it, a chain's whisker or a natural family's step at any arguments,
reads that block once.  The result keeps the form its last contraction
gave it, held by the same rule: a sparse result of more than
SPARSE_FIXED entries is the GradedMor's block as it is, never made
dense here (cat.py says which consumers ask for the dense array).
MAX_STATE_ENTRIES bounds the stored entries of each intermediate (the
nonzeros of a sparse one, the placed result too), the dense array of a
sparse tensor made dense (an operand that takes the dense route, or a
block asked for dense), and
the joined pairs of a sparse product times the arrays the join holds.
So a result is bounded by what it stores; the one result no contraction
makes, the zero array of a composite through a zero-dimensional wire, is
checked where it is allocated.

On a multi-label base the running composite is one block per grade
(i, l), its rows the current word's (i, l)-paths.  A step
id_L ⊗ g ⊗ id_R is applied per grade and per block (j, k) of g: the
rows at the paths i -> j -> k -> l through (L, source of g, R) are
gathered, contracted with g's (j, k) block and scattered to the paths
through (L, target of g, R).  A path's index is the sum of its pieces'
offsets (cat._offsets): L's, weighted by the paths through g's side and
R to l, plus g's side's, weighted by R's, plus the index in R, one
broadcast sum of three vectors that reads R only through its path counts
and never builds L ⊗ g ⊗ R (_split_positions, kept in L's memo).  The
chain's source word keeps, per (place, step), the word after the step
and its positions (_step_positions), so only the words a chain passes
through are built, each once.  The chain starts from the identity,
which is never formed: its first step is the whisker itself, each entry
of g's blocks placed at its pairs of paths.

A natural family is stored by its components at simples; its source
and target functors are slot layouts, each slot a fixed word (the
carrier or its dual), an argument k, or the dual ~k of argument k.
extend builds the forced direct-sum extension of such a family to
arbitrary arguments: the inclusions and projections of simple summands
are coordinate maps, so each component block is placed straight at the
rows and columns of the chosen paths, for every choice of summands at
one tuple of grades at once.
"""

from __future__ import annotations

import operator
from itertools import product
from math import prod

import numpy as np

from .cat import GradedMor, GradedObj, _offsets, _owned_memo, _perm_to_dual
from .exactla import (INT64_BOUND, JOIN_ARRAYS, DimensionMismatch, ExactError,
                      SparseTensor, sparse_exact, sparse_tensordot)

# Cap on the stored entries of any pairwise intermediate (its nonzeros when
# it is sparse), and so of the result, per evaluation.
MAX_STATE_ENTRIES = 3 * 10**8

# The cost rule of _contract (see _sparse_product), in passes over one
# stored entry, about a nanosecond each: the BLAS multiply-adds per pass,
# the sparse product's cost per nonzero and per joined pair (a sort, a
# binary search and several gathers), and its fixed cost beyond the dense
# route's (a few dozen numpy calls).
DENSE_FLOPS_PER_PASS = 8
SPARSE_PASSES = 64
SPARSE_FIXED = 20000


class ChainOverflow(ExactError):
    pass


class Step:
    """One rewriting step src -> dst: the morphism `mor`, its core, on
    some of the atoms of src.  Without src and dst, as on the graded
    backend, the step is the whole morphism.  Otherwise the core consumes
    the source atoms in_axes (row-major in the listed order) and produces
    the target atoms out_axes; the k-th passing target atom is fed by the
    pass_perm[k]-th passing source atom (in order when omitted), and
    feeds pairs each passing target atom with its source atom."""

    _tensor = None
    feeds = ()

    def __init__(self, mor: GradedMor, src: GradedObj | None = None,
                 dst: GradedObj | None = None, in_axes: tuple = (), out_axes: tuple = (),
                 pass_perm: tuple | None = None):
        self.mor = mor
        if src is None:
            self.src, self.dst = mor.src, mor.dst
            self.in_axes, self.out_axes = range(len(mor.src.atoms)), range(len(mor.dst.atoms))
            return
        if not src.base.is_vector:
            raise ExactError("a step on some atoms is one-label only")
        self.src, self.dst = src, dst
        self.in_axes, self.out_axes = tuple(in_axes), tuple(out_axes)
        sd, dd = src.axis_dims(), dst.axis_dims()
        core = (mor.dst.total_dim(), mor.src.total_dim())
        shape = (prod(dd[a] for a in self.out_axes), prod(sd[a] for a in self.in_axes))
        if core != shape:
            raise DimensionMismatch(f"core shape {core}, expected {shape}")
        pass_src = [a for a in range(len(sd)) if a not in self.in_axes]
        pass_dst = [a for a in range(len(dd)) if a not in self.out_axes]
        perm = range(len(pass_src)) if pass_perm is None else pass_perm
        if sorted(perm) != list(range(len(pass_src))):
            raise DimensionMismatch("pass_perm is not a permutation")
        self.feeds = tuple(zip(pass_dst, (pass_src[p] for p in perm)))
        if len(pass_dst) != len(pass_src) or any(dd[d] != sd[s] for d, s in self.feeds):
            raise DimensionMismatch("pass-through axes do not line up")

    def to_mor(self) -> GradedMor:
        """The step as one morphism src -> dst: on one label the chain of
        this step alone, on the graded backend its own morphism."""
        return Chain(self.src).then(self).eval() if self.src.base.is_vector else self.mor

    def tensor(self):
        """Vector backend: the core on the step's legs, the atoms it
        produces, then those it consumes.  The morphism's block is held once
        (_held) and kept on the morphism in that form, so every step over
        one morphism reads it once and shares it.  Nothing refers back to
        the step, so a morphism and its steps make no reference cycle."""
        if self._tensor is None:
            mor = self.mor
            held = _held(mor.field, mor.held(0, 0))
            if (0, 0) in mor.blocks:
                mor.blocks[(0, 0)] = held
            sd, dd = self.src.axis_dims(), self.dst.axis_dims()
            self._tensor = held.reshape([dd[a] for a in self.out_axes] +
                                        [sd[a] for a in self.in_axes])
        return self._tensor


class Chain:
    """A composite of whiskered steps, built source-to-target."""

    def __init__(self, src: GradedObj):
        self.src = src
        # the atoms of the running word; its word is built only when asked
        # for (dst), then kept until the next step
        self.atoms, self._dst = src.atoms, src
        self.steps: list[tuple[int, Step]] = []

    def then(self, step, at: int = 0) -> "Chain":
        """Append id ⊗ step ⊗ id with step.src starting at atom index `at`."""
        if isinstance(step, GradedMor):
            step = Step(step)
        n = len(step.src.atoms)
        if self.atoms[at:at + n] != step.src.atoms:
            raise DimensionMismatch(
                f"step source {step.src!r} does not match {self.dst!r} at {at}")
        self.steps.append((at, step))
        self.atoms, self._dst = self.atoms[:at] + step.dst.atoms + self.atoms[at + n:], None
        return self

    @property
    def dst(self) -> GradedObj:
        if self._dst is None:
            self._dst = GradedObj(self.src.base, self.atoms)
        return self._dst

    def eval(self) -> GradedMor:
        if self.src.base.is_vector:
            return self._eval_vector()
        return self._eval_graded()

    # -- graded backend: gather, contract, scatter ----------------------------

    def _eval_graded(self) -> GradedMor:
        if not self.steps:
            return GradedMor.identity(self.src)
        field = self.src.base.field
        # one block per grade (i, l) of the source: rows are the current
        # word's (i, l)-paths, columns the source's; None is the identity
        # the chain starts from, which is never formed
        state = dict.fromkeys(self.src.grades())
        cur = self.src
        for at, step in self.steps:
            cur, split = _step_positions(cur, at, step.src, step.dst)
            state = {g: _apply_graded(step.mor, split.get(g), block, cur.count(*g),
                                      self.src.count(*g), field)
                     for g, block in state.items()}
        # the blocks are of the right shapes by construction; a grade with
        # no paths in the final word has none
        return GradedMor.of_blocks(self.src, cur,
                                   {g: b for g, b in state.items() if cur.count(*g)})

    # -- vector backend: one tensor network ----------------------------------

    def _eval_vector(self) -> GradedMor:
        field = self.src.base.field
        dst = self.dst
        ns, nd = self.src.total_dim(), dst.total_dim()
        # wires[k] is the wire on atom k of the running word; the source's
        # wires are 0 .. len(src) - 1, and each produced wire gets the next
        # label.  A step's tensor has the wires it produces, then the wires
        # it consumes.
        dims = self.src.axis_dims()
        nsrc = len(dims)
        wires = list(range(nsrc))
        tensors = []
        for at, step in self.steps:
            t = step.tensor()
            here = wires[at:at + len(step.src.atoms)]
            # the produced wires' dimensions lead the tensor's shape
            made = range(len(dims), len(dims) + len(step.out_axes))
            dims += t.shape[:len(made)]
            mid = [None] * len(step.dst.atoms)
            for d, s in step.feeds:
                mid[d] = here[s]
            for a, w in zip(step.out_axes, made):
                mid[a] = w
            tensors.append((t, (*made, *(here[a] for a in step.in_axes))))
            wires[at:at + len(here)] = mid
        # a wire of dimension 0 makes the composite zero (and an empty
        # operand cannot be reshaped for tensordot); the one result that
        # no contraction bounds
        if 0 in dims:
            _check_size(nd * ns)
            return GradedMor(self.src, dst, {(0, 0): field.zeros((nd, ns))})
        if not tensors:
            # no step: the identity is the scalar 1 tensored with it
            tensors = [(field.eye(1).reshape(()), ())]
        while len(tensors) > 1:
            # two tensors make the only pair, connected or not
            pick = _next_pair([legs for _, legs in tensors], dims) if len(tensors) > 2 else None
            _, i, j = (0, 0, 1) if pick is None else pick
            tensors[i] = _contract(field, tensors[i], tensors[j])
            del tensors[j]
        # the source wires still in the target passed untouched: the
        # network's result is placed beside the identity on them, its
        # target legs under new labels
        ident = [w for w in wires if w < nsrc]
        relabel = {w: len(dims) + k for k, w in enumerate(ident)}
        out, legs = tensors[0]
        if ident:
            out, legs = _contract(field, tensors[0], (
                _Identity([dims[w] for w in ident]),
                tuple(relabel[w] for w in ident) + tuple(ident)))
        order = [relabel.get(w, w) for w in wires] + list(range(nsrc))
        out = out.transpose([legs.index(w) for w in order]).reshape((nd, ns))
        if isinstance(out, SparseTensor) and out.size <= SPARSE_FIXED:
            out = out.dense(field)
        return GradedMor.of_blocks(self.src, dst, {(0, 0): out})


class _Identity:
    """The identity on wires of dimensions `shape` as an operand of
    _contract, which places its product with a tensor (_place) instead of
    multiplying by it."""

    __slots__ = ("shape",)

    def __init__(self, shape: list):
        self.shape = tuple(shape)


def _check_size(entries: int) -> None:
    if entries > MAX_STATE_ENTRIES:
        raise ChainOverflow(f"intermediate of {entries} entries; "
                            "restructure the formula (nest sub-composites)")


def _next_pair(legs: list, dims: list):
    """(result entries, i, j) of the next pair of tensors to contract: of
    the pairs whose legs share a wire, the one with the smallest result,
    the first by position among equals; None when no two share a wire."""
    best = None
    legs = [set(a) for a in legs]
    for i, a in enumerate(legs):
        for j in range(i + 1, len(legs)):
            if a.isdisjoint(legs[j]):
                continue
            size = prod(dims[w] for w in a ^ legs[j])
            if best is None or size < best[0]:
                best = (size, i, j)
    return best


def _contract(field, x: tuple, y: tuple) -> tuple:
    """Two (tensor, legs) pairs contracted over their shared wires; the
    result's legs are x's free legs, then y's.  A tensor is a dense array
    or a SparseTensor.  The product is sparse where _sparse_product finds
    that cheaper and exact, and one dense FieldSpec.tensordot otherwise."""
    (a, la), (b, lb) = x, y
    if isinstance(b, _Identity):
        return _place(field, a, b.shape), la + lb
    shared = [w for w in la if w in lb]
    ax_a = [la.index(w) for w in shared]
    ax_b = [lb.index(w) for w in shared]
    legs = tuple(w for w in la if w not in shared) + tuple(w for w in lb if w not in shared)
    inner = prod(a.shape[i] for i in ax_a)
    size = a.size // inner * (b.size // inner)
    out = _sparse_product(field, a, b, ax_a, ax_b, inner, size)
    if out is not None:
        _check_size(out.nnz)
        return out, legs
    _check_size(size)
    return field.tensordot(_dense(field, a), _dense(field, b), axes=(ax_a, ax_b)), legs


def _sparse_product(field, a, b, ax_a: list, ax_b: list, inner: int, size: int):
    """The product of a and b over the axes ax_a and ax_b, of `inner`
    entries, to a result of `size` entries, by exactla.sparse_tensordot,
    when that is exact and cheaper than the dense route; None otherwise.

    The dense route passes over both operands and the result, and makes
    size * inner multiply-adds on BLAS.  The sparse route costs
    SPARSE_FIXED, plus SPARSE_PASSES passes over each nonzero and over
    each pair of nonzeros its join makes.  So it may join at most as many
    pairs as leave it cheaper; sparse_tensordot counts them before it
    multiplies, and gives up when there are more.  The join holds JOIN_ARRAYS int64 arrays of one entry
    per pair, so the budget is also at most MAX_STATE_ENTRIES / JOIN_ARRAYS
    pairs.  Small products stay dense without a look at their nonzeros,
    and so does a result whose positions would not fit int64.
    """
    dense = a.size + b.size + size + size * inner // DENSE_FLOPS_PER_PASS
    if dense <= SPARSE_FIXED or size >= INT64_BOUND:
        return None
    sa, sb = (t if isinstance(t, SparseTensor) else SparseTensor.of(field, t) for t in (a, b))
    if sa is None or sb is None or not sparse_exact(field, sa, sb, inner):
        return None
    pairs = (dense - SPARSE_FIXED) // SPARSE_PASSES - sa.nnz - sb.nnz
    if pairs < 0:
        return None
    return sparse_tensordot(field, sa, sb, ax_a, ax_b,
                            min(pairs, MAX_STATE_ENTRIES // JOIN_ARRAYS))


def _place(field, a, shape: tuple):
    """a ⊗ id on wires of dimensions `shape`, placed, not multiplied, in
    the form _held gives a tensor of its size: past SPARSE_FIXED entries
    the sparse outer product of a's nonzeros with the identity's, which
    sparse_tensordot makes by index arithmetic alone; otherwise
    FieldSpec.with_identity's strided write into zeros.  Bounded like
    every intermediate."""
    n = prod(shape)
    size = a.size * n * n
    if SPARSE_FIXED < size < INT64_BOUND:
        sa = a if isinstance(a, SparseTensor) else SparseTensor.of(field, a)
        if sa is not None:
            _check_size(sa.nnz * n)
            return sparse_tensordot(field, sa, SparseTensor.eye(shape), [], [], sa.nnz * n)
    _check_size(size)
    return field.with_identity(_dense(field, a), shape)


def _held(field, t):
    """How the network holds a step's core (and, by the same size rule,
    a placed pass-through identity, a GradedMor's one-label block and a
    sum of blocks): a SparseTensor when it has more than SPARSE_FIXED
    entries, and the dense array otherwise.  A larger tensor already
    sparse is taken as it is, a smaller one made dense; one read from a
    dense array keeps that array too.  A smaller tensor is converted
    only when it meets a product that _sparse_product sends to the
    sparse route, for less than that product's fixed cost."""
    if isinstance(t, SparseTensor):
        return t if t.size > SPARSE_FIXED else t.dense(field)
    sparse = SparseTensor.of(field, t) if t.size > SPARSE_FIXED else None
    return t if sparse is None else sparse


def _dense(field, t):
    """The dense array of a tensor; a SparseTensor's is bounded by
    MAX_STATE_ENTRIES like every intermediate."""
    if not isinstance(t, SparseTensor):
        return t
    _check_size(t.size)
    return t.dense(field)


@_owned_memo
def _step_positions(word: GradedObj, at: int, src: GradedObj, dst: GradedObj) -> tuple:
    """A step src -> dst at atom `at` of a word, id_left ⊗ step ⊗ id_right:
    the word after it, and per grade (i, l) with paths on both sides the
    split positions of the paths through (left, src, right) and through
    (left, dst, right).  Kept in the word's memo, so a chain applies a step
    it has met before by one lookup, without building left or right."""
    base = word.base
    left = GradedObj(base, word.atoms[:at])
    right = GradedObj(base, word.atoms[at + len(src.atoms):])
    nxt = GradedObj(base, left.atoms + dst.atoms + right.atoms)
    out = {}
    for i, l in word.grades():
        if nxt.count(i, l):
            after = tuple(row[l] for row in right._counts)
            out[i, l] = (_split_positions(left, src, i, after),
                         _split_positions(left, dst, i, after))
    return nxt, out


@_owned_memo
def _split_positions(left: GradedObj, mid: GradedObj, i: int, after: tuple) -> dict:
    """For each pair of labels (j, k): the positions of the paths
    i -> j -> k -> l through left, mid and a right word inside the (i, l)
    path order of left ⊗ mid ⊗ right, mid-major: the flattened (nM, nL, nR)
    array, where after[k] = nR is the number of right's paths from k to l.

    A position is left's offset, weighted by the paths through mid and
    right to l, plus mid's, weighted by right's, plus the index in right
    (cat._offsets); so right is read only through `after`.  Kept in left's
    memo and shared, so the arrays are read-only."""
    through = tuple(sum(map(operator.mul, row, after)) for row in mid._counts)
    out = {}
    for j, p in _offsets(left, i, through).items():
        p = p[:, None]
        for k, q in _offsets(mid, j, after).items():
            if after[k]:
                pos = (q[:, None, None] + p + np.arange(after[k])).ravel()
                pos.flags.writeable = False
                out[j, k] = pos
    return out


def _apply_graded(mor: GradedMor, split, block, rows: int, cols: int, field):
    """One grade of (id_left ⊗ mor ⊗ id_right) @ block, without the whisker,
    from the grade's (source, target) split positions (_step_positions;
    None when either side has no paths).

    Per block (j, k) of mor: gather the rows of block at the (left, source,
    right) paths, contract mor's block against the source axis and scatter
    the result to the (left, target, right) paths.  A target path whose
    (j, k) has no source paths stays zero.  When block is None, the
    identity, the product is the whisker itself: each entry of mor's block
    is placed at its (target, source) pair of paths for every (left, right)
    pair, nothing multiplied.
    """
    out = field.zeros((rows, cols))
    if split is None:
        return out
    src_split, dst_split = split
    for jk, src_pos in src_split.items():
        core = mor.blocks.get(jk)
        if core is None:
            continue
        t, s = core.shape
        if block is None:
            out[dst_split[jk].reshape(t, 1, -1), src_pos.reshape(1, s, -1)] = core.reshape(t, s, 1)
            continue
        # source axis first: (nS, nL * nR * width)
        contracted = field.matmul(core, block[src_pos].reshape(s, -1))
        out[dst_split[jk]] = contracted.reshape(-1, cols)
    return out


# ---------------------------------------------------------------------------
# Slot layouts and extension by linearity
# ---------------------------------------------------------------------------


def slot_word(slot, xs: tuple) -> GradedObj:
    """A fixed word, argument k (an int k) or the dual of argument k (~k)."""
    if isinstance(slot, GradedObj):
        return slot
    return xs[slot] if slot >= 0 else xs[~slot].dual()


def layout_word(layout: tuple, xs: tuple) -> GradedObj:
    """The word of a slot layout at the arguments xs: its slots in order."""
    atoms = tuple(a for slot in layout for a in slot_word(slot, xs).atoms)
    return GradedObj(xs[0].base, atoms)


@_owned_memo
def _layout_positions(word: GradedObj, layout: tuple, xs: tuple) -> dict:
    """Per tuple of grades, one of each argument: per grade, the positions
    in word = layout_word(layout, xs) of the paths of the layout's word at
    the simples of those grades, for every choice of one path of grade
    grades[k] in each argument xs[k]: an array with one axis per argument
    (of length 1 where no slot holds it), then one over the paths
    (read-only, kept in word's memo).

    A path of the layout's word at the simples is cut at its slots: argument
    k takes the chosen path of xs[k], its dual ~k that path's dual in
    dual(xs[k]), and the fixed words between them (adjacent ones taken as
    one piece) their paths between the labels the arguments fix, row-major
    in slot order as in the layout's word at the simples.  A position is the
    sum of the pieces' offsets (cat._offsets).
    """
    pieces = []  # (word, argument or None, dual?)
    for slot in layout:
        if not isinstance(slot, GradedObj):
            pieces.append((slot_word(slot, xs), slot if slot >= 0 else ~slot, slot < 0))
        elif pieces and pieces[-1][1] is None:
            pieces[-1] = (pieces[-1][0].tensor(slot), None, False)
        else:
            pieces.append((slot, None, False))
    labels, axes = range(word.base.nlabels), len(xs)
    # an argument's offsets lie along its own axis
    shapes = [None if k is None else tuple(-1 if a == k else 1 for a in range(axes)) + (1,)
              for _, k, _ in pieces]
    after = {}  # per label l, the paths to l through the pieces after each one
    out = {}
    for grades in product(*(x.grades() for x in xs)):
        out[grades] = {}
        # the labels at the cuts between pieces that the arguments fix
        cuts = [None] * (len(pieces) + 1)
        for t, (_, k, dual) in enumerate(pieces):
            if k is not None:
                for c, label in zip((t, t + 1), grades[k][::-1] if dual else grades[k]):
                    cuts[c] = label if cuts[c] in (None, label) else -1
        for i, l in product(*(labels if c is None else (c,) for c in (cuts[0], cuts[-1]))):
            at = [i, *cuts[1:-1], l]
            if -1 in at:
                continue
            if l not in after:
                w, after[l] = tuple(int(k == l) for k in labels), []
                for piece, _, _ in reversed(pieces):
                    after[l].insert(0, w)
                    w = tuple(sum(map(operator.mul, row, w)) for row in piece._counts)
            fixed, args = None, 0
            for t, (piece, k, dual) in enumerate(pieces):
                off = _offsets(piece, at[t], after[l][t]).get(at[t + 1])
                if off is None:  # no path of the layout's word at this grade
                    break
                if k is None:
                    fixed = off if fixed is None else (fixed[:, None] + off).ravel()
                    continue
                if dual:
                    off = off[_perm_to_dual(xs[k], *grades[k])]
                args = args + off.reshape(shapes[t])
            else:
                fixed = np.zeros(1, dtype=np.int64) if fixed is None else fixed
                pos = out[grades][i, l] = args + fixed.reshape((1,) * axes + (-1,))
                pos.flags.writeable = False
    return out


def extend(src: tuple, dst: tuple, xs: tuple, comps: dict) -> GradedMor:
    """Direct-sum extension to xs of a family stored at simples.

    `src` and `dst` are the slot layouts of its source and target
    functors, and `comps` is keyed by the grade of a simple (one
    argument) or a pair of grades (two).  Each choice of one simple
    summand per argument adds dst(inclusions) ∘ component ∘
    src(projections).  Those two maps are coordinate maps, so the
    component's blocks go straight to the positions of the chosen paths
    (the dual path on a dual slot), for every choice at one tuple of
    grades in one fancy-index assignment.  Each argument has a slot in
    src or dst, so two choices never meet at one entry: the sum is a
    placement.
    """
    field = xs[0].base.field
    sw, dw = layout_word(src, xs), layout_word(dst, xs)
    blocks = {g: field.zeros((dw.count(*g), sw.count(*g)))
              for g in set(sw.grades()) & set(dw.grades())}
    rows, cols = _layout_positions(dw, dst, xs), _layout_positions(sw, src, xs)
    for grades in product(*(x.grades() for x in xs)):
        comp = comps.get(grades if len(xs) > 1 else grades[0])
        if comp is None:
            continue
        for g, b in comp.blocks.items():
            blocks[g][rows[grades][g][..., :, None], cols[grades][g][..., None, :]] = b
    return GradedMor.of_blocks(sw, dw, blocks)
