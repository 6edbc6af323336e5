"""Evaluation of long composites of whiskered morphisms.

Every axiom in this package is a composite of steps of the form
id_L ⊗ g ⊗ id_R where g is either a small stored morphism or the
extension of a stored transformation component.  A Chain records the
steps; eval() turns the composite into an honest GradedMor.

Neither backend materializes a whiskered Kronecker factor.  On a
one-label base a chain is a tensor network applied to an identity.
Each atom of the running word carries a wire, and each step is a core
tensor whose legs are the wires it produces and the wires it consumes
(a CoreStep through its in_axes, out_axes and pass_perm, a MorStep on
all of its atoms); the wires a step passes through keep their labels.
The network is contracted one pair at a time: of the pairs of tensors
that share a wire, the one whose result is smallest, the first by
position among equals (_next_pair).  A disconnected remainder is joined
by outer products, the wires that go from source to target untouched
are tensored in once at the end as an identity, and the result's axes
are put in the order (target wires, source wires).  So steps on
disjoint wires commute, and an inserted element (an R-matrix, a
coevaluation) meets the products on its legs before any identity
width: on the 25-, 36- and 64-dimensional doubles no intermediate
exceeds carrier-dim^4.
Re-associating exact products cannot change a result; the tests compare
the evaluator against dense whiskered matrices and another pair order.

On a multi-label base the running composite is one block per grade
(i, l), its rows the current word's (i, l)-paths.  A step
id_L ⊗ g ⊗ id_R is applied per grade and per block (j, k) of g: the
rows at the paths i -> j -> k -> l through (L, source of g, R) are
gathered, contracted with g's (j, k) block and scattered to the paths
through (L, target of g, R).  The path positions come from
cat._tensor_positions and, like them, are kept in the memo of the left
word (_split_positions).

A natural family is stored by its components at simples; its source
and target functors are slot layouts, each slot a fixed word (the
carrier or its dual), an argument k, or the dual ~k of argument k.
extend builds the forced direct-sum extension of such a family to
arbitrary arguments, one choice of simple summands at a time: the
inclusions and projections of the chosen summands are coordinate maps,
so each component block is added straight into the rows and columns of
the chosen paths.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import prod

import numpy as np

from .cat import GradedMor, GradedObj, _owned_memo, _perm_to_dual, _tensor_positions
from .exactla import DimensionMismatch, ExactError

# Cap on entries of any pairwise intermediate and of the result (per evaluation).
MAX_STATE_ENTRIES = 3 * 10**8


class ChainOverflow(ExactError):
    pass


class Step:
    """One rewriting step src -> dst."""

    src: GradedObj
    dst: GradedObj

    def to_mor(self) -> GradedMor:
        raise NotImplementedError


class MorStep(Step):
    """A step backed by a materialized morphism."""

    def __init__(self, mor: GradedMor):
        self.mor = mor
        self.src = mor.src
        self.dst = mor.dst

    def to_mor(self) -> GradedMor:
        return self.mor


class CoreStep(Step):
    """Vector-backend step: a core matrix applied to selected atom axes.

    in_axes lists the source atoms consumed by the core (row-major in the
    listed order); out_axes lists the positions in the target word of the
    atoms the core produces.  Remaining atoms pass through in order.
    """

    def __init__(self, src: GradedObj, dst: GradedObj, core,
                 in_axes: tuple, out_axes: tuple, pass_perm: tuple | None = None):
        if not src.base.is_vector:
            raise ExactError("CoreStep is vector-backend only")
        self.src, self.dst, self.core = src, dst, core
        self.in_axes = tuple(in_axes)
        self.out_axes = tuple(out_axes)
        sd = src.axis_dims()
        dd = dst.axis_dims()
        cin = prod(sd[a] for a in self.in_axes)
        cout = prod(dd[a] for a in self.out_axes)
        if core.shape != (cout, cin):
            raise DimensionMismatch(f"core shape {core.shape}, expected {(cout, cin)}")
        pass_src = [a for a in range(len(sd)) if a not in self.in_axes]
        pass_dst = [a for a in range(len(dd)) if a not in self.out_axes]
        # pass_perm[k] = which pass-through source axis feeds the k-th
        # pass-through target axis (identity when omitted)
        self.pass_perm = tuple(pass_perm) if pass_perm is not None \
            else tuple(range(len(pass_src)))
        if sorted(self.pass_perm) != list(range(len(pass_src))):
            raise DimensionMismatch("pass_perm is not a permutation")
        if [sd[pass_src[self.pass_perm[k]]] for k in range(len(pass_dst))] != \
                [dd[a] for a in pass_dst]:
            raise DimensionMismatch("pass-through axes do not line up")
        self._pass_src = pass_src
        self._pass_dst = pass_dst

    def to_mor(self) -> GradedMor:
        return Chain(self.src).then(self).eval()


class Chain:
    """A composite of whiskered steps, built source-to-target."""

    def __init__(self, src: GradedObj):
        self.src = src
        self.cur = src
        self.steps: list[tuple[int, Step]] = []

    def then(self, step, at: int = 0) -> "Chain":
        """Append id ⊗ step ⊗ id with step.src starting at atom index `at`."""
        if isinstance(step, GradedMor):
            step = MorStep(step)
        n = len(step.src.atoms)
        if self.cur.atoms[at:at + n] != step.src.atoms:
            raise DimensionMismatch(
                f"step source {step.src!r} does not match {self.cur!r} at {at}")
        self.steps.append((at, step))
        self.cur = GradedObj(self.cur.base,
                             self.cur.atoms[:at] + step.dst.atoms + self.cur.atoms[at + n:])
        return self

    @property
    def dst(self) -> GradedObj:
        return self.cur

    def eval(self) -> GradedMor:
        if self.src.base.is_vector:
            return self._eval_vector()
        return self._eval_graded()

    # -- graded backend: gather, contract, scatter ----------------------------

    def _eval_graded(self) -> GradedMor:
        field = self.src.base.field
        # one block per grade (i, l) of the source: rows are the current
        # word's (i, l)-paths, columns the source's
        state = {g: field.eye(self.src.count(*g)) for g in self.src.grades()}
        cur = self.src
        for at, step in self.steps:
            n = len(step.src.atoms)
            left = GradedObj(cur.base, cur.atoms[:at])
            right = GradedObj(cur.base, cur.atoms[at + n:])
            nxt = GradedObj(cur.base, left.atoms + step.dst.atoms + right.atoms)
            mor = step.to_mor()
            state = {g: _apply_graded(mor, left, right, *g, block, nxt.count(*g), field)
                     for g, block in state.items()}
            cur = nxt
        return GradedMor(self.src, cur, state)

    # -- vector backend: one tensor network ----------------------------------

    def _eval_vector(self) -> GradedMor:
        field = self.src.base.field
        ns, nd = self.src.total_dim(), self.cur.total_dim()
        _check_size(nd * ns)
        # wires[k] is the wire on atom k of the running word; the source's
        # wires are 0 .. len(src) - 1, and each produced wire gets the next
        # label.  A step's tensor has the wires it produces, then the wires
        # it consumes.
        dims = self.src.axis_dims()
        nsrc = len(dims)
        wires = list(range(nsrc))
        tensors = []
        for at, step in self.steps:
            here = wires[at:at + len(step.src.atoms)]
            made = step.dst.axis_dims()
            mid = [None] * len(made)
            if isinstance(step, CoreStep):
                core, ins, outs = step.core, step.in_axes, step.out_axes
                for d, p in zip(step._pass_dst, step.pass_perm):
                    mid[d] = here[step._pass_src[p]]
            else:
                core, ins, outs = step.mor.block(0, 0), range(len(here)), range(len(made))
            for a in outs:
                mid[a] = len(dims)
                dims.append(made[a])
            legs = tuple(mid[a] for a in outs) + tuple(here[a] for a in ins)
            tensors.append((core.reshape([dims[w] for w in legs]), legs))
            wires[at:at + len(here)] = mid
        # a wire of dimension 0 makes the composite zero (and an empty
        # operand cannot be reshaped for tensordot)
        if 0 in dims:
            return GradedMor(self.src, self.cur, {(0, 0): field.zeros((nd, ns))})
        while len(tensors) > 1:
            pick = _next_pair([legs for _, legs in tensors], dims)
            if pick is None:
                pick = (tensors[0][0].size * tensors[1][0].size, 0, 1)
            size, i, j = pick
            _check_size(size)
            tensors[i] = _contract(field, tensors[i], tensors[j])
            del tensors[j]
        # the source wires still in the target passed untouched: the
        # identity on them, its target legs under new labels
        ident = [w for w in wires if w < nsrc]
        relabel = {w: len(dims) + k for k, w in enumerate(ident)}
        if ident:
            shape = [dims[w] for w in ident]
            eye = (field.eye(prod(shape)).reshape(shape * 2),
                   tuple(relabel[w] for w in ident) + tuple(ident))
            tensors = [_contract(field, tensors[0], eye)] if tensors else [eye]
        if not tensors:
            return GradedMor(self.src, self.cur, {(0, 0): field.eye(1)})
        out, legs = tensors[0]
        order = [relabel.get(w, w) for w in wires] + list(range(nsrc))
        out = out.transpose([legs.index(w) for w in order]).reshape(nd, ns)
        return GradedMor(self.src, self.cur, {(0, 0): out})


def _check_size(entries: int) -> None:
    if entries > MAX_STATE_ENTRIES:
        raise ChainOverflow(f"intermediate of {entries} entries; "
                            "restructure the formula (nest sub-composites)")


def _next_pair(legs: list, dims: list):
    """(result entries, i, j) of the next pair of tensors to contract: of
    the pairs whose legs share a wire, the one with the smallest result,
    the first by position among equals; None when no two share a wire."""
    best = None
    for i, a in enumerate(legs):
        for j in range(i + 1, len(legs)):
            if set(a).isdisjoint(legs[j]):
                continue
            size = prod(dims[w] for w in set(a).symmetric_difference(legs[j]))
            if best is None or size < best[0]:
                best = (size, i, j)
    return best


def _contract(field, x: tuple, y: tuple) -> tuple:
    """Two (tensor, legs) pairs contracted over their shared wires, by one
    FieldSpec.tensordot; the result's legs are x's free legs, then y's."""
    (a, la), (b, lb) = x, y
    shared = [w for w in la if w in lb]
    out = field.tensordot(a, b, axes=([la.index(w) for w in shared],
                                      [lb.index(w) for w in shared]))
    return out, tuple(w for w in la if w not in shared) + \
        tuple(w for w in lb if w not in shared)


@_owned_memo
def _split_positions(left: GradedObj, mid: GradedObj, right: GradedObj,
                     i: int, l: int) -> dict:
    """For each pair of labels (j, k): the positions of the paths
    i -> j -> k -> l through left, mid and right inside the (i, l) path
    order of left ⊗ mid ⊗ right, mid-major: the flattened (nM, nL, nR)
    array.  Kept in left's memo and shared, so the arrays are read-only."""
    out = {}
    for k, outer in _tensor_positions(left.tensor(mid), right, i, l).items():
        outer = outer.reshape(-1, right.count(k, l))
        for j, inner in _tensor_positions(left, mid, i, k).items():
            pos = outer[inner].reshape(left.count(i, j), mid.count(j, k), -1)
            pos = pos.transpose(1, 0, 2).ravel()
            pos.flags.writeable = False
            out[j, k] = pos
    return out


def _apply_graded(mor: GradedMor, left: GradedObj, right: GradedObj,
                  i: int, l: int, block, rows: int, field):
    """Grade (i, l) of (id_left ⊗ mor ⊗ id_right) @ block, without the whisker.

    Per block (j, k) of mor: gather the rows of block at the (left, source,
    right) paths, contract mor's block against the source axis and scatter
    the result to the (left, target, right) paths.  A target path whose
    (j, k) has no source paths stays zero.
    """
    out = field.zeros((rows, block.shape[1]))
    if not rows or not block.shape[0]:
        return out
    dst_pos = _split_positions(left, mor.dst, right, i, l)
    for jk, src_pos in _split_positions(left, mor.src, right, i, l).items():
        core = mor.blocks.get(jk)
        if core is None:
            continue
        # source axis first: (nS, nL * nR * width)
        gathered = block[src_pos]
        contracted = field.matmul(core, gathered.reshape(core.shape[1], -1))
        out[dst_pos[jk]] = contracted.reshape(-1, block.shape[1])
    return out


class Evaluated:
    """Pre-evaluated morphism with the Chain eval() interface."""

    def __init__(self, mor: GradedMor):
        self.mor = mor
        self.src = mor.src
        self.dst = mor.dst

    def eval(self) -> GradedMor:
        return self.mor


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


def _slot_index(slot, xs: tuple, choice: tuple) -> tuple:
    """One slot at the chosen simple summands: (its word at the simples,
    its word at xs, per grade the position in the latter of each path of
    the former).

    A fixed word maps onto itself; argument k has the one path of the
    chosen summand (g, p), the p-th g-path of xs[k]; its dual ~k has the
    reversal of that path in the dual word.
    """
    if isinstance(slot, GradedObj):
        return slot, slot, {g: np.arange(slot.count(*g)) for g in slot.grades()}
    k = slot if slot >= 0 else ~slot
    (i, l), p = choice[k]
    simple = GradedObj.simple(xs[k].base, i, l)
    if slot >= 0:
        return simple, xs[k], {(i, l): np.array([p])}
    return simple.dual(), xs[k].dual(), {(l, i): np.array([_perm_to_dual(xs[k], i, l)[p]])}


def _tensor_index(a: tuple, b: tuple) -> tuple:
    """The tensor product of two slot indices (see _slot_index)."""
    (sa, wa, ia), (sb, wb, ib) = a, b
    small = sa.tensor(sb)
    idx = {}
    for (i, l) in small.grades():
        out = np.empty(small.count(i, l), dtype=np.int64)
        big = _tensor_positions(wa, wb, i, l)
        for j, pos in _tensor_positions(sa, sb, i, l).items():
            grid = big[j].reshape(wa.count(i, j), wb.count(j, l))
            out[pos] = grid[np.ix_(ia[i, j], ib[j, l])].ravel()
        idx[i, l] = out
    return small, wa.tensor(wb), idx


def _layout_index(layout: tuple, xs: tuple, choice: tuple) -> dict:
    """Per grade, the positions in layout_word(layout, xs) of the paths of
    the layout's word at the chosen simple summands."""
    return reduce(_tensor_index, (_slot_index(s, xs, choice) for s in layout))[2]


def _summands(x: GradedObj) -> list:
    """(grade, path position) of each simple summand of x."""
    return [(g, p) for g in x.grades() for p in range(x.count(*g))]


def extend(src: tuple, dst: tuple, xs: tuple, comps: dict) -> GradedMor:
    """Direct-sum extension to xs of a family stored at simples.

    `src` and `dst` are the slot layouts of its source and target
    functors, and `comps` is keyed by the grade of a simple (one
    argument) or a pair of grades (two).  Each choice of one simple
    summand per argument adds dst(inclusions) ∘ component ∘
    src(projections).  Those two maps are coordinate maps, so the
    component's blocks are added straight into the positions of the
    chosen paths (the reversed path on a dual slot).
    """
    field = xs[0].base.field
    sw, dw = layout_word(src, xs), layout_word(dst, xs)
    blocks = {g: field.zeros((dw.count(*g), sw.count(*g)))
              for g in set(sw.grades()) & set(dw.grades())}
    for choice in product(*(_summands(x) for x in xs)):
        grades = tuple(g for g, _ in choice)
        comp = comps.get(grades if len(xs) > 1 else grades[0])
        if comp is None:
            continue
        rows = _layout_index(dst, xs, choice)
        cols = _layout_index(src, xs, choice)
        for g, b in comp.blocks.items():
            blocks[g][np.ix_(rows[g], cols[g])] += b
    return GradedMor(sw, dw, {g: field.reduce(b) for g, b in blocks.items()})
