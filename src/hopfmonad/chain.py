"""Evaluation of long composites of whiskered morphisms.

Every axiom in this package is a composite of steps of the form
id_L ⊗ g ⊗ id_R where g is either a small stored morphism or the
extension of a stored transformation component.  A Chain records the
steps; eval() turns the composite into an honest GradedMor.

Neither backend materializes a whiskered Kronecker factor.  On a
one-label base the running composite is a dense (current x width)
matrix, reshaped along the word's atom axes, and each step contracts a
small core against the axes it touches.  The chain is evaluated from
whichever end is narrower, and then by a contraction plan (_plan): the
steps are walked in order and each is read as a core on atom axes (a
CoreStep through its in_axes, out_axes and pass_perm, a MorStep on
consecutive axes).  The next step is fused into the running group when
the two cores contracted over their shared axes give a core strictly
smaller than the state between them, which is then never made.  So an
inserted element (an R-matrix, a coevaluation) is contracted with the
products after it before it meets the state; on the 25- and
36-dimensional doubles no state or fused core exceeds carrier-dim^4,
where the steps one at a time reach carrier-dim^5.  A group of one step
is the step itself.  Re-associating exact products cannot change a
result; the tests compare the plan against one group per step.

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

# Cap on entries of any intermediate state and any fused core (per evaluation).
MAX_STATE_ENTRIES = 3 * 10**8


class ChainOverflow(ExactError):
    pass


def mor_flip(m: GradedMor) -> GradedMor:
    """Blockwise transpose (against the same bases); swaps source and target."""
    return GradedMor(m.dst, m.src, {g: b.T.copy() for g, b in m.blocks.items()})


class Step:
    """One rewriting step src -> dst, appliable along tensor axes."""

    src: GradedObj
    dst: GradedObj

    def to_mor(self) -> GradedMor:
        raise NotImplementedError

    def transposed(self) -> "Step":
        raise NotImplementedError

    def apply_vec(self, state, dl: int, dr: int, field):
        """Apply id_{dl} ⊗ self ⊗ id_{dr} to state of shape (dl*src*dr, w)."""
        raise NotImplementedError


class MorStep(Step):
    """A step backed by a materialized morphism."""

    def __init__(self, mor: GradedMor):
        self.mor = mor
        self.src = mor.src
        self.dst = mor.dst

    def to_mor(self) -> GradedMor:
        return self.mor

    def transposed(self) -> "MorStep":
        return MorStep(mor_flip(self.mor))

    def apply_vec(self, state, dl, dr, field):
        w = state.shape[1]
        ds = self.src.total_dim()
        dd = self.dst.total_dim()
        core = self.mor.block(0, 0)
        st = state.reshape(dl, ds, dr * w)
        # contract over the middle axis: out[a, :, c] = core @ st[a, :, c]
        st = st.swapaxes(0, 1).reshape(ds, dl * dr * w)
        out = field.matmul(core, st)
        out = out.reshape(dd, dl, dr * w).swapaxes(0, 1)
        return out.reshape(dl * dd * dr, w)


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

    def transposed(self) -> "CoreStep":
        inv = [0] * len(self.pass_perm)
        for k, a in enumerate(self.pass_perm):
            inv[a] = k
        return CoreStep(self.dst, self.src, self.core.T.copy(),
                        self.out_axes, self.in_axes, pass_perm=tuple(inv))

    def to_mor(self) -> GradedMor:
        n = self.src.total_dim()
        f = self.src.base.field
        state = f.eye(n)
        out = self.apply_vec(state, 1, 1, f)
        return GradedMor(self.src, self.dst, {(0, 0): out})

    def apply_vec(self, state, dl, dr, field):
        w = state.shape[1]
        sd = self.src.axis_dims()
        dd = self.dst.axis_dims()
        st = state.reshape([dl] + sd + [dr * w])
        # bring consumed axes to the front, flatten, contract the core
        order = [1 + a for a in self.in_axes] + [0] + \
                [1 + a for a in self._pass_src] + [len(sd) + 1]
        st = st.transpose(order)
        cin = self.core.shape[1]
        rest = dl * prod(sd[a] for a in self._pass_src) * dr * w
        st = st.reshape(cin, rest)
        out = field.matmul(self.core, st)
        out_dims = [dd[a] for a in self.out_axes]
        out = out.reshape(out_dims + [dl] + [sd[a] for a in self._pass_src] + [dr * w])
        # route produced and pass-through axes into target order
        nout = len(self.out_axes)
        pos_of = {}
        for k, a in enumerate(self.out_axes):
            pos_of[a] = k
        for k, a in enumerate(self._pass_dst):
            pos_of[a] = nout + 1 + self.pass_perm[k]
        order = [nout] + [pos_of[a] for a in range(len(dd))] + [nout + 1 + len(self._pass_src)]
        out = out.transpose(order)
        return out.reshape(dl * (prod(dd) if dd else 1) * dr, w)


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

    # -- vector backend: narrow-end propagation ------------------------------

    def _eval_vector(self) -> GradedMor:
        ns, nd = self.src.total_dim(), self.cur.total_dim()
        if nd < ns:
            rev = Chain(self.cur)
            for (at, step) in reversed(self.steps):
                rev.then(step.transposed(), at=at)
            out = rev._eval_vector()
            return GradedMor(self.src, self.cur,
                             {(0, 0): out.block(0, 0).T.copy()})
        field = self.src.base.field
        state = field.eye(ns) if ns else field.zeros((0, 0))
        w = ns
        cur = self.src
        for at, step in _plan(self.src, self.steps, w):
            n = len(step.src.atoms)
            dl = prod(cur.axis_dims()[:at]) if at else 1
            dr = prod(cur.axis_dims()[at + n:]) if cur.atoms[at + n:] else 1
            new_total = dl * step.dst.total_dim() * dr
            if new_total * max(w, 1) > MAX_STATE_ENTRIES:
                raise ChainOverflow(
                    f"intermediate of {new_total} x {w} entries; "
                    "restructure the formula (nest sub-composites)")
            state = step.apply_vec(state, dl, dr, field)
            cur = GradedObj(cur.base, cur.atoms[:at] + step.dst.atoms + cur.atoms[at + n:])
        return GradedMor(self.src, cur, {(0, 0): state})


# -- vector backend: the contraction plan ------------------------------------


def _as_core(step: Step) -> tuple:
    """A vector step as (core, consumed axes, produced axes); a MorStep is
    a core on all of its source and target atoms."""
    if isinstance(step, CoreStep):
        return step.core, step.in_axes, step.out_axes
    return (step.mor.block(0, 0), tuple(range(len(step.src.atoms))),
            tuple(range(len(step.dst.atoms))))


def _plan(src: GradedObj, steps: list, w: int) -> list:
    """The groups of a vector chain of width w, as (at, step) pairs.

    The steps are walked in order.  The next step joins the running group
    when their fused core is strictly smaller than the state the group
    leaves for the step: that state is then never made.  A group of one
    step is the step itself; a longer one is a CoreStep on whole words
    (see _fuse).
    """
    plan = []
    atoms, dims = src.atoms, src.axis_dims()
    for at, step in steps:
        n = len(step.src.atoms)
        nxt = atoms[:at] + step.dst.atoms + atoms[at + n:]
        nxt_dims = dims[:at] + step.dst.axis_dims() + dims[at + n:]
        if plan:
            gat, group = plan[-1]
            g_core, _, g_out = _as_core(group)
            s_core, s_in, _ = _as_core(step)
            outs = {gat + a for a in g_out}
            ins = {at + a for a in s_in}
            shared = outs & ins
            rows = s_core.shape[0] * prod(dims[a] for a in outs - shared)
            cols = g_core.shape[1] * prod(dims[a] for a in ins - shared)
            if rows * cols < prod(dims) * w:
                if rows * cols > MAX_STATE_ENTRIES:
                    raise ChainOverflow(f"fused core of {rows} x {cols} entries")
                plan[-1] = (0, _fuse(GradedObj(src.base, start), dims, plan[-1],
                                     (at, step), GradedObj(src.base, nxt)))
                atoms, dims = nxt, nxt_dims
                continue
        plan.append((at, step))
        start, atoms, dims = atoms, nxt, nxt_dims
    return plan


def _whole_word(at: int, step: Step, natoms: int) -> tuple:
    """id ⊗ step ⊗ id on a word of natoms atoms as a core on whole words:
    (core, consumed axes, produced axes, {target axis: source axis} of the
    axes passing through)."""
    core, ins, outs = _as_core(step)
    n, m = len(step.src.atoms), len(step.dst.atoms)
    feed = {j: j for j in range(at)}
    feed.update((j - n + m, j) for j in range(at + n, natoms))
    if isinstance(step, CoreStep):
        feed.update((at + d, at + step._pass_src[p])
                    for d, p in zip(step._pass_dst, step.pass_perm))
    return core, [at + a for a in ins], [at + a for a in outs], feed


def _fuse(start: GradedObj, mid_dims: list, first: tuple, second: tuple,
          end: GradedObj) -> CoreStep:
    """The two (at, step) pairs, first then second, as one CoreStep from
    start to end.

    The fused core is the two cores contracted over the axes the first
    produces and the second consumes.  An axis the second consumes and the
    first passes through becomes an input of the fused core, and an axis
    the first produces and the second passes through an output; no
    identity is tensored in.
    """
    core1, in1, out1, feed1 = _whole_word(*first, len(start.atoms))
    core2, in2, out2, feed2 = _whole_word(*second, len(mid_dims))
    sd, ed = start.axis_dims(), end.axis_dims()
    t1 = core1.reshape([mid_dims[a] for a in out1] + [sd[a] for a in in1])
    t2 = core2.reshape([ed[a] for a in out2] + [mid_dims[a] for a in in2])
    shared = [a for a in in2 if a in out1]
    t = start.base.field.tensordot(
        t2, t1, axes=([len(out2) + in2.index(a) for a in shared],
                      [out1.index(a) for a in shared]))
    # t's axes are out2, in2 less shared, out1 less shared, in1: swap the
    # middle two so the outputs come first
    in2_rest = [a for a in in2 if a not in shared]
    out1_rest = [a for a in out1 if a not in shared]
    i, j = len(out2), len(out2) + len(in2_rest)
    k = j + len(out1_rest)
    t = t.transpose([*range(i), *range(j, k), *range(i, j), *range(k, t.ndim)])
    forward = {s: e for e, s in feed2.items()}
    out_axes = out2 + [forward[a] for a in out1_rest]
    in_axes = [feed1[a] for a in in2_rest] + in1
    feed = {e: feed1[s] for e, s in feed2.items() if s in feed1}
    pass_src = [a for a in range(len(sd)) if a not in in_axes]
    pass_dst = [a for a in range(len(ed)) if a not in out_axes]
    core = t.reshape(prod(ed[a] for a in out_axes), prod(sd[a] for a in in_axes))
    return CoreStep(start, end, core, in_axes, out_axes,
                    pass_perm=[pass_src.index(feed[a]) for a in pass_dst])


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
