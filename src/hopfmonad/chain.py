"""Evaluation of long composites of whiskered morphisms.

Every axiom in this package is a composite of steps of the form
id_L ⊗ g ⊗ id_R where g is either a small stored morphism or the
extension of a stored transformation component.  A Chain records the
steps; eval() turns the composite into an honest GradedMor.

On a one-label base the evaluation never materializes a whiskered
Kronecker factor: the running composite is a dense (current x width)
matrix, reshaped along the word's atom axes, and each step contracts a
small core against the axes it touches.  The chain is evaluated from
whichever end is narrower.  On multi-label bases all stock examples are
tiny, so steps are materialized directly with tensor_mor.

A natural family is stored by its components at simples; its source
and target functors are slot layouts, each slot a fixed word (the
carrier or its dual), an argument k, or the dual ~k of argument k.
extend builds the forced direct-sum extension of such a family to
arbitrary arguments, one choice of simple summands at a time.
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np

from .cat import (
    GradedMor,
    GradedObj,
    identity,
    summand_inclusions,
    tensor_many,
)
from .exactla import DimensionMismatch, ExactError

# Cap on entries of any intermediate state (per evaluation).
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

    def apply_vec(self, state: np.ndarray, dl: int, dr: int, field) -> np.ndarray:
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
        st = np.swapaxes(st, 0, 1).reshape(ds, dl * dr * w)
        out = field.matmul(core, st)
        out = out.reshape(dd, dl, dr * w).swapaxes(0, 1)
        return out.reshape(dl * dd * dr, w)


class CoreStep(Step):
    """Vector-backend step: a core matrix applied to selected atom axes.

    in_axes lists the source atoms consumed by the core (row-major in the
    listed order); out_axes lists the positions in the target word of the
    atoms the core produces.  Remaining atoms pass through in order.
    """

    def __init__(self, src: GradedObj, dst: GradedObj, core: np.ndarray,
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
        st = np.transpose(st, order)
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
        out = np.transpose(out, order)
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

    # -- graded backend: materialize every whisker --------------------------

    def _eval_graded(self) -> GradedMor:
        total = identity(self.src)
        cur = self.src
        for at, step in self.steps:
            n = len(step.src.atoms)
            left = GradedObj(cur.base, cur.atoms[:at])
            right = GradedObj(cur.base, cur.atoms[at + n:])
            whisk = tensor_many(identity(left), step.to_mor(), identity(right))
            total = whisk @ total
            cur = GradedObj(cur.base, cur.atoms[:at] + step.dst.atoms + cur.atoms[at + n:])
        return total

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
        for at, step in self.steps:
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


def _layout_mor(layout: tuple, cov: list, contra: list) -> GradedMor:
    """Identity on fixed words, cov[k] on argument k, contra[k] transposed
    on its dual."""
    return tensor_many(*(identity(s) if isinstance(s, GradedObj)
                         else cov[s] if s >= 0 else contra[~s].ldual()
                         for s in layout))


def extend(src: tuple, dst: tuple, xs: tuple, comps: dict) -> GradedMor:
    """Direct-sum extension to xs of a family stored at simples.

    `src` and `dst` are the slot layouts of its source and target
    functors, and `comps` is keyed by the grade of a simple (one
    argument) or a pair of grades (two).  Each choice of one simple
    summand per argument adds dst(inclusions) ∘ component ∘
    src(projections); a dual slot takes the transpose of the opposite map.
    """
    total = GradedMor.zero(layout_word(src, xs), layout_word(dst, xs))
    for choice in product(*(tuple(summand_inclusions(x)) for x in xs)):
        grades = tuple(g for g, _, _ in choice)
        comp = comps.get(grades if len(xs) > 1 else grades[0])
        if comp is None:
            continue
        incs = [inc for _, inc, _ in choice]
        projs = [proj for _, _, proj in choice]
        total = total + _layout_mor(dst, incs, projs) @ comp @ \
            _layout_mor(src, projs, incs)
    return total
