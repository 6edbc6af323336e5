"""Tensoring bimonads and their axiom checkers.

A tensoring bimonad is the endofunctor X -> A ⊗ X for a carrier A
equipped with product and unit (held as morphisms m: A⊗A -> A and
u: 1 -> A, so the monad structure is of A-side form by construction)
together with free coproduct components at simple pairs and a counit.

Every natural transformation (coproduct, antipodes, convolution
elements, T -> T' maps, R-matrices, gamma) is a Family: its components
at simples (or composable simple pairs) plus the slot layouts of its
source and target functors.  Family.at_step is the one place that gives
a component anywhere else, the forced direct-sum extension: an axis step
on one label, the summand formula of chain.extend on several.  The
product, unit and counit are plain morphisms that Chain.then whiskers at
an atom index; so are T(f) = id_A ⊗ f and eta_X = u ⊗ id_X, each one
chain step (on_mor, eta_mor).

Every axiom is evaluated at all simple tuples, which is complete on
these backends; reports carry the first failing tuple and the exact
difference matrix.  TensoringBimonad.composable is the one enumeration of
those tuples, and at_simples evaluates a law at each: every law is a
function of its simples that returns its two chains.  A family computed
at simples is likewise one function of the simple, through
TensoringBimonad.components.
"""

from __future__ import annotations

import weakref
from functools import partial

from .cat import BaseSpec, GradedMor, GradedObj, identity
from .chain import Chain, Step, extend, layout_word, slot_word
from .exactla import DimensionMismatch, ExactError
from .report import CheckResult, Report


class StructureError(ExactError):
    pass


class TensoringBimonad:
    """Carrier-with-structure data presenting the endofunctor A ⊗ −."""

    def __init__(self, base: BaseSpec, carrier: GradedObj, m: GradedMor,
                 u: GradedMor, t2: dict, t0: GradedMor, name: str = "T"):
        self.base = base
        self.carrier = carrier
        self.m = m
        self.u = u
        self.t0 = t0
        self.name = name
        if len(carrier.atoms) != 1:
            raise StructureError("the carrier must be a single atom")
        if m.src != carrier.tensor(carrier) or m.dst != carrier:
            raise StructureError("product must map A⊗A -> A")
        if u.src != GradedObj.unit(base) or u.dst != carrier:
            raise StructureError("unit must map 1 -> A")
        if t0.src != carrier or t0.dst != GradedObj.unit(base):
            raise StructureError("counit must map T(1) -> 1")
        self._simples = {g: GradedObj.simple(base, *g) for g in self.simples()}
        missing = set(self.composable(2)) - set(t2)
        if missing:
            raise StructureError(f"missing coproduct component at {min(missing)}")
        # the coproduct T(X⊗Y) -> T(X)⊗T(Y), on a weak proxy: no reference cycle
        self.t2 = Family(weakref.proxy(self), t2, (carrier, 0, 1),
                         (carrier, 0, carrier, 1), "coproduct")

    # -- objects and simples ---------------------------------------------

    def simple(self, g) -> GradedObj:
        return self._simples[g]

    def simples(self) -> list:
        L = self.base.nlabels
        return [(i, j) for i in range(L) for j in range(L)]

    def composable(self, arity: int) -> list:
        """The tuples of `arity` simples whose grades compose, in
        lexicographic order: [()], each simple, the pairs, the triples."""
        simples, keys = self.simples(), [()]
        for _ in range(arity):
            keys = [key + (g,) for key in keys for g in simples
                    if not key or key[-1][1] == g[0]]
        return keys

    def at_simples(self, arity: int, law, keys=None):
        """The (key, lhs, rhs) items of compare_at, with (lhs, rhs) =
        law(*simples), at every composable tuple of `arity` simples, or at
        the given keys."""
        for key in self.composable(arity) if keys is None else keys:
            yield (key, *law(*(self._simples[g] for g in key)))

    def components(self, fn) -> dict:
        """{g: fn(simple)} at every simple g: the components of a family."""
        return {g: fn(s) for g, s in self._simples.items()}

    def on_obj(self, x: GradedObj) -> GradedObj:
        return self.carrier.tensor(x)

    def on_mor(self, f: GradedMor) -> GradedMor:
        """T(f) = id_A ⊗ f."""
        return Chain(self.on_obj(f.src)).then(f, at=len(self.carrier.atoms)).eval()

    @property
    def carrier_dim(self) -> int:
        return self.carrier.total_dim()

    def unit_obj(self) -> GradedObj:
        return GradedObj.unit(self.base)

    def eta_mor(self, x: GradedObj) -> GradedMor:
        """eta_X = u ⊗ id_X."""
        return Chain(x).then(self.u, at=0).eval()

    def __repr__(self):
        return f"TensoringBimonad({self.name}, dim {self.carrier_dim}, " \
               f"{self.base.field.describe()}, {self.base.nlabels} labels)"


# ---------------------------------------------------------------------------
# Natural transformations stored at simples
# ---------------------------------------------------------------------------


class Family:
    """A natural family, stored by its components at simples.

    `src` and `dst` are the slot layouts of the source and target
    functors (see chain.py): an element 1 -> T is (0,) -> (A, 0), an
    R-matrix is (0, 1) -> (A, 1, A, 0), an antipode (A, ~0, A*) -> (~0,).
    One-argument families are keyed by a simple, two-argument ones by a
    composable pair of simples; absent components are zero.
    """

    def __init__(self, t: TensoringBimonad, comps: dict, src: tuple,
                 dst: tuple, label: str = "f"):
        self.t = t
        self.src = src
        self.dst = dst
        self.label = label
        pairs = any(isinstance(s, int) and s in (1, ~1) for s in src + dst)
        self.keys = t.composable(2) if pairs else t.simples()
        self.comps = {}
        for key in self.keys:
            xs = tuple(t.simple(g) for g in key) if pairs else (t.simple(key),)
            s, d = layout_word(src, xs), layout_word(dst, xs)
            comp = comps.get(key)
            if comp is None:
                comp = GradedMor.zero(s, d)
            elif comp.src != s or comp.dst != d:
                raise StructureError(f"{label} component at {key} has wrong ends")
            self.comps[key] = comp
        self._steps: dict = {}  # argument words -> step (see at_step)

    def __getitem__(self, key) -> GradedMor:
        return self.comps[key]

    def at_step(self, *xs: GradedObj):
        """The component at the objects xs as a chain step, built once per
        argument tuple and shared.

        On one label the component is its core on the fixed slots, tensored
        with the identity of the arguments; otherwise it is the direct-sum
        extension from the simples.
        """
        step = self._steps.get(xs)
        if step is None:
            step = self._steps[xs] = self._step(xs)
        return step

    def _step(self, xs: tuple):
        if not self.t.base.is_vector:
            return Step(extend(self.src, self.dst, xs, self.comps))
        # one core for every argument tuple: its component at the simple,
        # whose block the network reads once (Step.tensor)
        in_axes, src_pass = _slot_axes(self.src, xs)
        out_axes, dst_pass = _slot_axes(self.dst, xs)
        return Step(self.comps[self.keys[0]], layout_word(self.src, xs),
                    layout_word(self.dst, xs), in_axes, out_axes,
                    [src_pass.index(p) for p in dst_pass])

    def at(self, *xs: GradedObj) -> GradedMor:
        return self.at_step(*xs).to_mor()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return all(self.comps[k] == other.comps[k] for k in self.keys)

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"


def _slot_axes(layout: tuple, xs: tuple) -> tuple:
    """Atom positions of the fixed slots, and (slot, atom) tags of the rest."""
    fixed, passing, pos = [], [], 0
    for slot in layout:
        n = len(slot_word(slot, xs).atoms)
        if isinstance(slot, GradedObj):
            fixed.extend(range(pos, pos + n))
        else:
            passing.extend((slot, i) for i in range(n))
        pos += n
    return tuple(fixed), passing


class Element(Family):
    """A natural family 1_C -> T: one morphism S -> T(S) per simple."""

    def __init__(self, t: TensoringBimonad, comps: dict, label: str = "f"):
        super().__init__(t, comps, (0,), (t.carrier, 0), label)


class TransTT(Family):
    """A natural family T -> T': one morphism T(S) -> T'(S) per simple."""

    def __init__(self, t: TensoringBimonad, t_dst: TensoringBimonad,
                 comps: dict, label: str = "f"):
        self.t_dst = t_dst
        super().__init__(t, comps, (t.carrier, 0), (t_dst.carrier, 0), label)

    def compose(self, other: "TransTT") -> "TransTT":
        if other.t_dst is not self.t and other.t_dst.carrier != self.t.carrier:
            raise DimensionMismatch("composition of families with different middles")
        comps = {g: self.comps[g] @ other.comps[g] for g in self.t.simples()}
        return TransTT(other.t, self.t_dst, comps, f"{self.label}∘{other.label}")

    def is_identity(self) -> bool:
        return all(self.comps[g] == identity(self.t.on_obj(self.t.simple(g)))
                   for g in self.t.simples())


class PairFamily(Family):
    """A natural family X⊗Y -> T(Y)⊗T(X): components at simple pairs."""

    def __init__(self, t: TensoringBimonad, comps: dict, label: str = "R"):
        a = t.carrier
        super().__init__(t, comps, (0, 1), (a, 1, a, 0), label)


# ---------------------------------------------------------------------------
# Check plumbing
# ---------------------------------------------------------------------------


def compare_at(report: Report, check: str, items) -> bool:
    """Evaluate (label, lhs_chain, rhs_chain) items; record first failure."""
    for label, lhs, rhs in items:
        lhs, rhs = lhs.eval(), rhs.eval()
        if lhs != rhs:
            report.add(CheckResult(check, "fail", simple=label, witness=lhs - rhs))
            return False
    report.add(CheckResult(check, "pass"))
    return True


# ---------------------------------------------------------------------------
# Monad / comonoidal / bimonad axioms
# ---------------------------------------------------------------------------


def check_monad(t: TensoringBimonad) -> Report:
    """Product associativity and unit laws, at every simple."""
    rep = Report(f"{t.name}: monad axioms")

    def assoc(s):
        t2s = t.on_obj(t.on_obj(t.on_obj(s)))
        lhs = Chain(t2s).then(t.m, at=1).then(t.m, at=0)
        rhs = Chain(t2s).then(t.m, at=0).then(t.m, at=0)
        return lhs, rhs

    def unit(side, s):
        ts = t.on_obj(s)
        if side == "left":
            lhs = Chain(ts).then(t.u, at=0).then(t.m, at=0)
        else:
            lhs = Chain(ts).then(t.u, at=1).then(t.m, at=0)
        return lhs, Chain(ts)

    compare_at(rep, "monad.assoc", t.at_simples(1, assoc))
    compare_at(rep, "monad.unit_left", t.at_simples(1, partial(unit, "left")))
    compare_at(rep, "monad.unit_right", t.at_simples(1, partial(unit, "right")))
    return rep


def check_comonoidal(t: TensoringBimonad) -> Report:
    """Coassociativity and counit laws for the coproduct components."""
    rep = Report(f"{t.name}: comonoidal axioms")
    unit = t.unit_obj()

    def coassoc(s1, s2, s3):
        src = t.on_obj(s1.tensor(s2).tensor(s3))
        n1 = len(s1.atoms)
        lhs = Chain(src).then(t.t2.at_step(s1, s2.tensor(s3)), at=0) \
                        .then(t.t2.at_step(s2, s3), at=1 + n1)
        rhs = Chain(src).then(t.t2.at_step(s1.tensor(s2), s3), at=0) \
                        .then(t.t2.at_step(s1, s2), at=0)
        return lhs, rhs

    def counit(side, s):
        ts = t.on_obj(s)
        if side == "right":
            lhs = Chain(ts).then(t.t2.at_step(s, unit), at=0) \
                           .then(t.t0, at=1 + len(s.atoms))
        else:
            lhs = Chain(ts).then(t.t2.at_step(unit, s), at=0) \
                           .then(t.t0, at=0)
        return lhs, Chain(ts)

    compare_at(rep, "comonoidal.coassoc", t.at_simples(3, coassoc))
    compare_at(rep, "comonoidal.counit_right", t.at_simples(1, partial(counit, "right")))
    compare_at(rep, "comonoidal.counit_left", t.at_simples(1, partial(counit, "left")))
    return rep


def check_bimonad(t: TensoringBimonad) -> Report:
    """All four product/coproduct compatibilities, plus the sub-reports."""
    rep = check_monad(t).merge(check_comonoidal(t))
    rep.name = f"{t.name}: bimonad axioms"
    unit = t.unit_obj()

    def mult_compat(s1, s2):
        src = t.on_obj(t.on_obj(s1.tensor(s2)))
        lhs = Chain(src).then(t.m, at=0) \
                        .then(t.t2.at_step(s1, s2), at=0)
        rhs = Chain(src).then(t.t2.at_step(s1, s2), at=1) \
                        .then(t.t2.at_step(t.on_obj(s1), t.on_obj(s2)), at=0) \
                        .then(t.m, at=0) \
                        .then(t.m, at=1 + len(s1.atoms))
        return lhs, rhs

    def counit_mult():
        src = t.carrier.tensor(t.carrier)
        lhs = Chain(src).then(t.m, at=0).then(t.t0, at=0)
        rhs = Chain(src).then(t.t0, at=1).then(t.t0, at=0)
        return lhs, rhs

    def coprod_unit(s1, s2):
        src = s1.tensor(s2)
        lhs = Chain(src).then(t.u, at=0).then(t.t2.at_step(s1, s2), at=0)
        rhs = Chain(src).then(t.u, at=0) \
                        .then(t.u, at=1 + len(s1.atoms))
        return lhs, rhs

    def counit_unit():
        lhs = Chain(unit).then(t.u, at=0).then(t.t0, at=0)
        return lhs, Chain(unit)

    compare_at(rep, "bimonad.mult_compat", t.at_simples(2, mult_compat))
    compare_at(rep, "bimonad.counit_mult", t.at_simples(0, counit_mult))
    compare_at(rep, "bimonad.coprod_unit", t.at_simples(2, coprod_unit))
    compare_at(rep, "bimonad.counit_unit", t.at_simples(0, counit_unit))
    return rep


# ---------------------------------------------------------------------------
# Convolution algebra on Hom(1, T)
# ---------------------------------------------------------------------------


def eta_element(t: TensoringBimonad) -> Element:
    return Element(t, t.components(t.eta_mor), "eta")


def convolve(t: TensoringBimonad, f: Element, g: Element) -> Element:
    """Convolution product: mu ∘ f-at-T ∘ g, componentwise at simples."""
    def comp(s):
        ch = Chain(s).then(g.at_step(s), at=0) \
                     .then(f.at_step(t.on_obj(s)), at=0) \
                     .then(t.m, at=0)
        return ch.eval()
    return Element(t, t.components(comp), f"{f.label}*{g.label}")


def left_mult(t: TensoringBimonad, a: Element) -> TransTT:
    """L_a: act by a on the left of T."""
    def comp(s):
        ts = t.on_obj(s)
        return Chain(ts).then(a.at_step(ts), at=0).then(t.m, at=0).eval()
    return TransTT(t, t, t.components(comp), f"L[{a.label}]")


def right_mult(t: TensoringBimonad, a: Element) -> TransTT:
    """R_a: act by a on the right of T."""
    def comp(s):
        ts = t.on_obj(s)
        return Chain(ts).then(a.at_step(s), at=1).then(t.m, at=0).eval()
    return TransTT(t, t, t.components(comp), f"R[{a.label}]")


def is_central(t: TensoringBimonad, a: Element) -> bool:
    return left_mult(t, a) == right_mult(t, a)


def star_inverse_check(t: TensoringBimonad, a: Element, a_inv: Element) -> bool:
    eta = eta_element(t)
    return convolve(t, a, a_inv) == eta and convolve(t, a_inv, a) == eta


def adjoint_action(t: TensoringBimonad, a: Element, a_inv: Element) -> TransTT:
    """Conjugation by an invertible convolution element."""
    if not star_inverse_check(t, a, a_inv):
        raise StructureError("second argument is not the convolution inverse")
    ad = left_mult(t, a).compose(right_mult(t, a_inv))
    ad.label = f"ad[{a.label}]"
    return ad


def check_grouplike(t: TensoringBimonad, g: Element) -> bool:
    """Coproduct takes g to g ⊗ g and the counit takes it to the identity."""
    def coproduct(s1, s2):
        src = s1.tensor(s2)
        lhs = Chain(src).then(g.at_step(src), at=0).then(t.t2.at_step(s1, s2), at=0)
        rhs = Chain(src).then(g.at_step(s1), at=0) \
                        .then(g.at_step(s2), at=1 + len(s1.atoms))
        return lhs, rhs

    if not all(lhs.eval() == rhs.eval() for _, lhs, rhs in t.at_simples(2, coproduct)):
        return False
    unit = t.unit_obj()
    lhs = Chain(unit).then(g.at_step(unit), at=0).then(t.t0, at=0)
    return lhs.eval() == identity(unit)


# ---------------------------------------------------------------------------
# Morphisms of (bi)monads
# ---------------------------------------------------------------------------


def check_monad_morphism(f: TransTT) -> Report:
    """Whether a family T -> T' respects products, units and coproducts."""
    t, tp = f.t, f.t_dst
    rep = Report(f"{t.name} -> {tp.name}: bimonad morphism")

    def product(s):
        src = t.on_obj(t.on_obj(s))
        lhs = Chain(src).then(t.m, at=0).then(f.at_step(s), at=0)
        rhs = Chain(src).then(f.at_step(s), at=1) \
                        .then(f.at_step(tp.on_obj(s)), at=0) \
                        .then(tp.m, at=0)
        return lhs, rhs

    def unit(s):
        lhs = Chain(s).then(t.u, at=0).then(f.at_step(s), at=0)
        rhs = Chain(s).then(tp.u, at=0)
        return lhs, rhs

    def coproduct(s1, s2):
        src = t.on_obj(s1.tensor(s2))
        lhs = Chain(src).then(f.at_step(s1.tensor(s2)), at=0) \
                        .then(tp.t2.at_step(s1, s2), at=0)
        rhs = Chain(src).then(t.t2.at_step(s1, s2), at=0) \
                        .then(f.at_step(s1), at=0) \
                        .then(f.at_step(s2), at=1 + len(s1.atoms))
        return lhs, rhs

    def counit():
        src = t.carrier
        lhs = Chain(src).then(f.at_step(t.unit_obj()), at=0).then(tp.t0, at=0)
        rhs = Chain(src).then(t.t0, at=0)
        return lhs, rhs

    compare_at(rep, "morphism.product", t.at_simples(1, product))
    compare_at(rep, "morphism.unit", t.at_simples(1, unit))
    compare_at(rep, "morphism.coproduct", t.at_simples(2, coproduct))
    compare_at(rep, "morphism.counit", t.at_simples(0, counit))
    return rep
