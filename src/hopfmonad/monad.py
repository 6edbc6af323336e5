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
an atom index.

Every axiom is evaluated at all simple tuples, which is complete on
these backends; reports carry the first failing tuple and the exact
difference matrix.
"""

from __future__ import annotations

from .cat import (
    BaseSpec,
    GradedMor,
    GradedObj,
    identity,
    tensor_mor,
)
from .chain import Chain, CoreStep, Evaluated, MorStep, extend, layout_word, slot_word
from .exactla import DimensionMismatch, ExactError
from .report import CheckResult, Report

# carriers at most this big get the redundant generic-route cross-check
CROSSCHECK_DIM = 16


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
        missing = set(self.composable_pairs()) - set(t2)
        if missing:
            raise StructureError(f"missing coproduct component at {min(missing)}")
        # the coproduct T(X⊗Y) -> T(X)⊗T(Y)
        self.t2 = Family(self, t2, (carrier, 0, 1), (carrier, 0, carrier, 1),
                         "coproduct")

    # -- objects and simples ---------------------------------------------

    def simple(self, g) -> GradedObj:
        return self._simples[g]

    def simples(self) -> list:
        L = self.base.nlabels
        return [(i, j) for i in range(L) for j in range(L)]

    def composable_pairs(self) -> list:
        out = []
        for g1 in self.simples():
            for g2 in self.simples():
                if g1[1] == g2[0]:
                    out.append((g1, g2))
        return out

    def composable_triples(self) -> list:
        out = []
        for g1, g2 in self.composable_pairs():
            for g3 in self.simples():
                if g2[1] == g3[0]:
                    out.append((g1, g2, g3))
        return out

    def on_obj(self, x: GradedObj) -> GradedObj:
        return self.carrier.tensor(x)

    def on_mor(self, f: GradedMor) -> GradedMor:
        return tensor_mor(identity(self.carrier), f)

    @property
    def carrier_dim(self) -> int:
        return self.carrier.total_dim()

    def unit_obj(self) -> GradedObj:
        return GradedObj.unit(self.base)

    # materialized variants, for solver-facing code on small objects
    def mu_mor(self, x: GradedObj) -> GradedMor:
        return tensor_mor(self.m, identity(x))

    def eta_mor(self, x: GradedObj) -> GradedMor:
        return tensor_mor(self.u, identity(x))

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
        self.keys = t.composable_pairs() if pairs else t.simples()
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

    def __getitem__(self, key) -> GradedMor:
        return self.comps[key]

    def at_step(self, *xs: GradedObj):
        """The component at the objects xs as a chain step.

        On one label the component is its core on the fixed slots, tensored
        with the identity of the arguments; otherwise it is the direct-sum
        extension from the simples.
        """
        if not self.t.base.is_vector:
            return MorStep(extend(self.src, self.dst, xs, self.comps))
        in_axes, src_pass = _slot_axes(self.src, xs)
        out_axes, dst_pass = _slot_axes(self.dst, xs)
        return CoreStep(layout_word(self.src, xs), layout_word(self.dst, xs),
                        self.comps[self.keys[0]].block(0, 0), in_axes, out_axes,
                        pass_perm=[src_pass.index(p) for p in dst_pass])

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

    def assoc_items():
        for g in t.simples():
            s = t.simple(g)
            t2s = t.on_obj(t.on_obj(t.on_obj(s)))
            lhs = Chain(t2s).then(t.m, at=1).then(t.m, at=0)
            rhs = Chain(t2s).then(t.m, at=0).then(t.m, at=0)
            yield (g,), lhs, rhs

    def unit_items(side):
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            if side == "left":
                lhs = Chain(ts).then(t.u, at=0).then(t.m, at=0)
            else:
                lhs = Chain(ts).then(t.u, at=1).then(t.m, at=0)
            yield (g,), lhs, Chain(ts)

    compare_at(rep, "monad.assoc", assoc_items())
    compare_at(rep, "monad.unit_left", unit_items("left"))
    compare_at(rep, "monad.unit_right", unit_items("right"))
    return rep


def check_comonoidal(t: TensoringBimonad) -> Report:
    """Coassociativity and counit laws for the coproduct components."""
    rep = Report(f"{t.name}: comonoidal axioms")

    def coassoc_items():
        for g1, g2, g3 in t.composable_triples():
            s1, s2, s3 = t.simple(g1), t.simple(g2), t.simple(g3)
            src = t.on_obj(s1.tensor(s2).tensor(s3))
            n1 = len(s1.atoms)
            lhs = Chain(src).then(t.t2.at_step(s1, s2.tensor(s3)), at=0) \
                            .then(t.t2.at_step(s2, s3), at=1 + n1)
            rhs = Chain(src).then(t.t2.at_step(s1.tensor(s2), s3), at=0) \
                            .then(t.t2.at_step(s1, s2), at=0)
            yield (g1, g2, g3), lhs, rhs

    def counit_items(side):
        unit = t.unit_obj()
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            if side == "right":
                lhs = Chain(ts).then(t.t2.at_step(s, unit), at=0) \
                               .then(t.t0, at=1 + len(s.atoms))
            else:
                lhs = Chain(ts).then(t.t2.at_step(unit, s), at=0) \
                               .then(t.t0, at=0)
            yield (g,), lhs, Chain(ts)

    compare_at(rep, "comonoidal.coassoc", coassoc_items())
    compare_at(rep, "comonoidal.counit_right", counit_items("right"))
    compare_at(rep, "comonoidal.counit_left", counit_items("left"))
    return rep


def _mult_compat_fast(t: TensoringBimonad):
    """Vector-backend route for the product/coproduct compatibility.

    Contracts the structure tensors directly so the check stays feasible
    for large carriers.  The chain route stays at carrier-dim^5 whatever
    the contraction plan: its states have width carrier-dim^2, and the
    first coproduct of the right side alone makes carrier-dim^3 rows.
    """
    f = t.base.field
    n = t.carrier_dim
    d3 = t.t2[((0, 0), (0, 0))].block(0, 0).reshape(n, n, n)   # [p, q, a]
    m3 = t.m.block(0, 0).reshape(n, n, n)                      # [c, p, r]
    lhs = f.matmul(t.t2[((0, 0), (0, 0))].block(0, 0), t.m.block(0, 0))
    e = f.tensordot(d3, m3, axes=([0], [1]))      # [q, a, c, r]
    g = f.tensordot(d3, m3, axes=([1], [2]))      # [r, b, d, q]
    rhs4 = f.tensordot(e, g, axes=([0, 3], [3, 0]))  # [a, c, b, d]
    rhs = rhs4.transpose(1, 3, 0, 2).reshape(n * n, n * n)
    return lhs, rhs


def check_bimonad(t: TensoringBimonad) -> Report:
    """All four product/coproduct compatibilities, plus the sub-reports."""
    rep = check_monad(t).merge(check_comonoidal(t))
    rep.name = f"{t.name}: bimonad axioms"
    unit = t.unit_obj()

    def mult_compat_chains(s1, s2):
        src = t.on_obj(t.on_obj(s1.tensor(s2)))
        n1 = len(s1.atoms)
        lhs = Chain(src).then(t.m, at=0) \
                        .then(t.t2.at_step(s1, s2), at=0)
        rhs = Chain(src).then(t.t2.at_step(s1, s2), at=1) \
                        .then(t.t2.at_step(t.on_obj(s1), t.on_obj(s2)), at=0) \
                        .then(t.m, at=0) \
                        .then(t.m, at=1 + n1)
        return lhs, rhs

    def mult_compat_items():
        if t.base.is_vector:
            s = t.simple((0, 0))
            lhs, rhs = _mult_compat_fast(t)
            if t.carrier_dim <= CROSSCHECK_DIM:
                cl, cr = mult_compat_chains(s, s)
                if cl.eval().block(0, 0).tolist() != lhs.tolist() or \
                        cr.eval().block(0, 0).tolist() != rhs.tolist():
                    raise StructureError("fast and generic compatibility routes disagree")
            src = t.on_obj(t.on_obj(s.tensor(s)))
            dst = t.on_obj(s).tensor(t.on_obj(s))
            wl = GradedMor(src, dst, {(0, 0): lhs})
            wr = GradedMor(src, dst, {(0, 0): rhs})
            yield ((0, 0), (0, 0)), Evaluated(wl), Evaluated(wr)
            return
        for g1, g2 in t.composable_pairs():
            lhs, rhs = mult_compat_chains(t.simple(g1), t.simple(g2))
            yield (g1, g2), lhs, rhs

    def counit_mult_items():
        src = t.carrier.tensor(t.carrier)
        lhs = Chain(src).then(t.m, at=0).then(t.t0, at=0)
        rhs = Chain(src).then(t.t0, at=1).then(t.t0, at=0)
        yield (), lhs, rhs

    def coprod_unit_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
            src = s1.tensor(s2)
            lhs = Chain(src).then(t.u, at=0).then(t.t2.at_step(s1, s2), at=0)
            rhs = Chain(src).then(t.u, at=0) \
                            .then(t.u, at=1 + len(s1.atoms))
            yield (g1, g2), lhs, rhs

    def counit_unit_items():
        lhs = Chain(unit).then(t.u, at=0).then(t.t0, at=0)
        yield (), lhs, Chain(unit)

    compare_at(rep, "bimonad.mult_compat", mult_compat_items())
    compare_at(rep, "bimonad.counit_mult", counit_mult_items())
    compare_at(rep, "bimonad.coprod_unit", coprod_unit_items())
    compare_at(rep, "bimonad.counit_unit", counit_unit_items())
    return rep


# ---------------------------------------------------------------------------
# Convolution algebra on Hom(1, T)
# ---------------------------------------------------------------------------


def eta_element(t: TensoringBimonad) -> Element:
    return Element(t, {g: t.eta_mor(t.simple(g)) for g in t.simples()}, "eta")


def convolve(t: TensoringBimonad, f: Element, g: Element) -> Element:
    """Convolution product: mu ∘ f-at-T ∘ g, componentwise at simples."""
    comps = {}
    for gr in t.simples():
        s = t.simple(gr)
        ch = Chain(s).then(g.at_step(s), at=0) \
                     .then(f.at_step(t.on_obj(s)), at=0) \
                     .then(t.m, at=0)
        comps[gr] = ch.eval()
    return Element(t, comps, f"{f.label}*{g.label}")


def convolve_alt(t: TensoringBimonad, f: Element, g: Element) -> Element:
    """The other associativity route: mu ∘ T(g) ∘ f (must agree)."""
    comps = {}
    for gr in t.simples():
        s = t.simple(gr)
        ch = Chain(s).then(f.at_step(s), at=0) \
                     .then(g.at_step(s), at=1) \
                     .then(t.m, at=0)
        comps[gr] = ch.eval()
    return Element(t, comps, f"{f.label}*{g.label}")


def left_mult(t: TensoringBimonad, a: Element) -> TransTT:
    """L_a: act by a on the left of T."""
    comps = {}
    for gr in t.simples():
        s = t.simple(gr)
        ts = t.on_obj(s)
        comps[gr] = Chain(ts).then(a.at_step(ts), at=0).then(t.m, at=0).eval()
    return TransTT(t, t, comps, f"L[{a.label}]")


def right_mult(t: TensoringBimonad, a: Element) -> TransTT:
    """R_a: act by a on the right of T."""
    comps = {}
    for gr in t.simples():
        s = t.simple(gr)
        ts = t.on_obj(s)
        comps[gr] = Chain(ts).then(a.at_step(s), at=1).then(t.m, at=0).eval()
    return TransTT(t, t, comps, f"R[{a.label}]")


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


def identity_trans(t: TensoringBimonad) -> TransTT:
    return TransTT(t, t, {g: identity(t.on_obj(t.simple(g))) for g in t.simples()},
                   "id")


def check_grouplike(t: TensoringBimonad, g: Element) -> bool:
    """Coproduct takes g to g ⊗ g and the counit takes it to the identity."""
    for g1, g2 in t.composable_pairs():
        s1, s2 = t.simple(g1), t.simple(g2)
        src = s1.tensor(s2)
        lhs = Chain(src).then(g.at_step(src), at=0).then(t.t2.at_step(s1, s2), at=0)
        rhs = Chain(src).then(g.at_step(s1), at=0) \
                        .then(g.at_step(s2), at=1 + len(s1.atoms))
        if not (lhs.eval() - rhs.eval()).is_zero():
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

    def product_items():
        for g in t.simples():
            s = t.simple(g)
            src = t.on_obj(t.on_obj(s))
            lhs = Chain(src).then(t.m, at=0).then(f.at_step(s), at=0)
            rhs = Chain(src).then(f.at_step(s), at=1) \
                            .then(f.at_step(tp.on_obj(s)), at=0) \
                            .then(tp.m, at=0)
            yield (g,), lhs, rhs

    def unit_items():
        for g in t.simples():
            s = t.simple(g)
            lhs = Chain(s).then(t.u, at=0).then(f.at_step(s), at=0)
            rhs = Chain(s).then(tp.u, at=0)
            yield (g,), lhs, rhs

    def coproduct_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
            src = t.on_obj(s1.tensor(s2))
            lhs = Chain(src).then(f.at_step(s1.tensor(s2)), at=0) \
                            .then(tp.t2.at_step(s1, s2), at=0)
            rhs = Chain(src).then(t.t2.at_step(s1, s2), at=0) \
                            .then(f.at_step(s1), at=0) \
                            .then(f.at_step(s2), at=1 + len(s1.atoms))
            yield (g1, g2), lhs, rhs

    def counit_items():
        src = t.carrier
        lhs = Chain(src).then(f.at_step(t.unit_obj()), at=0).then(tp.t0, at=0)
        rhs = Chain(src).then(t.t0, at=0)
        yield (), lhs, rhs

    compare_at(rep, "morphism.product", product_items())
    compare_at(rep, "morphism.unit", unit_items())
    compare_at(rep, "morphism.coproduct", coproduct_items())
    compare_at(rep, "morphism.counit", counit_items())
    return rep
