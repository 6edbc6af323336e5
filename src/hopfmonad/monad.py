"""Tensoring bimonads and their axiom checkers.

A tensoring bimonad is the endofunctor X -> A ⊗ X for a carrier A
equipped with product and unit (held as morphisms m: A⊗A -> A and
u: 1 -> A, so the monad structure is of A-side form by construction)
together with free coproduct components at simple pairs and a counit.

Natural transformations are stored by their components at simples (or
simple pairs); components anywhere else are the forced direct-sum
extensions, realized either as structured axis steps (vector backend)
or by the summand formula (graded backend).

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
from .chain import Chain, CoreStep, Evaluated, MorStep, extend_pair, extend_unary
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
        self.t2 = {}
        for (g1, g2), comp in t2.items():
            s1, s2 = self.simple(g1), self.simple(g2)
            if comp.src != self.on_obj(s1.tensor(s2)) or \
                    comp.dst != self.on_obj(s1).tensor(self.on_obj(s2)):
                raise StructureError(f"coproduct component at {(g1, g2)} has wrong ends")
            self.t2[(g1, g2)] = comp
        for g1, g2 in self.composable_pairs():
            if (g1, g2) not in self.t2:
                raise StructureError(f"missing coproduct component at {(g1, g2)}")

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

    # -- structure morphisms as chain steps --------------------------------

    def mu_step(self, x: GradedObj):
        """mu at x: T²(x) -> T(x), always of the form m ⊗ id."""
        if self.base.is_vector:
            src = self.carrier.tensor(self.carrier).tensor(x)
            return CoreStep(src, self.on_obj(x), self.m.block(0, 0),
                            in_axes=(0, 1), out_axes=(0,))
        return MorStep(tensor_mor(self.m, identity(x)))

    def eta_step(self, x: GradedObj):
        if self.base.is_vector:
            return CoreStep(x, self.on_obj(x), self.u.block(0, 0),
                            in_axes=(), out_axes=(0,))
        return MorStep(tensor_mor(self.u, identity(x)))

    def t0_step(self):
        return MorStep(self.t0)

    def t2_step(self, x: GradedObj, y: GradedObj):
        """Coproduct at (x, y): T(x⊗y) -> T(x)⊗T(y), extended from simples."""
        if self.base.is_vector:
            core = self.t2[((0, 0), (0, 0))].block(0, 0)
            src = self.on_obj(x.tensor(y))
            dst = self.on_obj(x).tensor(self.on_obj(y))
            return CoreStep(src, dst, core,
                            in_axes=(0,), out_axes=(0, 1 + len(x.atoms)))
        comp = extend_pair(
            x, y,
            lambda g1, g2: self.t2.get((g1, g2)),
            lambda a, b: self.on_obj(a.tensor(b)),
            lambda f, g: self.on_mor(tensor_mor(f, g)),
            lambda a, b: self.on_obj(a).tensor(self.on_obj(b)),
            lambda f, g: tensor_mor(self.on_mor(f), self.on_mor(g)),
        )
        return MorStep(comp)

    # materialized variants, for solver-facing code on small objects
    def mu_mor(self, x: GradedObj) -> GradedMor:
        return tensor_mor(self.m, identity(x))

    def eta_mor(self, x: GradedObj) -> GradedMor:
        return tensor_mor(self.u, identity(x))

    def t2_mor(self, x: GradedObj, y: GradedObj) -> GradedMor:
        return self.t2_step(x, y).to_mor()

    def __repr__(self):
        return f"TensoringBimonad({self.name}, dim {self.carrier_dim}, " \
               f"{self.base.field.describe()}, {self.base.nlabels} labels)"


# ---------------------------------------------------------------------------
# Natural transformations stored at simples
# ---------------------------------------------------------------------------


class Element:
    """A natural family 1_C -> T: one morphism S -> T(S) per simple."""

    def __init__(self, t: TensoringBimonad, comps: dict, label: str = "f"):
        self.t = t
        self.label = label
        self.comps = {}
        for g in t.simples():
            c = comps.get(g)
            if c is None:
                s = t.simple(g)
                c = GradedMor.zero(s, t.on_obj(s))
            self.comps[g] = c

    def at_step(self, x: GradedObj):
        t = self.t
        if t.base.is_vector:
            core = self.comps[(0, 0)].block(0, 0)
            return CoreStep(x, t.on_obj(x), core, in_axes=(), out_axes=(0,))
        comp = extend_unary(
            x, lambda g: self.comps.get(g),
            lambda a: a, lambda f: f,
            lambda a: t.on_obj(a), lambda f: t.on_mor(f))
        return MorStep(comp)

    def at(self, x: GradedObj) -> GradedMor:
        return self.at_step(x).to_mor()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return all(self.comps[g] == other.comps[g] for g in self.t.simples())

    def __hash__(self):
        raise TypeError("Element is unhashable")

    def __repr__(self):
        return f"Element({self.label})"


class TransTT:
    """A natural family T -> T': one morphism T(S) -> T'(S) per simple."""

    def __init__(self, t: TensoringBimonad, t_dst: TensoringBimonad,
                 comps: dict, label: str = "f"):
        self.t = t
        self.t_dst = t_dst
        self.label = label
        self.comps = dict(comps)
        for g in t.simples():
            if g not in self.comps:
                s = t.simple(g)
                self.comps[g] = GradedMor.zero(t.on_obj(s), t_dst.on_obj(s))

    def at_step(self, x: GradedObj):
        if self.t.base.is_vector:
            core = self.comps[(0, 0)].block(0, 0)
            return CoreStep(self.t.on_obj(x), self.t_dst.on_obj(x), core,
                            in_axes=(0,), out_axes=(0,))
        comp = extend_unary(
            x, lambda g: self.comps.get(g),
            lambda a: self.t.on_obj(a), lambda f: self.t.on_mor(f),
            lambda a: self.t_dst.on_obj(a), lambda f: self.t_dst.on_mor(f))
        return MorStep(comp)

    def at(self, x: GradedObj) -> GradedMor:
        return self.at_step(x).to_mor()

    def compose(self, other: "TransTT") -> "TransTT":
        if other.t_dst is not self.t and other.t_dst.carrier != self.t.carrier:
            raise DimensionMismatch("composition of families with different middles")
        comps = {g: self.comps[g] @ other.comps[g] for g in self.t.simples()}
        return TransTT(other.t, self.t_dst, comps, f"{self.label}∘{other.label}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransTT):
            return NotImplemented
        return all(self.comps[g] == other.comps[g] for g in self.t.simples())

    def __hash__(self):
        raise TypeError("TransTT is unhashable")

    def is_identity(self) -> bool:
        return all(self.comps[g] == identity(self.t.on_obj(self.t.simple(g)))
                   for g in self.t.simples())


class PairFamily:
    """A natural family X⊗Y -> T(Y)⊗T(X): components at simple pairs."""

    def __init__(self, t: TensoringBimonad, comps: dict, label: str = "R"):
        self.t = t
        self.label = label
        self.star_inverse = None  # optionally supplied; always recomputed
        self.comps = dict(comps)
        for pair in t.composable_pairs():
            if pair not in self.comps:
                g1, g2 = pair
                s1, s2 = t.simple(g1), t.simple(g2)
                self.comps[pair] = GradedMor.zero(
                    s1.tensor(s2), t.on_obj(s2).tensor(t.on_obj(s1)))

    def at_step(self, x: GradedObj, y: GradedObj):
        t = self.t
        if t.base.is_vector:
            core = self.comps[((0, 0), (0, 0))].block(0, 0)
            src = x.tensor(y)
            dst = t.on_obj(y).tensor(t.on_obj(x))
            nx, ny = len(x.atoms), len(y.atoms)
            # pass-through: dst carries y's atoms first, then x's
            perm = tuple(list(range(nx, nx + ny)) + list(range(nx)))
            return CoreStep(src, dst, core, in_axes=(), out_axes=(0, 1 + ny),
                            pass_perm=perm)
        comp = extend_pair(
            x, y,
            lambda g1, g2: self.comps.get((g1, g2)),
            lambda a, b: a.tensor(b),
            lambda f, g: tensor_mor(f, g),
            lambda a, b: t.on_obj(b).tensor(t.on_obj(a)),
            lambda f, g: tensor_mor(t.on_mor(g), t.on_mor(f)),
        )
        return MorStep(comp)

    def at(self, x: GradedObj, y: GradedObj) -> GradedMor:
        return self.at_step(x, y).to_mor()


# ---------------------------------------------------------------------------
# Check plumbing
# ---------------------------------------------------------------------------


def compare_at(report: Report, check: str, items) -> bool:
    """Evaluate (label, lhs_chain, rhs_chain) items; record first failure."""
    for label, lhs, rhs in items:
        diff = lhs.eval() - rhs.eval()
        if not diff.is_zero():
            report.add(CheckResult(check, "fail", simple=label, witness=diff))
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
            lhs = Chain(t2s).then(t.mu_step(s), at=1).then(t.mu_step(s), at=0)
            rhs = Chain(t2s).then(t.mu_step(t.on_obj(s)), at=0).then(t.mu_step(s), at=0)
            yield (g,), lhs, rhs

    def unit_items(side):
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            if side == "left":
                lhs = Chain(ts).then(t.eta_step(ts), at=0).then(t.mu_step(s), at=0)
            else:
                lhs = Chain(ts).then(t.eta_step(s), at=1).then(t.mu_step(s), at=0)
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
            lhs = Chain(src).then(t.t2_step(s1, s2.tensor(s3)), at=0) \
                            .then(t.t2_step(s2, s3), at=1 + n1)
            rhs = Chain(src).then(t.t2_step(s1.tensor(s2), s3), at=0) \
                            .then(t.t2_step(s1, s2), at=0)
            yield (g1, g2, g3), lhs, rhs

    def counit_items(side):
        unit = t.unit_obj()
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            if side == "right":
                lhs = Chain(ts).then(t.t2_step(s, unit), at=0) \
                               .then(t.t0_step(), at=1 + len(s.atoms))
            else:
                lhs = Chain(ts).then(t.t2_step(unit, s), at=0) \
                               .then(t.t0_step(), at=0)
            yield (g,), lhs, Chain(ts)

    compare_at(rep, "comonoidal.coassoc", coassoc_items())
    compare_at(rep, "comonoidal.counit_right", counit_items("right"))
    compare_at(rep, "comonoidal.counit_left", counit_items("left"))
    return rep


def _mult_compat_fast(t: TensoringBimonad):
    """Vector-backend route for the product/coproduct compatibility.

    Contracts the structure tensors directly so the check stays feasible
    for large carriers, where the step-by-step route would materialize an
    intermediate of carrier-dim^5 entries.
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
        lhs = Chain(src).then(t.mu_step(s1.tensor(s2)), at=0) \
                        .then(t.t2_step(s1, s2), at=0)
        rhs = Chain(src).then(t.t2_step(s1, s2), at=1) \
                        .then(t.t2_step(t.on_obj(s1), t.on_obj(s2)), at=0) \
                        .then(t.mu_step(s1), at=0) \
                        .then(t.mu_step(s2), at=1 + n1)
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
        lhs = Chain(src).then(t.mu_step(unit), at=0).then(t.t0_step(), at=0)
        rhs = Chain(src).then(t.t0_step(), at=1).then(t.t0_step(), at=0)
        yield (), lhs, rhs

    def coprod_unit_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
            src = s1.tensor(s2)
            lhs = Chain(src).then(t.eta_step(src), at=0).then(t.t2_step(s1, s2), at=0)
            rhs = Chain(src).then(t.eta_step(s1), at=0) \
                            .then(t.eta_step(s2), at=1 + len(s1.atoms))
            yield (g1, g2), lhs, rhs

    def counit_unit_items():
        lhs = Chain(unit).then(t.eta_step(unit), at=0).then(t.t0_step(), at=0)
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
                     .then(t.mu_step(s), at=0)
        comps[gr] = ch.eval()
    return Element(t, comps, f"{f.label}*{g.label}")


def convolve_alt(t: TensoringBimonad, f: Element, g: Element) -> Element:
    """The other associativity route: mu ∘ T(g) ∘ f (must agree)."""
    comps = {}
    for gr in t.simples():
        s = t.simple(gr)
        ch = Chain(s).then(f.at_step(s), at=0) \
                     .then(g.at_step(s), at=1) \
                     .then(t.mu_step(s), at=0)
        comps[gr] = ch.eval()
    return Element(t, comps, f"{f.label}*{g.label}")


def left_mult(t: TensoringBimonad, a: Element) -> TransTT:
    """L_a: act by a on the left of T."""
    comps = {}
    for gr in t.simples():
        s = t.simple(gr)
        ts = t.on_obj(s)
        comps[gr] = Chain(ts).then(a.at_step(ts), at=0).then(t.mu_step(s), at=0).eval()
    return TransTT(t, t, comps, f"L[{a.label}]")


def right_mult(t: TensoringBimonad, a: Element) -> TransTT:
    """R_a: act by a on the right of T."""
    comps = {}
    for gr in t.simples():
        s = t.simple(gr)
        ts = t.on_obj(s)
        comps[gr] = Chain(ts).then(a.at_step(s), at=1).then(t.mu_step(s), at=0).eval()
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
        lhs = Chain(src).then(g.at_step(src), at=0).then(t.t2_step(s1, s2), at=0)
        rhs = Chain(src).then(g.at_step(s1), at=0) \
                        .then(g.at_step(s2), at=1 + len(s1.atoms))
        if not (lhs.eval() - rhs.eval()).is_zero():
            return False
    unit = t.unit_obj()
    lhs = Chain(unit).then(g.at_step(unit), at=0).then(t.t0_step(), at=0)
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
            lhs = Chain(src).then(t.mu_step(s), at=0).then(f.at_step(s), at=0)
            rhs = Chain(src).then(f.at_step(s), at=1) \
                            .then(f.at_step(tp.on_obj(s)), at=0) \
                            .then(tp.mu_step(s), at=0)
            yield (g,), lhs, rhs

    def unit_items():
        for g in t.simples():
            s = t.simple(g)
            lhs = Chain(s).then(t.eta_step(s), at=0).then(f.at_step(s), at=0)
            rhs = Chain(s).then(tp.eta_step(s), at=0)
            yield (g,), lhs, rhs

    def coproduct_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
            src = t.on_obj(s1.tensor(s2))
            lhs = Chain(src).then(f.at_step(s1.tensor(s2)), at=0) \
                            .then(tp.t2_step(s1, s2), at=0)
            rhs = Chain(src).then(t.t2_step(s1, s2), at=0) \
                            .then(f.at_step(s1), at=0) \
                            .then(f.at_step(s2), at=1 + len(s1.atoms))
            yield (g1, g2), lhs, rhs

    def counit_items():
        src = t.carrier
        lhs = Chain(src).then(f.at_step(t.unit_obj()), at=0).then(tp.t0_step(), at=0)
        rhs = Chain(src).then(t.t0_step(), at=0)
        yield (), lhs, rhs

    compare_at(rep, "morphism.product", product_items())
    compare_at(rep, "morphism.unit", unit_items())
    compare_at(rep, "morphism.coproduct", coproduct_items())
    compare_at(rep, "morphism.counit", counit_items())
    return rep
