"""Left/right antipodes and the derived-identity suite.

In the fixed dual-basis conventions of cat.py, left and right duals of
an object are the same word, the left and right transposes of a map are
the same map (`GradedMor.ldual`), and double duals are literal
identities, so the canonical identifications the formulas normally carry
are all equalities of words here.  A construction that the paper makes
once per side is therefore one routine that takes the side, the family
`a.sl` or `a.sr`: the antipode on elements and its square here, the
dual modules of modcat.py, the integral transport of hopfstruct.py.
"""

from __future__ import annotations

from functools import partial

from .cat import coev_mor, coev_right_mor, ev_mor, ev_right_mor
from .chain import Chain
from .exactla import ExactError
from .monad import (
    Element,
    Family,
    TensoringBimonad,
    TransTT,
    adjoint_action,
    check_grouplike,
    check_monad_morphism,
    compare_at,
    convolve,
    eta_element,
)
from .report import Report


class AntipodeData:
    """Stored antipode components at simples (either side may be absent).

    Each side is a family T(T(X)∨) = A ⊗ X∨ ⊗ A∨ -> X∨."""

    def __init__(self, t: TensoringBimonad, sl: dict | None = None,
                 sr: dict | None = None):
        self.t = t
        layout = ((t.carrier, ~0, t.carrier.dual()), (~0,))
        self.sl = None if sl is None else Family(t, sl, *layout, "left antipode")
        self.sr = None if sr is None else Family(t, sr, *layout, "right antipode")

    @property
    def has_left(self) -> bool:
        return self.sl is not None

    @property
    def has_right(self) -> bool:
        return self.sr is not None


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


def check_left_antipode(t: TensoringBimonad, a: AntipodeData) -> Report:
    rep = Report(f"{t.name}: left antipode axioms")
    if not a.has_left:
        rep.skip("antipode.left_ev", "no left antipode data")
        rep.skip("antipode.left_coev", "no left antipode data")
        return rep

    def ev(s):
        ts = t.on_obj(s)
        src = t.on_obj(ts.dual().tensor(s))
        lhs = Chain(src).then(t.u.ldual(), at=1 + len(s.atoms)) \
                        .then(ev_mor(s), at=1) \
                        .then(t.t0, at=0)
        rhs = Chain(src).then(t.t2.at_step(ts.dual(), s), at=0) \
                        .then(t.m.ldual(), at=1 + len(s.atoms)) \
                        .then(a.sl.at_step(ts), at=0) \
                        .then(ev_mor(ts), at=0)
        return lhs, rhs

    def coev(s):
        ts = t.on_obj(s)
        src = t.carrier
        lhs = Chain(src).then(t.t0, at=0) \
                        .then(coev_mor(s), at=0) \
                        .then(t.u, at=0)
        rhs = Chain(src).then(coev_mor(ts), at=1) \
                        .then(t.t2.at_step(ts, ts.dual()), at=0) \
                        .then(t.m, at=0) \
                        .then(a.sl.at_step(s), at=2)
        return lhs, rhs

    compare_at(rep, "antipode.left_ev", t.at_simples(1, ev))
    compare_at(rep, "antipode.left_coev", t.at_simples(1, coev))
    return rep


def check_right_antipode(t: TensoringBimonad, a: AntipodeData) -> Report:
    rep = Report(f"{t.name}: right antipode axioms")
    if not a.has_right:
        rep.skip("antipode.right_ev", "no right antipode data")
        rep.skip("antipode.right_coev", "no right antipode data")
        return rep

    def ev(s):
        ts = t.on_obj(s)
        src = t.on_obj(s.tensor(ts.dual()))
        lhs = Chain(src).then(t.u.ldual(), at=2 + len(s.atoms)) \
                        .then(ev_right_mor(s), at=1) \
                        .then(t.t0, at=0)
        rhs = Chain(src).then(t.t2.at_step(s, ts.dual()), at=0) \
                        .then(t.m.ldual(), at=3 + len(s.atoms)) \
                        .then(a.sr.at_step(ts), at=2) \
                        .then(ev_right_mor(ts), at=0)
        return lhs, rhs

    def coev(s):
        ts = t.on_obj(s)
        src = t.carrier
        lhs = Chain(src).then(t.t0, at=0) \
                        .then(coev_right_mor(s), at=0) \
                        .then(t.u, at=1)
        rhs = Chain(src).then(coev_right_mor(ts), at=1) \
                        .then(t.t2.at_step(ts.dual(), ts), at=0) \
                        .then(a.sr.at_step(s), at=0) \
                        .then(t.m, at=1)
        return lhs, rhs

    compare_at(rep, "antipode.right_ev", t.at_simples(1, ev))
    compare_at(rep, "antipode.right_coev", t.at_simples(1, coev))
    return rep


# ---------------------------------------------------------------------------
# Derived identities (consequences; they double as self-tests)
# ---------------------------------------------------------------------------


# the laws derived_identity_suite checks for each side, by name suffix
DERIVED_LAWS = ("anti_mult", "anti_unit", "anti_comult", "anti_counit")

# the checks of check_square_automorphism and check_s_map_laws, which read
# both antipode sides
BOTH_SIDES_CHECKS = ("morphism.product", "morphism.unit", "morphism.coproduct",
                     "morphism.counit", "square.inverse", "elements.antipode_unit",
                     "elements.antipode_inverse_map", "elements.antipode_anti_hom",
                     "elements.square_consistency")


def derived_identity_suite(t: TensoringBimonad, a: AntipodeData) -> Report:
    rep = Report(f"{t.name}: antipode derived identities")
    if not (a.has_left or a.has_right):
        rep.skip("antipode.derived", "no antipode data")
        return rep

    def anti_mult(side, s):
        ts = t.on_obj(s)
        src = t.on_obj(t.on_obj(ts.dual()))
        lhs = Chain(src).then(t.m, at=0) \
                        .then(side.at_step(s), at=0)
        rhs = Chain(src).then(t.m.ldual(), at=2 + len(s.atoms)) \
                        .then(side.at_step(ts), at=1) \
                        .then(side.at_step(s), at=0)
        return lhs, rhs

    def anti_unit(side, s):
        ts = t.on_obj(s)
        src = ts.dual()
        lhs = Chain(src).then(t.u, at=0).then(side.at_step(s), at=0)
        rhs = Chain(src).then(t.u.ldual(), at=len(s.atoms))
        return lhs, rhs

    def anti_comult(side, s1, s2):
        t1, t2obj = t.on_obj(s1), t.on_obj(s2)
        src = t.on_obj(t1.tensor(t2obj).dual())
        lhs = Chain(src).then(t.t2.at(s1, s2).ldual(), at=1) \
                        .then(side.at_step(s1.tensor(s2)), at=0)
        rhs = Chain(src).then(t.t2.at_step(t2obj.dual(), t1.dual()), at=0) \
                        .then(side.at_step(s2), at=0) \
                        .then(side.at_step(s1), at=len(s2.atoms))
        return lhs, rhs

    def anti_counit(side):
        src = t.carrier
        lhs = Chain(src).then(t.t0.ldual(), at=1).then(side.at_step(t.unit_obj()), at=0)
        rhs = Chain(src).then(t.t0, at=0)
        return lhs, rhs

    for label, side in (("left", a.sl), ("right", a.sr)):
        if side is None:
            for law in DERIVED_LAWS:
                rep.skip(f"derived.{label}_{law}", f"no {label} antipode data")
            continue
        for law, arity, fn in zip(DERIVED_LAWS, (1, 1, 2, 0),
                                  (anti_mult, anti_unit, anti_comult, anti_counit)):
            compare_at(rep, f"derived.{label}_{law}", t.at_simples(arity, partial(fn, side)))
    return rep


def check_antipode_inverse(t: TensoringBimonad, a: AntipodeData) -> Report:
    """The two sides are mutually inverse in the composite sense."""
    rep = Report(f"{t.name}: antipode inversion")
    if not (a.has_left and a.has_right):
        rep.skip("antipode.inverse_rl", "needs both sides")
        rep.skip("antipode.inverse_lr", "needs both sides")
        return rep

    def inverse(inner, outer, s):
        return _double_antipode(t, inner, outer, s), Chain(t.on_obj(s))

    compare_at(rep, "antipode.inverse_rl", t.at_simples(1, partial(inverse, a.sl, a.sr)))
    compare_at(rep, "antipode.inverse_lr", t.at_simples(1, partial(inverse, a.sr, a.sl)))
    return rep


def _double_antipode(t: TensoringBimonad, inner: Family, outer: Family, s) -> Chain:
    """T(S) -> T(S): the transpose of `inner` at S, then `outer` at T(S)∨."""
    ts = t.on_obj(s)
    return Chain(ts).then(inner.at(s).ldual(), at=1).then(outer.at_step(ts.dual()), at=0)


# ---------------------------------------------------------------------------
# Antipode on convolution elements, square, sovereign, involutory
# ---------------------------------------------------------------------------


def s_map(t: TensoringBimonad, side: Family, f: Element) -> Element:
    """The antipode on 1 -> T families through one side: S with `a.sl`,
    its inverse S⁻¹ with `a.sr`."""
    def comp(s):
        ts = t.on_obj(s)
        ch = Chain(ts.dual()).then(f.at_step(ts.dual()), at=0) \
                             .then(side.at_step(s), at=0)
        return ch.eval().ldual()
    return Element(t, t.components(comp), f"{side.label}({f.label})")


def square_of_antipode(t: TensoringBimonad, side: Family) -> TransTT:
    """The double antipode as a T -> T family (canonical pivotal data):
    S² with `a.sl`, its inverse S⁻² with `a.sr`."""
    comps = t.components(lambda s: _double_antipode(t, side, side, s).eval())
    return TransTT(t, t, comps, f"{side.label} squared")


def apply_trans(trans: TransTT, f: Element) -> Element:
    """Compose a T -> T family with a 1 -> T family."""
    comps = {g: trans.comps[g] @ f.comps[g] for g in trans.t.simples()}
    return Element(trans.t, comps, f"{trans.label}({f.label})")


def check_square_automorphism(t: TensoringBimonad, a: AntipodeData,
                              s2: TransTT) -> Report:
    """The antipode square is a bimonad automorphism with the stated inverse."""
    rep = check_monad_morphism(s2)
    rep.name = f"{t.name}: antipode square"
    s2inv = square_of_antipode(t, a.sr)
    both = s2.compose(s2inv)
    both2 = s2inv.compose(s2)
    rep.record("square.inverse", both.is_identity() and both2.is_identity())
    return rep


def check_sovereign_element(t: TensoringBimonad, a: AntipodeData,
                            g_elt: Element) -> bool:
    """Whether the double antipode equals conjugation by the element."""
    if not check_grouplike(t, g_elt):
        return False
    g_inv = s_map(t, a.sl, g_elt)
    ad = adjoint_action(t, g_elt, g_inv)
    return square_of_antipode(t, a.sl) == ad


def is_involutory(t: TensoringBimonad, a: AntipodeData, s2: TransTT) -> bool:
    """Double antipode trivial; cross-checked against the two-sided test."""
    by_square = s2.is_identity()
    # equivalent criterion: both antipode sides coincide componentwise
    by_sides = all(a.sl[g] == a.sr[g] for g in t.simples())
    if by_square != by_sides:
        raise ExactError("involutivity criteria disagree; internal error")
    return by_square


def check_s_map_laws(t: TensoringBimonad, a: AntipodeData, s2: TransTT,
                     samples: list, rep: Report | None = None) -> Report:
    """Anti-homomorphism and inversion laws for the antipode on elements."""
    rep = rep or Report(f"{t.name}: antipode on convolution elements")
    eta = eta_element(t)
    rep.record("elements.antipode_unit", s_map(t, a.sl, eta) == eta)
    # each sample's images under S and S⁻¹, taken once
    s_of = [s_map(t, a.sl, f) for f in samples]
    s_inv_of = [s_map(t, a.sr, f) for f in samples]
    rep.record("elements.antipode_inverse_map",
               all(s_map(t, a.sl, fi) == f and s_map(t, a.sr, fs) == f
                   for f, fs, fi in zip(samples, s_of, s_inv_of)))
    rep.record("elements.antipode_anti_hom",
               all(s_map(t, a.sl, convolve(t, f, g)) == convolve(t, sg, sf)
                   for f, sf in zip(samples, s_of) for g, sg in zip(samples, s_of)))
    rep.record("elements.square_consistency",
               all(apply_trans(s2, f) == s_map(t, a.sl, sf) for f, sf in zip(samples, s_of)))
    return rep
