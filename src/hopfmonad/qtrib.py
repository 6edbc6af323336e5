"""Quasitriangular structure: R-matrices, braidings, Drinfeld element,
twists and the sovereign element they induce.

Long composites are written in the order of the formulas they check.
On one label chain.py contracts each as one tensor network, so the
R-matrix and Drinfeld-element chains stay at carrier-dim^4
(tests/test_chain.py records the peak on the doubles).

u⁻¹ is built as the invertibility proof builds it, from the inverse
braiding given by R⁻¹ and with no linear solve, so only once R⁻¹ has
passed as the two-sided convolution inverse of R (see drinfeld_inverse).
"""

from __future__ import annotations

from functools import partial

from .antipode import AntipodeData, s_map
from .cat import GradedMor, coev_mor, ev_mor
from .chain import Chain
from .exactla import ExactError
from .modcat import (TModule, dual_module, free_module, invert_module_map,
                     is_t_linear, tensor_modules)
from .monad import (
    Element,
    PairFamily,
    TensoringBimonad,
    TransTT,
    adjoint_action,
    check_grouplike,
    compare_at,
    convolve,
    is_central,
    star_inverse_check,
)
from .report import Report

# ---------------------------------------------------------------------------
# R-matrix axioms
# ---------------------------------------------------------------------------


def star_inverse_of_r(t: TensoringBimonad, a: AntipodeData,
                      r: PairFamily) -> PairFamily:
    """The convolution inverse of an R-matrix via the left antipode."""
    comps = {}
    for g1, g2 in t.composable(2):
        s1, s2 = t.simple(g1), t.simple(g2)
        ts1 = t.on_obj(s1)
        src = s2.tensor(s1)
        ch = Chain(src) \
            .then(coev_mor(ts1), at=0) \
            .then(r.at_step(ts1.dual(), s2), at=2) \
            .then(a.sl.at_step(s1), at=4) \
            .then(ev_mor(s1), at=4)
        comps[(g2, g1)] = ch.eval()
    return PairFamily(t, comps, r.label + "^-1")


# the checks that R⁻¹ is the two-sided convolution inverse of R, and the
# note of the checks that read u⁻¹ when they fail, so u⁻¹ was not built
STAR_INVERSE_CHECKS = ("rmatrix.star_inverse_left", "rmatrix.star_inverse_right")
NO_R_INVERSE = "needs the convolution inverse of R"


def check_rmatrix(t: TensoringBimonad, r: PairFamily,
                  r_inv: PairFamily | None) -> Report:
    """The three exchange axioms, unit laws, inverse and Yang-Baxter.

    `r_inv` is `star_inverse_of_r`, or None without a left antipode."""
    rep = Report(f"{t.name}: R-matrix axioms")
    unit = t.unit_obj()

    def linearity(s1, s2):
        ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
        src = t.on_obj(s1.tensor(s2))
        n1, n2 = len(s1.atoms), len(s2.atoms)
        lhs = Chain(src).then(t.t2.at_step(s1, s2), at=0) \
                        .then(r.at_step(ts1, ts2), at=0) \
                        .then(t.m, at=0) \
                        .then(t.m, at=1 + n2)
        rhs = Chain(src).then(r.at_step(s1, s2), at=1) \
                        .then(t.t2.at_step(ts2, ts1), at=0) \
                        .then(t.m, at=0) \
                        .then(t.m, at=1 + n2)
        return lhs, rhs

    def left_product(s1, s2, s3):
        src = s1.tensor(s2).tensor(s3)
        n1, n2, n3 = (len(s.atoms) for s in (s1, s2, s3))
        lhs = Chain(src).then(r.at_step(s1.tensor(s2), s3), at=0) \
                        .then(t.t2.at_step(s1, s2), at=1 + n3)
        rhs = Chain(src).then(r.at_step(s2, s3), at=n1) \
                        .then(r.at_step(s1, t.on_obj(s3)), at=0) \
                        .then(t.m, at=0)
        return lhs, rhs

    def right_product(s1, s2, s3):
        src = s1.tensor(s2).tensor(s3)
        n1, n2, n3 = (len(s.atoms) for s in (s1, s2, s3))
        lhs = Chain(src).then(r.at_step(s1, s2.tensor(s3)), at=0) \
                        .then(t.t2.at_step(s2, s3), at=0)
        rhs = Chain(src).then(r.at_step(s1, s2), at=0) \
                        .then(r.at_step(t.on_obj(s1), s3), at=1 + n2) \
                        .then(t.m, at=2 + n2 + n3)
        return lhs, rhs

    def unit_left(s):
        lhs = Chain(s).then(r.at_step(unit, s), at=0) \
                      .then(t.t0, at=1 + len(s.atoms))
        rhs = Chain(s).then(t.u, at=0)
        return lhs, rhs

    def unit_right(s):
        lhs = Chain(s).then(r.at_step(s, unit), at=0) \
                      .then(t.t0, at=0)
        rhs = Chain(s).then(t.u, at=0)
        return lhs, rhs

    compare_at(rep, "rmatrix.linearity", t.at_simples(2, linearity))
    compare_at(rep, "rmatrix.left_product", t.at_simples(3, left_product))
    compare_at(rep, "rmatrix.right_product", t.at_simples(3, right_product))
    compare_at(rep, "rmatrix.unit_left", t.at_simples(1, unit_left))
    compare_at(rep, "rmatrix.unit_right", t.at_simples(1, unit_right))

    left, right = STAR_INVERSE_CHECKS
    if r_inv is not None:
        compare_at(rep, left, t.at_simples(2, partial(_star_inverse, t, r, r_inv)))
        reversed_pairs = [(g2, g1) for g1, g2 in t.composable(2)]
        compare_at(rep, right,
                   t.at_simples(2, partial(_star_inverse, t, r_inv, r), reversed_pairs))
    else:
        rep.skip(left, "needs a left antipode")

    compare_at(rep, "rmatrix.yang_baxter", t.at_simples(3, partial(_yang_baxter, t, r)))
    return rep


def _star_inverse(t, first, second, s1, s2):
    # convolving R and its inverse, in either order, gives the unit pair
    n1 = len(s1.atoms)
    lhs = Chain(s1.tensor(s2)).then(first.at_step(s1, s2), at=0) \
                              .then(second.at_step(t.on_obj(s2), t.on_obj(s1)), at=0) \
                              .then(t.m, at=0) \
                              .then(t.m, at=1 + n1)
    rhs = Chain(s1.tensor(s2)).then(t.u, at=0) \
                              .then(t.u, at=1 + n1)
    return lhs, rhs


def _yang_baxter(t, r, s1, s2, s3):
    # R12 R13 R23 = R23 R13 R12: three exchanges, then the three products
    ts1, ts2, ts3 = (t.on_obj(s) for s in (s1, s2, s3))
    src = s1.tensor(s2).tensor(s3)
    n1, n2, n3 = (len(s.atoms) for s in (s1, s2, s3))
    lhs = Chain(src) \
        .then(r.at_step(s1, s2), at=0) \
        .then(r.at_step(ts1, s3), at=1 + n2) \
        .then(r.at_step(ts2, ts3), at=0)
    rhs = Chain(src) \
        .then(r.at_step(s2, s3), at=n1) \
        .then(r.at_step(s1, ts3), at=0) \
        .then(r.at_step(ts1, ts2), at=2 + n3)
    for ch in (lhs, rhs):
        ch.then(t.m, at=0).then(t.m, at=1 + n3).then(t.m, at=2 + n2 + n3)
    return lhs, rhs


def check_r_dual_laws(t: TensoringBimonad, a: AntipodeData,
                      r: PairFamily) -> Report:
    """Transposes of the R-components through either antipode."""
    rep = Report(f"{t.name}: R-matrix dual laws")

    def dual_law(side, s1, s2):
        ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
        src = ts1.dual().tensor(ts2.dual())
        rhs = Chain(src).then(r.at_step(ts1.dual(), ts2.dual()), at=0) \
                        .then(side.at_step(s2), at=0) \
                        .then(side.at_step(s1), at=len(s2.atoms))
        return Chain(src).then(r.at(s1, s2).ldual()), rhs

    for side, label in ((a.sl, "left"), (a.sr, "right")):
        if side is None:
            rep.skip(f"rmatrix.{label}_dual_law", f"needs the {label} antipode")
        else:
            compare_at(rep, f"rmatrix.{label}_dual_law", t.at_simples(2, partial(dual_law, side)))
    return rep


# ---------------------------------------------------------------------------
# Braiding on modules
# ---------------------------------------------------------------------------


def braiding_on_modules(t: TensoringBimonad, r: PairFamily,
                        m: TModule, n: TModule) -> GradedMor:
    """The exchange map of two modules induced by the R-matrix."""
    src = m.carrier.tensor(n.carrier)
    return Chain(src).then(r.at_step(m.carrier, n.carrier), at=0) \
                     .then(n.action, at=0) \
                     .then(m.action, at=len(n.carrier.atoms)).eval()


def check_braiding(t: TensoringBimonad, r: PairFamily, r_inv: PairFamily | None,
                   mods: list, rep: Report | None = None) -> Report:
    """Linearity, invertibility, hexagons, braid relation, naturality;
    the mirror check is left out when `r_inv` is None."""
    rep = rep or Report(f"{t.name}: braiding on modules")
    if len(mods) < 3:
        raise ExactError("need three stock modules")
    m1, m2, m3 = mods[:3]

    tau12 = braiding_on_modules(t, r, m1, m2)
    m12, m21 = tensor_modules(m1, m2), tensor_modules(m2, m1)
    rep.record("braiding.linear", is_t_linear(m12, m21, tau12))
    inv = invert_module_map(m12, m21, tau12)
    rep.record("braiding.invertible", inv is not None)

    if r_inv is not None:
        # the mirror: the exchange by R⁻¹ of the modules in the other order
        mirror = braiding_on_modules(t, r_inv, m2, m1)
        rep.record("braiding.mirror_is_inverse", inv is not None and mirror == inv)

    tau13 = braiding_on_modules(t, r, m1, m3)
    tau23 = braiding_on_modules(t, r, m2, m3)
    n1, n2, n3 = (len(m.carrier.atoms) for m in (m1, m2, m3))
    src = m1.carrier.tensor(m2.carrier).tensor(m3.carrier)
    # exchange with a tensor pair, second leg first
    lhs = braiding_on_modules(t, r, m1, tensor_modules(m2, m3))
    rhs = Chain(src).then(tau12, at=0).then(tau13, at=n2).eval()
    rep.record("braiding.hexagon_a", lhs == rhs)
    lhs = braiding_on_modules(t, r, m12, m3)
    rhs = Chain(src).then(tau23, at=n1).then(tau13, at=0).eval()
    rep.record("braiding.hexagon_b", lhs == rhs)

    lhs = Chain(src).then(tau12, at=0).then(tau13, at=n2) \
                    .then(tau23, at=0).eval()
    rhs = Chain(src).then(tau23, at=n1).then(tau13, at=0) \
                    .then(tau12, at=n3).eval()
    rep.record("braiding.braid_relation", lhs == rhs)

    # naturality against the action of the first module (a module map)
    tau_free = braiding_on_modules(t, r, free_module(t, m1.carrier), m2)
    src = t.on_obj(m1.carrier).tensor(m2.carrier)
    lhs = Chain(src).then(tau_free, at=0).then(m1.action, at=len(m2.carrier.atoms)).eval()
    rhs = Chain(src).then(m1.action, at=0).then(tau12, at=0).eval()
    rep.record("braiding.natural", lhs == rhs)
    return rep


# ---------------------------------------------------------------------------
# Drinfeld element
# ---------------------------------------------------------------------------


def drinfeld_element(t: TensoringBimonad, a: AntipodeData,
                     r: PairFamily) -> Element:
    """The canonical convolution element induced by the R-matrix."""
    def comp(s):
        ts = t.on_obj(s)
        w_dual = t.on_obj(ts).dual()
        n = len(s.atoms)
        nd = len(w_dual.atoms)
        ch = Chain(s) \
            .then(coev_mor(w_dual), at=n) \
            .then(t.m, at=n + nd) \
            .then(r.at_step(s, w_dual), at=0) \
            .then(a.sl.at_step(ts), at=0) \
            .then(ev_mor(ts), at=0)
        return ch.eval()
    return Element(t, t.components(comp), "u")


def drinfeld_inverse(t: TensoringBimonad, a: AntipodeData,
                     r_inv: PairFamily) -> Element:
    """The convolution inverse of the Drinfeld element, built from R⁻¹ the
    way the invertibility proof defines it.

    At the free module M = T(S) of each simple S, u⁻¹ is the unit of S, then
    id_M ⊗ x with x = τ⁻¹(coev_M), then the evaluation of M∨; τ is the
    braiding of the dual module M∨ with M.  τ⁻¹ is τ's mirror through R⁻¹
    (exchange by R⁻¹, then act on each leg), so x is contracted within the
    chain and neither τ nor a (dim M)² matrix is formed.  The mirror
    inverts τ exactly when `r_inv` is the two-sided convolution inverse of
    R, so callers build u⁻¹ only after STAR_INVERSE_CHECKS have passed.
    """
    def comp(s):
        fm = free_module(t, s)
        dm = dual_module(t, a.sl, fm)
        m_word = fm.carrier
        n = len(m_word.atoms)
        ch = Chain(s) \
            .then(t.u, at=0) \
            .then(coev_mor(m_word), at=n) \
            .then(r_inv.at_step(m_word, dm.carrier), at=n) \
            .then(dm.action, at=n) \
            .then(fm.action, at=n + len(dm.carrier.atoms)) \
            .then(ev_mor(m_word.dual()), at=0)
        return ch.eval()
    return Element(t, t.components(comp), "u^-1")


# the checks check_drinfeld records on a structure that passes them, less
# drinfeld.classical_match (only with a classical formula)
DRINFELD_CHECKS = ("drinfeld.comultiplicativity", "drinfeld.counit",
                   "drinfeld.inverse", "drinfeld.square_of_antipode")


def _comul(t: TensoringBimonad, x: Element, r: PairFamily, s1, s2):
    """The comultiplicativity law of x up to R: Δ(x) against the product
    of r, r₂₁ and x ⊗ x, at a composable pair of simples; with (u, R⁻¹)
    for the Drinfeld element and (θ, R) for a twist."""
    ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
    n1 = len(s1.atoms)
    src = s1.tensor(s2)
    lhs = Chain(src).then(x.at_step(src), at=0) \
                    .then(t.t2.at_step(s1, s2), at=0)
    rhs = Chain(src) \
        .then(r.at_step(s1, s2), at=0) \
        .then(r.at_step(ts2, ts1), at=0) \
        .then(t.m, at=0) \
        .then(t.m, at=1 + n1) \
        .then(x.at_step(ts1), at=0) \
        .then(x.at_step(ts2), at=2 + n1) \
        .then(t.m, at=0) \
        .then(t.m, at=1 + n1)
    return lhs, rhs


def check_drinfeld(t: TensoringBimonad, u: Element, r_inv: PairFamily,
                   u_inv: Element | None, s2: TransTT,
                   classical=None) -> Report:
    """The four identities of the Drinfeld element (plus classical check).

    `u_inv` is None when R⁻¹ failed its convolution-inverse checks; then,
    as when it is not two-sided, the square of the antipode is skipped.
    `classical` is a sequence of coercible scalars, matched against the
    coefficients of u."""
    rep = Report(f"{t.name}: Drinfeld element")
    unit = t.unit_obj()

    def counit():
        lhs = Chain(unit).then(u.at_step(unit), at=0).then(t.t0, at=0)
        return lhs, Chain(unit)

    compare_at(rep, "drinfeld.comultiplicativity", t.at_simples(2, partial(_comul, t, u, r_inv)))
    compare_at(rep, "drinfeld.counit", t.at_simples(0, counit))

    if u_inv is None:
        two_sided = rep.record("drinfeld.inverse", False, note=NO_R_INVERSE)
    else:
        two_sided = rep.record("drinfeld.inverse", star_inverse_check(t, u, u_inv))
    if two_sided:
        rep.record("drinfeld.square_of_antipode", s2 == adjoint_action(t, u, u_inv))
    else:
        rep.skip("drinfeld.square_of_antipode", "needs the two-sided inverse of u")

    if classical is not None:
        f = t.base.field
        rep.record("drinfeld.classical_match", u.comps[(0, 0)].block(0, 0).ravel().tolist()
                   == [f.coerce(x) for x in classical])
    return rep


# ---------------------------------------------------------------------------
# Twists and the sovereign element
# ---------------------------------------------------------------------------


# the checks of check_twist and sovereign_from_twist, in report order
TWIST_CHECKS = ("twist.central", "twist.inverse", "twist.compatibility",
                "twist.self_dual", "sovereign.grouplike", "sovereign.conjugation",
                "sovereign.self_duality_equiv", "twist.square_law")


def check_twist(t: TensoringBimonad, a: AntipodeData, r: PairFamily,
                theta: Element, theta_inv: Element) -> Report:
    rep = Report(f"{t.name}: twist")
    rep.record("twist.central", is_central(t, theta))
    rep.record("twist.inverse", star_inverse_check(t, theta, theta_inv))
    compare_at(rep, "twist.compatibility", t.at_simples(2, partial(_comul, t, theta, r)))
    rep.record("twist.self_dual", s_map(t, a.sl, theta) == theta,
               note="informational for non-ribbon data")
    return rep


def sovereign_from_twist(t: TensoringBimonad, a: AntipodeData, u: Element,
                         s2: TransTT, theta: Element, theta_inv: Element) -> tuple:
    """The grouplike element matching the twist, with its identity suite."""
    rep = Report(f"{t.name}: sovereign element from twist")
    g_elt = convolve(t, u, theta)
    rep.record("sovereign.grouplike", check_grouplike(t, g_elt))
    g_inv = s_map(t, a.sl, g_elt)
    if not star_inverse_check(t, g_elt, g_inv):
        rep.record("sovereign.conjugation", False,
                   note="candidate is not invertible")
        return g_elt, rep
    ad = adjoint_action(t, g_elt, g_inv)
    rep.record("sovereign.conjugation", s2 == ad)

    self_dual = s_map(t, a.sl, theta) == theta
    su = s_map(t, a.sl, u)
    rhs = convolve(t, convolve(t, g_inv, u), g_inv)
    rep.record("sovereign.self_duality_equiv", self_dual == (su == rhs))

    # the twist squared inverts the element times its antipode image
    theta_m2 = convolve(t, theta_inv, theta_inv)
    rep.record("twist.square_law",
               theta_m2 == convolve(t, u, su) and theta_m2 == convolve(t, su, u))
    return g_elt, rep


# the checks check_inverse_drinfeld_twist records on an involutory structure
FROM_INVERSE_CHECKS = ("twist.from_inverse", "twist.from_inverse_self_dual_iff")


def check_inverse_drinfeld_twist(t: TensoringBimonad, a: AntipodeData,
                                 r: PairFamily, involutory: bool, u: Element,
                                 u_inv: Element | None) -> Report:
    """On involutory structures the inverse canonical element is a twist."""
    rep = Report(f"{t.name}: inverse canonical element as twist")
    if not involutory:
        rep.skip("twist.from_inverse", "structure is not involutory")
        return rep
    if u_inv is None:
        rep.record("twist.from_inverse", False, note=NO_R_INVERSE)
        return rep
    sub = check_twist(t, a, r, u_inv, u)
    ok = all(x.status != "fail" for x in sub.results
             if x.check != "twist.self_dual")
    rep.record("twist.from_inverse", ok)
    sd = sub.find("twist.self_dual")
    su = s_map(t, a.sl, u)
    rep.record("twist.from_inverse_self_dual_iff",
               (sd.status == "pass") == (su == u))
    return rep
