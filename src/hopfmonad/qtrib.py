"""Quasitriangular structure: R-matrices, braidings, Drinfeld element,
twists and the sovereign element they induce.

Long composites interleave the product contractions with the R-steps
(whiskers on disjoint positions commute): each product follows the step
that makes its factor, so the contraction plan of chain.py, which only
fuses neighbouring steps, folds an inserted R into the products right
after it.  With that, the R-matrix and Drinfeld-element chains stay at
carrier-dim^4 (tests/test_chain.py records the peak on the doubles).
"""

from __future__ import annotations

from .antipode import AntipodeData, s_map
from .cat import GradedMor, coev_mor, ev_mor
from .chain import Chain, Evaluated
from .exactla import ExactError
from .modcat import (TModule, _invert_mor, dual_module_left, free_module,
                     invert_module_map, is_t_linear, tensor_modules)
from .monad import (
    Element,
    StructureError,
    PairFamily,
    TensoringBimonad,
    TransTT,
    adjoint_action,
    check_grouplike,
    compare_at,
    convolve,
    eta_element,
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
    for g1, g2 in t.composable_pairs():
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


def check_rmatrix(t: TensoringBimonad, r: PairFamily,
                  r_inv: PairFamily | None) -> Report:
    """The three exchange axioms, unit laws, inverse and Yang-Baxter.

    `r_inv` is `star_inverse_of_r`, or None without a left antipode."""
    rep = Report(f"{t.name}: R-matrix axioms")
    unit = t.unit_obj()

    def linearity_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
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
            yield (g1, g2), lhs, rhs

    def left_product_items():
        for g1, g2 in t.composable_pairs():
            for g3 in t.simples():
                if g2[1] != g3[0]:
                    continue
                s1, s2, s3 = t.simple(g1), t.simple(g2), t.simple(g3)
                src = s1.tensor(s2).tensor(s3)
                n1, n2, n3 = (len(s.atoms) for s in (s1, s2, s3))
                lhs = Chain(src).then(r.at_step(s1.tensor(s2), s3), at=0) \
                                .then(t.t2.at_step(s1, s2), at=1 + n3)
                rhs = Chain(src).then(r.at_step(s2, s3), at=n1) \
                                .then(r.at_step(s1, t.on_obj(s3)), at=0) \
                                .then(t.m, at=0)
                yield (g1, g2, g3), lhs, rhs

    def right_product_items():
        for g1 in t.simples():
            for g2, g3 in t.composable_pairs():
                if g1[1] != g2[0]:
                    continue
                s1, s2, s3 = t.simple(g1), t.simple(g2), t.simple(g3)
                src = s1.tensor(s2).tensor(s3)
                n1, n2, n3 = (len(s.atoms) for s in (s1, s2, s3))
                lhs = Chain(src).then(r.at_step(s1, s2.tensor(s3)), at=0) \
                                .then(t.t2.at_step(s2, s3), at=0)
                rhs = Chain(src).then(r.at_step(s1, s2), at=0) \
                                .then(r.at_step(t.on_obj(s1), s3), at=1 + n2) \
                                .then(t.m, at=2 + n2 + n3)
                yield (g1, g2, g3), lhs, rhs

    def unit_left_items():
        for g in t.simples():
            s = t.simple(g)
            lhs = Chain(s).then(r.at_step(unit, s), at=0) \
                          .then(t.t0, at=1 + len(s.atoms))
            rhs = Chain(s).then(t.u, at=0)
            yield (g,), lhs, rhs

    def unit_right_items():
        for g in t.simples():
            s = t.simple(g)
            lhs = Chain(s).then(r.at_step(s, unit), at=0) \
                          .then(t.t0, at=0)
            rhs = Chain(s).then(t.u, at=0)
            yield (g,), lhs, rhs

    compare_at(rep, "rmatrix.linearity", linearity_items())
    compare_at(rep, "rmatrix.left_product", left_product_items())
    compare_at(rep, "rmatrix.right_product", right_product_items())
    compare_at(rep, "rmatrix.unit_left", unit_left_items())
    compare_at(rep, "rmatrix.unit_right", unit_right_items())

    if r_inv is not None:
        compare_at(rep, "rmatrix.star_inverse_left",
                   _star_inverse_left_items(t, r, r_inv))
        compare_at(rep, "rmatrix.star_inverse_right",
                   _star_inverse_right_items(t, r, r_inv))
    else:
        rep.skip("rmatrix.star_inverse_left", "needs a left antipode")

    compare_at(rep, "rmatrix.yang_baxter", _yang_baxter_items(t, r))
    return rep


def _star_inverse_left_items(t, r, r_inv):
    # convolving the inverse against R gives the unit pair
    for g1, g2 in t.composable_pairs():
        s1, s2 = t.simple(g1), t.simple(g2)
        ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
        src = s1.tensor(s2)
        n1, n2 = len(s1.atoms), len(s2.atoms)
        lhs = Chain(src).then(r.at_step(s1, s2), at=0) \
                        .then(r_inv.at_step(ts2, ts1), at=0) \
                        .then(t.m, at=0) \
                        .then(t.m, at=1 + n1)
        rhs = Chain(src).then(t.u, at=0) \
                        .then(t.u, at=1 + n1)
        yield (g1, g2), lhs, rhs


def _star_inverse_right_items(t, r, r_inv):
    for g1, g2 in t.composable_pairs():
        s1, s2 = t.simple(g1), t.simple(g2)
        ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
        src = s2.tensor(s1)
        n1, n2 = len(s1.atoms), len(s2.atoms)
        lhs = Chain(src).then(r_inv.at_step(s2, s1), at=0) \
                        .then(r.at_step(ts1, ts2), at=0) \
                        .then(t.m, at=0) \
                        .then(t.m, at=1 + n2)
        rhs = Chain(src).then(t.u, at=0) \
                        .then(t.u, at=1 + n2)
        yield (g2, g1), lhs, rhs


def _yang_baxter_items(t, r):
    # each product comes right after the R that makes its factor, so the
    # plan fuses the two and no state exceeds carrier-dim^4
    for g1, g2, g3 in t.composable_triples():
        s1, s2, s3 = t.simple(g1), t.simple(g2), t.simple(g3)
        ts1, ts2, ts3 = (t.on_obj(s) for s in (s1, s2, s3))
        src = s1.tensor(s2).tensor(s3)
        n1, n2, n3 = (len(s.atoms) for s in (s1, s2, s3))
        lhs = Chain(src) \
            .then(r.at_step(s1, s2), at=0) \
            .then(r.at_step(ts1, s3), at=1 + n2) \
            .then(t.m, at=2 + n2 + n3) \
            .then(r.at_step(ts2, ts3), at=0) \
            .then(t.m, at=0) \
            .then(t.m, at=1 + n3)
        rhs = Chain(src) \
            .then(r.at_step(s2, s3), at=n1) \
            .then(r.at_step(s1, ts3), at=0) \
            .then(t.m, at=0) \
            .then(r.at_step(ts1, ts2), at=1 + n3) \
            .then(t.m, at=1 + n3) \
            .then(t.m, at=2 + n2 + n3)
        yield (g1, g2, g3), lhs, rhs


def check_r_dual_laws(t: TensoringBimonad, a: AntipodeData,
                      r: PairFamily) -> Report:
    """Transposes of the R-components through either antipode."""
    rep = Report(f"{t.name}: R-matrix dual laws")

    def left_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
            ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
            src = ts1.dual().tensor(ts2.dual())
            rhs = Chain(src).then(r.at_step(ts1.dual(), ts2.dual()), at=0) \
                            .then(a.sl.at_step(s2), at=0) \
                            .then(a.sl.at_step(s1), at=len(s2.atoms))
            yield (g1, g2), Evaluated(r.at(s1, s2).ldual()), rhs

    def right_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
            ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
            src = ts1.dual().tensor(ts2.dual())
            rhs = Chain(src).then(r.at_step(ts1.dual(), ts2.dual()), at=0) \
                            .then(a.sr.at_step(s2), at=0) \
                            .then(a.sr.at_step(s1), at=len(s2.atoms))
            yield (g1, g2), Evaluated(r.at(s1, s2).rdual()), rhs

    for side, label, items in ((a.sl, "left", left_items), (a.sr, "right", right_items)):
        if side is None:
            rep.skip(f"rmatrix.{label}_dual_law", f"needs the {label} antipode")
        else:
            compare_at(rep, f"rmatrix.{label}_dual_law", items())
    return rep


# ---------------------------------------------------------------------------
# Braiding on modules
# ---------------------------------------------------------------------------


def _braiding_chain(t, r, m, n) -> GradedMor:
    src = m.carrier.tensor(n.carrier)
    return Chain(src).then(r.at_step(m.carrier, n.carrier), at=0) \
                     .then(n.action, at=0) \
                     .then(m.action, at=len(n.carrier.atoms)).eval()


def braiding_on_modules(t: TensoringBimonad, r: PairFamily,
                        m: TModule, n: TModule) -> GradedMor:
    """The exchange map of two modules induced by the R-matrix.

    On the one-label backend the two actions are contracted against the
    exchange core directly, which caps the work at carrier-dim times the
    squared module dimensions; the step route would square the carrier
    dimension as well.
    """
    if not t.base.is_vector:
        return _braiding_chain(t, r, m, n)
    f = t.base.field
    ad = t.carrier_dim
    dm = m.carrier.total_dim()
    dn = n.carrier.total_dim()
    src = m.carrier.tensor(n.carrier)
    dst = n.carrier.tensor(m.carrier)
    if dm == 0 or dn == 0:
        return GradedMor.zero(src, dst)
    rc = r.comps[((0, 0), (0, 0))].block(0, 0).reshape(ad, ad)
    s3 = n.action.block(0, 0).reshape(dn, ad, dn)
    r3 = m.action.block(0, 0).reshape(dm, ad, dm)
    a1 = f.tensordot(rc, s3, axes=([0], [1]))      # [q, n', n]
    out4 = f.tensordot(a1, r3, axes=([0], [1]))    # [n', n, m', m]
    blk = out4.transpose(0, 2, 3, 1).reshape(dn * dm, dm * dn)
    tau = GradedMor(src, dst, {(0, 0): blk})
    if ad * max(dm, dn) <= 64 and tau != _braiding_chain(t, r, m, n):
        raise StructureError("fast and generic braiding routes disagree")
    return tau


def check_braiding(t: TensoringBimonad, r: PairFamily, r_inv: PairFamily | None,
                   mods: list, rep: Report | None = None) -> Report:
    """Linearity, invertibility, hexagons, braid relation, naturality;
    the mirror check is left out when `r_inv` is None."""
    rep = rep or Report(f"{t.name}: braiding on modules")
    if len(mods) < 3:
        raise ExactError("need three stock modules")
    m1, m2, m3 = mods[:3]

    tau12 = braiding_on_modules(t, r, m1, m2)
    rep.record("braiding.linear",
               is_t_linear(tensor_modules(m1, m2), tensor_modules(m2, m1), tau12))
    inv = invert_module_map(tensor_modules(m1, m2), tensor_modules(m2, m1), tau12)
    rep.record("braiding.invertible", inv is not None)

    if r_inv is not None:
        mirror = Chain(m2.carrier.tensor(m1.carrier)) \
            .then(r_inv.at_step(m2.carrier, m1.carrier), at=0) \
            .then(m1.action, at=0) \
            .then(m2.action, at=len(m1.carrier.atoms)).eval()
        rep.record("braiding.mirror_is_inverse", inv is not None and mirror == inv)

    tau13 = braiding_on_modules(t, r, m1, m3)
    tau23 = braiding_on_modules(t, r, m2, m3)
    n1, n2, n3 = (len(m.carrier.atoms) for m in (m1, m2, m3))
    src = m1.carrier.tensor(m2.carrier).tensor(m3.carrier)
    # exchange with a tensor pair, second leg first
    lhs = braiding_on_modules(t, r, m1, tensor_modules(m2, m3))
    rhs = Chain(src).then(tau12, at=0).then(tau13, at=n2).eval()
    rep.record("braiding.hexagon_a", lhs == rhs)
    lhs = braiding_on_modules(t, r, tensor_modules(m1, m2), m3)
    rhs = Chain(src).then(tau23, at=n1).then(tau13, at=0).eval()
    rep.record("braiding.hexagon_b", lhs == rhs)

    lhs = Chain(src).then(tau12, at=0).then(tau13, at=n2) \
                    .then(tau23, at=0).eval()
    rhs = Chain(src).then(tau23, at=n1).then(tau13, at=0) \
                    .then(tau12, at=n3).eval()
    rep.record("braiding.braid_relation", lhs == rhs)

    # naturality against the action of the first module (a module map)
    free1 = TModule(t, t.on_obj(m1.carrier), t.mu_mor(m1.carrier), check=False)
    tau_free = braiding_on_modules(t, r, free1, m2)
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
    comps = {}
    for g in t.simples():
        s = t.simple(g)
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
        comps[g] = ch.eval()
    return Element(t, comps, "u")


def drinfeld_inverse(t: TensoringBimonad, a: AntipodeData,
                     r: PairFamily) -> Element:
    """The explicit convolution inverse of the Drinfeld element.

    Built the way the invertibility proof defines it: the inverse of the
    canonical double-dual comparison at free modules, transported back
    along the unit.  The comparison inverse pairs the free module against
    its preferred dual through the inverse braiding.
    """
    comps = {}
    for g in t.simples():
        s = t.simple(g)
        fm = free_module(t, s)
        dm = dual_module_left(t, a, fm)
        tau = braiding_on_modules(t, r, dm, fm)
        tau_inv = _invert_mor(tau)
        m_word = fm.carrier
        n = len(m_word.atoms)
        ch = Chain(s) \
            .then(t.u, at=0) \
            .then(coev_mor(m_word), at=n) \
            .then(tau_inv, at=n) \
            .then(ev_mor(m_word.dual()), at=0)
        comps[g] = ch.eval()
    return Element(t, comps, "u^-1")


# the checks check_drinfeld records on a structure that passes them, less
# drinfeld.classical_match (only with a classical formula)
DRINFELD_CHECKS = ("drinfeld.comultiplicativity", "drinfeld.counit",
                   "drinfeld.inverse", "drinfeld.square_of_antipode")


def check_drinfeld(t: TensoringBimonad, u: Element, r_inv: PairFamily,
                   u_inv: Element | None, s2: TransTT,
                   classical: list | None = None) -> Report:
    """The four identities of the Drinfeld element (plus classical check).

    `u_inv` is None when the comparison map is not invertible."""
    rep = Report(f"{t.name}: Drinfeld element")
    unit = t.unit_obj()

    def comul_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
            ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
            n1, n2 = len(s1.atoms), len(s2.atoms)
            src = s1.tensor(s2)
            lhs = Chain(src).then(u.at_step(src), at=0) \
                            .then(t.t2.at_step(s1, s2), at=0)
            rhs = Chain(src) \
                .then(r_inv.at_step(s1, s2), at=0) \
                .then(r_inv.at_step(ts2, ts1), at=0) \
                .then(t.m, at=0) \
                .then(t.m, at=1 + n1) \
                .then(u.at_step(ts1), at=0) \
                .then(t.m, at=0) \
                .then(u.at_step(ts2), at=1 + n1) \
                .then(t.m, at=1 + n1)
            yield (g1, g2), lhs, rhs

    def counit_items():
        lhs = Chain(unit).then(u.at_step(unit), at=0).then(t.t0, at=0)
        yield (), lhs, Chain(unit)

    compare_at(rep, "drinfeld.comultiplicativity", comul_items())
    compare_at(rep, "drinfeld.counit", counit_items())

    if u_inv is None:
        rep.record("drinfeld.inverse", False, note="comparison map not invertible")
        return rep
    eta = eta_element(t)
    two_sided = convolve(t, u, u_inv) == eta and convolve(t, u_inv, u) == eta
    rep.record("drinfeld.inverse", two_sided)
    if two_sided:
        ad = adjoint_action(t, u, u_inv)
        rep.record("drinfeld.square_of_antipode", s2 == ad)

    if classical is not None:
        f = t.base.field
        got = u.comps[(0, 0)].block(0, 0).ravel().tolist()
        want = [f.coerce(x) for x in classical]
        if got != want:
            raise StructureError(
                "canonical element disagrees with the classical formula")
        rep.record("drinfeld.classical_match", True)
    return rep


def classical_drinfeld_vector(t: TensoringBimonad, alg, r_elem,
                              s_matrix) -> list:
    """Element-level sum S(second leg) * (first leg) of the R-element."""
    f = t.base.field
    n = t.carrier_dim
    out = [f.zero] * n
    for a_i in range(n):
        for b_i in range(n):
            coeff = f.coerce(r_elem[a_i][b_i])
            if coeff == f.zero:
                continue
            sb = [f.coerce(s_matrix[k][b_i]) for k in range(n)]
            ea = [f.one if j == a_i else f.zero for j in range(n)]
            prod = alg.product(sb, ea)
            for c in range(n):
                out[c] = f.coerce(out[c] + coeff * prod[c])
    return out


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
    eta = eta_element(t)
    rep.record("twist.central", is_central(t, theta))
    rep.record("twist.inverse",
               convolve(t, theta, theta_inv) == eta
               and convolve(t, theta_inv, theta) == eta)

    def compat_items():
        for g1, g2 in t.composable_pairs():
            s1, s2 = t.simple(g1), t.simple(g2)
            ts1, ts2 = t.on_obj(s1), t.on_obj(s2)
            n1, n2 = len(s1.atoms), len(s2.atoms)
            src = s1.tensor(s2)
            lhs = Chain(src).then(theta.at_step(src), at=0) \
                            .then(t.t2.at_step(s1, s2), at=0)
            rhs = Chain(src) \
                .then(r.at_step(s1, s2), at=0) \
                .then(r.at_step(ts2, ts1), at=0) \
                .then(t.m, at=0) \
                .then(theta.at_step(ts1), at=0) \
                .then(t.m, at=0) \
                .then(t.m, at=1 + n1) \
                .then(theta.at_step(ts2), at=1 + n1) \
                .then(t.m, at=1 + n1)
            yield (g1, g2), lhs, rhs

    compare_at(rep, "twist.compatibility", compat_items())
    rep.record("twist.self_dual", s_map(t, a, theta) == theta,
               note="informational for non-ribbon data")
    return rep


def sovereign_from_twist(t: TensoringBimonad, a: AntipodeData, u: Element,
                         s2: TransTT, theta: Element, theta_inv: Element) -> tuple:
    """The grouplike element matching the twist, with its identity suite."""
    rep = Report(f"{t.name}: sovereign element from twist")
    g_elt = convolve(t, u, theta)
    rep.record("sovereign.grouplike", check_grouplike(t, g_elt))
    g_inv = s_map(t, a, g_elt)
    if not star_inverse_check(t, g_elt, g_inv):
        rep.record("sovereign.conjugation", False,
                   note="candidate is not invertible")
        return g_elt, rep
    ad = adjoint_action(t, g_elt, g_inv)
    rep.record("sovereign.conjugation", s2 == ad)

    self_dual = s_map(t, a, theta) == theta
    su = s_map(t, a, u)
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
        rep.record("twist.from_inverse", False,
                   note="comparison map not invertible")
        return rep
    sub = check_twist(t, a, r, u_inv, u)
    ok = all(x.status != "fail" for x in sub.results
             if x.check != "twist.self_dual")
    rep.record("twist.from_inverse", ok)
    sd = sub.find("twist.self_dual")
    su = s_map(t, a, u)
    rep.record("twist.from_inverse_self_dual_iff",
               (sd.status == "pass") == (su == u))
    return rep
