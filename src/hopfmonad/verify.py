"""Full verification pipeline: axioms, derived identities, solvers.

This is the engine behind the command line: given a loaded Model it runs
every applicable check in a fixed order and assembles one deterministic
report.  It builds each canonical structure the checks share once.
"""

from __future__ import annotations

import random

from .antipode import (
    BOTH_SIDES_CHECKS,
    check_antipode_inverse,
    check_left_antipode,
    check_right_antipode,
    check_s_map_laws,
    check_square_automorphism,
    derived_identity_suite,
    is_involutory,
    s_map,
    square_of_antipode,
)
from .cat import GradedMor, identity
from .hopfstruct import (
    SEPARABILITY_CHECKS,
    canonical_hopf_module,
    check_gamma_suite,
    check_separability,
    fundamental_iso,
    gamma_family,
    induced_hopf_module,
    maschke_verdict,
    random_comodule,
    separability_element,
    solve_integrals,
    split_module_action,
    transport_integral,
    integral_check,
)
from .modcat import (
    _random_iso,
    check_dual_module_duality,
    conjugated,
    conservativity_probe,
    free_module,
    is_t_linear,
    random_module,
    unit_module,
)
from .monad import Element, check_bimonad, check_grouplike, star_inverse_check
from .presentation import Model
from .qtrib import (
    DRINFELD_CHECKS,
    FROM_INVERSE_CHECKS,
    STAR_INVERSE_CHECKS,
    TWIST_CHECKS,
    check_braiding,
    check_drinfeld,
    check_inverse_drinfeld_twist,
    check_r_dual_laws,
    check_rmatrix,
    check_twist,
    drinfeld_element,
    drinfeld_inverse,
    sovereign_from_twist,
    star_inverse_of_r,
)
from .report import CheckResult, Report

SUITES = ("axioms", "derived", "modules", "hopfmodules", "integrals",
          "maschke", "quasitriangular")

# the note of the one skip that replaces a suite assuming the axioms, or
# the dual-module checks of the modules suite, when the axioms suite ran in
# the same call and failed
AXIOMS_FAILED = "the axioms failed; this suite assumes them"

# the notes of the checks skipped for a one-sided antipode
NO_LEFT = "needs the left antipode"
NO_RIGHT = "needs the right antipode"
NO_BOTH = "needs both antipode sides"

# randomized free-module probes are used up to this carrier dimension;
# beyond it the presented stock modules (or the unit module) stand in
LARGE_CARRIER = 16


def _probe_modules(model: Model, rng, count: int = 3) -> list:
    t = model.t
    out = list(model.stock_modules)
    if len(out) >= count:
        return out[:count]
    if t.carrier_dim <= LARGE_CARRIER:
        while len(out) < count:
            out.append(random_module(t, rng, 1))
    else:
        stock = list(out)
        while out and len(out) < count:
            base_mod = stock[len(out) % len(stock)]
            out.append(conjugated(base_mod, *_random_iso(base_mod.carrier, rng)))
        while len(out) < count:
            out.append(unit_module(t))
    return out[:count]


def verify_model(model: Model, checks: tuple = SUITES, seed: int = 0,
                 samples: int = 3) -> Report:
    """Run the applicable verification suites on a loaded model.

    The canonical structures (S², the involutivity verdict, gamma, R⁻¹, u,
    u⁻¹ and the cointegrals) are each built at most once per call, only by
    a suite that runs, and handed to the checks that read them.  R⁻¹ feeds
    the R-matrix and braiding checks and also u⁻¹, which is built only
    when R⁻¹ has passed as the two-sided convolution inverse of R.
    """
    t = model.t
    a = model.antipode
    s2 = involutory = fam = None
    rng = random.Random(seed)
    rep = Report(model.name)
    rep.info["field"] = t.base.field.describe()
    rep.info["labels"] = list(t.base.labels)
    rep.info["carrier_dims"] = t.carrier.dims_grid()
    rep.info["seed"] = seed
    rep.info["sampling"] = ("randomized module/element spot checks are redundant "
                            "corroboration; the per-simple checks are complete")

    axioms_failed = False
    if "axioms" in checks:
        rep.merge(check_bimonad(t))
        if a is not None:
            rep.merge(check_left_antipode(t, a))
            rep.merge(check_right_antipode(t, a))
        axioms_failed = not rep.passed

    if "derived" in checks and a is not None:
        if axioms_failed:
            rep.skip("derived", AXIOMS_FAILED)
        else:
            rep.merge(derived_identity_suite(t, a))
            rep.merge(check_antipode_inverse(t, a))
            samples_elts = [_random_element(t, rng) for _ in range(3)]
            if a.has_left and a.has_right:
                s2 = square_of_antipode(t, a.sl)
                rep.merge(check_square_automorphism(t, a, s2))
                rep.merge(check_s_map_laws(t, a, s2, samples_elts))
                rep.info["involutory"] = involutory = is_involutory(t, a, s2)
            else:
                _skip_each(rep, BOTH_SIDES_CHECKS, NO_BOTH)
            for k, g in enumerate(model.grouplikes):
                ok = check_grouplike(t, g)
                rep.record(f"grouplike.candidate_{k}", ok, note="supplied candidate")
                if ok and not a.has_left:
                    rep.skip(f"grouplike.inverse_{k}", NO_LEFT)
                elif ok:
                    # the antipode image is the convolution inverse of a grouplike
                    g_inv = s_map(t, a.sl, g)
                    rep.record(f"grouplike.inverse_{k}", star_inverse_check(t, g, g_inv))

    if "modules" in checks:
        probe = conservativity_probe(t)
        rep.info["conservative"] = probe["verdict"]
        rep.add(CheckResult("modules.conservativity",
                            "pass" if probe["verdict"] == "yes" else "skip",
                            note=probe["evidence"]))
        if a is not None and axioms_failed:
            rep.skip("dual", AXIOMS_FAILED)
        elif a is not None:
            for mod in _probe_modules(model, rng, 1):
                check_dual_module_duality(t, a, mod, rep)

    if "hopfmodules" in checks and a is not None:
        if axioms_failed:
            rep.skip("hopfmodules", AXIOMS_FAILED)
        elif not a.has_right:
            rep.skip("hopfmodules", NO_RIGHT)
        else:
            fam = gamma_family(t, a)
            rep.merge(check_gamma_suite(t, a, fam, _probe_modules(model, rng, 1)))
            if t.carrier_dim > LARGE_CARRIER:
                rep.skip("hopf_module.decomposition",
                         "carrier too large for the standard run; "
                         "the identities scale as the fourth power of its dimension")
            else:
                h = canonical_hopf_module(t, t.simple(t.simples()[0]))
                rep.merge(fundamental_iso(t, fam, h))
                for k in range(samples):
                    car, rho = random_comodule(t, model.grouplikes, rng, 2)
                    sub = fundamental_iso(t, fam, induced_hopf_module(t, car, rho))
                    rep.record(f"hopf_module.decomposition_{k}", sub.passed,
                               note="randomized induced module")

    if "integrals" in checks and t.base.is_vector:
        li = solve_integrals(t, "left")
        ri = solve_integrals(t, "right")
        rep.info["left_integral_dim"] = li.dimension
        rep.info["right_integral_dim"] = ri.dimension
        rep.info["left_integrals"] = [[t.base.field.show(x) for x in v]
                                      for v in li.basis]
        ok = True
        if a is not None and li.dimension and not (a.has_left and a.has_right):
            rep.skip("integrals.transport_roundtrip", NO_BOTH)
        elif a is not None and li.dimension:
            for chi in li.basis:
                d = transport_integral(t, a.sr, chi)
                if not integral_check(t, "right", d):
                    ok = False
                back = transport_integral(t, a.sl, d)
                if list(back) != list(chi):
                    ok = False
            rep.record("integrals.transport_roundtrip", ok)

    if "maschke" in checks:
        if axioms_failed:
            rep.skip("maschke", AXIOMS_FAILED)
        else:
            verdict = maschke_verdict(t)
            rep.info["semisimple"] = verdict["semisimple"]
            rep.info["cointegral_dim"] = verdict["cointegral_dim"]
            f = t.base.field
            rep.info["cointegral_basis"] = [
                {f"{i},{l}": [[f.show(v) for v in row] for row in lam.block(i, l).tolist()]
                 for (i, l) in sorted(lam.blocks)}
                for lam in verdict["cointegral_basis"]]
            if verdict["semisimple"] and a is not None and not a.has_right:
                _skip_each(rep, SEPARABILITY_CHECKS + ("maschke.sections",), NO_RIGHT)
            elif verdict["semisimple"] and a is not None:
                if fam is None:
                    fam = gamma_family(t, a)
                gam = separability_element(t, fam, verdict["witness"])
                rep.merge(check_separability(t, gam))
                ok = True
                for mod in _probe_modules(model, rng, samples):
                    sigma = split_module_action(t, gam, mod)
                    if not (is_t_linear(mod, free_module(t, mod.carrier), sigma)
                            and (mod.action @ sigma) == identity(mod.carrier)):
                        ok = False
                rep.record("maschke.sections", ok)

    if "quasitriangular" in checks and model.rmatrix is not None:
        if axioms_failed:
            rep.skip("quasitriangular", AXIOMS_FAILED)
        else:
            r = model.rmatrix
            r_inv = star_inverse_of_r(t, a, r) if a is not None and a.has_left else None
            r_rep = check_rmatrix(t, r, r_inv)
            rep.merge(r_rep)
            if a is not None:
                rep.merge(check_r_dual_laws(t, a, r))
                classical = model.meta.get("classical_drinfeld")
                # u, S² and the antipode on elements read the left side; a
                # part that cannot run is skipped under each of its checks
                if a.has_left:
                    u = rep.built["u"] = drinfeld_element(t, a, r)
                    inverse_ok = all(r_rep.find(c).status == "pass"
                                     for c in STAR_INVERSE_CHECKS)
                    u_inv = drinfeld_inverse(t, a, r_inv) if inverse_ok else None
                    if s2 is None:
                        s2 = square_of_antipode(t, a.sl)
                    rep.merge(check_drinfeld(t, u, r_inv, u_inv, s2, classical=classical))
                else:
                    _skip_each(rep, DRINFELD_CHECKS
                               + ("drinfeld.classical_match",) * (classical is not None),
                               NO_LEFT)
                mods = _probe_modules(model, rng, 3)
                rep.merge(check_braiding(t, r, r_inv, mods))
                if model.twist is not None:
                    if a.has_left:
                        th, thi = model.twist
                        rep.merge(check_twist(t, a, r, th, thi))
                        rep.merge(sovereign_from_twist(t, a, u, s2, th, thi)[1])
                    else:
                        _skip_each(rep, TWIST_CHECKS, NO_LEFT)
                if a.has_left and a.has_right:
                    if involutory is None:
                        involutory = is_involutory(t, a, s2)
                    rep.merge(check_inverse_drinfeld_twist(t, a, r, involutory, u, u_inv))
                else:
                    _skip_each(rep, FROM_INVERSE_CHECKS, NO_BOTH)
    return rep


def _skip_each(rep: Report, checks, note: str):
    for check in checks:
        rep.skip(check, note)


def _random_element(t, rng):
    f = t.base.field

    def comp(s):
        ts = t.on_obj(s)
        blocks = {}
        for grade in set(s.grades()) & set(ts.grades()):
            rows, cols = ts.count(*grade), s.count(*grade)
            blocks[grade] = f.asarray(
                [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        return GradedMor(s, ts, blocks)
    return Element(t, t.components(comp), "rand")
