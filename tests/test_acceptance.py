"""Acceptance criteria, one test (or xfail) per item.

Every comparison is exact (zero tolerance): scalars are rationals or
prime-field residues and equality is structural.  A terminal summary
prints one line per criterion (see conftest.py).

The pair-groupoid entries of criteria 1 and 3 are strict expected
failures: on this backend the counit of a tensoring bimonad is supported
on diagonal grades, which contradicts counit multiplicativity for any
carrier with off-diagonal arrows (see the repository notes; the checker
pinpoints exactly comonoidal.counit_left and bimonad.counit_mult).  The
disconnected groupoid plays the graded-backend witness instead.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hopfmonad import presentation, zoo
from hopfmonad.antipode import square_of_antipode
from hopfmonad.cat import GradedMor, GradedObj, identity
from hopfmonad.exactla import FieldSpec, kernel
from hopfmonad.hopfstruct import (
    fundamental_iso,
    gamma_family,
    induced_hopf_module,
    integral_check,
    maschke_verdict,
    random_comodule,
    separability_element,
    check_separability,
    solve_integrals,
    split_module_action,
    transport_integral,
)
from hopfmonad.modcat import (
    TModule,
    free_module,
    is_t_linear,
    module_section_space,
    random_module,
)
from hopfmonad.monad import adjoint_action
from hopfmonad.qtrib import (
    check_braiding,
    check_drinfeld,
    drinfeld_element,
    drinfeld_inverse,
    star_inverse_of_r,
)
from hopfmonad.verify import verify_model

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)
F7 = FieldSpec.prime(7)

ACCEPTANCE_LOG = []

AXIOM_CHECKS = {
    "monad.assoc", "monad.unit_left", "monad.unit_right",
    "comonoidal.coassoc", "comonoidal.counit_right", "comonoidal.counit_left",
    "bimonad.mult_compat", "bimonad.counit_mult", "bimonad.coprod_unit",
    "bimonad.counit_unit",
    "antipode.left_ev", "antipode.left_coev",
    "antipode.right_ev", "antipode.right_coev",
    "rmatrix.linearity", "rmatrix.left_product", "rmatrix.right_product",
    "twist.compatibility", "twist.self_dual", "twist.central", "twist.inverse",
}

DERIVED_CHECKS = {
    "derived.left_anti_mult", "derived.left_anti_unit",
    "derived.left_anti_comult", "derived.left_anti_counit",
    "derived.right_anti_mult", "derived.right_anti_unit",
    "derived.right_anti_comult", "derived.right_anti_counit",
    "antipode.inverse_rl", "antipode.inverse_lr",
    "gamma.absorb", "gamma.free", "gamma.coaction", "gamma.unit",
    "elements.antipode_anti_hom",
    "rmatrix.yang_baxter", "rmatrix.left_dual_law", "rmatrix.right_dual_law",
    "rmatrix.unit_left", "rmatrix.unit_right",
    "drinfeld.comultiplicativity", "drinfeld.counit", "drinfeld.inverse",
    "drinfeld.square_of_antipode", "twist.square_law",
}


def record(number, description, ok):
    ACCEPTANCE_LOG.append((number, description, ok))
    assert ok, f"acceptance criterion {number} failed: {description}"


def sweep_models():
    yield presentation.load(zoo.build_trivial(Q))
    yield presentation.load(zoo.build_group_algebra(
        zoo.cyclic_group_table(2), Q, "kz2", with_rmatrix=True))
    yield presentation.load(zoo.build_group_algebra(
        zoo.symmetric3_table(), Q, "ks3"))
    yield presentation.load(zoo.build_group_algebra(
        zoo.symmetric3_table(), F3, "ks3_f3"))
    yield presentation.load(zoo.build_sweedler(Q))
    yield presentation.load(zoo.build_taft(3, 7))
    yield presentation.load(zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(2), Q, "double_z2"))


class TestCriterion1Axioms:
    def test_sweep(self):
        ok = True
        for model in sweep_models():
            rep = verify_model(model, checks=("axioms", "quasitriangular"),
                               samples=1)
            bad = [r for r in rep.results
                   if r.status == "fail" and r.check in AXIOM_CHECKS]
            if bad or not rep.passed:
                ok = False
        record(1, "axiom completeness sweep (vector and graded builders)", ok)

    def test_disconnected_groupoid_witness(self):
        model = presentation.load(zoo.build_disconnected_groupoid(Q))
        rep = verify_model(model, checks=("axioms",), samples=1)
        assert rep.passed

    @pytest.mark.xfail(strict=True,
                       reason="pair groupoid cannot satisfy the counit laws on "
                              "this backend; see the repository notes")
    def test_pair_groupoid_entry(self):
        model = presentation.load(zoo.build_pair_groupoid(Q))
        rep = verify_model(model, checks=("axioms",), samples=1)
        assert rep.passed


class TestCriterion2DerivedIdentities:
    def test_derived_suites(self):
        ok = True
        for model in sweep_models():
            rep = verify_model(
                model, checks=("axioms", "derived", "hopfmodules",
                               "quasitriangular"), samples=1)
            bad = [r for r in rep.results
                   if r.status == "fail" and r.check in DERIVED_CHECKS]
            gamma_mod = [r for r in rep.results
                         if r.check.startswith("gamma.module_linear")
                         and r.status == "fail"]
            if bad or gamma_mod or not rep.passed:
                ok = False
        # graded witness with a right antipode
        model = presentation.load(zoo.build_disconnected_groupoid(Q))
        rep = verify_model(model, checks=("axioms", "derived", "hopfmodules"),
                           samples=1)
        ok = ok and rep.passed
        record(2, "derived-identity theorems pass as self-tests", ok)


class TestCriterion3FundamentalTheorem:
    def _run(self, model, count, rng):
        adim = model.t.carrier_dim
        fam = gamma_family(model.t, model.antipode)
        for _ in range(count):
            car, rho = random_comodule(model.t, model.grouplikes, rng,
                                       dim_factor=2)
            h = induced_hopf_module(model.t, car, rho)
            rep = fundamental_iso(model.t, fam, h)
            if not rep.passed:
                return False
            if model.t.base.is_vector:
                cdim = sum(sum(r) for r in rep.info["coinvariant_dims"])
                if h.carrier.total_dim() != adim * cdim:
                    return False
        return True

    def test_sweedler_twenty_random(self, sweedler):
        rng = random.Random(101)
        record(3, "fundamental theorem on 20 random Hopf modules (4-dim builder)",
               self._run(sweedler, 20, rng))

    def test_graded_witness_twenty_random(self, disconnected_groupoid):
        rng = random.Random(102)
        assert self._run(disconnected_groupoid, 20, rng)

    @pytest.mark.xfail(strict=True,
                       reason="the pair groupoid is not a bimonad on this "
                              "backend, so its Hopf-module theory collapses; "
                              "see the repository notes")
    def test_pair_groupoid_entry(self, pair_groupoid):
        rng = random.Random(103)
        assert self._run(pair_groupoid, 5, rng)


class TestCriterion4Integrals:
    def test_dimensions_and_transport(self):
        ok = True
        for model in sweep_models():
            li = solve_integrals(model.t, "left")
            ri = solve_integrals(model.t, "right")
            if li.dimension != 1 or ri.dimension != 1:
                ok = False
            chi = li.basis[0]
            d = transport_integral(model.t, model.antipode, chi, "left")
            if not integral_check(model.t, "right", d):
                ok = False
            if transport_integral(model.t, model.antipode, d, "right") != list(chi):
                ok = False
        record(4, "integral spaces are lines; transport is an exact bijection", ok)

    def test_sweedler_line_and_brute_force(self):
        pres = zoo.build_sweedler(Q)
        model = presentation.load(pres)
        li = solve_integrals(model.t, "left")
        assert li.basis == [[Fraction(0), Fraction(0), Fraction(0), Fraction(1)]]

        # independent oracle: dense solve of the element-level condition,
        # built straight from the presentation strings
        n = 4
        delta = [[[Fraction(x) for x in row] for row in mat]
                 for mat in pres["t2"]["element_coproduct"]]
        unit = [Fraction(x) for x in pres["unit"]]
        rows = []
        for p in range(n):
            for a in range(n):
                row = [delta[a][p][k] for k in range(n)]
                row[a] -= unit[p]
                rows.append(row)
        basis = kernel(Q, Q.asarray(rows))
        assert basis.shape[1] == 1
        assert [basis[i, 0] for i in range(4)] == \
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]


class TestCriterion5Maschke:
    def test_trichotomy_and_sections(self, ks3, ks3_f3, sweedler):
        ok = True
        v = maschke_verdict(ks3.t)
        ok &= v["semisimple"]
        ok &= v["witness"].block(0, 0).ravel().tolist() == [Fraction(1, 6)] * 6
        gam = separability_element(ks3.t, gamma_family(ks3.t, ks3.antipode),
                                   v["witness"])
        ok &= check_separability(ks3.t, gam).passed
        rng = random.Random(104)
        for _ in range(10):
            mod = random_module(ks3.t, rng, 1)
            sigma = split_module_action(ks3.t, gam, mod)
            ok &= is_t_linear(mod, free_module(ks3.t, mod.carrier), sigma)
            ok &= (mod.action @ sigma) == identity(mod.carrier)

        for m in (ks3_f3, sweedler):
            ok &= not maschke_verdict(m.t)["semisimple"]
            # concrete module with provably empty section space
            t = m.t
            k = GradedObj.space(t.base, 1, "k")
            triv = TModule(t, k, GradedMor(t.on_obj(k), k,
                                           {(0, 0): t.t0.block(0, 0).copy()}),
                           check=False)
            ok &= module_section_space(triv) == []
        record(5, "semisimplicity trichotomy with witnesses and sections", ok)


class TestCriterion6Quasitriangular:
    def _suite(self, model, mods):
        t, a, r = model.t, model.antipode, model.rmatrix
        u = drinfeld_element(t, a, r)
        ui = drinfeld_inverse(t, a, r)
        r_inv = star_inverse_of_r(t, a, r)
        s2 = square_of_antipode(t, a)
        rep = check_drinfeld(t, u, r_inv, ui, s2,
                             classical=model.meta["classical_drinfeld"])
        ok = rep.passed
        ok &= s2 == adjoint_action(t, u, ui)
        braid = check_braiding(t, r, r_inv, mods)
        ok &= braid.passed
        return ok

    def test_double_z2(self, dz2):
        rng = random.Random(105)
        mods = [random_module(dz2.t, rng, 1) for _ in range(3)]
        record(6, "canonical-element suite on the 4-dim double",
               self._suite(dz2, mods))

    @pytest.mark.long
    def test_double_s3_long(self):
        import time
        start = time.time()
        model = presentation.load(zoo.build_drinfeld_double_group(
            zoo.symmetric3_table(), F7, "double_s3_f7"))
        rng = random.Random(106)
        from hopfmonad.verify import _probe_modules
        mods = _probe_modules(model, rng, 3)
        ok = self._suite(model, mods)
        rep = verify_model(model, checks=("axioms", "derived"), samples=1)
        ok &= rep.passed
        elapsed = time.time() - start
        ok &= elapsed < 300
        record(6.1, f"36-dim double completes the suite in {elapsed:.0f}s (< 300s)",
               ok)


MUTATIONS = []


def _mut(name, expect, build):
    MUTATIONS.append((name, expect, build))


def _build_mutations():
    def m1():
        p = zoo.build_group_algebra(zoo.symmetric3_table(), Q, "m1")
        p["mul"][1][1][0] = "1"
        return p, ("axioms",)
    _mut("group product corrupted", "monad.assoc", m1)

    def m2():
        p = zoo.build_sweedler(Q, "m2")
        p["unit"] = ["2", "0", "0", "0"]
        return p, ("axioms",)
    _mut("unit scaled", "monad.unit_left", m2)

    def m3():
        p = zoo.build_sweedler(Q, "m3")
        p["t2"]["element_coproduct"][2][0][0] = "1"
        return p, ("axioms",)
    _mut("coproduct gains a unit term", "comonoidal.coassoc", m3)

    def m4():
        p = zoo.build_sweedler(Q, "m4")
        p["t0"] = ["1", "1", "1", "0"]
        return p, ("axioms",)
    _mut("counit value changed", "comonoidal.counit_right", m4)

    def m5():
        p = zoo.build_sweedler(Q, "m5")
        d = [["0"] * 4 for _ in range(4)]
        d[2][0] = "1"
        d[0][2] = "1"
        p["t2"]["element_coproduct"][2] = d
        return p, ("axioms",)
    _mut("primitive coproduct", "bimonad.mult_compat", m5)

    def m6():
        p = zoo.build_sweedler(Q, "m6")
        p["mul"][2][2] = ["1", "0", "0", "0"]
        return p, ("axioms",)
    _mut("nilpotent made idempotent", "bimonad.counit_mult", m6)

    def m7():
        p = zoo.build_sweedler(Q, "m7")
        p["antipode"]["element"][3][2] = "1"
        del p["antipode"]["element_inverse"]
        return p, ("axioms",)
    _mut("antipode sign flipped", "antipode.left_ev", m7)

    def m8():
        p = zoo.build_sweedler(Q, "m8")
        p["antipode"]["element_inverse"][2][3] = "1"
        return p, ("axioms",)
    _mut("antipode inverse corrupted", "antipode.right_ev", m8)

    def m9():
        p = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), Q, "m9")
        p["rmatrix"]["element"][1][1] = "1"
        return p, ("quasitriangular",)
    _mut("exchange element perturbed", "rmatrix.left_product", m9)

    def m10():
        p = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), Q, "m10")
        p["twist"]["element"] = ["1", "1", "0", "1"]
        return p, ("quasitriangular",)
    _mut("twist perturbed", "twist.compatibility", m10)

    def m11():
        p = zoo.build_group_algebra(zoo.symmetric3_table(), Q, "m11",
                                    with_rmatrix=True)
        p["twist"]["element"] = ["0", "0", "0", "1", "0", "0"]
        p["twist"]["element_inverse"] = ["0", "0", "0", "1", "0", "0"]
        return p, ("quasitriangular",)
    _mut("non-central twist candidate", "twist.central", m11)

    def m12():
        p = zoo.build_group_algebra(zoo.symmetric3_table(), Q, "m12")
        p["t2"]["element_coproduct"][3][3][3] = "2"
        return p, ("axioms",)
    _mut("grouplike coefficient doubled", "comonoidal.counit_right", m12)

    def m13():
        p = zoo.build_taft(3, 7, name="m13")
        p["t2"]["element_coproduct"][1][1][0] = "3"
        return p, ("axioms",)
    _mut("nine-dim coproduct perturbed", "comonoidal.coassoc", m13)

    def m14():
        p = zoo.build_group_algebra(zoo.cyclic_group_table(3), Q, "m14")
        p["mul"][1][2] = ["0", "0", "1"]
        return p, ("axioms",)
    _mut("inverse law broken", "monad.assoc", m14)


_build_mutations()


class TestCriterion7Mutations:
    def test_all_mutations_caught(self):
        assert len(MUTATIONS) >= 12
        ok = True
        for name, expect, build in MUTATIONS:
            pres, checks = build()
            model = presentation.load(pres)
            rep = verify_model(model, checks=checks, samples=1)
            failures = {r.check: r for r in rep.failures()}
            if expect not in failures:
                ok = False
                continue
            witnessed = [r for r in rep.failures() if r.witness is not None]
            if witnessed and any(r.witness.is_zero() for r in witnessed):
                ok = False
        record(7, f"{len(MUTATIONS)} single-perturbation fixtures rejected "
               "with the correct axiom named", ok)


class TestCriterion8Determinism:
    def test_reports_byte_identical(self, tmp_path):
        path = tmp_path / "sweedler.json"
        path.write_text(json.dumps(zoo.build_sweedler(Q)))
        runs = [subprocess.run(
            [sys.executable, "-m", "hopfmonad.cli", "report", str(path), "--json"],
            capture_output=True, text=True) for _ in range(2)]
        ok = runs[0].returncode == runs[1].returncode == 0 and \
            runs[0].stdout == runs[1].stdout and len(runs[0].stdout) > 100
        record(8, "repeated reports are byte-identical", ok)
