"""Hopf modules, coinvariants, integrals, cointegrals, semisimplicity."""

import hashlib
import random
from fractions import Fraction

import pytest

from classical import Classical
from hopfmonad import zoo
from hopfmonad.cat import GradedMor, GradedObj, identity
from hopfmonad.exactla import FieldSpec
from hopfmonad.hopfstruct import (
    HopfModule,
    _integral_system,
    canonical_hopf_module,
    check_gamma_suite,
    check_hopf_module,
    check_separability,
    coinvariants,
    fundamental_iso,
    gamma_defining_chain,
    gamma_family,
    induced_hopf_module,
    integral_check,
    maschke_verdict,
    random_comodule,
    separability_element,
    solve_cointegrals,
    solve_integrals,
    split_module_action,
    transport_integral,
    trivial_coaction,
)
from hopfmonad.modcat import (
    TModule,
    free_module,
    is_t_linear,
    random_module,
)
from test_modcat import module_section_space

Q = FieldSpec.rationals()


class TestGamma:
    @pytest.mark.parametrize("fixture", ["trivial", "kz2", "sweedler", "ks3",
                                         "taft3", "dz2", "disconnected_groupoid",
                                         "one_object_z2"])
    def test_suite(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rng = random.Random(31)
        mods = [random_module(m.t, rng, 1)]
        fam = gamma_family(m.t, m.antipode)
        rep = check_gamma_suite(m.t, m.antipode, fam, mods)
        assert rep.passed, [r.line() for r in rep.failures()]

    def test_trivial_gamma_is_identity(self, trivial):
        fam = gamma_family(trivial.t, trivial.antipode)
        comp = fam.comps[(0, 0)]
        assert comp.block(0, 0).tolist() == [[Fraction(1)]]

    def test_element_formula(self, sweedler):
        # left-tensoring mirror of the classical formula:
        # gamma(z) = sum z2 ⊗ Sinv(z1)
        m = sweedler
        t = m.t
        f = t.base.field
        n = t.carrier_dim
        fam = gamma_family(t, m.antipode)
        got = fam.comps[(0, 0)].block(0, 0)
        d3 = t.t2[((0, 0), (0, 0))].block(0, 0).reshape(n, n, n)
        s_inv = Classical(zoo.build_sweedler(Q)).s_inv
        expect = f.zeros((n * n, n))
        for z in range(n):
            for p in range(n):
                for q in range(n):
                    acc = f.zero
                    for a1 in range(n):
                        acc = acc + d3[a1, p, z] * s_inv[q, a1]
                    expect[p * n + q, z] = acc
        assert got.tolist() == expect.tolist()

    def test_extension_matches_defining_formula(self, sweedler, taft3):
        for m in (sweedler, taft3):
            fam = gamma_family(m.t, m.antipode)
            w = GradedObj.space(m.t.base, 2, "P")
            assert gamma_defining_chain(m.t, m.antipode, w).eval() == fam.at(w)
        # for a small carrier the defining route is feasible at T(S) too
        sw = sweedler
        w = sw.t.on_obj(sw.t.simple((0, 0)))
        fam = gamma_family(sw.t, sw.antipode)
        assert gamma_defining_chain(sw.t, sw.antipode, w).eval() == fam.at(w)


class TestHopfModules:
    def test_canonical(self, sweedler, dz2, disconnected_groupoid):
        for m in (sweedler, dz2, disconnected_groupoid):
            for g in m.t.simples():
                h = canonical_hopf_module(m.t, m.t.simple(g))
                assert check_hopf_module(m.t, h).passed

    def test_induced_from_random_comodules(self, sweedler):
        rng = random.Random(7)
        for _ in range(5):
            car, rho = random_comodule(sweedler.t, sweedler.grouplikes, rng, 2)
            h = induced_hopf_module(sweedler.t, car, rho)
            assert check_hopf_module(sweedler.t, h).passed

    # (sha256 prefix of the coaction's blocks, the next draw of the rng),
    # taken when the coaction was summed one chain per basis path
    PINNED_COMODULES = {
        "sweedler": ("cec56538c67c35f9", 0.18466034385487662),
        "no_grouplikes": ("860f4843616f6718", 0.5078412730622711),
        "taft3": ("f3fa5c57a161cd54", 0.6298827202168019),
        "disconnected_groupoid": ("d96a14bec309a4b0", 0.7929768725199526),
    }

    @pytest.mark.parametrize("case", list(PINNED_COMODULES))
    def test_random_comodule_is_pinned(self, case, request):
        m = request.getfixturevalue("sweedler" if case == "no_grouplikes" else case)
        rng = random.Random(11)
        grouplikes = [] if case == "no_grouplikes" else m.grouplikes
        _, rho = random_comodule(m.t, grouplikes, rng, 2)
        text = repr(sorted((g, b.tolist()) for g, b in rho.blocks.items()))
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (digest, rng.random()) == self.PINNED_COMODULES[case]

    def test_trivial_coaction_on_free_fails_compat(self, sweedler):
        t = sweedler.t
        x = GradedObj.space(t.base, 1, "X")
        fm = free_module(t, x)
        h = HopfModule(t, fm.carrier, fm.action,
                       trivial_coaction(t, fm.carrier))
        rep = check_hopf_module(t, h)
        assert not rep.passed
        assert rep.find("hopf_module.compatibility").status == "fail"


class TestCoinvariants:
    def test_trivial_monad_everything_coinvariant(self, trivial):
        t = trivial.t
        x = GradedObj.space(t.base, 3, "M")
        n, inc = coinvariants(t, x, trivial_coaction(t, x))
        assert n.total_dim() == 3

    def test_canonical_coinvariants_are_the_unit_image(self, sweedler):
        t = sweedler.t
        x = GradedObj.space(t.base, 2, "X")
        h = canonical_hopf_module(t, x)
        n, inc = coinvariants(t, h.carrier, h.coaction)
        assert n.total_dim() == 2
        # image of the inclusion equals the image of the unit map
        from hopfmonad.exactla import rank
        f = t.base.field
        eta = t.eta_mor(x).block(0, 0)
        span = inc.block(0, 0)
        both = f.concatenate([eta, span], axis=1)
        assert rank(f, both) == 2

    def test_zero_module(self, sweedler):
        t = sweedler.t
        z = GradedObj.space(t.base, 0, "Z")
        n, inc = coinvariants(t, z, trivial_coaction(t, z))
        assert n.total_dim() == 0


class TestFundamentalTheorem:
    @pytest.mark.parametrize("fixture", ["sweedler", "taft3", "dz2",
                                         "disconnected_groupoid", "one_object_z2"])
    def test_random_hopf_modules(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rng = random.Random(11)
        adim = m.t.carrier_dim
        fam = gamma_family(m.t, m.antipode)
        for _ in range(4):
            car, rho = random_comodule(m.t, m.grouplikes, rng, 2)
            h = induced_hopf_module(m.t, car, rho)
            rep = fundamental_iso(m.t, fam, h)
            assert rep.passed, [r.line() for r in rep.failures()]
            if m.t.base.is_vector:
                mdim = h.carrier.total_dim()
                cdim = sum(sum(r) for r in rep.info["coinvariant_dims"])
                assert mdim == adim * cdim

    def test_canonical_case(self, sweedler):
        t = sweedler.t
        h = canonical_hopf_module(t, GradedObj.space(t.base, 2, "X"))
        rep = fundamental_iso(t, gamma_family(t, sweedler.antipode), h)
        assert rep.passed
        assert rep.info["coinvariant_dims"] == [[2]]
        # the redundant kernel probe runs on one label at every size
        assert rep.find("decomp.kernel_match").status == "pass"


class TestIntegrals:
    @pytest.mark.parametrize("fixture", ["trivial", "kz2", "sweedler", "ks3",
                                         "ks3_f3", "taft3", "dz2"])
    def test_dimension_one(self, fixture, request):
        m = request.getfixturevalue(fixture)
        assert solve_integrals(m.t, "left").dimension == 1
        assert solve_integrals(m.t, "right").dimension == 1

    def test_sweedler_left_line(self, sweedler):
        li = solve_integrals(sweedler.t, "left")
        assert li.basis == [[Fraction(0), Fraction(0), Fraction(0), Fraction(1)]]

    def test_sweedler_brute_force_oracle(self, sweedler):
        # independent solve of the element-level condition over all coords
        t = sweedler.t
        f = t.base.field
        n = t.carrier_dim
        d3 = t.t2[((0, 0), (0, 0))].block(0, 0).reshape(n, n, n)
        u = t.u.block(0, 0)[:, 0]
        sols = []
        from itertools import product
        for chi in product([f.coerce(0), f.coerce(1)], repeat=n):
            ok = True
            for p in range(n):
                for ai in range(n):
                    acc = f.zero
                    for k in range(n):
                        acc = acc + d3[p, k, ai] * chi[k]
                    if acc != u[p] * chi[ai]:
                        ok = False
            if ok and any(c != f.zero for c in chi):
                sols.append(list(chi))
        assert sols == [[Fraction(0), Fraction(0), Fraction(0), Fraction(1)]]

    @pytest.mark.parametrize("fixture", ["kz2", "sweedler", "ks3", "ks3_f3",
                                         "taft3", "dz2"])
    @pytest.mark.parametrize("direction", ["left", "right"])
    def test_system_matches_the_element_loop(self, fixture, direction, request):
        # the integral system built by array operations, against the loop
        # over (p, a, k) that it replaced: the same rows in the same order
        t = request.getfixturevalue(fixture).t
        f = t.base.field
        n = t.carrier_dim
        d3 = t.t2[((0, 0), (0, 0))].block(0, 0).reshape(n, n, n)
        u = t.u.block(0, 0)[:, 0]
        rows = []
        for p in range(n):
            for a in range(n):
                row = [f.coerce(d3[p, k, a] if direction == "left" else d3[k, p, a])
                       for k in range(n)]
                row[a] = f.coerce(row[a] - u[p])
                rows.append(row)
        assert _integral_system(t, direction).tolist() == rows
        rng = random.Random(5)
        chis = [solve_integrals(t, direction).basis[0]]
        chis += [[f.coerce(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(4)]
        for chi in chis:
            want = all(f.coerce(sum(row[k] * chi[k] for k in range(n))) == f.zero
                       for row in rows)
            assert integral_check(t, direction, chi) == want
        assert integral_check(t, direction, chis[0])

    def test_group_algebra_integral(self, ks3):
        li = solve_integrals(ks3.t, "left")
        assert li.basis[0][0] == Fraction(1)
        assert all(x == Fraction(0) for x in li.basis[0][1:])
        # unimodular: left equals right
        ri = solve_integrals(ks3.t, "right")
        assert li.basis == ri.basis

    @pytest.mark.parametrize("fixture", ["trivial", "kz2", "sweedler", "ks3",
                                         "taft3", "dz2"])
    def test_transport_bijection(self, fixture, request):
        m = request.getfixturevalue(fixture)
        chi = solve_integrals(m.t, "left").basis[0]
        d = transport_integral(m.t, m.antipode.sr, chi)
        assert integral_check(m.t, "right", d)
        back = transport_integral(m.t, m.antipode.sl, d)
        assert list(back) == list(chi)

    def test_trivial_transport_identity(self, trivial):
        chi = [Fraction(3)]
        assert transport_integral(trivial.t, trivial.antipode.sr, chi) == chi

    def test_group_transport_fixes_line(self, ks3):
        chi = solve_integrals(ks3.t, "left").basis[0]
        d = transport_integral(ks3.t, ks3.antipode.sr, chi)
        assert list(d) == list(chi)

    def test_graded_unsupported(self, disconnected_groupoid):
        with pytest.raises(Exception):
            solve_integrals(disconnected_groupoid.t, "left")


class TestCointegrals:
    def test_trivial(self, trivial):
        co = solve_cointegrals(trivial.t)
        assert len(co) == 1

    def test_sweedler_line(self, sweedler):
        co = solve_cointegrals(sweedler.t)
        assert len(co) == 1
        assert co[0].block(0, 0).ravel().tolist() == \
            [Fraction(0), Fraction(0), Fraction(1), Fraction(1)]

    def test_ks3_sum_of_elements(self, ks3):
        co = solve_cointegrals(ks3.t)
        assert len(co) == 1
        assert co[0].block(0, 0).ravel().tolist() == [Fraction(1)] * 6


class TestMaschke:
    def test_trichotomy(self, ks3, ks3_f3, sweedler):
        v1 = maschke_verdict(ks3.t)
        assert v1["semisimple"]
        assert v1["witness"].block(0, 0).ravel().tolist() == [Fraction(1, 6)] * 6
        v2 = maschke_verdict(ks3_f3.t)
        assert not v2["semisimple"] and v2["cointegral_dim"] == 1
        v3 = maschke_verdict(sweedler.t)
        assert not v3["semisimple"] and v3["cointegral_dim"] == 1
        # counit vanishes on the whole cointegral line in both failures
        for t, v in ((ks3_f3.t, v2), (sweedler.t, v3)):
            assert all((t.t0 @ lam).is_zero() for lam in v["cointegral_basis"])

    def test_separability_and_sections(self, ks3):
        t = ks3.t
        v = maschke_verdict(t)
        gam = separability_element(t, gamma_family(t, ks3.antipode), v["witness"])
        assert check_separability(t, gam).passed
        rng = random.Random(17)
        for _ in range(3):
            mod = random_module(t, rng, 1)
            sigma = split_module_action(t, gam, mod)
            assert is_t_linear(mod, free_module(t, mod.carrier), sigma)
            assert (mod.action @ sigma) == identity(mod.carrier)

    def test_section_functoriality(self, ks3):
        t = ks3.t
        gam = separability_element(t, gamma_family(t, ks3.antipode),
                                   maschke_verdict(t)["witness"])
        rng = random.Random(19)
        mod = random_module(t, rng, 1)
        fm = free_module(t, mod.carrier)
        sig_m = split_module_action(t, gam, mod)
        sig_f = split_module_action(t, gam, fm)
        # functoriality along the module map r: free -> mod
        lhs = sig_m @ mod.action
        rhs = t.on_mor(mod.action) @ sig_f
        assert lhs == rhs

    def test_trivial_monad_sigma_identity(self, trivial):
        t = trivial.t
        gam = separability_element(t, gamma_family(t, trivial.antipode),
                                   maschke_verdict(t)["witness"])
        mod = free_module(t, GradedObj.space(t.base, 3, "M"))
        sigma = split_module_action(t, gam, mod)
        # for the identity monad the section is the identity
        assert sigma.block(0, 0).tolist() == identity(mod.carrier).block(0, 0).tolist()

    def test_non_semisimple_module_without_section(self, sweedler, ks3_f3):
        # the trivial one-dimensional module admits no section
        for m in (sweedler, ks3_f3):
            t = m.t
            k = GradedObj.space(t.base, 1, "k")
            triv = TModule(t, k, GradedMor(t.on_obj(k), k,
                                           {(0, 0): t.t0.block(0, 0).copy()}),
                           check=False)
            assert module_section_space(triv) == []
