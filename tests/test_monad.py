"""Bimonad axioms, convolution algebra, grouplikes, morphisms."""

import gc
import itertools
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from classical import Classical
from hopfmonad import exactla, monad, presentation, zoo
from hopfmonad.chain import Chain
from hopfmonad.exactla import FieldSpec, SparseTensor
from hopfmonad.hopfstruct import gamma_family, maschke_verdict, separability_element
from hopfmonad.monad import (
    Element,
    Family,
    PairFamily,
    StructureError,
    TransTT,
    adjoint_action,
    check_bimonad,
    check_comonoidal,
    check_grouplike,
    check_monad,
    check_monad_morphism,
    compare_at,
    convolve,
    eta_element,
    is_central,
    left_mult,
    right_mult,
    star_inverse_check,
)
from hopfmonad.presentation import element_from_vector
from hopfmonad.qtrib import drinfeld_element
from hopfmonad.report import Report
from hopfmonad.verify import SUITES, verify_model
from hopfmonad.cat import GradedMor, GradedObj, coev_mor, ev_mor, identity
from hopfmonad.modcat import free_module
from test_chain import tensor_mor

Q = FieldSpec.rationals()


def convolve_alt(t, f: Element, g: Element) -> Element:
    """The other associativity route: mu ∘ T(g) ∘ f (must agree)."""
    comps = {}
    for gr in t.simples():
        s = t.simple(gr)
        ch = Chain(s).then(f.at_step(s), at=0) \
                     .then(g.at_step(s), at=1) \
                     .then(t.m, at=0)
        comps[gr] = ch.eval()
    return Element(t, comps, f"{f.label}*{g.label}")


def identity_trans(t) -> TransTT:
    """The identity family T -> T."""
    return TransTT(t, t, t.components(lambda s: identity(t.on_obj(s))), "id")


def element_of(t, values, label="f"):
    """The element of the carrier coefficients `values`, a list of scalars."""
    return element_from_vector(t, t.base.field.asarray([values]), label)


def rand_element(t, rng, label="f"):
    n = t.carrier_dim
    return element_of(t, [rng.randrange(-3, 4) for _ in range(n)], label)


class TestAxioms:
    def test_trivial_passes(self, trivial):
        assert check_bimonad(trivial.t).passed

    def test_group_algebras_pass(self, kz2, ks3, ks3_f3):
        for m in (kz2, ks3, ks3_f3):
            assert check_bimonad(m.t).passed

    def test_sweedler_taft_double_pass(self, sweedler, taft3, dz2):
        for m in (sweedler, taft3, dz2):
            assert check_bimonad(m.t).passed

    def test_corrupted_product_fails_assoc(self, ks3):
        pres = zoo.build_group_algebra(zoo.symmetric3_table(), Q, "kS3_bad")
        pres["mul"][1][1][0] = "1"  # extra term in one product
        bad = presentation.load(pres)
        rep = check_monad(bad.t)
        assert not rep.passed
        fail = rep.failures()[0]
        assert fail.check == "monad.assoc"
        assert fail.witness is not None and not fail.witness.is_zero()

    def test_failing_compare_records_the_difference(self):
        pres = zoo.build_group_algebra(zoo.symmetric3_table(), Q, "kS3_bad")
        pres["mul"][1][1][0] = "1"
        t = presentation.load(pres).t

        def items():
            for g in t.simples():
                t3s = t.on_obj(t.on_obj(t.on_obj(t.simple(g))))
                yield ((g,), Chain(t3s).then(t.m, at=1).then(t.m, at=0),
                       Chain(t3s).then(t.m, at=0).then(t.m, at=0))

        rep = Report("witness")
        assert not compare_at(rep, "monad.assoc", items())
        fail = rep.failures()[0]
        label, lhs, rhs = next((x for x in items() if x[0] == fail.simple))
        want = lhs.eval() - rhs.eval()
        assert (fail.witness.src, fail.witness.dst) == (want.src, want.dst)
        assert fail.witness.blocks.keys() == want.blocks.keys()
        assert all(fail.witness.blocks[g].tolist() == m.tolist()
                   for g, m in want.blocks.items())
        assert not want.is_zero()

    def test_primitive_but_nonmultiplicative_coproduct(self, sweedler):
        # replacing the coproduct of x by x⊗1 + 1⊗x keeps coassociativity
        # but breaks the compatibility with the product
        pres = zoo.build_sweedler(Q, name="sweedler_prim")
        d = [["0"] * 4 for _ in range(4)]
        d[2][0] = "1"
        d[0][2] = "1"
        pres["t2"]["element_coproduct"][2] = d
        bad = presentation.load(pres)
        assert check_comonoidal(bad.t).passed
        rep = check_bimonad(bad.t)
        assert not rep.passed
        assert {f.check for f in rep.failures()} == {"bimonad.mult_compat"}

    def test_graded_builders(self, disconnected_groupoid, one_object_z2):
        assert check_bimonad(disconnected_groupoid.t).passed
        assert check_bimonad(one_object_z2.t).passed

    def test_pair_groupoid_obstruction(self, pair_groupoid):
        # counit laws cannot hold for an off-diagonal carrier on this
        # backend (see the repository notes); everything else passes
        rep = check_bimonad(pair_groupoid.t)
        bad = {f.check for f in rep.failures()}
        assert bad == {"comonoidal.counit_left", "bimonad.counit_mult"}


class TestMalformedStructures:
    def test_wrong_product_ends(self, sweedler):
        from hopfmonad.monad import StructureError, TensoringBimonad
        t = sweedler.t
        with pytest.raises(StructureError):
            TensoringBimonad(t.base, t.carrier, t.t0.ldual(), t.u, t.t2, t.t0)

    def test_missing_coproduct_component(self, sweedler):
        from hopfmonad.monad import StructureError, TensoringBimonad
        t = sweedler.t
        with pytest.raises(StructureError):
            TensoringBimonad(t.base, t.carrier, t.m, t.u, {}, t.t0)

    @pytest.mark.parametrize("fixture", ["sweedler", "disconnected_groupoid"])
    def test_component_with_wrong_ends(self, fixture, request):
        # S -> S has the ends of none of these families
        t = request.getfixturevalue(fixture).t
        g = t.simples()[0]
        wrong = identity(t.simple(g))
        with pytest.raises(StructureError):
            Element(t, {g: wrong})
        with pytest.raises(StructureError):
            TransTT(t, t, {g: wrong})
        with pytest.raises(StructureError):
            PairFamily(t, {(g, g): wrong})

    def test_wrong_component_ends(self, sweedler):
        from hopfmonad.monad import StructureError, TensoringBimonad
        t = sweedler.t
        bad = {((0, 0), (0, 0)): t.m}
        with pytest.raises(StructureError):
            TensoringBimonad(t.base, t.carrier, t.m, t.u, bad, t.t0)


class TestAtSimples:
    """One enumeration of simple tuples for every law, one of simples for
    every computed family."""

    @staticmethod
    def composable(t, arity):
        # every tuple of simples, kept when consecutive grades compose
        return [key for key in itertools.product(t.simples(), repeat=arity)
                if all(a[1] == b[0] for a, b in zip(key, key[1:]))]

    def test_keys_in_order_and_simples_of_each_key(self, disconnected_groupoid):
        t = disconnected_groupoid.t
        for arity, count in zip(range(4), (1, 4, 8, 16)):
            seen = []

            def law(*xs):
                seen.append(xs)
                return "lhs", "rhs"

            items = t.at_simples(arity, law)
            next(items)
            assert len(seen) == 1  # a law is evaluated only when its item is read
            keys = [key for key, lhs, rhs in items]
            want = self.composable(t, arity)
            assert len(want) == count
            assert keys == want[1:]
            assert seen == [tuple(GradedObj.simple(t.base, *g) for g in key) for key in want]

    def test_own_keys(self, disconnected_groupoid):
        t = disconnected_groupoid.t
        keys = [((1, 0), (0, 0)), ((0, 1), (1, 1))]
        items = list(t.at_simples(2, lambda x, y: (x, y), keys))
        assert items == [(key, t.simple(key[0]), t.simple(key[1])) for key in keys]

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_failure_is_recorded_at_its_key(self, disconnected_groupoid, arity):
        t = disconnected_groupoid.t
        bad = self.composable(t, arity)[-2]
        bad_simples = tuple(t.simple(g) for g in bad)

        def law(*xs):
            src = xs[0]
            for x in xs[1:]:
                src = src.tensor(x)
            rhs = GradedMor.zero(src, src) if xs == bad_simples else identity(src)
            return Chain(src), Chain(src).then(rhs)

        rep = Report("one failing key")
        assert not compare_at(rep, "law", t.at_simples(arity, law))
        assert rep.results[0].simple == bad
        assert rep.results[0].to_json()["simple"] == [list(g) for g in bad]

    def test_drinfeld_element_by_components(self, dz2):
        t, a, r = dz2.t, dz2.antipode, dz2.rmatrix
        comps = {}
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            w_dual = t.on_obj(ts).dual()
            n, nd = len(s.atoms), len(w_dual.atoms)
            comps[g] = Chain(s).then(coev_mor(w_dual), at=n).then(t.m, at=n + nd) \
                               .then(r.at_step(s, w_dual), at=0) \
                               .then(a.sl.at_step(ts), at=0).then(ev_mor(ts), at=0).eval()
        assert drinfeld_element(t, a, r) == Element(t, comps, "u")

    @pytest.mark.parametrize("fixture", ["kz2", "disconnected_groupoid"])
    def test_separability_element_by_components(self, fixture, request):
        m = request.getfixturevalue(fixture)
        t = m.t
        fam = gamma_family(t, m.antipode)
        lam = maschke_verdict(t)["witness"]
        comps = {}
        for g in t.simples():
            s = t.simple(g)
            comps[g] = Chain(s).then(lam, at=len(s.atoms)).then(fam.at_step(s), at=0).eval()
        gam = separability_element(t, fam, lam)
        assert gam == Family(t, comps, (0,), (t.carrier, t.carrier, 0))
        assert not any(gam[g].is_zero() for g in t.simples() if g[0] == g[1])


class TestEvalT:
    def test_trivial_carrier_is_identity_functor(self, trivial):
        t = trivial.t
        s = t.simple((0, 0))
        assert t.on_obj(s).total_dim() == 1

    def test_dimension_multiplies(self, sweedler):
        t = sweedler.t
        from hopfmonad.cat import GradedObj
        x = GradedObj.space(t.base, 5, "X")
        assert t.on_obj(x).total_dim() == 20

    def test_functoriality(self, sweedler):
        t = sweedler.t
        from hopfmonad.cat import GradedObj
        rng = random.Random(4)
        f = t.base.field
        x = GradedObj.space(t.base, 2, "X")
        y = GradedObj.space(t.base, 3, "Y")
        z = GradedObj.space(t.base, 2, "Z")
        fm = GradedMor(x, y, {(0, 0): f.asarray(
            [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(3)])})
        gm = GradedMor(y, z, {(0, 0): f.asarray(
            [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(2)])})
        assert t.on_mor(gm @ fm) == t.on_mor(gm) @ t.on_mor(fm)

    @pytest.mark.parametrize("build", [
        lambda: zoo.build_sweedler(Q),
        lambda: zoo.build_group_algebra(zoo.symmetric3_table(), FieldSpec.prime(3)),
        lambda: zoo.build_pair_groupoid(Q),
        lambda: zoo.build_pair_groupoid(FieldSpec.prime(5)),
    ], ids=["vector-Q", "vector-F3", "graded-Q", "graded-F5"])
    def test_whiskers_match_tensor_mor(self, build):
        # T(f), eta_X and mu_X are chains; tensor_mor is their dense reference
        t = presentation.load(build()).t
        rng = random.Random(6)
        grid = [[rng.randrange(0, 3) for _ in t.base.labels] for _ in t.base.labels]
        grid[0][0] = 2
        x = GradedObj.from_grid(t.base, grid, "X")
        y = GradedObj.from_grid(t.base, [row[::-1] for row in grid], "Y")
        f = t.base.field
        fm = GradedMor(x, y, {g: f.asarray([[rng.randrange(-2, 3) for _ in range(x.count(*g))]
                                             for _ in range(y.count(*g))])
                              for g in set(x.grades()) & set(y.grades())})
        assert t.on_mor(fm) == tensor_mor(identity(t.carrier), fm)
        for obj in (x, t.unit_obj(), t.on_obj(x)):
            assert t.eta_mor(obj) == tensor_mor(t.u, identity(obj))
            assert free_module(t, obj).action == tensor_mor(t.m, identity(obj))


class TestConvolution:
    def test_unit_laws(self, sweedler):
        t = sweedler.t
        rng = random.Random(9)
        eta = eta_element(t)
        for _ in range(5):
            f = rand_element(t, rng)
            assert convolve(t, eta, f) == f
            assert convolve(t, f, eta) == f

    def test_two_formulas_agree(self, sweedler, ks3):
        rng = random.Random(10)
        for m in (sweedler, ks3):
            for _ in range(10):
                f, g = rand_element(m.t, rng), rand_element(m.t, rng)
                assert convolve(m.t, f, g) == convolve_alt(m.t, f, g)

    def test_associativity(self, sweedler, taft3, dz2, one_object_z2):
        rng = random.Random(11)
        for m in (sweedler, taft3, dz2):
            for _ in range(17):
                f, g, h = (rand_element(m.t, rng) for _ in range(3))
                lhs = convolve(m.t, convolve(m.t, f, g), h)
                rhs = convolve(m.t, f, convolve(m.t, g, h))
                assert lhs == rhs

    def test_group_convolution_is_group_law(self, kz2):
        t = kz2.t
        g = element_of(t, [0, 1], "g")
        assert convolve(t, g, g) == eta_element(t)

    def test_gf3_group_elements(self, kz2_f3):
        t = kz2_f3.t
        g = element_of(t, [0, 1], "g")
        h = element_of(t, [0, 1], "h")
        assert check_grouplike(t, g)
        assert convolve(t, g, h) == eta_element(t)

    def test_lr_homomorphisms(self, sweedler):
        t = sweedler.t
        rng = random.Random(12)
        for _ in range(8):
            a, b = rand_element(t, rng), rand_element(t, rng)
            assert left_mult(t, convolve(t, a, b)) == \
                left_mult(t, a).compose(left_mult(t, b))
            assert right_mult(t, convolve(t, a, b)) == \
                right_mult(t, b).compose(right_mult(t, a))
            assert left_mult(t, a).compose(right_mult(t, b)) == \
                right_mult(t, b).compose(left_mult(t, a))


class TestCentralAndAdjoint:
    def test_eta_central(self, sweedler):
        assert is_central(sweedler.t, eta_element(sweedler.t))

    def test_class_sum_central(self, ks3):
        t = ks3.t
        assert is_central(t, element_of(t, [0, 0, 0, 1, 1, 1], "cs"))
        assert not is_central(t, element_of(t, [0, 0, 0, 1, 0, 0], "tr"))

    def test_trivial_everything_central(self, trivial):
        t = trivial.t
        assert is_central(t, element_of(t, [7], "a"))

    def test_adjoint_by_unit(self, sweedler):
        t = sweedler.t
        eta = eta_element(t)
        assert adjoint_action(t, eta, eta).is_identity()

    def test_adjoint_conjugation(self, sweedler):
        t = sweedler.t
        g = element_of(t, [0, 1, 0, 0], "g")
        ad = adjoint_action(t, g, g)  # g is an involution
        assert not ad.is_identity()
        assert ad.compose(ad).is_identity()

    def test_adjoint_multiplicative(self, dz2):
        t = dz2.t
        rng = random.Random(13)
        eta = eta_element(t)
        # collect a few invertible elements by trial
        oracle = Classical(zoo.build_drinfeld_double_group(
            zoo.cyclic_group_table(2), Q, "DZ2"))
        found = []
        while len(found) < 2:
            a = rand_element(t, rng)
            v = oracle.array(a.comps[(0, 0)].block(0, 0)[:, 0].tolist())
            w = oracle.element_inverse(v)
            if w is not None:
                found.append((a, element_of(t, w.tolist(), "inv")))
        (a, ai), (b, bi) = found
        assert star_inverse_check(t, a, ai) and star_inverse_check(t, b, bi)
        ab = convolve(t, a, b)
        ab_inv = convolve(t, bi, ai)
        lhs = adjoint_action(t, ab, ab_inv)
        rhs = adjoint_action(t, a, ai).compose(adjoint_action(t, b, bi))
        assert lhs == rhs

    def test_central_invertible_gives_trivial_adjoint(self, ks3):
        t = ks3.t
        # a central invertible element: unit scaled
        a = element_of(t, [2, 0, 0, 0, 0, 0], "2e")
        ai = element_of(t, [Fraction(1, 2), 0, 0, 0, 0, 0], "einv")
        assert adjoint_action(t, a, ai).is_identity()

    def test_adjoint_rejects_non_inverse(self, sweedler):
        t = sweedler.t
        g = element_of(t, [0, 1, 0, 0], "g")
        with pytest.raises(Exception):
            adjoint_action(t, g, eta_element(t))


class TestGrouplike:
    def test_eta_grouplike(self, sweedler):
        assert check_grouplike(sweedler.t, eta_element(sweedler.t))

    def test_sweedler_grouplikes(self, sweedler):
        t = sweedler.t
        g = element_of(t, [0, 1, 0, 0], "g")
        x = element_of(t, [0, 0, 1, 0], "x")
        assert check_grouplike(t, g)
        assert not check_grouplike(t, x)

    def test_presented_grouplikes(self, ks3, taft3):
        for m in (ks3, taft3):
            for g in m.grouplikes:
                assert check_grouplike(m.t, g)


class TestMonadMorphism:
    def test_identity_is_morphism(self, sweedler):
        assert check_monad_morphism(identity_trans(sweedler.t)).passed

    def test_sweedler_quotient_to_kz2(self, sweedler, kz2):
        # quotient by x: 1 -> 1, g -> g, x -> 0, gx -> 0
        t, tp = sweedler.t, kz2.t
        f = tp.base.field
        block = f.asarray([[1, 0, 0, 0], [0, 1, 0, 0]])
        s = t.simple((0, 0))
        comp = GradedMor(t.on_obj(s), tp.on_obj(s), {(0, 0): block})
        tr = TransTT(t, tp, {(0, 0): comp}, "quot")
        assert check_monad_morphism(tr).passed

    def test_bad_morphism_named(self, sweedler, kz2):
        t, tp = sweedler.t, kz2.t
        f = tp.base.field
        block = f.asarray([[1, 0, 0, 1], [0, 1, 0, 0]])  # perturbed
        s = t.simple((0, 0))
        tr = TransTT(t, tp, {(0, 0): GradedMor(t.on_obj(s), tp.on_obj(s),
                                               {(0, 0): block})}, "bad")
        rep = check_monad_morphism(tr)
        assert not rep.passed
        assert all(r.check.startswith("morphism.") for r in rep.failures())


def test_bimonad_is_freed_after_use():
    # no cache keeps a bimonad (and its matrices) alive once it is dropped
    model = presentation.load(
        zoo.build_group_algebra(zoo.symmetric3_table(), Q, "kS3"))
    model.t.simple((0, 0))
    ref = weakref.ref(model.t)
    del model
    gc.collect()
    assert ref() is None


def test_a_dropped_model_is_freed_without_the_cycle_collector():
    # the coproduct family sees its monad through a weak proxy, so no
    # reference cycle keeps a dropped monad, its families and their held
    # blocks alive until the cycle collector runs: with the collector off,
    # four rounds of load, axioms and del on D(Z6)/GF(13) free each monad
    # at once, and the traced memory stays level (a cycle would keep about
    # 0.8 MB a round)
    pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(6),
                                           FieldSpec.prime(13), "double_z6_f13")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    traced, freed = [], []
    try:
        for _ in range(4):
            model = presentation.load(pres)
            assert verify_model(model, checks=("axioms",)).passed
            monad = weakref.ref(model.t)
            del model
            freed.append(monad() is None)
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert all(freed)
    assert traced[-1] - traced[0] < 250_000, traced


class TestStepMemo:
    """Family.at_step builds each component once per argument tuple."""

    @pytest.mark.parametrize("fixture", ["sweedler", "disconnected_groupoid"])
    def test_equal_arguments_share_the_step(self, fixture, request):
        t = request.getfixturevalue(fixture).t
        for g in t.simples():
            s = t.simple(g)
            # the same word built apart is the same key
            again = GradedObj.simple(t.base, *g)
            assert t.t2.at_step(s, s) is t.t2.at_step(again, again)
            ts = t.on_obj(s)
            assert t.t2.at_step(ts, s) is t.t2.at_step(t.carrier.tensor(again), again)

    @pytest.mark.parametrize("fixture", ["sweedler", "disconnected_groupoid"])
    def test_families_keep_their_own_steps(self, fixture, request):
        t = request.getfixturevalue(fixture).t
        eta = eta_element(t)
        twice = Element(t, {g: eta[g].scale(2) for g in t.simples()}, "2eta")
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            a, b = eta.at_step(ts), twice.at_step(ts)
            assert a is not b
            assert b.to_mor() == a.to_mor().scale(2) != a.to_mor()

    def test_extend_runs_once_per_family_and_arguments(self, monkeypatch):
        # a model of its own, so no earlier test has filled the memos
        model = presentation.load(zoo.build_disconnected_groupoid(Q))
        seen, keep = {}, []
        extend = monad.extend

        def counted(src, dst, xs, comps):
            keep.append(comps)  # holds each id while the counter runs
            key = (id(comps), src, dst, xs)
            seen[key] = seen.get(key, 0) + 1
            return extend(src, dst, xs, comps)

        monkeypatch.setattr(monad, "extend", counted)
        assert verify_model(model, checks=SUITES, samples=1).passed
        assert seen and max(seen.values()) == 1

    def test_one_label_core_is_read_once_per_family(self, dz2, monkeypatch):
        # every argument tuple's step views the one block held on the
        # family's component
        t = dz2.t
        s = t.simple((0, 0))
        ts = t.on_obj(s)
        args = [(s, s), (ts, s), (s, ts.dual())]
        steps = [t.t2.at_step(*xs) for xs in args]
        assert len({id(step) for step in steps}) == 3
        held = t.t2[t.t2.keys[0]].held(0, 0)
        assert all(np.shares_memory(step.tensor().num, held.num) for step in steps)
        # held sparse, the block is read for its nonzeros once, and the three
        # steps share its positions
        model = presentation.load(
            zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), Q, "DZ2"))
        t = model.t
        calls = {"n": 0}

        def counted(spec, a, _of=SparseTensor.of):
            calls["n"] += 1
            return _of(spec, a)
        monkeypatch.setattr(exactla, "SPARSE_FIXED", 0)
        monkeypatch.setattr(SparseTensor, "of", staticmethod(counted))
        tensors = [t.t2.at_step(*xs).tensor() for xs in args]
        held = t.t2[t.t2.keys[0]].held(0, 0)
        assert calls["n"] == 1 and isinstance(held, SparseTensor)
        assert all(np.shares_memory(x.index, held.index) for x in tensors)

