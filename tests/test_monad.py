"""Bimonad axioms, convolution algebra, grouplikes, morphisms."""

import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from hopfmonad import presentation, zoo
from hopfmonad.chain import Chain
from hopfmonad.exactla import FieldSpec
from hopfmonad.monad import (
    Element,
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
    convolve_alt,
    eta_element,
    identity_trans,
    is_central,
    left_mult,
    right_mult,
    star_inverse_check,
)
from hopfmonad.presentation import element_from_vector
from hopfmonad.report import Report
from hopfmonad.cat import GradedMor, identity

Q = FieldSpec.rationals()


def rand_element(t, rng, label="f"):
    n = t.carrier_dim
    return element_from_vector(t, [rng.randrange(-3, 4) for _ in range(n)], label)


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
        assert all(np.array_equal(fail.witness.blocks[g], m) for g, m in want.blocks.items())
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
        g = element_from_vector(t, [0, 1], "g")
        assert convolve(t, g, g) == eta_element(t)

    def test_gf3_group_elements(self, kz2_f3):
        t = kz2_f3.t
        g = element_from_vector(t, [0, 1], "g")
        h = element_from_vector(t, [0, 1], "h")
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
        assert is_central(t, element_from_vector(t, [0, 0, 0, 1, 1, 1], "cs"))
        assert not is_central(t, element_from_vector(t, [0, 0, 0, 1, 0, 0], "tr"))

    def test_trivial_everything_central(self, trivial):
        t = trivial.t
        assert is_central(t, element_from_vector(t, [7], "a"))

    def test_adjoint_by_unit(self, sweedler):
        t = sweedler.t
        eta = eta_element(t)
        assert adjoint_action(t, eta, eta).is_identity()

    def test_adjoint_conjugation(self, sweedler):
        t = sweedler.t
        g = element_from_vector(t, [0, 1, 0, 0], "g")
        ad = adjoint_action(t, g, g)  # g is an involution
        assert not ad.is_identity()
        assert ad.compose(ad).is_identity()

    def test_adjoint_multiplicative(self, dz2):
        t = dz2.t
        rng = random.Random(13)
        eta = eta_element(t)
        # collect a few invertible elements by trial
        found = []
        while len(found) < 2:
            a = rand_element(t, rng)
            inv = None
            alg = dz2.alg
            w = alg.inverse([a.comps[(0, 0)].block(0, 0)[i, 0]
                             for i in range(t.carrier_dim)])
            if w is not None:
                found.append((a, element_from_vector(t, w, "inv")))
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
        a = element_from_vector(t, [2, 0, 0, 0, 0, 0], "2e")
        ai = element_from_vector(t, [Fraction(1, 2), 0, 0, 0, 0, 0], "einv")
        assert adjoint_action(t, a, ai).is_identity()

    def test_adjoint_rejects_non_inverse(self, sweedler):
        t = sweedler.t
        g = element_from_vector(t, [0, 1, 0, 0], "g")
        with pytest.raises(Exception):
            adjoint_action(t, g, eta_element(t))


class TestGrouplike:
    def test_eta_grouplike(self, sweedler):
        assert check_grouplike(sweedler.t, eta_element(sweedler.t))

    def test_sweedler_grouplikes(self, sweedler):
        t = sweedler.t
        g = element_from_vector(t, [0, 1, 0, 0], "g")
        x = element_from_vector(t, [0, 0, 1, 0], "x")
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
