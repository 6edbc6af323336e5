"""Cross-module invariants: the lemma-level equivalences of the theory."""

import random

import pytest

from hopfmonad.antipode import s_map, square_of_antipode
from hopfmonad.cat import identity
from hopfmonad.chain import Chain
from hopfmonad.exactla import FieldSpec
from hopfmonad.modcat import TModule, free_module, is_t_linear, random_module
from hopfmonad.monad import (
    adjoint_action,
    check_grouplike,
    check_monad_morphism,
    convolve,
    eta_element,
    is_central,
    left_mult,
    right_mult,
)
from test_monad import element_of

Q = FieldSpec.rationals()


def rand_element(t, rng, label="f"):
    return element_of(
        t, [rng.randrange(-3, 4) for _ in range(t.carrier_dim)], label)


def sharp(t, a, mod):
    """The action of a convolution element on a module's carrier."""
    return Chain(mod.carrier).then(a.at_step(mod.carrier), at=0) \
                             .then(mod.action, at=0).eval()


class TestCentralElementLemma:
    """Centrality is equivalent to module-level linearity of the action."""

    def test_both_directions(self, ks3):
        t = ks3.t
        rng = random.Random(41)
        mods = [random_module(t, rng, 1) for _ in range(3)]
        central = element_of(t, [0, 0, 0, 1, 1, 1], "classsum")
        noncentral = element_of(t, [0, 0, 0, 1, 0, 0], "transp")
        assert is_central(t, central)
        for mod in mods:
            assert is_t_linear(mod, mod, sharp(t, central, mod))
        assert not is_central(t, noncentral)
        # a witness module where the action map is not a module map
        free = free_module(t, t.simple((0, 0)))
        assert not is_t_linear(free, free, sharp(t, noncentral, free))

    def test_random_agreement(self, sweedler):
        t = sweedler.t
        rng = random.Random(43)
        free = free_module(t, t.simple((0, 0)))
        for _ in range(10):
            a = rand_element(t, rng)
            assert is_central(t, a) == is_t_linear(free, free, sharp(t, a, free))


class TestConvolutionMonoid:
    @pytest.mark.parametrize("fixture", ["sweedler", "ks3", "taft3", "dz2"])
    def test_fifty_random_triples(self, fixture, request):
        m = request.getfixturevalue(fixture)
        t = m.t
        rng = random.Random(47)
        eta = eta_element(t)
        for _ in range(50):
            f, g, h = (rand_element(t, rng) for _ in range(3))
            assert convolve(t, convolve(t, f, g), h) == \
                convolve(t, f, convolve(t, g, h))
        f = rand_element(t, rng)
        assert convolve(t, eta, f) == f == convolve(t, f, eta)


class TestAntipodeAntiHom:
    def test_fifty_random_pairs(self, sweedler):
        t, a = sweedler.t, sweedler.antipode
        rng = random.Random(53)
        for _ in range(50):
            f, g = rand_element(t, rng), rand_element(t, rng)
            assert s_map(t, a.sl, convolve(t, f, g)) == \
                convolve(t, s_map(t, a.sl, g), s_map(t, a.sl, f))


class TestDoubleAntipodeLifting:
    """Twisted centrality is equivalent to the action lifting to the
    double dual, on stock modules."""

    def _lifts(self, t, a_data, a, mod):
        s2 = square_of_antipode(t, a_data.sl)
        comp = s2.at(mod.carrier)
        twisted = TModule(t, mod.carrier, mod.action @ comp, check=False)
        return is_t_linear(mod, twisted, sharp(t, a, mod))

    def test_equivalence_on_stock(self, sweedler):
        t, ad = sweedler.t, sweedler.antipode
        s2 = square_of_antipode(t, ad.sl)
        rng = random.Random(59)
        from hopfmonad.cat import GradedObj
        stock = [free_module(t, t.simple((0, 0))),
                 free_module(t, GradedObj.space(t.base, 2, "X")),
                 random_module(t, rng, 2)]
        # the distinguished grouplike is twisted-central, the unit is not
        samples = [element_of(t, [0, 1, 0, 0], "g"), eta_element(t)]
        samples += [rand_element(t, rng) for _ in range(10)]
        seen = set()
        for a in samples:
            twisted_central = left_mult(t, a) == right_mult(t, a).compose(s2)
            seen.add(twisted_central)
            if twisted_central:
                # the action map lifts on every module
                assert all(self._lifts(t, ad, a, mod) for mod in stock)
            else:
                # some stock module detects the failure
                assert not all(self._lifts(t, ad, a, mod) for mod in stock)
        assert seen == {True, False}


class TestAdjointOfGrouplike:
    @pytest.mark.parametrize("fixture", ["sweedler", "taft3", "dz2"])
    def test_is_bimonad_automorphism(self, fixture, request):
        m = request.getfixturevalue(fixture)
        t, a = m.t, m.antipode
        for g in m.grouplikes:
            assert check_grouplike(t, g)
            g_inv = s_map(t, a.sl, g)
            ad = adjoint_action(t, g, g_inv)
            assert check_monad_morphism(ad).passed
            inv = adjoint_action(t, g_inv, g)
            assert ad.compose(inv).is_identity()
