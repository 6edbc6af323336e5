"""Antipode axioms, derived identities, squares, sovereign elements."""

import random

import pytest

from classical import Classical
from hopfmonad import presentation, zoo
from hopfmonad.antipode import (
    check_antipode_inverse,
    check_left_antipode,
    check_right_antipode,
    check_s_map_laws,
    check_sovereign_element,
    check_square_automorphism,
    derived_identity_suite,
    is_involutory,
    s_map,
    square_of_antipode,
)
from hopfmonad.exactla import FieldSpec
from hopfmonad.monad import adjoint_action, check_grouplike, convolve, eta_element
from test_monad import element_of

Q = FieldSpec.rationals()

HOPF_FIXTURES = ["trivial", "kz2", "sweedler", "ks3", "ks3_f3", "taft3",
                 "dz2", "disconnected_groupoid", "one_object_z2"]


def rand_element(t, rng, label="f"):
    return element_of(
        t, [rng.randrange(-3, 4) for _ in range(t.carrier_dim)], label)


@pytest.mark.parametrize("fixture", HOPF_FIXTURES)
class TestAxiomsAndDerived:
    def test_axioms(self, fixture, request):
        m = request.getfixturevalue(fixture)
        assert check_left_antipode(m.t, m.antipode).passed
        assert check_right_antipode(m.t, m.antipode).passed

    def test_derived_suite(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rep = derived_identity_suite(m.t, m.antipode)
        assert rep.passed, [r.line() for r in rep.failures()]

    def test_inverse_proposition(self, fixture, request):
        m = request.getfixturevalue(fixture)
        assert check_antipode_inverse(m.t, m.antipode).passed

    def test_square_is_automorphism(self, fixture, request):
        m = request.getfixturevalue(fixture)
        s2 = square_of_antipode(m.t, m.antipode.sl)
        assert check_square_automorphism(m.t, m.antipode, s2).passed


class TestClassicalEquivalence:
    """The component-level axioms hold exactly when the element-level
    antipode equations do, for arbitrary candidate matrices."""

    def test_left_axiom_iff_classical(self, sweedler):
        from hopfmonad.antipode import AntipodeData
        from hopfmonad.presentation import _antipode_component
        import random

        t = sweedler.t
        f = t.base.field
        n = t.carrier_dim
        oracle = Classical(zoo.build_sweedler(Q))
        rng = random.Random(67)
        candidates = [oracle.s.tolist()]
        for _ in range(12):
            candidates.append([[rng.randrange(-1, 2) for _ in range(n)]
                               for _ in range(n)])
        verdicts = set()
        for s_rows in candidates:
            s_coerced = [[f.coerce(x) for x in row] for row in s_rows]
            a_data = AntipodeData(
                t, sl={(0, 0): _antipode_component(t, f.asarray(s_coerced))})
            axiom = check_left_antipode(t, a_data).passed
            # S(first leg) * second leg == unit * counit, elementwise
            classical = oracle.antipode_laws(oracle.array(s_rows))["s_first_leg"]
            assert axiom == classical
            verdicts.add(axiom)
        assert verdicts == {True, False}


class TestMutations:
    def test_wrong_sign_antipode_fails(self):
        pres = zoo.build_sweedler(Q, name="sweedler_badS")
        # S(x) = +gx instead of -gx
        pres["antipode"]["element"][3][2] = "1"
        del pres["antipode"]["element_inverse"]
        bad = presentation.load(pres)
        rep = check_left_antipode(bad.t, bad.antipode)
        assert not rep.passed
        assert rep.failures()[0].witness is not None

    def test_mismatched_sides_fail_inversion(self, sweedler):
        from hopfmonad.antipode import AntipodeData
        # use S on both sides: valid left antipode, wrong right inverse
        a = AntipodeData(sweedler.t, sl=sweedler.antipode.sl.comps,
                         sr=sweedler.antipode.sl.comps)
        assert check_left_antipode(sweedler.t, a).passed
        assert not check_antipode_inverse(sweedler.t, a).passed


class TestElementLevel:
    def test_sweedler_classical_antipode(self, sweedler):
        t, a = sweedler.t, sweedler.antipode
        g = element_of(t, [0, 1, 0, 0], "g")
        x = element_of(t, [0, 0, 1, 0], "x")
        assert s_map(t, a.sl, g) == g
        assert s_map(t, a.sl, x) == element_of(t, [0, 0, 0, -1], "-gx")

    def test_antipode_of_unit(self, sweedler):
        t, a = sweedler.t, sweedler.antipode
        assert s_map(t, a.sl, eta_element(t)) == eta_element(t)

    @pytest.mark.parametrize("fixture", ["sweedler", "ks3", "taft3", "dz2"])
    def test_element_laws(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rng = random.Random(21)
        samples = [rand_element(m.t, rng) for _ in range(4)]
        s2 = square_of_antipode(m.t, m.antipode.sl)
        rep = check_s_map_laws(m.t, m.antipode, s2, samples)
        assert rep.passed, [r.line() for r in rep.failures()]

    def test_grouplike_inverse_via_antipode(self, taft3):
        t, a = taft3.t, taft3.antipode
        for g in t and taft3.grouplikes:
            assert check_grouplike(t, g)
            g_inv = s_map(t, a.sl, g)
            assert convolve(t, g, g_inv) == eta_element(t)
            assert convolve(t, g_inv, g) == eta_element(t)


class TestSquare:
    def test_group_algebra_involutory(self, ks3, kz2):
        for m in (ks3, kz2):
            s2 = square_of_antipode(m.t, m.antipode.sl)
            assert is_involutory(m.t, m.antipode, s2)
            assert s2.is_identity()

    def test_sweedler_square_is_conjugation(self, sweedler):
        t, a = sweedler.t, sweedler.antipode
        s2 = square_of_antipode(t, a.sl)
        g = element_of(t, [0, 1, 0, 0], "g")
        assert s2 == adjoint_action(t, g, g)
        assert not s2.is_identity()
        assert s2.compose(s2).is_identity()
        assert not is_involutory(t, a, s2)

    def test_taft_square_order(self, taft3):
        t, a = taft3.t, taft3.antipode
        s2 = square_of_antipode(t, a.sl)
        g = taft3.grouplikes[1]
        g_inv = s_map(t, a.sl, g)
        # classically the double antipode conjugates by the inverse grouplike
        assert s2 == adjoint_action(t, g_inv, g)
        assert check_sovereign_element(t, a, g_inv)
        # the double antipode has the order of g, namely 3
        s4 = s2.compose(s2)
        s6 = s4.compose(s2)
        assert not s2.is_identity() and not s4.is_identity()
        assert s6.is_identity()

    def test_inverse_square_formula(self, sweedler, taft3):
        for m in (sweedler, taft3):
            s2 = square_of_antipode(m.t, m.antipode.sl)
            s2i = square_of_antipode(m.t, m.antipode.sr)
            assert s2.compose(s2i).is_identity()
            assert s2i.compose(s2).is_identity()


class TestSovereign:
    def test_involutory_unit_sovereign(self, ks3):
        assert check_sovereign_element(ks3.t, ks3.antipode, eta_element(ks3.t))

    def test_sweedler_sovereign(self, sweedler):
        t, a = sweedler.t, sweedler.antipode
        g = element_of(t, [0, 1, 0, 0], "g")
        assert check_sovereign_element(t, a, g)
        assert not check_sovereign_element(t, a, eta_element(t))

    def test_non_grouplike_rejected(self, sweedler):
        t, a = sweedler.t, sweedler.antipode
        x = element_of(t, [0, 0, 1, 0], "x")
        assert not check_sovereign_element(t, a, x)
