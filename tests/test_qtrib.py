"""R-matrices, braidings, Drinfeld elements, twists."""

import dataclasses
import random
from fractions import Fraction

import pytest

from classical import Classical
from hopfmonad import presentation, qtrib, verify, zoo
from hopfmonad.antipode import is_involutory, square_of_antipode
from hopfmonad.cat import GradedMor, GradedObj, coev_mor, ev_mor
from hopfmonad.chain import Chain
from hopfmonad.cli import main
from hopfmonad.exactla import FieldSpec, solve_affine
from hopfmonad.modcat import TModule, dual_module, free_module, random_module
from hopfmonad.monad import (Element, PairFamily, adjoint_action, check_grouplike,
                             eta_element)
from test_monad import element_of
from hopfmonad.qtrib import (
    braiding_on_modules,
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
from hopfmonad.report import Report
from hopfmonad.verify import verify_model

Q = FieldSpec.rationals()


@pytest.fixture(scope="module")
def ks3_r():
    # cocommutative, noncommutative, with the trivial exchange element
    return presentation.load(
        zoo.build_group_algebra(zoo.symmetric3_table(), Q, "kS3_R",
                                with_rmatrix=True))


QT_FIXTURES = ["kz2", "dz2", "dz2_f3"]


def r_inverse(m):
    return star_inverse_of_r(m.t, m.antipode, m.rmatrix)


def drinfeld_pair(m):
    return (drinfeld_element(m.t, m.antipode, m.rmatrix),
            drinfeld_inverse(m.t, m.antipode, r_inverse(m)))


def solved_drinfeld_inverse(t, a, r):
    """Reference u⁻¹ by linear algebra: form the braiding τ of the dual free
    module with the free module M = T(S), solve τx = coev_M one grade at a
    time, and close x with the unit and the evaluation of M∨.  None when a
    block of τ is not invertible."""
    f = t.base.field
    comps = {}
    for g in t.simples():
        s = t.simple(g)
        fm = free_module(t, s)
        m_word = fm.carrier
        tau = braiding_on_modules(t, r, dual_module(t, a.sl, fm), fm)
        coev = coev_mor(m_word)
        blocks = {}
        for grade in tau.blocks:
            sol = solve_affine(f, tau.block(*grade), coev.block(*grade))
            if sol is None or sol[1].shape[1]:
                return None
            blocks[grade] = sol[0]
        n = len(m_word.atoms)
        ch = Chain(s) \
            .then(t.u, at=0) \
            .then(GradedMor(coev.src, tau.src, blocks), at=n) \
            .then(ev_mor(m_word.dual()), at=0)
        comps[g] = ch.eval()
    return Element(t, comps, "u^-1")


@pytest.mark.parametrize("fixture", QT_FIXTURES)
class TestRMatrix:
    def test_axioms(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rep = check_rmatrix(m.t, m.rmatrix, r_inverse(m))
        assert rep.passed, [x.line() for x in rep.failures()]

    def test_dual_laws(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rep = check_r_dual_laws(m.t, m.antipode, m.rmatrix)
        assert rep.passed, [x.line() for x in rep.failures()]


class TestRMatrixMutations:
    def test_perturbed_entry_caught(self, dz2):
        pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), Q, "bad")
        pres["rmatrix"]["element"][1][1] = "1"  # extra term
        bad = presentation.load(pres)
        rep = check_rmatrix(bad.t, bad.rmatrix, r_inverse(bad))
        assert not rep.passed
        assert any(x.check.startswith("rmatrix.") and x.witness is not None
                   for x in rep.failures())

    def test_noncocommutative_trivial_r_fails(self, sweedler):
        f = sweedler.t.base.field
        r = [[f.zero] * 4 for _ in range(4)]
        r[0][0] = f.one
        from hopfmonad.monad import PairFamily
        s = sweedler.t.simple((0, 0))
        block = f.zeros((16, 1))
        block[0, 0] = f.one
        comp = GradedMor(s.tensor(s),
                         sweedler.t.on_obj(s).tensor(sweedler.t.on_obj(s)),
                         {(0, 0): block})
        fam = PairFamily(sweedler.t, {((0, 0), (0, 0)): comp}, "R")
        rep = check_rmatrix(sweedler.t, fam,
                            star_inverse_of_r(sweedler.t, sweedler.antipode, fam))
        assert not rep.passed


class TestDrinfeld:
    @pytest.mark.parametrize("fixture", QT_FIXTURES)
    def test_identity_suite(self, fixture, request):
        m = request.getfixturevalue(fixture)
        u, u_inv = drinfeld_pair(m)
        rep = check_drinfeld(m.t, u, r_inverse(m), u_inv,
                             square_of_antipode(m.t, m.antipode.sl),
                             classical=m.meta.get("classical_drinfeld"))
        assert rep.passed, [x.line() for x in rep.failures()]

    def test_trivial_r_gives_unit(self, kz2):
        u = drinfeld_element(kz2.t, kz2.antipode, kz2.rmatrix)
        assert u == eta_element(kz2.t)

    def test_classical_formula_against_structure_constants(self, dz2):
        got = drinfeld_element(dz2.t, dz2.antipode, dz2.rmatrix)
        # u = Σ S(r₂) r₁ from the structure constants
        want = Classical(zoo.build_drinfeld_double_group(
            zoo.cyclic_group_table(2), Q, "DZ2")).drinfeld_element()
        assert got == element_of(dz2.t, want.tolist(), "d")

    def test_square_is_conjugation_by_u(self, dz2):
        u, ui = drinfeld_pair(dz2)
        assert square_of_antipode(dz2.t, dz2.antipode.sl) == \
            adjoint_action(dz2.t, u, ui)


@pytest.fixture(scope="module")
def double_z5_f11():
    return presentation.load(zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(5), FieldSpec.prime(11), "double_z5_f11"))


@pytest.fixture(scope="module")
def double_s3_f7():
    return presentation.load(zoo.build_drinfeld_double_group(
        zoo.symmetric3_table(), FieldSpec.prime(7), "double_s3_f7"))


class TestDrinfeldInverseReference:
    """u⁻¹ through R⁻¹ equals u⁻¹ solved from the braiding it inverts."""

    @pytest.mark.parametrize("fixture", QT_FIXTURES + [
        "double_z5_f11", pytest.param("double_s3_f7", marks=pytest.mark.long)])
    def test_equals_solved(self, fixture, request):
        m = request.getfixturevalue(fixture)
        want = solved_drinfeld_inverse(m.t, m.antipode, m.rmatrix)
        assert want is not None and drinfeld_pair(m)[1] == want

    def test_no_row_reduction(self, dz2, monkeypatch):
        r_inv = r_inverse(dz2)
        calls = []
        rref = FieldSpec.rref

        def counted(self, a):
            calls.append(a.shape)
            return rref(self, a)

        monkeypatch.setattr(FieldSpec, "rref", counted)
        drinfeld_inverse(dz2.t, dz2.antipode, r_inv)
        assert calls == []


class TestBraiding:
    @pytest.mark.parametrize("fixture", QT_FIXTURES)
    def test_suite_on_random_modules(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rng = random.Random(23)
        mods = [random_module(m.t, rng, 1) for _ in range(3)]
        rep = check_braiding(m.t, m.rmatrix, r_inverse(m), mods)
        assert rep.passed, [x.line() for x in rep.failures()]

    def test_unit_module_braids_trivially(self, dz2):
        from hopfmonad.modcat import unit_module, free_module
        t = dz2.t
        um = unit_module(t)
        fm = free_module(t, GradedObj.space(t.base, 1, "X"))
        tau = braiding_on_modules(t, dz2.rmatrix, um, fm)
        from hopfmonad.cat import identity
        assert tau == identity(fm.carrier)

    def _onedim_module(self, t, flag, char_sign):
        # modules of the 4-dim double: a grading flag and a sign character
        f = t.base.field
        k = GradedObj.space(t.base, 1, "k")
        row = f.zeros((1, 4))
        for h in range(2):
            for g in range(2):
                if h == flag:
                    row[0, h * 2 + g] = f.coerce(char_sign ** g)
        return TModule(t, k, GradedMor(t.on_obj(k), k, {(0, 0): row}))

    def test_genuinely_braided_pair(self, dz2):
        # odd flag with a sign character: the double braiding is -1
        t = dz2.t
        m = self._onedim_module(t, flag=1, char_sign=-1)
        n = self._onedim_module(t, flag=1, char_sign=1)
        tau_mn = braiding_on_modules(t, dz2.rmatrix, m, n)
        tau_nm = braiding_on_modules(t, dz2.rmatrix, n, m)
        double = tau_nm @ tau_mn
        assert double.block(0, 0)[0, 0] == Fraction(-1)

    def test_symmetric_for_group_algebra(self, kz2):
        rng = random.Random(29)
        m = random_module(kz2.t, rng, 1)
        n = random_module(kz2.t, rng, 1)
        tau_mn = braiding_on_modules(kz2.t, kz2.rmatrix, m, n)
        tau_nm = braiding_on_modules(kz2.t, kz2.rmatrix, n, m)
        from hopfmonad.cat import identity
        assert tau_nm @ tau_mn == identity(m.carrier.tensor(n.carrier))


class TestTwist:
    @pytest.mark.parametrize("fixture", QT_FIXTURES)
    def test_presented_twist(self, fixture, request):
        m = request.getfixturevalue(fixture)
        th, thi = m.twist
        rep = check_twist(m.t, m.antipode, m.rmatrix, th, thi)
        assert rep.passed, [x.line() for x in rep.failures()]
        assert rep.find("twist.self_dual").status == "pass"

    def test_unit_twist_for_trivial_r(self, kz2):
        eta = eta_element(kz2.t)
        rep = check_twist(kz2.t, kz2.antipode, kz2.rmatrix, eta, eta)
        assert rep.passed

    def test_noncentral_candidate_fails(self, ks3_r):
        t = ks3_r.t
        g = element_of(t, [0, 0, 0, 1, 0, 0], "transposition")
        rep = check_twist(t, ks3_r.antipode, ks3_r.rmatrix, g, g)
        assert rep.find("twist.central").status == "fail"

    @pytest.mark.parametrize("fixture", QT_FIXTURES)
    def test_sovereign_element(self, fixture, request):
        m = request.getfixturevalue(fixture)
        th, thi = m.twist
        u = drinfeld_element(m.t, m.antipode, m.rmatrix)
        s2 = square_of_antipode(m.t, m.antipode.sl)
        g, rep = sovereign_from_twist(m.t, m.antipode, u, s2, th, thi)
        assert rep.passed, [x.line() for x in rep.failures()]
        assert check_grouplike(m.t, g)

    @pytest.mark.parametrize("fixture", QT_FIXTURES)
    def test_inverse_canonical_element_as_twist(self, fixture, request):
        m = request.getfixturevalue(fixture)
        involutory = is_involutory(m.t, m.antipode,
                                   square_of_antipode(m.t, m.antipode.sl))
        rep = check_inverse_drinfeld_twist(m.t, m.antipode, m.rmatrix, involutory,
                                           *drinfeld_pair(m))
        assert rep.passed


class TestYangBaxterEquivalence:
    @pytest.mark.parametrize("fixture", QT_FIXTURES)
    def test_monad_level_iff_module_level(self, fixture, request):
        # both routes must give the same verdict
        m = request.getfixturevalue(fixture)
        rep = check_rmatrix(m.t, m.rmatrix, r_inverse(m))
        yb = rep.find("rmatrix.yang_baxter").status == "pass"
        rng = random.Random(31)
        mods = [random_module(m.t, rng, 1) for _ in range(3)]
        braid = Report("braid")
        check_braiding(m.t, m.rmatrix, r_inverse(m), mods, braid)
        assert yb == (braid.find("braiding.braid_relation").status == "pass")


class TestMissingInverses:
    """The checks take the inverses as arguments; None stands for absent."""

    def test_drinfeld_without_inverse(self, dz2):
        t, a, r = dz2.t, dz2.antipode, dz2.rmatrix
        u = drinfeld_element(t, a, r)
        rep = check_drinfeld(t, u, r_inverse(dz2), None, square_of_antipode(t, a.sl))
        res = rep.find("drinfeld.inverse")
        assert res.status == "fail" and res.note == qtrib.NO_R_INVERSE
        res = rep.find("drinfeld.square_of_antipode")
        assert res.status == "skip" and res.note == "needs the two-sided inverse of u"
        rep = check_inverse_drinfeld_twist(t, a, r, True, u, None)
        res = rep.find("twist.from_inverse")
        assert res.status == "fail" and res.note == qtrib.NO_R_INVERSE
        rep = check_inverse_drinfeld_twist(t, a, r, False, u, None)
        assert rep.find("twist.from_inverse").status == "skip"

    def test_zero_r_has_no_drinfeld_inverse(self, dz2):
        # R = 0 has no convolution inverse, so u⁻¹ is not built and the
        # report says why
        zero = PairFamily(dz2.t, {}, "0")
        rep = verify_model(dataclasses.replace(dz2, rmatrix=zero),
                           checks=("quasitriangular",))
        assert rep.find("rmatrix.star_inverse_left").status == "fail"
        res = rep.find("drinfeld.inverse")
        assert res.status == "fail" and res.note == qtrib.NO_R_INVERSE

    def test_wrong_r_inverse_gates_drinfeld_inverse(self, dz2, monkeypatch, capsys):
        # an R⁻¹ that fails its convolution-inverse checks is never used to
        # build u⁻¹: both checks that read u⁻¹ fail with the gate's note
        build = qtrib.star_inverse_of_r

        def doubled(t, a, r):
            r_inv = build(t, a, r)
            return PairFamily(t, {k: c.scale(2) for k, c in r_inv.comps.items()},
                              r_inv.label)

        def unreachable(*args):
            raise AssertionError("u⁻¹ built from an R⁻¹ that failed its checks")

        monkeypatch.setattr(verify, "star_inverse_of_r", doubled)
        monkeypatch.setattr(verify, "drinfeld_inverse", unreachable)
        rep = verify_model(dz2, checks=("quasitriangular",))
        assert rep.find("rmatrix.star_inverse_left").status == "fail"
        for check in ("drinfeld.inverse", "twist.from_inverse"):
            res = rep.find(check)
            assert res.status == "fail" and res.note == qtrib.NO_R_INVERSE
        assert main(["verify", "double_z2", "--checks", "quasitriangular"]) == 1
        out = capsys.readouterr()
        assert f"FAIL drinfeld.inverse [{qtrib.NO_R_INVERSE}]" in out.out
        assert "Traceback" not in out.out + out.err

    def test_rmatrix_without_convolution_inverse(self, dz2):
        rep = check_rmatrix(dz2.t, dz2.rmatrix, None)
        assert rep.passed
        assert rep.find("rmatrix.star_inverse_left").status == "skip"
        assert rep.find("rmatrix.star_inverse_right") is None
        rng = random.Random(23)
        mods = [random_module(dz2.t, rng, 1) for _ in range(3)]
        rep = check_braiding(dz2.t, dz2.rmatrix, None, mods)
        assert rep.passed
        assert rep.find("braiding.mirror_is_inverse") is None
        assert rep.find("braiding.braid_relation").status == "pass"
