"""Module category: validity, hom spaces, tensors, duals, pullbacks."""

import random

import pytest

from hopfmonad.antipode import square_of_antipode
from hopfmonad.cat import GradedMor, GradedObj, identity
from hopfmonad.exactla import FieldSpec, solve_affine
from hopfmonad.modcat import (
    TModule,
    check_dual_module_duality,
    check_module,
    conservativity_probe,
    dual_module,
    free_module,
    is_t_linear,
    _mor_coords,
    _mor_from_coords,
    module_hom_space,
    pullback_module,
    random_module,
    tensor_modules,
    unit_module,
)
from hopfmonad.monad import TransTT
from hopfmonad.report import Report
from test_monad import identity_trans

Q = FieldSpec.rationals()


def module_section_space(m: TModule) -> list[GradedMor]:
    """Module maps sigma: (M,r) -> (T(M), mu) with r sigma = id: one
    solution over the basis of module_hom_space, then that solution plus
    each vector of the null space."""
    t = m.t
    f = t.base.field
    fm = free_module(t, m.carrier)
    basis = module_hom_space(m, fm)
    if not basis:
        return []
    grades = sorted(m.carrier.grades())
    sol = solve_affine(f, f.concatenate([_mor_coords(m.action @ b, grades) for b in basis],
                                        axis=1),
                       _mor_coords(identity(m.carrier), grades))
    if sol is None:
        return []
    x0, null = sol
    hom_grades = sorted(set(m.carrier.grades()) & set(fm.carrier.grades()))
    coords = f.concatenate([_mor_coords(b, hom_grades) for b in basis], axis=1)
    vecs = f.matmul(coords, f.concatenate([x0, f.reduce(x0 + null)], axis=1))
    return [_mor_from_coords(m.carrier, fm.carrier, v) for v in vecs.T]


class TestValidity:
    def test_free_and_unit(self, sweedler, ks3, disconnected_groupoid):
        for m in (sweedler, ks3, disconnected_groupoid):
            t = m.t
            x = t.simple((0, 0))
            assert check_module(t, free_module(t, x))
            assert check_module(t, free_module(t, t.on_obj(x)))
            assert check_module(t, unit_module(t))

    def test_sweedler_one_dim_modules(self, sweedler):
        t = sweedler.t
        f = t.base.field
        k = GradedObj.space(t.base, 1, "k")
        # counit action
        eps = GradedMor(t.on_obj(k), k, {(0, 0): t.t0.block(0, 0).copy()})
        assert check_module(t, TModule(t, k, eps, check=False))
        # sign action: g -> -1, x -> 0
        sgn = GradedMor(t.on_obj(k), k,
                        {(0, 0): f.asarray([[1, -1, 0, 0]])})
        assert check_module(t, TModule(t, k, sgn, check=False))
        # g -> +1 with x -> 1 is not a module
        bad = GradedMor(t.on_obj(k), k,
                        {(0, 0): f.asarray([[1, 1, 1, 0]])})
        assert not check_module(t, TModule(t, k, bad, check=False))

    def test_random_modules_valid(self, sweedler, taft3, disconnected_groupoid):
        rng = random.Random(3)
        for m in (sweedler, taft3, disconnected_groupoid):
            for _ in range(4):
                assert check_module(m.t, random_module(m.t, rng, 2))


class TestHomSpaces:
    def test_free_forgetful_adjunction(self, sweedler, dz2):
        rng = random.Random(5)
        for m in (sweedler, dz2):
            t = m.t
            for _ in range(3):
                x = GradedObj.space(t.base, rng.randrange(1, 3), "X")
                mod = random_module(t, rng, 2)
                hom = module_hom_space(free_module(t, x), mod)
                assert len(hom) == x.total_dim() * mod.carrier.total_dim()
                for h in hom:
                    assert is_t_linear(free_module(t, x), mod, h)

    def test_unit_hom_one_dimensional(self, sweedler):
        t = sweedler.t
        assert len(module_hom_space(unit_module(t), unit_module(t))) == 1

    def test_identity_in_hom(self, sweedler):
        rng = random.Random(7)
        mod = random_module(sweedler.t, rng, 1)
        hom = module_hom_space(mod, mod)
        span_contains = any(h == identity(mod.carrier) for h in hom)
        # identity is a module map; it lies in the span (solver returns a basis)
        assert is_t_linear(mod, mod, identity(mod.carrier))
        assert len(hom) >= 1
        if not span_contains:
            from hopfmonad.exactla import solve_affine
            f = sweedler.t.base.field
            cols = [h.block(0, 0).ravel().tolist() for h in hom]
            a = f.zeros((len(cols[0]), len(cols)))
            for j, c in enumerate(cols):
                for i, v in enumerate(c):
                    a[i, j] = v
            target = identity(mod.carrier).block(0, 0).ravel().tolist()
            b = f.zeros((len(target), 1))
            for i, v in enumerate(target):
                b[i, 0] = v
            assert solve_affine(f, a, b) is not None


class TestTensor:
    def test_unit_laws(self, sweedler):
        rng = random.Random(9)
        mod = random_module(sweedler.t, rng, 2)
        u = unit_module(sweedler.t)
        left = tensor_modules(u, mod)
        right = tensor_modules(mod, u)
        assert left.action == mod.action and right.action == mod.action

    def test_free_dimensions_multiply(self, sweedler):
        t = sweedler.t
        f1 = free_module(t, GradedObj.space(t.base, 1, "X"))
        both = tensor_modules(f1, f1)
        assert both.carrier.total_dim() == 16
        assert check_module(t, both)

    def test_strict_associativity(self, sweedler, disconnected_groupoid):
        rng = random.Random(11)
        for m in (sweedler, disconnected_groupoid):
            a1 = random_module(m.t, rng, 1)
            a2 = random_module(m.t, rng, 1)
            a3 = random_module(m.t, rng, 1)
            lhs = tensor_modules(tensor_modules(a1, a2), a3)
            rhs = tensor_modules(a1, tensor_modules(a2, a3))
            assert lhs == rhs

    def test_one_dim_product(self, sweedler):
        t = sweedler.t
        f = t.base.field
        k = GradedObj.space(t.base, 1, "k")
        eps = TModule(t, k, GradedMor(t.on_obj(k), k,
                                      {(0, 0): t.t0.block(0, 0).copy()}), check=False)
        sgn = TModule(t, k, GradedMor(t.on_obj(k), k,
                                      {(0, 0): f.asarray([[1, -1, 0, 0]])}),
                      check=False)
        both = tensor_modules(eps, sgn)
        assert both.action.block(0, 0).tolist() == sgn.action.block(0, 0).tolist()


class TestDuals:
    @pytest.mark.parametrize("fixture", ["sweedler", "taft3", "dz2",
                                         "disconnected_groupoid"])
    def test_dual_suite(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rng = random.Random(13)
        rep = Report("duals")
        check_dual_module_duality(m.t, m.antipode, random_module(m.t, rng, 2), rep)
        assert rep.passed, [r.line() for r in rep.failures()]

    def test_unit_self_dual(self, sweedler):
        t = sweedler.t
        du = dual_module(t, sweedler.antipode.sl, unit_module(t))
        assert du.action == unit_module(t).action

    def test_double_dual_via_antipode_square(self, sweedler, taft3):
        rng = random.Random(15)
        for m in (sweedler, taft3):
            mod = random_module(m.t, rng, 2)
            dd = dual_module(m.t, m.antipode.sl,
                             dual_module(m.t, m.antipode.sl, mod))
            s2 = square_of_antipode(m.t, m.antipode.sl)
            comp = s2.at(mod.carrier)
            assert dd.action == mod.action @ comp


class TestPullback:
    def test_identity_pullback(self, sweedler):
        rng = random.Random(17)
        mod = random_module(sweedler.t, rng, 2)
        assert pullback_module(identity_trans(sweedler.t), mod) == mod

    def _quotient(self, sweedler, kz2):
        f = kz2.t.base.field
        block = f.asarray([[1, 0, 0, 0], [0, 1, 0, 0]])
        s = sweedler.t.simple((0, 0))
        comp = GradedMor(sweedler.t.on_obj(s), kz2.t.on_obj(s), {(0, 0): block})
        return TransTT(sweedler.t, kz2.t, {(0, 0): comp}, "quot")

    def test_pullback_of_sign_module(self, sweedler, kz2):
        tr = self._quotient(sweedler, kz2)
        f = kz2.t.base.field
        k = GradedObj.space(kz2.t.base, 1, "k")
        sign = TModule(kz2.t, k, GradedMor(kz2.t.on_obj(k), k,
                                           {(0, 0): f.asarray([[1, -1]])}),
                       check=False)
        pb = pullback_module(tr, sign)
        assert check_module(sweedler.t, pb)
        # x acts by zero, g acts by -1
        assert pb.action.block(0, 0).tolist() == [[1, -1, 0, 0]]

    def test_pullback_strict_monoidal(self, sweedler, kz2):
        tr = self._quotient(sweedler, kz2)
        rng = random.Random(19)
        m1 = random_module(kz2.t, rng, 1)
        m2 = random_module(kz2.t, rng, 2)
        lhs = pullback_module(tr, tensor_modules(m1, m2))
        rhs = tensor_modules(pullback_module(tr, m1), pullback_module(tr, m2))
        assert lhs == rhs


class TestConservativity:
    def test_builders_yes(self, sweedler, ks3_f3, disconnected_groupoid):
        for m in (sweedler, ks3_f3, disconnected_groupoid):
            assert conservativity_probe(m.t)["verdict"] == "yes"

    def test_degenerate_carrier_unknown(self):
        # a carrier grid with a zero row kills a simple; probe reports unknown
        from hopfmonad.cat import BaseSpec
        from hopfmonad.monad import TensoringBimonad
        base = BaseSpec(Q, ("1", "2"))
        a_obj = GradedObj.from_grid(base, [[1, 0], [0, 0]], "A")
        f = base.field
        m = GradedMor(a_obj.tensor(a_obj), a_obj, {(0, 0): f.asarray([[1]])})
        u = GradedMor(GradedObj.unit(base), a_obj, {(0, 0): f.asarray([[1]])})
        t0 = GradedMor(a_obj, GradedObj.unit(base), {(0, 0): f.asarray([[1]])})
        t2 = {}
        for g1 in [(i, j) for i in range(2) for j in range(2)]:
            for g2 in [(g1[1], k) for k in range(2)]:
                s1 = GradedObj.simple(base, *g1)
                s2 = GradedObj.simple(base, *g2)
                src = a_obj.tensor(s1).tensor(s2)
                dst = a_obj.tensor(s1).tensor(a_obj).tensor(s2)
                blocks = {}
                for grade in set(src.grades()) & set(dst.grades()):
                    blk = f.zeros((dst.count(*grade), src.count(*grade)))
                    if blk.shape == (1, 1):
                        blk[0, 0] = f.one
                    blocks[grade] = blk
                t2[(g1, g2)] = GradedMor(src, dst, blocks)
        t = TensoringBimonad(base, a_obj, m, u, t2, t0, name="degenerate")
        out = conservativity_probe(t)
        assert out["verdict"] == "unknown"
        assert "simple" in out["evidence"]


class TestSections:
    def test_group_algebra_sections_exist(self, ks3):
        rng = random.Random(21)
        mod = random_module(ks3.t, rng, 1)
        secs = module_section_space(mod)
        assert secs
        fm = free_module(ks3.t, mod.carrier)
        for s in secs[:2]:
            assert is_t_linear(mod, fm, s)
            assert (mod.action @ s) == identity(mod.carrier)

    def test_sweedler_trivial_module_has_no_section(self, sweedler):
        t = sweedler.t
        k = GradedObj.space(t.base, 1, "k")
        triv = TModule(t, k, GradedMor(t.on_obj(k), k,
                                       {(0, 0): t.t0.block(0, 0).copy()}),
                       check=False)
        assert module_section_space(triv) == []
