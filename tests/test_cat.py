"""Backend categories: strictness, duality and grading tests."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hopfmonad.cat import (
    Atom,
    BaseSpec,
    GradedMor,
    GradedObj,
    _reversed_path,
    _tensor_positions,
    coev_mor,
    coev_right_mor,
    ev_mor,
    ev_right_mor,
    identity,
    left_dual,
    path_index,
    paths,
    right_dual,
    sovereign_phi,
    summand_inclusions,
    tensor_mor,
)
from hopfmonad.exactla import FieldSpec

Q = FieldSpec.rationals()
VEC = BaseSpec.vector(Q)
GR2 = BaseSpec(Q, ("a", "b"))
GR2_F3 = BaseSpec(FieldSpec.prime(3), ("a", "b"))
VEC_F3 = BaseSpec.vector(FieldSpec.prime(3))


def rand_mor(src: GradedObj, dst: GradedObj, rng, span=4) -> GradedMor:
    f = src.base.field
    blocks = {}
    for g in set(src.grades()) & set(dst.grades()):
        rows, cols = dst.count(*g), src.count(*g)
        blocks[g] = f.asarray(
            [[rng.randrange(-span, span + 1) for _ in range(cols)] for _ in range(rows)])
    return GradedMor(src, dst, blocks)


def rand_obj(base: BaseSpec, rng, natoms=None, maxdim=2) -> GradedObj:
    n = rng.randrange(0, 3) if natoms is None else natoms
    L = base.nlabels
    atoms = []
    for k in range(n):
        grid = tuple(tuple(rng.randrange(0, maxdim + 1) for _ in range(L)) for _ in range(L))
        atoms.append(Atom(f"X{k}", grid))
    return GradedObj(base, tuple(atoms))


class TestObjects:
    def test_tensor_dims_vector(self):
        x = GradedObj.space(VEC, 2)
        y = GradedObj.space(VEC, 3)
        assert x.tensor(y).total_dim() == 6

    def test_unit_laws_on_the_nose(self):
        unit = GradedObj.unit(GR2)
        x = GradedObj.from_grid(GR2, [[1, 2], [0, 1]])
        assert x.tensor(unit) == x
        assert unit.tensor(x) == x

    def test_strict_associativity(self):
        rng = random.Random(2)
        x, y, z = (rand_obj(GR2, rng, natoms=1) for _ in range(3))
        assert x.tensor(y).tensor(z) == x.tensor(y.tensor(z))

    def test_simple_products(self):
        s12 = GradedObj.simple(GR2, 0, 1)
        s21 = GradedObj.simple(GR2, 1, 0)
        assert s12.tensor(s21).dims_grid() == GradedObj.simple(GR2, 0, 0).dims_grid()
        assert s12.tensor(s12).is_zero()

    def test_unit_grid_is_diagonal(self):
        assert GradedObj.unit(GR2).dims_grid() == [[1, 0], [0, 1]]

    def test_hand_dims_product(self):
        x = GradedObj.from_grid(GR2, [[1, 2], [3, 0]])
        y = GradedObj.from_grid(GR2, [[0, 1], [2, 1]])
        # matrix product of the count grids
        assert x.tensor(y).dims_grid() == [[4, 3], [0, 3]]


    def test_equal_words_hash_equal(self):
        # each word stores its hash; words built apart still compare and
        # hash alike, and differing ones compare unequal
        a = GradedObj.from_grid(GR2, [[1, 2], [0, 1]], "A")
        x = GradedObj(GR2, a.atoms + a.dual().atoms)
        y = a.tensor(GradedObj.from_grid(GR2, [[1, 2], [0, 1]], "A").dual())
        assert x == y and hash(x) == hash(y)
        assert hash(x.atoms[1]) == hash(Atom("A*", ((1, 0), (2, 1))))
        assert len({x, y, a}) == 2
        assert x != a.tensor(a)
        assert repr(Atom("A", ((1,),))) == "Atom(name='A', dims=((1,),))"

    def test_atoms_and_words_are_frozen(self):
        a = GradedObj.from_grid(GR2, [[1, 2], [0, 1]], "A")
        with pytest.raises(AttributeError):
            a.atoms = ()
        with pytest.raises(AttributeError):
            a.atoms[0].dims = ((0, 0), (0, 0))
        with pytest.raises(AttributeError):
            a._hash = 0


class TestMorphisms:
    def test_identity_tensor(self):
        rng = random.Random(3)
        x, y = rand_obj(GR2, rng, 1), rand_obj(GR2, rng, 1)
        assert tensor_mor(identity(x), identity(y)) == identity(x.tensor(y))

    @pytest.mark.parametrize("base", [VEC, GR2, GR2_F3])
    def test_interchange(self, base):
        rng = random.Random(7)
        for _ in range(12):
            x, x1, x2 = (rand_obj(base, rng, 1) for _ in range(3))
            y, y1, y2 = (rand_obj(base, rng, 1) for _ in range(3))
            f = rand_mor(x1, x2, rng)
            fp = rand_mor(x, x1, rng)
            g = rand_mor(y1, y2, rng)
            gp = rand_mor(y, y1, rng)
            lhs = tensor_mor(f, g) @ tensor_mor(fp, gp)
            rhs = tensor_mor(f @ fp, g @ gp)
            assert lhs == rhs

    def test_tensor_with_zero(self):
        rng = random.Random(5)
        x, y = rand_obj(GR2, rng, 1), rand_obj(GR2, rng, 1)
        z = GradedMor.zero(y, y)
        f = rand_mor(x, x, rng)
        assert tensor_mor(f, z).is_zero()

    def test_tensor_strictly_associative_on_mors(self):
        rng = random.Random(11)
        for base in (VEC, GR2):
            f = rand_mor(rand_obj(base, rng, 1), rand_obj(base, rng, 1), rng)
            g = rand_mor(rand_obj(base, rng, 1), rand_obj(base, rng, 1), rng)
            h = rand_mor(rand_obj(base, rng, 1), rand_obj(base, rng, 1), rng)
            assert tensor_mor(tensor_mor(f, g), h) == tensor_mor(f, tensor_mor(g, h))

    def test_tensor_positions_are_read_only(self):
        # the arrays are cached and shared by every later tensor and chain
        x = GradedObj.from_grid(GR2, [[1, 1], [0, 1]], "x")
        y = GradedObj.from_grid(GR2, [[1, 0], [1, 1]], "y")
        pos = _tensor_positions(x, y, 0, 0)
        assert pos
        for arr in pos.values():
            with pytest.raises(ValueError):
                arr[0] = 5
            with pytest.raises(ValueError):
                arr += 1
        assert _tensor_positions(x, y, 0, 0) is pos

    def test_compose_mismatch(self):
        x = GradedObj.space(VEC, 2)
        y = GradedObj.space(VEC, 3)
        with pytest.raises(Exception):
            identity(x) @ identity(y)


class TestDuality:
    @pytest.mark.parametrize("base", [VEC, GR2, GR2_F3])
    def test_left_zigzags(self, base):
        rng = random.Random(13)
        for _ in range(20):
            x = rand_obj(base, rng)
            ev, cv = ev_mor(x), coev_mor(x)
            lx = x.dual()
            z1 = tensor_mor(identity(x), ev) @ tensor_mor(cv, identity(x))
            z2 = tensor_mor(ev, identity(lx)) @ tensor_mor(identity(lx), cv)
            assert z1 == identity(x)
            assert z2 == identity(lx)

    @pytest.mark.parametrize("base", [VEC, GR2])
    def test_right_zigzags(self, base):
        rng = random.Random(17)
        for _ in range(20):
            x = rand_obj(base, rng)
            ev, cv = ev_right_mor(x), coev_right_mor(x)
            xv = x.dual()
            z1 = tensor_mor(ev, identity(x)) @ tensor_mor(identity(x), cv)
            z2 = tensor_mor(identity(xv), ev) @ tensor_mor(cv, identity(xv))
            assert z1 == identity(x)
            assert z2 == identity(xv)

    def test_dual_of_simple(self):
        s = GradedObj.simple(GR2, 0, 1)
        assert s.dual().dims_grid() == GradedObj.simple(GR2, 1, 0).dims_grid()
        ev, cv = ev_mor(s), coev_mor(s)
        assert tensor_mor(identity(s), ev) @ tensor_mor(cv, identity(s)) == identity(s)

    def test_double_dual_is_identity(self):
        rng = random.Random(19)
        for base in (VEC, GR2):
            x = rand_obj(base, rng)
            assert x.dual().dual() == x
            assert sovereign_phi(x) == identity(x)

    def test_dual_reverses_tensor(self):
        rng = random.Random(23)
        x, y = rand_obj(GR2, rng, 1), rand_obj(GR2, rng, 1)
        assert x.tensor(y).dual() == y.dual().tensor(x.dual())

    def test_ldual_unequal_atom_dims(self):
        # regression: the reversal permutation is not an involution here
        rng = random.Random(61)
        x = GradedObj(VEC, (Atom("a", ((3,),)), Atom("b", ((2,),))))
        y = GradedObj(VEC, (Atom("c", ((2,),)), Atom("d", ((4,),))))
        f = rand_mor(x, y, rng)
        lf = f.ldual()
        lhs = ev_mor(x) @ tensor_mor(lf, identity(x))
        rhs = ev_mor(y) @ tensor_mor(identity(y.dual()), f)
        assert lhs == rhs
        assert lf.ldual() == f

    @pytest.mark.parametrize("base", [VEC, GR2])
    def test_ldual_contravariant(self, base):
        rng = random.Random(29)
        for _ in range(8):
            x, y, z = (rand_obj(base, rng, 1) for _ in range(3))
            f = rand_mor(x, y, rng)
            g = rand_mor(y, z, rng)
            assert (g @ f).ldual() == f.ldual() @ g.ldual()
            assert f.ldual().ldual() == f

    @pytest.mark.parametrize("base", [VEC, GR2])
    def test_ldual_of_tensor(self, base):
        rng = random.Random(31)
        for _ in range(6):
            f = rand_mor(rand_obj(base, rng, 1), rand_obj(base, rng, 1), rng)
            g = rand_mor(rand_obj(base, rng, 1), rand_obj(base, rng, 1), rng)
            assert tensor_mor(f, g).ldual() == tensor_mor(g.ldual(), f.ldual())

    @pytest.mark.parametrize("base", [VEC, GR2])
    def test_dual_via_evaluation(self, base):
        # ldual(f) is the unique g with ev (g ⊗ id) = ev (id ⊗ f)
        rng = random.Random(37)
        for _ in range(6):
            x, y = rand_obj(base, rng, 1), rand_obj(base, rng, 1)
            f = rand_mor(x, y, rng)
            lf = f.ldual()
            lhs = ev_mor(x) @ tensor_mor(lf, identity(x))
            rhs = ev_mor(y) @ tensor_mor(identity(y.dual()), f)
            assert lhs == rhs

    def test_phi_monoidal(self):
        rng = random.Random(41)
        x, y = rand_obj(GR2, rng, 1), rand_obj(GR2, rng, 1)
        assert sovereign_phi(x.tensor(y)) == tensor_mor(sovereign_phi(x), sovereign_phi(y))

    def test_phi_natural(self):
        rng = random.Random(43)
        x, y = rand_obj(GR2, rng, 1), rand_obj(GR2, rng, 1)
        f = rand_mor(x, y, rng)
        # double dual of f equals f, so the naturality square commutes
        assert f.ldual().ldual() @ sovereign_phi(x) == sovereign_phi(y) @ f

    def test_left_right_dual_objects_agree(self):
        rng = random.Random(47)
        x = rand_obj(GR2, rng)
        assert left_dual(x)["obj"] == right_dual(x)["obj"]
        # canonical maps X -> ldual(rdual X) etc. are identities
        assert x.dual().dual() == x


def enumerated_pairing_row(x: GradedObj, dual_first: bool) -> list:
    """Pairing row of the standard dual bases of a one-label word, built by
    enumerating the paths of x and their reversals in dual(x)."""
    word = x.dual().tensor(x) if dual_first else x.tensor(x.dual())
    row = [0] * word.count(0, 0)
    idx = path_index(word, 0, 0)
    for p in paths(x, 0, 0):
        dp = _reversed_path(p, 0)
        row[idx[dp + p if dual_first else p + dp]] = 1
    return row


class TestOneLabelPairing:
    @pytest.mark.parametrize("base", [VEC, BaseSpec.vector(FieldSpec.prime(3))])
    @pytest.mark.parametrize("dims", [(2, 3), (1, 4, 2), (1,), ()])
    def test_matches_path_enumeration(self, base, dims):
        x = GradedObj(base, tuple(Atom(f"X{k}", ((d,),)) for k, d in enumerate(dims)))
        for dual_first, ev, coev in ((True, ev_mor, coev_right_mor),
                                     (False, ev_right_mor, coev_mor)):
            row = enumerated_pairing_row(x, dual_first)
            e, c = ev(x), coev(x)
            assert e.dst == c.src == GradedObj.unit(base)
            assert e.src == c.dst
            assert e.block(0, 0).tolist() == [row]
            assert c.block(0, 0).tolist() == [[v] for v in row]


class TestCompleteness:
    def test_summand_decomposition(self):
        rng = random.Random(53)
        for base in (VEC, GR2):
            x = rand_obj(base, rng, 2)
            total = GradedMor.zero(x, x)
            for _, inc, proj in summand_inclusions(x):
                total = total + inc @ proj
            assert total == identity(x)

    def test_disagreement_at_one_simple_detected(self):
        # two maps equal on all simples but one are distinguished
        x = GradedObj.from_grid(GR2, [[1, 0], [0, 1]])
        f = identity(x)
        blocks = {g: x.base.field.eye(x.count(*g)) for g in x.grades()}
        blocks[(1, 1)] = x.base.field.asarray([[2]])
        g = GradedMor(x, x, blocks)
        diffs = [grade for grade, inc, proj in summand_inclusions(x)
                 if not (proj @ (f - g) @ inc).is_zero()]
        assert diffs == [(1, 1)]


class TestEvCoevGraded:
    def test_ev_coev_block_content(self):
        s = GradedObj.simple(GR2, 0, 1)
        ev = ev_mor(s)
        # pairing lands in grade (1,1) of the unit
        assert ev.block(1, 1).shape == (1, 1)
        assert ev.block(1, 1)[0, 0] == Fraction(1)
        cv = coev_mor(s)
        assert cv.block(0, 0).shape == (1, 1)


class TestEquality:
    """`==` compares blocks structurally; it must agree with the difference
    being zero, on both fields and both backends."""

    @pytest.mark.parametrize("base", [VEC, GR2, VEC_F3, GR2_F3])
    def test_agrees_with_zero_difference(self, base):
        rng = random.Random(61)
        equal = 0
        for _ in range(60):
            src, dst = rand_obj(base, rng, 1), rand_obj(base, rng, 1)
            x = rand_mor(src, dst, rng, span=1)
            # an equal copy with one entry perturbed half of the time
            blocks = {g: m.copy() for g, m in x.blocks.items()}
            if blocks and rng.random() < 0.5:
                m = blocks[rng.choice(sorted(blocks))]
                m.flat[rng.randrange(m.size)] += base.field.one
                m[...] = base.field.reduce(m)
            y = GradedMor(src, dst, blocks)
            assert (x == y) == (x - y).is_zero() == (x + (-y)).is_zero()
            assert (y == x) == (x == y)
            equal += x == y
        assert 0 < equal < 60

    @pytest.mark.parametrize("base", [VEC, GR2, GR2_F3])
    def test_absent_block_reads_as_zero(self, base):
        x = GradedObj.from_grid(base, [[1] * base.nlabels] * base.nlabels)
        zero = GradedMor.zero(x, x)
        explicit = GradedMor(x, x, {g: base.field.zeros((x.count(*g),) * 2)
                                    for g in x.grades()})
        one = identity(x)
        absent = identity(x)
        g = x.grades()[0]
        del absent.blocks[g]
        assert zero == explicit and explicit == zero
        assert absent != one and one != absent
        diff = one - absent
        assert diff.block(*g).tolist() == base.field.eye(1).tolist()
        assert not diff.is_zero() and (absent - absent).is_zero()
        del zero.blocks[g]
        assert zero == explicit and explicit == zero
        assert (explicit - zero).is_zero() and (zero - explicit).is_zero()
