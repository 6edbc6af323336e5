"""Backend categories: strictness, duality and grading tests."""

import ast
import copy
import gc
import operator
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfmonad import cat, exactla, presentation, zoo
from hopfmonad.cat import (
    Atom,
    BaseSpec,
    GradedMor,
    GradedObj,
    _perm_to_dual,
    coev_mor,
    coev_right_mor,
    ev_mor,
    ev_right_mor,
    identity,
    positions,
)
from hopfmonad import chain
from hopfmonad.exactla import ExactError, FieldSpec, SparseTensor
from hopfmonad.verify import verify_model
from pathref import _reversed_path, enumerated_pairing_row, flat_position, path_index, paths
from test_chain import LAYOUTS, _tensor_positions, summand_inclusions, tensor_mor

Q = FieldSpec.rationals()
VEC = BaseSpec.vector(Q)
GR2 = BaseSpec(Q, ("a", "b"))
GR2_F3 = BaseSpec(FieldSpec.prime(3), ("a", "b"))
VEC_F3 = BaseSpec.vector(FieldSpec.prime(3))
VEC_F7 = BaseSpec.vector(FieldSpec.prime(7))


def sovereign_phi(x: GradedObj) -> GradedMor:
    """The canonical identification of x with its double left dual.

    Words dualize by reversing and dualizing atoms, and atom duals are
    involutive, so the double dual is literally x and phi is the identity.
    """
    if x.dual().dual() is not x:
        raise ExactError(f"the double dual of {x!r} is not the word itself")
    return GradedMor.identity(x)


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


class TestInterning:
    """One live atom per (name, grid) and one live word per (base, atoms)."""

    def test_built_apart_are_the_same_object(self):
        a = Atom("A", ((1, 2), (0, 1)))
        assert Atom("A", ((1, 2), (0, 1))) is a
        x = GradedObj.from_grid(GR2, [[1, 2], [0, 1]], "A")
        assert x.atoms[0] is a
        # an equal base built apart finds the same word
        assert GradedObj(BaseSpec(Q, ("a", "b")), (a,)) is x
        assert x.tensor(x) is GradedObj(GR2, (a, a))
        assert GradedObj.simple(GR2, 0, 1) is GradedObj.simple(GR2, 0, 1)
        assert GradedObj.unit(VEC) is GradedObj.unit(BaseSpec.vector(Q))
        assert GradedObj(GR2, (a,)) is not GradedObj(GR2_F3, (a,))

    def test_hashes_are_pinned(self):
        # the same values as plain tuples of the fields, so set orders and
        # with them the reports cannot drift
        rng = random.Random(3)
        for base in (VEC, GR2, GR2_F3):
            assert hash(base) == hash((base.field, base.labels))
            for _ in range(10):
                w = rand_obj(base, rng)
                assert hash(w) == hash((w.base, w.atoms))
                for a in w.atoms:
                    assert hash(a) == hash((a.name, a.dims))

    def test_double_dual_is_the_word(self):
        rng = random.Random(5)
        for base in (VEC, GR2):
            for _ in range(10):
                x = rand_obj(base, rng)
                assert x.dual().dual() is x
                assert x.dual() is x.dual()
                for a in x.atoms:
                    assert a.dual().dual() is a

    def test_sovereign_phi_raises_on_a_non_involutive_name(self):
        # "A**" dualizes to "A*", whose dual is "A": not the word itself
        x = GradedObj(VEC, (Atom("A**", ((1,),)),))
        with pytest.raises(ExactError):
            sovereign_phi(x)

    def test_frozen_slots(self):
        x = GradedObj.from_grid(GR2, [[1, 2], [0, 1]], "A")
        for obj in (x, x.atoms[0], x.dual()):
            for name in ("_hash", "_dual", *type(obj).__slots__):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
            with pytest.raises(AttributeError):
                obj.other = 1

    def test_copies_are_the_interned_object(self):
        x = GradedObj.from_grid(GR2, [[1, 2], [0, 1]], "A").tensor(
            GradedObj.simple(GR2, 1, 0))
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.deepcopy(x.atoms[0]) is x.atoms[0]

    def test_table_holds_only_live_words(self):
        # a field no other test uses, so no other live word shares the base
        f = FieldSpec.prime(10007)
        model = presentation.load(zoo.build_disconnected_groupoid(f))
        assert verify_model(model, checks=("axioms",)).passed
        t = model.t
        word = t.on_obj(t.on_obj(t.simple((0, 1))))
        ref = weakref.ref(word)
        assert any(w.base.field == f for w in cat._WORDS.values())
        del model, t, word
        gc.collect()
        assert ref() is None
        assert not any(w.base.field == f for w in cat._WORDS.values())


class TestMorphisms:
    def test_identity_tensor(self):
        rng = random.Random(3)
        x, y = rand_obj(GR2, rng, 1), rand_obj(GR2, rng, 1)
        assert tensor_mor(identity(x), identity(y)) == identity(x.tensor(y))

    def test_identity_tensor_one_label(self):
        # the 2 x 2 and 3 x 3 identities tensor to the 6 x 6 identity
        x, y = GradedObj.space(VEC, 2, "x"), GradedObj.space(VEC, 3, "y")
        k = tensor_mor(identity(x), identity(y))
        assert k == identity(x.tensor(y))
        assert Q.equal(k.block(0, 0), Q.eye(6))

    @pytest.mark.parametrize("base", [VEC, GR2])
    def test_tensor_with_scalar(self, base):
        # a scalar on the unit object scales the other factor
        rng = random.Random(8)
        unit = GradedObj.unit(base)
        two = GradedMor(unit, unit, {g: Q.asarray([[2]]) for g in unit.grades()})
        g = rand_mor(rand_obj(base, rng, 1), rand_obj(base, rng, 1), rng)
        assert tensor_mor(two, g) == g.scale(2)
        assert tensor_mor(g, two) == g.scale(2)

    def test_tensor_row_major_convention(self):
        # rows and columns run over (first factor, second factor), row-major
        f = GradedMor(GradedObj.space(VEC, 2, "x"), GradedObj.space(VEC, 1, "y"),
                      {(0, 0): Q.asarray([[0, 1]])})
        g = GradedMor(GradedObj.space(VEC, 1, "y"), GradedObj.space(VEC, 2, "x"),
                      {(0, 0): Q.asarray([[2], [3]])})
        k = tensor_mor(f, g).block(0, 0)
        assert k.shape == (2, 2)
        assert [[Q.show(v) for v in row] for row in k.tolist()] == [["0", "2"], ["0", "3"]]

    @pytest.mark.parametrize("base", [VEC, GR2])
    def test_tensor_past_int64(self, base):
        # numerators near 2**40 multiply past int64 and stay exact
        rng = random.Random(12)
        x, y = rand_obj(base, rng, 1, maxdim=3), rand_obj(base, rng, 1, maxdim=3)
        f, g = rand_mor(x, x, rng), rand_mor(y, y, rng)
        c, d = Fraction(2 ** 40 + 3, 5), Fraction(2 ** 40 - 5, 7)
        fg = tensor_mor(f.scale(c), g.scale(d))
        assert fg == tensor_mor(f, g).scale(c * d)
        assert any(abs(v.numerator) >= 2 ** 63
                   for blk in fg.blocks.values() for row in blk.tolist() for v in row)

    @pytest.mark.parametrize("base", [VEC, GR2, GR2_F3, VEC_F3, VEC_F7])
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

    def test_mixed_product_one_label(self):
        # (a (x) b)(c (x) d) = ac (x) bd on rectangular blocks over Q
        rng = random.Random(17)
        u, v = GradedObj.space(VEC, 2, "u"), GradedObj.space(VEC, 3, "v")
        for _ in range(100):
            a, c = rand_mor(v, u, rng, span=3), rand_mor(u, v, rng, span=3)
            b, d = rand_mor(u, u, rng, span=3), rand_mor(v, u, rng, span=3)
            assert tensor_mor(a, b) @ tensor_mor(c, d) == tensor_mor(a @ c, b @ d)

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

    @pytest.mark.parametrize("base", [VEC, GR2])
    def test_ldual_is_kept_without_a_cycle(self, base):
        rng = random.Random(67)
        for _ in range(4):
            f = rand_mor(rand_obj(base, rng, 1), rand_obj(base, rng, 1), rng)
            refs = sys.getrefcount(f)
            lf = f.ldual()
            assert f.ldual() is lf
            # the dual holds nothing of f: dropping f frees it at once
            assert sys.getrefcount(f) == refs
            assert lf.ldual() == f and lf.ldual() is not f

    @pytest.mark.parametrize("base", [VEC, VEC_F7])
    def test_ldual_of_a_held_block_is_reindexed(self, base):
        # a one-label block past SPARSE_FIXED: its dual is held sparse, read
        # off the nonzeros, with no dense array behind it
        f = base.field
        x = GradedObj(base, (Atom("a", ((30,),)), Atom("b", ((7,),))))
        y = GradedObj(base, (Atom("c", ((12,),)), Atom("d", ((11,),))))
        assert x.count(0, 0) * y.count(0, 0) > exactla.SPARSE_FIXED
        rng = np.random.default_rng(5)
        vals = (rng.random((132, 210)) < 0.01) * rng.integers(1, 7, (132, 210))
        dense = f.asarray(vals.tolist())
        want = f.zeros((210, 132))
        want[np.ix_(_perm_to_dual(x, 0, 0), _perm_to_dual(y, 0, 0))] = dense.T
        t = SparseTensor.of(f, dense)
        for block in (dense, t, SparseTensor(t.shape, t.index, t.vals, t.den)):
            mor = GradedMor(x, y, {(0, 0): block})
            dual = mor.ldual().held(0, 0)
            assert isinstance(dual, SparseTensor) and dual._dense is None
            assert f.equal(dual, want)
            assert mor.ldual().ldual() == mor

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
        # one dual word serves both sides: the left pairing is x∨ ⊗ x -> 1,
        # the right one x ⊗ x∨ -> 1, and both have the same x∨
        assert ev_mor(x).src == x.dual().tensor(x)
        assert ev_right_mor(x).src == x.tensor(x.dual())
        # the canonical maps to the double dual are identities
        assert x.dual().dual() == x


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

    @pytest.mark.parametrize("dims", [(2, 3), (1, 4, 2), (3,)])
    def test_sparse_rows_match_path_enumeration(self, dims, monkeypatch):
        # with SPARSE_FIXED at 0 every row is built sparse: one nonzero
        # per path, its positions sorted
        monkeypatch.setattr(exactla, "SPARSE_FIXED", 0)
        x = GradedObj(VEC_F3, tuple(Atom(f"X{k}", ((d,),)) for k, d in enumerate(dims)))
        for dual_first, ev, coev in ((True, ev_mor, coev_right_mor),
                                     (False, ev_right_mor, coev_mor)):
            row = enumerated_pairing_row(x, dual_first)
            for mor, want in ((ev(x), [row]), (coev(x), [[v] for v in row])):
                held = mor.held(0, 0)
                assert isinstance(held, SparseTensor) and held.nnz == x.total_dim()
                assert held.index.tolist() == sorted(held.index.tolist())
                assert mor.block(0, 0).tolist() == want


@st.composite
def labelled_words(draw, base):
    """A word of up to three atoms on `base`, small enough to enumerate."""
    n = base.nlabels
    top = {1: 3, 2: 2, 3: 1}[n]
    grids = draw(st.lists(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n),
                          max_size=3))
    return GradedObj(base, tuple(Atom(f"X{k}", tuple(tuple(g[r * n:(r + 1) * n])
                                                     for r in range(n)))
                                 for k, g in enumerate(grids)))


class TestFlatIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_path_enumeration(self, data):
        # a path's index is its rank among the flat positions: the same
        # order, dual permutation, tensor positions and pairing rows as
        # the enumerated paths
        base = BaseSpec(Q, tuple("abc"[:data.draw(st.integers(1, 3))]))
        x, y = data.draw(labelled_words(base)), data.draw(labelled_words(base))
        labels = range(base.nlabels)
        for i in labels:
            for l in labels:
                ps = paths(x, i, l)
                assert len(ps) == x.count(i, l)
                assert positions(x, i, l).tolist() == [flat_position(x, i, p) for p in ps]
                didx = path_index(x.dual(), l, i)
                assert _perm_to_dual(x, i, l).tolist() == \
                    [didx[_reversed_path(p, i)] for p in ps]
                cidx = path_index(x.tensor(y), i, l)
                want = {j: [cidx[p + q] for p in paths(x, i, j) for q in paths(y, j, l)]
                        for j in labels if x.count(i, j) and y.count(j, l)}
                # x ⊗ y split with an empty right word, y-major: made row-major
                split = chain._split_positions(x, y, i, tuple(int(k == l) for k in labels))
                got = {j: pos.reshape(y.count(j, l), -1).T.ravel().tolist()
                       for (j, _), pos in split.items()}
                assert got == want
            for dual_first, ev, coev in ((True, ev_mor, coev_right_mor),
                                         (False, ev_right_mor, coev_mor)):
                row = enumerated_pairing_row(x, dual_first, i)
                assert ev(x).block(i, i).tolist() == [row]
                assert coev(x).block(i, i).tolist() == [[v] for v in row]

    def test_flat_size_past_int64_is_an_error(self):
        # 3**39 flat positions fit int64 and 3**40 do not; neither word has
        # more than 39 paths at a grade, so nothing of flat size is formed
        a = Atom("X", ((1, 1), (0, 1)))
        fits = GradedObj(GR2, (a,) * 39)
        assert positions(fits, 0, 0).tolist() == [0]
        assert len(positions(fits, 0, 1)) == fits.count(0, 1) == 39
        past = GradedObj(GR2, (a,) * 40)
        with pytest.raises(ExactError, match="past int64"):
            positions(past, 0, 0)
        with pytest.raises(ExactError, match="past int64"):
            ev_mor(past)


@st.composite
def pooled_words(draw, base, count: int, max_atoms: int = 2):
    """`count` words of up to `max_atoms` atoms each, drawn with repeats
    from a pool of two atoms whose grids may have zero cells; a word may
    be empty."""
    n = base.nlabels
    top = {1: 2, 2: 2, 3: 1}[n]
    pool = [Atom(name, tuple(tuple(draw(st.integers(0, top)) for _ in range(n))
                             for _ in range(n))) for name in ("P", "Q")]
    return [GradedObj(base, tuple(draw(st.lists(st.sampled_from(pool), max_size=max_atoms))))
            for _ in range(count)]


def enumerated_layout(layout: tuple, xs: tuple, grades: tuple) -> dict:
    """The positions of _layout_positions read off the enumerated paths:
    each path of the layout's word at the simples, its argument pieces
    replaced by the chosen paths of the arguments (reversed on a dual
    slot), looked up among the paths of the layout's word at xs."""
    simples = tuple(GradedObj.simple(xs[0].base, *g) for g in grades)
    small, big = chain.layout_word(layout, simples), chain.layout_word(layout, xs)
    choices = [paths(x, *g) for x, g in zip(xs, grades)]
    held = {s if s >= 0 else ~s for s in layout if not isinstance(s, GradedObj)}
    axes = [range(len(c)) if k in held else range(1) for k, c in enumerate(choices)]
    out = {}
    for i, l in small.grades():
        index = path_index(big, i, l)
        rows = []
        for pick in product(*axes):
            for p in paths(small, i, l):
                joined, at = (), 0
                for slot in layout:
                    n = len(chain.slot_word(slot, simples).atoms)
                    piece, at = p[at:at + n], at + n
                    if not isinstance(slot, GradedObj):
                        k = slot if slot >= 0 else ~slot
                        q = choices[k][pick[k]]
                        piece = q if slot >= 0 else _reversed_path(q, grades[k][0])
                    joined += piece
                rows.append(index[joined])
        out[i, l] = np.array(rows).reshape([len(a) for a in axes] + [-1]).tolist()
    return out


class TestOffsets:
    """A path cut into pieces is indexed by the sum of the pieces' offsets;
    every index so made equals the enumerated path's rank."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_split_positions_match_path_enumeration(self, data):
        base = BaseSpec(Q, tuple("abc"[:data.draw(st.integers(1, 3))]))
        left, mid, right = data.draw(pooled_words(base, 3))
        word = GradedObj(base, left.atoms + mid.atoms + right.atoms)
        if word.total_dim() > 300:
            return
        labels = range(base.nlabels)
        for i, l in product(labels, labels):
            after = tuple(right.count(k, l) for k in labels)
            index = path_index(word, i, l)
            want = {(j, k): [index[p + q + r] for q in paths(mid, j, k)
                             for p in paths(left, i, j) for r in paths(right, k, l)]
                    for j in labels for k in labels
                    if left.count(i, j) and mid.count(j, k) and right.count(k, l)}
            got = chain._split_positions(left, mid, i, after)
            assert {jk: pos.tolist() for jk, pos in got.items()} == want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_dual_permutation_and_pairing_match_path_enumeration(self, data):
        base = BaseSpec(Q, tuple("abc"[:data.draw(st.integers(1, 3))]))
        x, = data.draw(pooled_words(base, 1, 3))
        labels = range(base.nlabels)
        for i in labels:
            for l in labels:
                didx = path_index(x.dual(), l, i)
                assert _perm_to_dual(x, i, l).tolist() == \
                    [didx[_reversed_path(p, i)] for p in paths(x, i, l)]
            for dual_first, ev, coev in ((True, ev_mor, coev_right_mor),
                                         (False, ev_right_mor, coev_mor)):
                row = enumerated_pairing_row(x, dual_first, i)
                assert ev(x).block(i, i).tolist() == [row]
                assert coev(x).block(i, i).tolist() == [[v] for v in row]

    @pytest.mark.parametrize("kind", sorted(LAYOUTS) + ["fixed_pair"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_layout_positions_match_path_enumeration(self, kind, data):
        # through extend, which asks for them; "fixed_pair" has two fixed
        # slots side by side, taken as one piece
        base = BaseSpec(Q, tuple("abc"[:data.draw(st.integers(1, 3))]))
        carrier, x, y = data.draw(pooled_words(base, 3))
        src, dst = LAYOUTS[kind](carrier) if kind in LAYOUTS else ((0,), (carrier, carrier, 0))
        xs = (x, y) if kind == "rmatrix" else (x,)
        if not all(w.atoms for w in xs):
            return
        words = [chain.layout_word(layout, xs) for layout in (src, dst)]
        if max(w.total_dim() for w in words) > 200:
            return
        zero = {key: GradedMor.zero(chain.layout_word(src, ss), chain.layout_word(dst, ss))
                for key, ss in ((grades if len(xs) > 1 else grades[0],
                                 tuple(GradedObj.simple(base, *g) for g in grades))
                                for grades in product(*(w.grades() for w in xs)))}
        chain.extend(src, dst, xs, zero)
        for word, layout in zip(words, (src, dst)):
            got = chain._layout_positions(word, layout, xs)
            for grades in product(*(w.grades() for w in xs)):
                want = enumerated_layout(layout, xs, grades)
                assert {g: pos.tolist() for g, pos in got[grades].items()} == want


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
                k = np.unravel_index(rng.randrange(m.size), m.shape)
                m[k] += base.field.one
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


def reversed_sparse(field, dense, den=None) -> SparseTensor:
    """dense as a SparseTensor of its own, its nonzeros in reverse order,
    over `den` in place of its denominator when given."""
    t = SparseTensor.of(field, dense)
    return SparseTensor(t.shape, t.index[::-1], t.vals[::-1], t.den if den is None else den)


class TestHeldBlocks:
    """One-label blocks held as SparseTensors compare with dense ones by
    their sorted nonzeros."""

    @pytest.mark.parametrize("field", [Q, FieldSpec.prime(5)])
    def test_equality_across_forms(self, field):
        rng = random.Random(8)
        x = GradedObj.space(BaseSpec.vector(field), 6, "x")
        # over Q every numerator is odd, so the denominator is 2
        scale = Fraction(1, 2) if field.is_rationals else 1
        dense = field.asarray([[rng.choice([0, 0, 0, 1, 3]) * scale for _ in range(6)]
                               for _ in range(6)])
        if field.is_rationals:
            assert dense.den == 2
        a = GradedMor(x, x, {(0, 0): dense})
        b = GradedMor(x, x, {(0, 0): reversed_sparse(field, dense)})
        assert b.held(0, 0).nnz > 1
        assert a == b and b == a and b == GradedMor(x, x, {(0, 0): reversed_sparse(field, dense)})
        assert field.equal(b.block(0, 0), dense)
        flat = [v for row in dense.tolist() for v in row]
        # one entry off by one: a zero made nonzero, and a nonzero changed
        for k in (flat.index(0), next(k for k, v in enumerate(flat) if v)):
            off = dense.copy()
            i, j = divmod(k, 6)
            off[i, j] = field.reduce(off[i, j] + field.one)
            c = GradedMor(x, x, {(0, 0): off})
            assert a != c and b != c and c != b
            assert b != GradedMor(x, x, {(0, 0): reversed_sparse(field, off)})
        if field.is_rationals:
            # the same numerators over another denominator
            over_one = GradedMor(x, x, {(0, 0): reversed_sparse(field, dense, den=1)})
            assert over_one != a and a != over_one and over_one != b

    @pytest.mark.parametrize("field", [Q, FieldSpec.prime(5)])
    def test_empty_sparse_block_is_zero(self, field):
        x = GradedObj.space(BaseSpec.vector(field), 6, "x")
        empty = np.zeros(0, dtype=np.int64)
        zero = GradedMor(x, x, {(0, 0): SparseTensor((6, 6), empty, empty)})
        assert zero.is_zero()
        assert zero == GradedMor.zero(x, x) and GradedMor.zero(x, x) == zero
        assert zero != identity(x) and identity(x) != zero
        one = GradedMor(x, x, {(0, 0): SparseTensor((6, 6), np.array([7]), np.array([1]))})
        assert not one.is_zero()

    def test_pairing_of_a_625_dimensional_word_is_held_sparse(self, monkeypatch):
        # the shape of T(T(S))∨ for a 25-dimensional carrier: 625 paths
        base = BaseSpec.vector(FieldSpec.prime(3))
        x = GradedObj(base, (Atom("A", ((25,),)), Atom("S", ((1,),)), Atom("B", ((25,),))))
        maps = (ev_mor, coev_mor, ev_right_mor, coev_right_mor)
        held = [f(x) for f in maps]
        monkeypatch.setattr(exactla, "SPARSE_FIXED", 10**30)
        dense = [f(x) for f in maps]
        for h, d in zip(held, dense):
            block = h.held(0, 0)
            assert isinstance(block, SparseTensor) and block.size == 625 ** 2
            assert block.nnz == 625 and block.vals.tolist() == [1] * 625
            assert not isinstance(d.held(0, 0), SparseTensor)
            assert h == d and d == h


def sparse_mor(x: GradedObj, block) -> GradedMor:
    return GradedMor(x, x, {(0, 0): SparseTensor.of(x.base.field, block)})


class TestSparseSums:
    """A sum or difference with a block held sparse merges the nonzeros and
    stays sparse; it equals the sum of the dense blocks."""

    @staticmethod
    def blocks(field, n, rng, dens):
        # two n x n blocks of about 3n nonzeros each, over 1/dens[k] on Q,
        # whose supports overlap
        out = []
        for den in dens:
            flat = [0] * (n * n)
            for k in rng.sample(range(4 * n), 3 * n):
                flat[k] = Fraction(rng.choice([-4, -1, 1, 2, 3]), den)
            out.append(field.asarray([flat[r * n:(r + 1) * n] for r in range(n)]))
        return out

    @pytest.mark.parametrize("field", [Q, FieldSpec.prime(5)])
    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_matches_the_dense_sum(self, field, op):
        # 150 x 150 blocks: 22500 entries, past exactla.SPARSE_FIXED
        x = GradedObj.space(BaseSpec.vector(field), 150, "x")
        a, b = self.blocks(field, 150, random.Random(3), (3, 4))
        dense_a, dense_b = GradedMor(x, x, {(0, 0): a}), GradedMor(x, x, {(0, 0): b})
        want = op(dense_a, dense_b)
        assert not want.is_zero()
        for f, g in ((sparse_mor(x, a), sparse_mor(x, b)), (sparse_mor(x, a), dense_b),
                     (dense_a, sparse_mor(x, b))):
            got = op(f, g)
            held = got.held(0, 0)
            assert isinstance(held, SparseTensor) and held.size == 150 * 150
            assert (held.vals != 0).all()
            assert got == want and want == got

    @pytest.mark.parametrize("field", [Q, FieldSpec.prime(5)])
    def test_cancelling_sums(self, field):
        x = GradedObj.space(BaseSpec.vector(field), 150, "x")
        a, b = self.blocks(field, 150, random.Random(4), (7, 7))
        s, t = sparse_mor(x, a), sparse_mor(x, b)
        zero = s - s
        assert zero.is_zero() and zero == GradedMor.zero(x, x)
        assert zero.held(0, 0).nnz == 0
        # (a + b) - b cancels b's entries, and a's where they met
        back = (s + t) - t
        assert back == s and back.held(0, 0).nnz == s.held(0, 0).nnz
        negated = GradedMor.zero(x, x) - s
        assert (negated + s).is_zero() and negated == -GradedMor(x, x, {(0, 0): a})

    def test_small_and_wide_sums(self):
        # a small sparse block gives a dense sum; numerators whose sum could
        # pass int64 are added as dense arrays
        x = GradedObj.space(VEC, 3, "x")
        a = Q.asarray([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 0]])
        got = sparse_mor(x, a) + GradedMor(x, x, {(0, 0): a})
        assert not isinstance(got.held(0, 0), SparseTensor)
        assert got == GradedMor(x, x, {(0, 0): a}).scale(2)
        big = Q.asarray([[2**62, 0, 0], [0, 0, 0], [0, 0, 0]])
        wide = sparse_mor(x, big) + sparse_mor(x, big)
        assert wide.block(0, 0).tolist()[0][0] == 2**63


# ---------------------------------------------------------------------------
# `@` on held blocks: one held product per grade
# ---------------------------------------------------------------------------

HELD_FIELDS = [FieldSpec.prime(2), FieldSpec.prime(7), FieldSpec.prime(7919), Q]
# SPARSE_FIXED at these values makes the held product take the sparse
# route wherever it is exact, or the dense route always
ALWAYS_SPARSE, NEVER_SPARSE = -10**30, 10**30


def mostly_zero(draw, field, rows, cols):
    """A rows x cols block with about a quarter of its entries nonzero."""
    nonzero = (st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))
               if field.is_rationals else st.integers(1, field.p - 1))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), nonzero)
    return field.asarray([[draw(entry) for _ in range(cols)] for _ in range(rows)])


@st.composite
def held_composables(draw):
    """(field, SPARSE_FIXED, dense blocks of f and g, whether each is held):
    f: y -> z after g: x -> y on one label.  A low SPARSE_FIXED holds the
    operands and the result sparse."""
    field = draw(st.sampled_from(HELD_FIELDS))
    nx, ny, nz = (draw(st.integers(1, 14)) for _ in range(3))
    fixed = draw(st.sampled_from([ALWAYS_SPARSE, 0, 10, 60, 200, NEVER_SPARSE]))
    fb, gb = mostly_zero(draw, field, nz, ny), mostly_zero(draw, field, ny, nx)
    return field, fixed, fb, gb, draw(st.booleans()), draw(st.booleans())


class TestHeldCompose:
    """f @ g on one label is the held product of the blocks as they are
    held, held by _held's size rule and bounded by MAX_STATE_ENTRIES; on the
    graded backend its blocks stay the dense blockwise products."""

    @settings(max_examples=200, deadline=None)
    @given(held_composables())
    def test_matches_the_dense_product(self, case):
        field, fixed, fb, gb, hold_f, hold_g = case
        base = BaseSpec.vector(field)
        (nz, ny), nx = fb.shape, gb.shape[1]
        x, y, z = (GradedObj.space(base, n, name) for n, name in ((nx, "x"), (ny, "y"), (nz, "z")))
        want = field.matmul(fb, gb)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "SPARSE_FIXED", fixed)
            fh, gh = (exactla._held(field, b) if hold else b
                      for b, hold in ((fb, hold_f), (gb, hold_g)))
            f, g = GradedMor(y, z, {(0, 0): fh}), GradedMor(x, y, {(0, 0): gh})
            got = f @ g
            out = got.held(0, 0)
            assert isinstance(out, SparseTensor) == (out.size > fixed)
            assert out.shape == (nz, nx) and field.equal(out, want)
            assert got == GradedMor(x, z, {(0, 0): want})
            # the entries the product stores: one fewer is past the bound
            product = exactla.held_tensordot(field, fh, gh, [1], [0])
            stored = product.nnz if isinstance(product, SparseTensor) else product.size
            if stored:
                mp.setattr(exactla, "MAX_STATE_ENTRIES", stored - 1)
                with pytest.raises(exactla.ChainOverflow, match="intermediate of"):
                    f @ g

    def test_a_held_sparse_product_is_not_made_dense(self, monkeypatch):
        # two scaled permutations of a 200-dimensional space: 40000
        # entries each, 200 stored, and so the product
        field = FieldSpec.prime(7)
        x = GradedObj.space(BaseSpec.vector(field), 200, "x")
        rng = np.random.default_rng(3)
        blocks = []
        for _ in range(2):
            b = field.zeros((200, 200))
            b[rng.permutation(200), np.arange(200)] = rng.integers(1, 7, 200)
            blocks.append(b)
        f, g = (GradedMor(x, x, {(0, 0): SparseTensor.of(field, b)}) for b in blocks)
        f.held(0, 0)._dense = g.held(0, 0)._dense = None
        monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", 1000)
        out = (f @ g).held(0, 0)
        assert isinstance(out, SparseTensor) and out.nnz == 200 and out._dense is None
        assert field.equal(out, field.matmul(*blocks))

    @pytest.mark.parametrize("base", [GR2, GR2_F3, BaseSpec(FieldSpec.prime(7919), ("a", "b"))])
    @pytest.mark.parametrize("fixed", [ALWAYS_SPARSE, 0, NEVER_SPARSE])
    def test_graded_blocks_stay_the_dense_products(self, base, fixed, monkeypatch):
        rng = random.Random(71)
        monkeypatch.setattr(exactla, "SPARSE_FIXED", fixed)
        for _ in range(12):
            x, y, z = (rand_obj(base, rng, rng.randrange(1, 3), maxdim=3) for _ in range(3))
            f, g = rand_mor(y, z, rng), rand_mor(x, y, rng)
            got = f @ g
            for grade in set(x.grades()) & set(z.grades()):
                block = got.block(*grade)
                assert not isinstance(got.held(*grade), SparseTensor)
                want = (base.field.matmul(f.block(*grade), g.block(*grade))
                        if grade in f.blocks and grade in g.blocks
                        else base.field.zeros(block.shape))
                assert block.shape == want.shape and base.field.equal(block, want)


class TestLayering:
    """exactla holds the held-matrix rules and cat builds on it alone: the
    chain evaluator sits above both."""

    def test_importing_cat_leaves_chain_unloaded(self):
        script = "import sys\nimport hopfmonad.cat\nprint('hopfmonad.chain' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0 and result.stdout.strip() == "False"

    @pytest.mark.parametrize("module", [cat, exactla], ids=["cat", "exactla"])
    def test_no_import_of_chain(self, module):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".") for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")] + [[a.name] for a in node.names]
            else:
                continue
            assert not any("chain" in parts for parts in names), ast.unparse(node)
