"""Chain evaluation and family extension against direct materialization."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfmonad.cat import (
    _owned_memo,
    _perm_to_dual,
    Atom,
    BaseMismatch,
    BaseSpec,
    GradedMor,
    GradedObj,
    identity,
)
from hopfmonad import cat as catmod
from hopfmonad import chain as chainmod
from hopfmonad import exactla, presentation, zoo
from hopfmonad.chain import (
    Chain,
    Step,
    extend,
    layout_word,
)
from hopfmonad.exactla import ChainOverflow, DimensionMismatch, ExactError, FieldSpec, SparseTensor
from hopfmonad.verify import verify_model
from pathref import path_index, paths

Q = FieldSpec.rationals()
F7 = FieldSpec.prime(7)
VEC = BaseSpec.vector(Q)
VEC7 = BaseSpec.vector(F7)
GR2 = BaseSpec(Q, ("a", "b"))


def vspace(base, n, name):
    return GradedObj(base, (Atom(name, ((n,),)),))


def rand_mor(src, dst, rng, span=3):
    f = src.base.field
    blocks = {}
    for g in set(src.grades()) & set(dst.grades()):
        rows, cols = dst.count(*g), src.count(*g)
        blocks[g] = f.asarray(
            [[rng.randrange(-span, span + 1) for _ in range(cols)] for _ in range(rows)])
    return GradedMor(src, dst, blocks)


@_owned_memo
def _tensor_positions(x: GradedObj, y: GradedObj, i: int, l: int) -> dict:
    """For each middle label j: the positions of the paths x-path ⊗ y-path
    i -> j -> l inside the (i, l) path order of x ⊗ y, row-major in
    (x-path, y-path), read off the enumerated paths (pathref).

    The arrays are kept in x's memo and shared, so they are read-only."""
    index = path_index(x.tensor(y), i, l)
    out = {}
    for j in range(x.base.nlabels):
        if x.count(i, j) and y.count(j, l):
            pos = np.array([index[p + q] for p in paths(x, i, j) for q in paths(y, j, l)],
                           dtype=np.int64)
            pos.flags.writeable = False
            out[j] = pos
    return out


def tensor_mor(f: GradedMor, g: GradedMor) -> GradedMor:
    """Tensor product of morphisms, built block by block: each pair of
    blocks (i, j) and (j, l) gives their outer product, with rows and
    columns in the row-major (f, g) order, placed at the tensor positions
    of the paths.  The library whiskers through chain.Chain; this dense
    form is the reference the tests compare chains with."""
    if f.base != g.base:
        raise BaseMismatch("tensor across different bases")
    fld = f.field
    src = f.src.tensor(g.src)
    dst = f.dst.tensor(g.dst)
    blocks = {}
    for (i, l) in set(src.grades()) & set(dst.grades()):
        out = fld.zeros((dst.count(i, l), src.count(i, l)))
        col_pos = _tensor_positions(f.src, g.src, i, l)
        row_pos = _tensor_positions(f.dst, g.dst, i, l)
        for j in set(col_pos) & set(row_pos):
            a, b = f.block(i, j), g.block(j, l)
            k = fld.tensordot(a, b, ([], [])).transpose(0, 2, 1, 3)
            out[np.ix_(row_pos[j], col_pos[j])] = k.reshape(len(row_pos[j]), len(col_pos[j]))
        blocks[(i, l)] = out
    return GradedMor(src, dst, blocks)


def core_mor(base, core) -> GradedMor:
    """A core matrix as the morphism between one-atom words of its widths."""
    rows, cols = core.shape
    return GradedMor(vspace(base, cols, "in"), vspace(base, rows, "out"), {(0, 0): core})


def tensor_many(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = tensor_mor(out, m)
    return out


def brute_whisker(left, m, right):
    return tensor_many(identity(left), m, identity(right))


@pytest.mark.parametrize("base", [VEC, VEC7])
class TestVectorChain:
    def test_single_step_matches_whisker(self, base):
        rng = random.Random(1)
        a, b, c, d = (vspace(base, n, nm) for n, nm in [(2, "a"), (3, "b"), (2, "c"), (4, "d")])
        m = rand_mor(b, d, rng)
        src = a.tensor(b).tensor(c)
        ch = Chain(src).then(m, at=1)
        direct = brute_whisker(a, m, c)
        assert ch.eval() == direct

    def test_multi_step(self, base):
        rng = random.Random(2)
        a = vspace(base, 2, "a")
        b = vspace(base, 3, "b")
        c = vspace(base, 2, "c")
        f = rand_mor(b, b, rng)
        g = rand_mor(a.tensor(b), c, rng)
        h = rand_mor(c.tensor(c), a, rng)
        src = a.tensor(b).tensor(c)
        ch = Chain(src).then(f, at=1).then(g, at=0).then(h, at=0)
        direct = (h @ brute_whisker(GradedObj.unit(base), g, c)
                  @ brute_whisker(a, f, c))
        assert ch.eval() == direct

    def test_narrow_end_transposed_route(self, base):
        # dst much smaller than src: the result is the lone core, transposed
        # back to (target, source)
        rng = random.Random(3)
        a = vspace(base, 4, "a")
        b = vspace(base, 4, "b")
        f = rand_mor(a.tensor(b), vspace(base, 1, "u"), rng)
        src = a.tensor(b)
        ch = Chain(src).then(f, at=0)
        assert ch.eval() == f

    def test_core_step_two_axis_output(self, base):
        # core splitting one axis into two, with a pass-through in between
        rng = random.Random(4)
        fld = base.field
        a = vspace(base, 2, "a")
        w = vspace(base, 3, "w")
        dst = a.tensor(w).tensor(a)
        core = fld.asarray([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(4)])
        step = Step(core_mor(base, core), a.tensor(w), dst, in_axes=(0,), out_axes=(0, 2))
        assert step.to_mor().src == a.tensor(w)
        ch = Chain(a.tensor(w)).then(step, at=0)
        got = ch.eval()
        # oracle: entry ((p, x, q), (i, x')) = core[(p,q), i] δ_{x,x'}
        direct = got.block(0, 0)
        for p in range(2):
            for x in range(3):
                for q in range(2):
                    for i in range(2):
                        for x2 in range(3):
                            want = core[p * 2 + q, i] if x == x2 else fld.zero
                            assert direct[(p * 3 + x) * 2 + q, i * 3 + x2] == want

    def test_zero_input_axis_core(self, base):
        # outer product with a fixed vector (no consumed axes)
        fld = base.field
        w = vspace(base, 3, "w")
        vobj = vspace(base, 2, "v")
        core = fld.asarray([[1], [2]])
        step = Step(core_mor(base, core), w, vobj.tensor(w), in_axes=(), out_axes=(0,))
        m = step.to_mor().block(0, 0)
        for v in range(2):
            for x in range(3):
                for x2 in range(3):
                    want = core[v, 0] if x == x2 else fld.zero
                    assert m[v * 3 + x, x2] == want

    def test_overflow_guard(self, base):
        old = exactla.MAX_STATE_ENTRIES
        exactla.MAX_STATE_ENTRIES = 10
        try:
            a = vspace(base, 4, "a")
            f = rand_mor(a, a.tensor(a), random.Random(6))
            with pytest.raises(ChainOverflow):
                Chain(a.tensor(a)).then(f, at=0).eval()
        finally:
            exactla.MAX_STATE_ENTRIES = old


# ---------------------------------------------------------------------------
# Vector backend: the tensor-network evaluator against dense whiskered steps
# ---------------------------------------------------------------------------


def dense_step(step) -> GradedMor:
    """A step's matrix, by an index loop over its core, axes and feeds."""
    f = step.src.base.field
    sd, dd = step.src.axis_dims(), step.dst.axis_dims()
    core = step.mor.block(0, 0)
    rows = []
    for o in product(*map(range, dd)):
        row = []
        r = 0
        for a in step.out_axes:
            r = r * dd[a] + o[a]
        for i in product(*map(range, sd)):
            c = 0
            for a in step.in_axes:
                c = c * sd[a] + i[a]
            row.append(core[r, c] if all(o[d] == i[s] for d, s in step.feeds) else f.zero)
        rows.append(row)
    nd, ns = prod(dd), prod(sd)
    mat = f.asarray(rows) if nd and ns else f.zeros((nd, ns))
    return GradedMor(step.src, step.dst, {(0, 0): mat})


def reference_chain(ch) -> GradedMor:
    """The chain as dense steps, whiskered with tensor_many and multiplied in
    order; the evaluator is never called."""
    return brute_chain(ch.src, [(at, dense_step(step)) for at, step in ch.steps])


def first_connected_pair(legs, dims):
    """Another pair order: the first pair by position that shares a wire."""
    for i, a in enumerate(legs):
        for j in range(i + 1, len(legs)):
            if set(a) & set(legs[j]):
                return prod(dims[w] for w in set(a) ^ set(legs[j])), i, j
    return None


# steps produce atoms of dims 1, 2 and 3; a source word may also hold a
# zero-dimensional atom, which makes every state of width 0
VECTOR_ATOMS = [Atom(name, ((n,),)) for name, n in [("a", 1), ("b", 2), ("c", 3)]]
ZERO_ATOM = Atom("z", ((0,),))
MAX_VECTOR_DIM = 60


@st.composite
def core_steps(draw, src):
    """A step on some atoms of src: a random subset of its atoms consumed in random
    order, the rest permuted, new atoms produced at random target positions."""
    n = len(src.atoms)
    order = draw(st.permutations(range(n)))
    in_axes = tuple(order[:draw(st.integers(0, n))])
    pass_src = [a for a in range(n) if a not in in_axes]
    pass_perm = draw(st.permutations(range(len(pass_src))))
    made = draw(st.lists(st.sampled_from(VECTOR_ATOMS), max_size=2))
    slots = draw(st.permutations(range(len(pass_src) + len(made))))
    out_axes = tuple(slots[:len(made)])
    dst = [None] * len(slots)
    for a, atom in zip(out_axes, made):
        dst[a] = atom
    passing = iter(pass_perm)
    dst = [atom if atom is not None else src.atoms[pass_src[next(passing)]] for atom in dst]
    rows = prod(atom.dims[0][0] for atom in made)
    cols = prod(src.atoms[a].dims[0][0] for a in in_axes)
    vals = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    f = src.base.field
    core = f.asarray([vals]).reshape(rows, cols)
    return Step(core_mor(src.base, core), src, GradedObj(src.base, tuple(dst)), in_axes,
                out_axes, pass_perm=pass_perm)


@st.composite
def mor_steps(draw, src):
    dst = GradedObj(src.base, tuple(draw(st.lists(st.sampled_from(VECTOR_ATOMS), max_size=2))))
    return Step(draw(graded_mors(src, dst)))


@st.composite
def vector_chains(draw):
    """Inserting and consuming cores, permuted pass-through axes and
    whole morphisms; the unit word, zero-width states, disconnected networks and
    chains narrower at the target all come up."""
    base = draw(st.sampled_from([VEC, VEC7]))
    src = GradedObj(base, tuple(draw(st.lists(
        st.sampled_from(VECTOR_ATOMS * 2 + [ZERO_ATOM]), max_size=4))))
    ch, cur = Chain(src), src
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(cur.atoms)))
        n = draw(st.integers(0, len(cur.atoms) - at))
        step_src = GradedObj(base, cur.atoms[at:at + n])
        step = draw(draw(st.sampled_from([core_steps, mor_steps]))(step_src))
        atoms = cur.atoms[:at] + step.dst.atoms + cur.atoms[at + n:]
        if len(atoms) > 5 or GradedObj(base, atoms).total_dim() > MAX_VECTOR_DIM:
            continue
        ch.then(step, at=at)
        cur = ch.dst
    return ch


class TestPlan:
    @settings(max_examples=200, deadline=None)
    @given(vector_chains())
    def test_random_chain_matches_unplanned(self, ch):
        got, want = ch.eval(), reference_chain(ch)
        assert got == want
        assert got.block(0, 0).dtype == want.block(0, 0).dtype

    @settings(max_examples=100, deadline=None)
    @given(vector_chains())
    def test_other_pair_order_agrees(self, ch):
        got = ch.eval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chainmod, "_next_pair", first_connected_pair)
            other = ch.eval()
        assert got == other
        assert got.block(0, 0).dtype == other.block(0, 0).dtype

    @pytest.mark.parametrize("base", [VEC, VEC7])
    def test_fused_core_overflow(self, base):
        # a -> x, then an inserted b and b ⊗ x -> c: the cores have 32, 8
        # and 384 entries and the result 6, but the first pair contracted
        # (a -> x with b ⊗ x -> c, the first of two of 48 entries) makes
        # 48, above a cap of 40
        rng = random.Random(12)
        a, x, b, c = (vspace(base, n, nm) for n, nm in [(2, "a"), (16, "x"), (8, "b"), (3, "c")])
        ch = Chain(a).then(rand_mor(a, x, rng), at=0) \
                     .then(rand_mor(GradedObj.unit(base), b, rng), at=0) \
                     .then(rand_mor(b.tensor(x), c, rng), at=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "MAX_STATE_ENTRIES", 40)
            with pytest.raises(ChainOverflow, match="intermediate of 48 entries"):
                ch.eval()
            mp.setattr(exactla, "MAX_STATE_ENTRIES", 48)
            got = ch.eval()
        assert got == reference_chain(ch)


def record_peaks(monkeypatch) -> dict:
    """Track the largest tensor any pairwise contraction makes."""
    peak = {"entries": 0}

    def contract(field, x, y, _contract=chainmod._contract):
        out = _contract(field, x, y)
        peak["entries"] = max(peak["entries"], out[0].size)
        return out
    monkeypatch.setattr(chainmod, "_contract", contract)
    return peak


def drinfeld_double(n: int, p: int, name: str):
    return presentation.load(zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(n), FieldSpec.prime(p), name))


def test_peak_state_double_z5_f11(monkeypatch):
    peak = record_peaks(monkeypatch)
    rep = verify_model(drinfeld_double(5, 11, "double_z5_f11"), checks=("quasitriangular",))
    assert rep.passed
    assert 0 < peak["entries"] <= 25 ** 4


@pytest.mark.long
def test_peak_state_double_s3_f7(monkeypatch):
    peak = record_peaks(monkeypatch)
    model = presentation.load(zoo.build_drinfeld_double_group(
        zoo.symmetric3_table(), FieldSpec.prime(7), "double_s3_f7"))
    assert verify_model(model).passed
    assert 0 < peak["entries"] <= 36 ** 4


@pytest.mark.long
def test_double_z8_f17_passes_every_suite(monkeypatch):
    # 64-dimensional: a carrier^5 intermediate, 1.07e9 entries, is above
    # MAX_STATE_ENTRIES
    peak = record_peaks(monkeypatch)
    rep = verify_model(drinfeld_double(8, 17, "double_z8_f17"))
    assert rep.passed, [x.line() for x in rep.failures()]
    assert 0 < peak["entries"] <= 64 ** 4


# ---------------------------------------------------------------------------
# Vector backend: the sparse product against the dense one
# ---------------------------------------------------------------------------

# SPARSE_FIXED at these values makes _contract take the sparse route
# wherever it is exact, or the dense route always
ALWAYS_SPARSE, NEVER_SPARSE = -10**30, 10**30

SPARSE_VALUES = {Q: [0] * 6 + [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)],
                 F7: [0] * 6 + [1, 2, 3, 5, 6]}


@st.composite
def sparse_operands(draw):
    """(field, a, b, axes of a, axes of b): two mostly-zero tensors and the
    axes they are contracted over.  None shared gives an outer product, all
    shared a scalar, and a free axis of dimension zero an empty tensor (the
    evaluator contracts no wire of dimension zero)."""
    field = draw(st.sampled_from([Q, F7]))
    shared = draw(st.lists(st.integers(1, 4), max_size=3))
    free = st.integers(0, 4) if draw(st.integers(0, 9)) == 0 else st.integers(1, 4)
    free_a, free_b = (draw(st.lists(free, max_size=2)) for _ in range(2))
    pa = draw(st.permutations(range(len(free_a) + len(shared))))
    pb = draw(st.permutations(range(len(free_b) + len(shared))))
    axes_a, axes_b = free_a + shared, shared + free_b
    shape_a = [axes_a[i] for i in pa]
    shape_b = [axes_b[i] for i in pb]
    # the k-th shared axis is at position pa.index(len(free_a) + k) of a
    ax_a = [pa.index(len(free_a) + k) for k in range(len(shared))]
    ax_b = [pb.index(k) for k in range(len(shared))]

    def tensor(shape):
        n = prod(shape)
        vals = draw(st.lists(st.sampled_from(SPARSE_VALUES[field]), min_size=n, max_size=n))
        return field.asarray([vals]).reshape(shape) if n else field.zeros(shape)
    return field, tensor(shape_a), tensor(shape_b), ax_a, ax_b


def contract_both_ways(field, a, b, ax_a, ax_b):
    """chain._contract with the sparse route forced (where exact) and with
    the dense route forced: both results, dense."""
    la = tuple(range(a.ndim))
    shared = [la[i] for i in ax_a]
    fresh = iter(range(a.ndim, a.ndim + b.ndim))
    lb = tuple(shared[ax_b.index(i)] if i in ax_b else next(fresh) for i in range(b.ndim))
    out = []
    for fixed in (ALWAYS_SPARSE, NEVER_SPARSE):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "SPARSE_FIXED", fixed)
            got, _ = chainmod._contract(field, (a, la), (b, lb))
        out.append(got)
    return out


def assert_routes_agree(field, a, b, ax_a, ax_b):
    want = field.tensordot(a, b, (ax_a, ax_b))
    sparse, dense = contract_both_ways(field, a, b, ax_a, ax_b)
    assert isinstance(sparse, SparseTensor) and not isinstance(dense, SparseTensor)
    assert sparse.shape == tuple(want.shape) and sparse.size == want.size
    got = sparse.dense(field)
    assert field.equal(got, want) and field.equal(dense, want)
    assert got.dtype == want.dtype
    # no stored zeros, no repeated position
    assert (sparse.vals != 0).all()
    assert len(set(sparse.index.tolist())) == sparse.nnz
    return sparse


class TestSparseRoute:
    @settings(max_examples=300, deadline=None)
    @given(sparse_operands())
    def test_random_sparse_cores_match_dense(self, operands):
        assert_routes_agree(*operands)

    @pytest.mark.parametrize("field", [Q, F7])
    def test_empty_tensor(self, field):
        a = field.zeros((3, 4))
        b = field.asarray([[1, 0], [0, 2], [0, 0], [3, 0]])
        assert assert_routes_agree(field, a, b, [1], [0]).nnz == 0
        assert assert_routes_agree(field, field.zeros((0, 2)), b.T, [1], [0]).size == 0

    @pytest.mark.parametrize("field", [Q, F7])
    def test_cancelling_pairs_leave_no_entry(self, field):
        # both entries of row 0 sum two products that cancel; row 1 keeps its
        a = field.asarray([[1, 1], [0, 1]])
        b = field.asarray([[1, 2], [-1, -2]])
        out = assert_routes_agree(field, a, b, [1], [0])
        assert out.index.tolist() == [2, 3]

    @pytest.mark.parametrize("field", [Q, F7])
    def test_outer_product_and_scalar(self, field):
        a = field.asarray([[0, 2, 0]])
        b = field.asarray([[3, 0, 1]])
        assert assert_routes_agree(field, a, b, [], []).shape == (1, 3, 1, 3)
        assert assert_routes_agree(field, a, b, [0, 1], [0, 1]).shape == ()

    @pytest.mark.parametrize("base", [VEC, VEC7])
    def test_identity_pass_through(self, base, monkeypatch):
        # the wire of y goes from source to target untouched: the evaluator
        # tensors in its identity, 150 x 150 and so a SparseTensor, by the
        # sparse route
        rng = random.Random(3)
        x, y, z = vspace(base, 5, "x"), vspace(base, 150, "y"), vspace(base, 4, "z")
        ch = Chain(x.tensor(y)).then(rand_mor(x, z, rng), at=0)
        calls = count_sparse_products(monkeypatch)
        got = ch.eval()
        assert calls["n"] == 1
        assert got == reference_chain(ch)

    def test_wide_rationals_take_the_dense_route(self):
        # |numerators| near 2**63: the int64 sums of the sparse product could
        # wrap, so _contract multiplies on the dense route
        a = Q.asarray([[2**62 + 1, 0, 3]])
        b = Q.asarray([[5], [0], [2**62 - 7]])
        sparse, dense = contract_both_ways(Q, a, b, [1], [0])
        want = Q.tensordot(a, b, ([1], [0]))
        assert not isinstance(sparse, SparseTensor)
        assert Q.equal(sparse, want) and Q.equal(dense, want)
        assert want.dtype == object
        # past 2**63 the numerators are Python ints, which stay dense
        wide = Q.asarray([[2**64, 1]])
        assert SparseTensor.of(Q, wide) is None
        got, _ = contract_both_ways(Q, wide, Q.asarray([[1], [0]]), [1], [0])
        assert Q.equal(got, Q.tensordot(wide, Q.asarray([[1], [0]]), ([1], [0])))

    def test_term_limit(self, monkeypatch):
        # with fewer than 3 products allowed to meet at one entry, an inner
        # dimension of 3 goes dense and one of 2 stays sparse
        monkeypatch.setattr(exactla, "SPARSE_TERMS", 3)
        a = F7.asarray([[1, 2, 3], [0, 1, 0]])
        b = F7.asarray([[1, 0], [1, 1], [2, 0]])
        over, _ = contract_both_ways(F7, a, b, [1], [0])
        assert not isinstance(over, SparseTensor)
        assert F7.equal(over, F7.tensordot(a, b, ([1], [0])))
        assert_routes_agree(F7, a[:, :2], b[:2], [1], [0])

    def test_sparse_operand_past_the_cap_is_not_made_dense(self, monkeypatch):
        # the identity stores 40 nonzeros of 1600 entries; its product with
        # a 1 x 40 row is small, so it takes the dense route, which would
        # build all 1600 entries, past a cap of 1000
        monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", 1000)
        row = F7.asarray([[1] * 40])
        with pytest.raises(ChainOverflow, match="1600 entries"):
            chainmod._contract(F7, (SparseTensor.eye((40,)), (0, 1)), (row, (2, 1)))
        monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", 1600)
        got, legs = chainmod._contract(F7, (SparseTensor.eye((40,)), (0, 1)), (row, (2, 1)))
        assert legs == (0, 2) and F7.equal(got, row.T)

    def test_join_budget_is_bounded_by_the_cap(self, monkeypatch):
        # a (2 x 40) and a (40 x 2) of ones join in 160 pairs for a result
        # of 4 entries; the join would hold JOIN_ARRAYS arrays of 160
        # entries, more than a cap of 200 allows, so the product goes dense
        a, b = F7.asarray([[1] * 40] * 2), F7.asarray([[1, 1]] * 40)
        monkeypatch.setattr(exactla, "SPARSE_FIXED", ALWAYS_SPARSE)
        got, _ = chainmod._contract(F7, (a, (0, 1)), (b, (1, 2)))
        assert isinstance(got, SparseTensor)
        monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", 200)
        got, _ = chainmod._contract(F7, (a, (0, 1)), (b, (1, 2)))
        assert not isinstance(got, SparseTensor)
        assert F7.equal(got, F7.asarray([[40 % 7] * 2] * 2))

    @settings(max_examples=100, deadline=None)
    @given(vector_chains())
    def test_forced_routes_agree(self, ch):
        want = reference_chain(ch)
        for fixed in (ALWAYS_SPARSE, NEVER_SPARSE):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(exactla, "SPARSE_FIXED", fixed)
                got = ch.eval()
            assert got == want
            assert got.block(0, 0).dtype == want.block(0, 0).dtype


def count_sparse_products(mp) -> dict:
    calls = {"n": 0}

    def counted(*args, _product=exactla.sparse_tensordot):
        calls["n"] += 1
        return _product(*args)
    mp.setattr(exactla, "sparse_tensordot", counted)
    return calls


def test_double_z5_quasitriangular_takes_the_sparse_route(monkeypatch):
    calls = count_sparse_products(monkeypatch)
    rep = verify_model(drinfeld_double(5, 11, "double_z5_f11"), checks=("quasitriangular",))
    assert rep.passed
    assert calls["n"] > 0


# ---------------------------------------------------------------------------
# Vector backend: results and morphism blocks held sparse
# ---------------------------------------------------------------------------


class TestHeldForm:
    @settings(max_examples=150, deadline=None)
    @given(vector_chains(), st.integers(0, 40))
    def test_held_results_match_dense(self, ch, fixed):
        # with SPARSE_FIXED lowered, the steps, the pass-through identities
        # and the results exceed it, and a held result is used again as a
        # whiskered step
        want = reference_chain(ch)
        wide = GradedObj(ch.src.base, (VECTOR_ATOMS[1],))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "SPARSE_FIXED", fixed)
            got = ch.eval()
            held = got.held(0, 0) if got.blocks else None
            if isinstance(held, SparseTensor):
                assert held.size > fixed and held.shape == (want.dst.total_dim(),
                                                            want.src.total_dim())
            again = Chain(wide.tensor(got.src)).then(got, at=1).eval()
        assert got == want and want == got
        assert got.is_zero() == want.is_zero()
        assert got.field.equal(got.block(0, 0), want.block(0, 0))
        assert got.block(0, 0).dtype == want.block(0, 0).dtype
        assert again == tensor_mor(identity(wide), want)

    def test_held_result_is_not_made_dense(self):
        # a permutation of a 150-dimensional space, whiskered by a
        # 2-dimensional one: 90000 entries, 300 nonzeros
        rng = random.Random(4)
        x, y = vspace(VEC7, 150, "x"), vspace(VEC7, 2, "y")
        perm = list(range(150))
        rng.shuffle(perm)
        blk = F7.zeros((150, 150))
        blk[perm, range(150)] = 3
        got = Chain(y.tensor(x)).then(GradedMor(x, x, {(0, 0): blk}), at=1).eval()
        held = got.held(0, 0)
        assert isinstance(held, SparseTensor) and held.nnz == 300 and held._dense is None
        assert got == brute_whisker(y, GradedMor(x, x, {(0, 0): blk}), GradedObj.unit(VEC7))

    def test_block_read_once_per_morphism(self, monkeypatch):
        # every chain through one GradedMor wraps it in a new Step; the
        # first holds its block (_held) and stores it back on the morphism,
        # so the block is read for its nonzeros once
        calls = {"n": 0}

        def counted(spec, a, _of=SparseTensor.of):
            calls["n"] += 1
            return _of(spec, a)
        monkeypatch.setattr(SparseTensor, "of", staticmethod(counted))
        x = vspace(VEC7, 150, "x")
        blk = F7.zeros((150, 150))
        blk[range(150), range(150)] = 2
        mor = GradedMor(x, x, {(0, 0): blk})
        first = Chain(x).then(mor).eval()
        second = Chain(x).then(mor).eval()
        assert calls["n"] == 1
        assert first == second == identity(x).scale(2)
        assert F7.equal(mor.block(0, 0), blk)


class TestWorkCounts:
    def test_paths_and_layouts_built_once_per_verification(self, monkeypatch):
        # one verification builds each word's paths from a label, and each
        # layout's positions at one tuple of arguments (all their grades
        # at once), once: every later call hands back the same object.  A
        # rebuild on every call would show here as a new one.  The tables
        # hold the words, so none is collected and built again.
        seen, rebuilt = {}, []
        paths_from, layout_positions = catmod._paths_from, chainmod._layout_positions

        def watched(fn):
            def call(*args):
                out = fn(*args)
                if seen.setdefault((fn, *args), out) is not out:
                    rebuilt.append(args)
                return out
            return call

        monkeypatch.setattr(catmod, "_paths_from", watched(paths_from))
        monkeypatch.setattr(chainmod, "_layout_positions", watched(layout_positions))
        verify_model(presentation.load(zoo.build_disconnected_groupoid(Q)))
        assert not rebuilt
        assert sum(key[0] is paths_from for key in seen) > 100
        assert sum(key[0] is layout_positions for key in seen) > 100


class TestStepChecks:
    def test_step_on_some_atoms_is_one_label_only(self):
        a = GradedObj.from_grid(GR2, [[1, 1], [0, 1]], "a")
        assert Step(identity(a)).to_mor() == identity(a)
        with pytest.raises(ExactError, match="one-label"):
            Step(identity(a), a, a, in_axes=(0,), out_axes=(0,))

    @pytest.mark.parametrize("base", [VEC, VEC7])
    def test_core_of_the_wrong_shape_is_refused(self, base):
        # a core from the first atom of a ⊗ w to two new atoms a, a: 4 x 2
        a, w = vspace(base, 2, "a"), vspace(base, 3, "w")
        src, dst = a.tensor(w), a.tensor(w).tensor(a)
        Step(core_mor(base, base.field.zeros((4, 2))), src, dst, in_axes=(0,), out_axes=(0, 2))
        for shape in [(2, 4), (4, 3), (3, 2)]:
            with pytest.raises(DimensionMismatch, match="core shape"):
                Step(core_mor(base, base.field.zeros(shape)), src, dst,
                     in_axes=(0,), out_axes=(0, 2))


class TestResultBound:
    def test_sparse_result_is_bounded_by_its_nonzeros(self, monkeypatch):
        # a permutation of a 150-dimensional space, whiskered by a
        # 2-dimensional one: 90000 entries, 300 nonzeros, within a bound of
        # 2000 entries (the sparse product's join holds JOIN_ARRAYS * 300)
        x, y = vspace(VEC7, 150, "x"), vspace(VEC7, 2, "y")
        perm = list(range(150))
        random.Random(5).shuffle(perm)
        blk = F7.zeros((150, 150))
        blk[perm, range(150)] = 2
        mor = GradedMor(x, x, {(0, 0): blk})
        want = brute_whisker(y, mor, GradedObj.unit(VEC7))
        monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", 2000)
        got = Chain(y.tensor(x)).then(mor, at=1).eval()
        held = got.held(0, 0)
        assert isinstance(held, SparseTensor) and held.nnz == 300 and held.size == 90000
        assert got == want

    def test_zero_width_result_is_bounded(self, monkeypatch):
        # through a zero-dimensional wire: no contraction, a 150 x 150 zero
        x, z = vspace(VEC7, 150, "x"), GradedObj(VEC7, (ZERO_ATOM,))
        ch = Chain(x).then(GradedMor.zero(x, z)).then(GradedMor.zero(z, x))
        monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", 150 * 150 - 1)
        with pytest.raises(ChainOverflow):
            ch.eval()
        monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", 150 * 150)
        assert ch.eval().is_zero()


def kron_reference(field, a, shape):
    """a ⊗ id on axes of dimensions shape, by the multiply route: the outer
    product of the dense a with a dense identity."""
    n = prod(shape)
    return field.tensordot(exactla._dense(field, a), field.eye(n).reshape(tuple(shape) * 2),
                           ([], []))


def random_block(field, rows, cols, rng, nonzeros, den=1):
    """A rows x cols block with about `nonzeros` nonzero entries, each k/den
    for a small k (a residue over GF(p))."""
    flat = [0] * (rows * cols)
    for k in rng.sample(range(rows * cols), nonzeros):
        flat[k] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), den)
    return field.asarray([flat[r * cols:(r + 1) * cols] for r in range(rows)])


class TestPlacement:
    """The pass-through identity is placed beside the network's result,
    never multiplied: exactla.held_place against the outer product with a
    dense identity."""

    @pytest.mark.parametrize("field", [Q, F7])
    @pytest.mark.parametrize("core, shape, sparse", [
        ((2, 3), (2,), False),      # 24 entries: dense
        ((5, 4), (40,), True),      # 32000 entries from a dense core: sparse
        ((150, 150), (2,), True),   # a held sparse core
        ((4, 4), (3, 2), False),    # two pass-through wires
        ((3, 2), (1, 1), False),    # one-dimensional wires: a reshape
        ((3, 2), (3, 0), False),    # a zero-dimensional wire: no entries
    ])
    def test_matches_the_outer_product(self, field, core, shape, sparse):
        rng = random.Random(sum(core) + sum(shape))
        a = random_block(field, *core, rng, nonzeros=min(12, prod(core)), den=3)
        if field.is_rationals:
            assert a.den == 3
        if prod(core) > exactla.SPARSE_FIXED:
            a = SparseTensor.of(field, a)
        got = exactla.held_place(field, a, shape)
        want = kron_reference(field, a, shape)
        assert isinstance(got, SparseTensor) == sparse
        assert tuple(got.shape) == tuple(want.shape) == tuple(core) + tuple(shape) * 2
        assert field.equal(got, want)
        if sparse:
            nonzeros = a.nnz if isinstance(a, SparseTensor) else SparseTensor.of(field, a).nnz
            assert got.nnz == nonzeros * prod(shape)
        else:
            assert got.dtype == want.dtype

    @pytest.mark.parametrize("field", [Q, F7])
    def test_small_sparse_core_is_placed_dense(self, field):
        a = SparseTensor.of(field, random_block(field, 3, 3, random.Random(1), 4, den=2))
        got = exactla.held_place(field, a, (2,))
        assert not isinstance(got, SparseTensor)
        assert field.equal(got, kron_reference(field, a, (2,)))

    @pytest.mark.parametrize("base", [VEC, VEC7])
    @pytest.mark.parametrize("dims", [(), (3,), (2, 3), (150,), (2, 0)])
    def test_chain_without_steps_is_the_identity(self, base, dims):
        # the scalar 1 placed beside the identity; 150**2 entries are held
        # sparse
        x = GradedObj(base, tuple(Atom(f"w{k}", ((d,),)) for k, d in enumerate(dims)))
        got = Chain(x).eval()
        assert got == identity(x) and identity(x) == got
        n = x.total_dim()
        if n:
            assert isinstance(got.held(0, 0), SparseTensor) == (n * n > exactla.SPARSE_FIXED)
            assert base.field.equal(got.block(0, 0), base.field.eye(n))

    @pytest.mark.parametrize("base", [VEC, VEC7])
    def test_rationals_over_a_denominator(self, base):
        # a core over 1/3 beside two pass-through wires, in the middle of
        # the word
        rng = random.Random(9)
        a, x, b, y = (vspace(base, n, nm) for n, nm in [(2, "a"), (3, "x"), (3, "b"), (2, "y")])
        core = random_block(base.field, 2, 3, rng, 5, den=3)
        f = GradedMor(x, y, {(0, 0): core})
        ch = Chain(a.tensor(x).tensor(b)).then(f, at=1)
        assert ch.eval() == brute_whisker(a, f, b)

    def test_placement_is_bounded(self, monkeypatch):
        # a 2 x 3 core of six nonzeros beside a 4-dimensional wire (96
        # entries, dense) and beside a 150-dimensional one (135000 entries,
        # 900 stored)
        core = F7.asarray([[1, 2, 3], [4, 5, 6]])
        x, z = vspace(VEC7, 3, "x"), vspace(VEC7, 2, "z")
        f = GradedMor(x, z, {(0, 0): core})
        for n, stored in ((4, 96), (150, 900)):
            y = vspace(VEC7, n, f"y{n}")
            ch = Chain(x.tensor(y)).then(f, at=0)
            monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", stored - 1)
            with pytest.raises(ChainOverflow, match=f"intermediate of {stored} entries"):
                ch.eval()
            monkeypatch.setattr(exactla, "MAX_STATE_ENTRIES", stored)
            assert ch.eval() == brute_whisker(GradedObj.unit(VEC7), f, y)

    def test_sparse_outer_product_keeps_its_budget(self):
        # the sparse placement is the general outer product, which makes
        # one pair per two nonzeros: 3 * 3 here
        a = SparseTensor.of(F7, F7.asarray([[1, 2], [3, 0]]))
        b = SparseTensor.of(F7, F7.asarray([[4, 5, 6]]))
        assert exactla.sparse_tensordot(F7, a, b, [], [], 8) is None
        got = exactla.sparse_tensordot(F7, a, b, [], [], 9)
        assert got.nnz == 9
        assert F7.equal(got, F7.tensordot(a.dense(F7), b.dense(F7), ([], [])))

    def test_peak_sees_the_placed_result(self, monkeypatch):
        # the placement goes through _contract, so the bound on the
        # intermediates covers the result beside the identity
        peak = record_peaks(monkeypatch)
        x, y, z = vspace(VEC7, 3, "x"), vspace(VEC7, 4, "y"), vspace(VEC7, 2, "z")
        f = GradedMor(x, z, {(0, 0): F7.asarray([[1, 2, 3], [4, 5, 6]])})
        Chain(x.tensor(y)).then(f, at=0).eval()
        assert peak["entries"] == 6 * 4 * 4


class TestGradedChain:
    def test_matches_vector_semantics_on_one_label(self):
        # same chain evaluated via the graded path by faking a 1-label grid
        rng = random.Random(7)
        a = GradedObj.from_grid(GR2, [[1, 1], [0, 1]], "a")
        b = GradedObj.from_grid(GR2, [[1, 0], [1, 1]], "b")
        f = rand_mor(b, b.tensor(b), rng)
        g = rand_mor(a.tensor(b), a, rng)
        src = a.tensor(b)
        ch = Chain(src).then(f, at=1).then(g, at=0)
        direct = (brute_whisker(GradedObj.unit(GR2), g, b)
                  @ brute_whisker(a, f, GradedObj.unit(GR2)))
        assert ch.eval() == direct


# ---------------------------------------------------------------------------
# Graded backend on random grids: path-index placement against Kronecker
# products of whiskers
# ---------------------------------------------------------------------------

MAX_PATHS = 100


@st.composite
def graded_bases(draw):
    nlabels = draw(st.sampled_from([2, 3]))
    field = draw(st.sampled_from([Q, F7]))
    return BaseSpec(field, tuple("abc"[:nlabels]))


@st.composite
def atoms(draw, base, name, diagonal=0):
    """An atom with at least `diagonal` paths at each grade (i, i)."""
    n = base.nlabels
    top = 2 if n == 2 else 1
    grid = [[draw(st.integers(diagonal if i == j else 0, max(top, diagonal)))
             for j in range(n)] for i in range(n)]
    return GradedObj.from_grid(base, grid, name)


@st.composite
def graded_mors(draw, src, dst):
    f = src.base.field
    blocks = {}
    for g in sorted(set(src.grades()) & set(dst.grades())):
        rows, cols = dst.count(*g), src.count(*g)
        vals = draw(st.lists(st.integers(-3, 3), min_size=rows * cols,
                             max_size=rows * cols))
        blocks[g] = f.asarray([vals[r * cols:(r + 1) * cols] for r in range(rows)])
    return GradedMor(src, dst, blocks)


def words(pool, n_max, n_min=0):
    return st.lists(st.sampled_from(pool), min_size=n_min, max_size=n_max).map(
        lambda ws: GradedObj(pool[0].base, tuple(a for w in ws for a in w.atoms)))


def brute_chain(src, steps):
    total, cur = identity(src), src
    for at, mor in steps:
        n = len(mor.src.atoms)
        left = GradedObj(cur.base, cur.atoms[:at])
        right = GradedObj(cur.base, cur.atoms[at + n:])
        total = brute_whisker(left, mor, right) @ total
        cur = GradedObj(cur.base, left.atoms + mor.dst.atoms + right.atoms)
    return total


class TestGradedPlacement:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_chain_matches_whiskers(self, data):
        base = data.draw(graded_bases())
        # z may have grades with no paths at all, x and y are never zero
        pool = [data.draw(atoms(base, "x", 1)), data.draw(atoms(base, "y", 1)),
                data.draw(atoms(base, "z"))]
        src = data.draw(words(pool, 3, 1))
        cur, steps = src, []
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(cur.atoms)))
            # mostly steps that consume atoms; n = 0 inserts
            n = min(data.draw(st.sampled_from([0, 1, 1, 2, 2])), len(cur.atoms) - at)
            step_src = GradedObj(base, cur.atoms[at:at + n])
            step_dst = data.draw(words(pool, 2, 0 if n else 1))
            nxt = GradedObj(base, cur.atoms[:at] + step_dst.atoms + cur.atoms[at + n:])
            if nxt.total_dim() > MAX_PATHS:
                continue
            steps.append((at, data.draw(graded_mors(step_src, step_dst))))
            cur = nxt
        ch = Chain(src)
        for at, mor in steps:
            ch.then(mor, at=at)
        assert ch.eval() == brute_chain(src, steps)

    @pytest.mark.parametrize("field", [Q, F7])
    def test_empty_source_block_under_nonempty_target(self, field):
        # x lives only at grade (0, 0) and y everywhere: grades (0, 1),
        # (1, 0) and (1, 1) of the step have target paths and no source
        # ones, and grade (1, 1) of the word has no paths at all
        base = BaseSpec(field, ("a", "b"))
        x = GradedObj.from_grid(base, [[1, 0], [0, 0]], "x")
        y = GradedObj.from_grid(base, [[1, 1], [1, 2]], "y")
        rng = random.Random(8)
        f = rand_mor(x, y, rng)
        src = x.tensor(x).tensor(x)
        for at in range(3):
            ch = Chain(src).then(f, at=at)
            got = ch.eval()
            assert got == brute_chain(src, [(at, f)])
            assert not got.is_zero()

    @pytest.mark.parametrize("field", [Q, F7])
    def test_empty_left_and_right_words(self, field):
        # the step covers the whole word, then inserts at both ends
        base = BaseSpec(field, ("a", "b", "c"))
        x = GradedObj.from_grid(base, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], "x")
        unit = GradedObj.unit(base)
        rng = random.Random(9)
        f = rand_mor(x.tensor(x), x, rng)
        e = rand_mor(unit, x, rng)
        steps = [(0, f), (0, e), (2, e)]
        ch = Chain(x.tensor(x))
        for at, mor in steps:
            ch.then(mor, at=at)
        assert ch.eval() == brute_chain(x.tensor(x), steps)


def summand_inclusions(x: GradedObj):
    """Yield (grade, inclusion, projection) for each simple summand of x.

    The k-th path at grade (i, l) spans a summand isomorphic to the
    simple S(i, l); the inclusion and projection are the corresponding
    coordinate morphisms.  Ordering is deterministic: grades in
    lexicographic order, paths in path order.
    """
    f = x.base.field
    for (i, l) in x.grades():
        n = x.count(i, l)
        s = GradedObj.simple(x.base, i, l)
        for k in range(n):
            col = f.zeros((n, 1))
            col[k, 0] = f.one
            inc = GradedMor(s, x, {(i, l): col})
            proj = GradedMor(x, s, {(i, l): col.T.copy()})
            yield (i, l), inc, proj


def reference_extend(src, dst, xs, comps):
    """The inclusion-sum formula: dst(inclusions) ∘ component ∘ src(projections)
    summed over every choice of simple summands, with whole morphisms."""
    def layout_mor(layout, cov, contra):
        return tensor_many(*(identity(s) if isinstance(s, GradedObj)
                             else cov[s] if s >= 0 else contra[~s].ldual()
                             for s in layout))

    total = GradedMor.zero(layout_word(src, xs), layout_word(dst, xs))
    for choice in product(*(tuple(summand_inclusions(x)) for x in xs)):
        grades = tuple(g for g, _, _ in choice)
        comp = comps.get(grades if len(xs) > 1 else grades[0])
        if comp is None:
            continue
        incs = [inc for _, inc, _ in choice]
        projs = [proj for _, _, proj in choice]
        total = total + layout_mor(dst, incs, projs) @ comp @ layout_mor(src, projs, incs)
    return total


# element, R-matrix and antipode side, over a carrier A; the antipode has
# its dual slot on both sides, so only a pairing X ⊗ X∨ -> A, with the
# argument both plainly and dually, tells a path from its reversal
LAYOUTS = {
    "element": lambda a: ((0,), (a, 0)),
    "rmatrix": lambda a: ((0, 1), (a, 1, a, 0)),
    "antipode": lambda a: ((a, ~0, a.dual()), (~0,)),
    "pairing": lambda a: ((0, ~0), (a,)),
}


class TestExtend:
    @pytest.mark.parametrize("kind", sorted(LAYOUTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_inclusion_sum(self, kind, data):
        base = data.draw(graded_bases())
        carrier = data.draw(atoms(base, "A"))
        src, dst = LAYOUTS[kind](carrier)
        nargs = 2 if kind == "rmatrix" else 1
        simples = [(i, j) for i in range(base.nlabels) for j in range(base.nlabels)]
        keys = [(g1, g2) for g1 in simples for g2 in simples if g1[1] == g2[0]] \
            if nargs == 2 else simples
        comps = {}
        for key in keys:
            ss = tuple(GradedObj.simple(base, *g) for g in (key if nargs == 2 else (key,)))
            comps[key] = data.draw(graded_mors(layout_word(src, ss), layout_word(dst, ss)))
        pool = [data.draw(atoms(base, "x", 1)), data.draw(atoms(base, "y"))]
        xs = tuple(data.draw(words(pool, 2, 1)) for _ in range(nargs))
        if max(layout_word(src, xs).total_dim(), layout_word(dst, xs).total_dim()) > 4 * MAX_PATHS:
            return
        assert extend(src, dst, xs, comps) == reference_extend(src, dst, xs, comps)

    @pytest.mark.parametrize("kind", sorted(LAYOUTS))
    @pytest.mark.parametrize("field", [Q, F7])
    def test_two_atom_arguments(self, kind, field):
        # in x ⊗ x the reversal of a path is at another position of the
        # dual word, so a dual slot must place by the reversed path
        base = BaseSpec(field, ("a", "b"))
        carrier = GradedObj.from_grid(base, [[1, 1], [0, 1]], "A")
        x = GradedObj.from_grid(base, [[2, 1], [1, 2]], "x")
        xx = x.tensor(x)
        assert _perm_to_dual(xx, 0, 0).tolist() != list(range(xx.count(0, 0)))
        src, dst = LAYOUTS[kind](carrier)
        rng = random.Random(10)
        simples = [(i, j) for i in range(2) for j in range(2)]
        if kind == "rmatrix":
            keys = [(g1, g2) for g1 in simples for g2 in simples if g1[1] == g2[0]]
            xs = (xx, x)
        else:
            keys, xs = simples, (xx,)
        comps = {}
        for key in keys:
            ss = tuple(GradedObj.simple(base, *g) for g in (key if kind == "rmatrix" else (key,)))
            comps[key] = rand_mor(layout_word(src, ss), layout_word(dst, ss), rng)
        got = extend(src, dst, xs, comps)
        assert not got.is_zero()
        assert got == reference_extend(src, dst, xs, comps)
