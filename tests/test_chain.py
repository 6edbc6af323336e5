"""Chain evaluation and family extension against direct materialization."""

import random
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfmonad.cat import (
    _perm_to_dual,
    Atom,
    BaseSpec,
    GradedMor,
    GradedObj,
    identity,
    summand_inclusions,
    tensor_mor,
)
from hopfmonad import chain as chainmod
from hopfmonad import presentation, zoo
from hopfmonad.chain import (
    Chain,
    ChainOverflow,
    CoreStep,
    MorStep,
    extend,
    layout_word,
    mor_flip,
)
from hopfmonad.exactla import FieldSpec
from hopfmonad.verify import verify_model

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
        # dst much smaller than src forces the reversed evaluation
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
        step = CoreStep(a.tensor(w), dst, core, in_axes=(0,), out_axes=(0, 2))
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

    def test_core_step_transposed(self, base):
        rng = random.Random(5)
        fld = base.field
        a = vspace(base, 2, "a")
        w = vspace(base, 3, "w")
        dst = a.tensor(w).tensor(a)
        core = fld.asarray([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(4)])
        step = CoreStep(a.tensor(w), dst, core, in_axes=(0,), out_axes=(0, 2))
        assert step.transposed().to_mor() == mor_flip(step.to_mor())

    def test_zero_input_axis_core(self, base):
        # outer product with a fixed vector (no consumed axes)
        fld = base.field
        w = vspace(base, 3, "w")
        vobj = vspace(base, 2, "v")
        core = fld.asarray([[1], [2]])
        step = CoreStep(w, vobj.tensor(w), core, in_axes=(), out_axes=(0,))
        m = step.to_mor().block(0, 0)
        for v in range(2):
            for x in range(3):
                for x2 in range(3):
                    want = core[v, 0] if x == x2 else fld.zero
                    assert m[v * 3 + x, x2] == want

    def test_overflow_guard(self, base):
        import hopfmonad.chain as chainmod
        old = chainmod.MAX_STATE_ENTRIES
        chainmod.MAX_STATE_ENTRIES = 10
        try:
            a = vspace(base, 4, "a")
            f = rand_mor(a, a.tensor(a), random.Random(6))
            with pytest.raises(ChainOverflow):
                Chain(a.tensor(a)).then(f, at=0).eval()
        finally:
            chainmod.MAX_STATE_ENTRIES = old


# ---------------------------------------------------------------------------
# Vector backend: the contraction plan against one step per group
# ---------------------------------------------------------------------------


def eval_unplanned(ch):
    """The chain through the same executor, each step its own group."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chainmod, "_plan", lambda src, steps, w: list(steps))
        return ch.eval()


# steps produce atoms of dims 1, 2 and 3; a source word may also hold a
# zero-dimensional atom, which makes every state of width 0
VECTOR_ATOMS = [Atom(name, ((n,),)) for name, n in [("a", 1), ("b", 2), ("c", 3)]]
ZERO_ATOM = Atom("z", ((0,),))
MAX_VECTOR_DIM = 60


@st.composite
def core_steps(draw, src):
    """A CoreStep from src: a random subset of its atoms consumed in random
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
    core = f.zeros((rows, cols))
    for k, v in enumerate(vals):
        core.flat[k] = f.coerce(v)
    return CoreStep(src, GradedObj(src.base, tuple(dst)), core, in_axes, out_axes,
                    pass_perm=pass_perm)


@st.composite
def mor_steps(draw, src):
    dst = GradedObj(src.base, tuple(draw(st.lists(st.sampled_from(VECTOR_ATOMS), max_size=2))))
    return MorStep(draw(graded_mors(src, dst)))


class TestPlan:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_chain_matches_unplanned(self, data):
        # inserting and consuming cores, permuted pass-through axes and
        # MorSteps; the unit word, zero-width states and chains that are
        # evaluated from the target end all come up
        base = data.draw(st.sampled_from([VEC, VEC7]))
        src = GradedObj(base, tuple(data.draw(st.lists(
            st.sampled_from(VECTOR_ATOMS * 2 + [ZERO_ATOM]), max_size=4))))
        ch, cur = Chain(src), src
        for _ in range(data.draw(st.integers(1, 6))):
            at = data.draw(st.integers(0, len(cur.atoms)))
            n = data.draw(st.integers(0, len(cur.atoms) - at))
            step_src = GradedObj(base, cur.atoms[at:at + n])
            kind = data.draw(st.sampled_from([core_steps, mor_steps]))
            step = data.draw(kind(step_src))
            atoms = cur.atoms[:at] + step.dst.atoms + cur.atoms[at + n:]
            if len(atoms) > 5 or GradedObj(base, atoms).total_dim() > MAX_VECTOR_DIM:
                continue
            ch.then(step, at=at)
            cur = ch.dst
        got, want = ch.eval(), eval_unplanned(ch)
        assert got == want
        assert got.block(0, 0).dtype == want.block(0, 0).dtype

    @pytest.mark.parametrize("base", [VEC, VEC7])
    def test_product_after_insertion_is_fused(self, base):
        # R-matrix shape: insert a d x d element, contract each leg with a
        # product; the two products fold into the insertion, and no state
        # exceeds d^2 x width
        rng = random.Random(11)
        d = 3
        a = vspace(base, d, "a")
        r = rand_mor(GradedObj.unit(base), a.tensor(a), rng)
        m = rand_mor(a.tensor(a), a, rng)
        src = a.tensor(a)
        ch = Chain(src).then(r, at=0).then(m, at=0).then(m, at=1)
        plan = chainmod._plan(src, ch.steps, src.total_dim())
        assert len(plan) == 1 and isinstance(plan[0][1], CoreStep)
        assert plan[0][1].core.shape == (d * d, d * d)
        assert ch.eval() == eval_unplanned(ch)

    @pytest.mark.parametrize("base", [VEC, VEC7])
    def test_fused_group_keeps_permuted_axes(self, base):
        # insert x while swapping a and b, then consume x: the fused group
        # only permutes its pass-through axes
        rng = random.Random(13)
        a, b, c, x = (vspace(base, n, nm) for n, nm in [(2, "a"), (2, "b"), (3, "c"), (2, "x")])
        core = base.field.asarray([[1], [2]])
        swap = CoreStep(a.tensor(b), x.tensor(b).tensor(a), core, in_axes=(),
                        out_axes=(0,), pass_perm=(1, 0))
        src = a.tensor(b).tensor(c)
        ch = Chain(src).then(swap, at=0).then(rand_mor(x, GradedObj.unit(base), rng), at=0)
        plan = chainmod._plan(src, ch.steps, src.total_dim())
        assert len(plan) == 1 and plan[0][1].pass_perm == (1, 0, 2)
        assert ch.eval() == eval_unplanned(ch)

    @pytest.mark.parametrize("base", [VEC, VEC7])
    def test_fused_core_overflow(self, base):
        # a -> x, then an inserted b and b ⊗ x -> c fuse into a 3 x 16
        # core; the states the plan applies have 32 and 6 entries, so only
        # the fused core is above a cap of 40
        rng = random.Random(12)
        a, x, b, c = (vspace(base, n, nm) for n, nm in [(2, "a"), (16, "x"), (8, "b"), (3, "c")])
        ch = Chain(a).then(rand_mor(a, x, rng), at=0) \
                     .then(rand_mor(GradedObj.unit(base), b, rng), at=0) \
                     .then(rand_mor(b.tensor(x), c, rng), at=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chainmod, "MAX_STATE_ENTRIES", 40)
            with pytest.raises(ChainOverflow, match="fused core of 3 x 16"):
                ch.eval()
            mp.setattr(chainmod, "MAX_STATE_ENTRIES", 48)
            got = ch.eval()
        assert got == eval_unplanned(ch)


def record_peaks(monkeypatch) -> dict:
    """Track the largest state any step makes and the largest fused core."""
    peak = {"state": 0, "core": 0}
    for cls in (CoreStep, MorStep):
        def apply_vec(self, state, dl, dr, field, _apply=cls.apply_vec):
            out = _apply(self, state, dl, dr, field)
            peak["state"] = max(peak["state"], out.size)
            return out
        monkeypatch.setattr(cls, "apply_vec", apply_vec)

    def fuse(*args, _fuse=chainmod._fuse):
        step = _fuse(*args)
        peak["core"] = max(peak["core"], step.core.size)
        return step
    monkeypatch.setattr(chainmod, "_fuse", fuse)
    return peak


def drinfeld_double(n: int, p: int, name: str):
    return presentation.load(zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(n), FieldSpec.prime(p), name))


def test_peak_state_double_z5_f11(monkeypatch):
    peak = record_peaks(monkeypatch)
    rep = verify_model(drinfeld_double(5, 11, "double_z5_f11"), checks=("quasitriangular",))
    assert rep.passed
    assert 0 < peak["core"] <= 25 ** 4 and peak["state"] <= 25 ** 4


@pytest.mark.long
def test_peak_state_double_s3_f7(monkeypatch):
    peak = record_peaks(monkeypatch)
    model = presentation.load(zoo.build_drinfeld_double_group(
        zoo.symmetric3_table(), FieldSpec.prime(7), "double_s3_f7"))
    assert verify_model(model).passed
    assert 0 < peak["core"] <= 36 ** 4 and peak["state"] <= 36 ** 4


@pytest.mark.long
def test_double_z8_f17_passes_every_suite(monkeypatch):
    # 64-dimensional: a carrier^5 state, 1.07e9 entries, is above MAX_STATE_ENTRIES
    peak = record_peaks(monkeypatch)
    rep = verify_model(drinfeld_double(8, 17, "double_z8_f17"))
    assert rep.passed, [x.line() for x in rep.failures()]
    assert peak["state"] <= 64 ** 4 and peak["core"] <= 64 ** 4


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
        assert _perm_to_dual(xx, 0, 0) != tuple(range(xx.count(0, 0)))
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
