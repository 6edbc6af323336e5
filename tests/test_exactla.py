"""Exact linear algebra: oracle-backed tests.

Independent oracles used here:
- schoolbook triple-loop multiplication (pure python, no numpy),
- Python-int/Fraction schoolbook products for the rational product,
- sympy's DomainMatrix over QQ for rational products, reduced forms,
  kernels, solutions and inverses, with numerators past the int64 guards,
- plain (non-reduced) gaussian elimination for ranks,
- full Gauss-Jordan elimination over Python ints for reduced echelon forms,
- substitution for linear-system solutions.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from hopfmonad import exactla
from hopfmonad.exactla import (
    MAX_PRIME,
    TILE_ENTRIES,
    DimensionMismatch,
    FieldSpec,
    inverse,
    kernel,
    kernel_backend,
    rank,
    solve_affine,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F7 = FieldSpec.prime(7)
# the largest prime the GF(p) kernels accept
P_MAX = 1048573
F_MAX = FieldSpec.prime(P_MAX)
# longest float64 dot product at P_MAX that stays exact with a carried
# residue: CHUNK * (p-1)**2 + (p-1) < 2**53
CHUNK = (2**53 - P_MAX) // (P_MAX - 1) ** 2


def rand_mat(spec, rows, cols, rng, span=9):
    return spec.asarray(
        [[rng.randrange(-span, span + 1) for _ in range(cols)] for _ in range(rows)]
    ).reshape(rows, cols)


def same(a, b) -> bool:
    return a.shape == b.shape and bool(np.all(a == b))


def is_zero(spec, a) -> bool:
    return bool(np.all(a == spec.zero))


def schoolbook(spec, a, b):
    rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
    out = spec.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            s = spec.zero
            for k in range(inner):
                s = s + a[i, k] * b[k, j]
            out[i, j] = spec.coerce(s)
    return out


def field_inv(spec, x):
    """The inverse of a nonzero scalar of the field, by its coercion of 1/x."""
    if spec.coerce(x) == spec.zero:
        raise ZeroDivisionError("inverse of zero")
    return spec.coerce(Fraction(1) / Fraction(x))


def gauss_rank(spec, a) -> int:
    """Row reduction without normalization: an independent rank oracle."""
    m = [list(row) for row in a.tolist()]
    rows, cols = a.shape
    rk = 0
    for c in range(cols):
        piv = next((i for i in range(rk, rows) if m[i][c] != spec.zero), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(rk + 1, rows):
            if m[i][c] != spec.zero:
                f = spec.coerce(m[i][c]) * field_inv(spec, m[rk][c])
                for j in range(cols):
                    m[i][j] = spec.coerce(m[i][j] - f * m[rk][j])
        rk += 1
    return rk


def gauss_jordan_mod(rows: list, p: int) -> tuple[list, list]:
    """Reduced echelon form over GF(p) with Python ints, first-nonzero pivots."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


class TestFieldSpec:
    def test_prime_validation(self):
        with pytest.raises(Exception):
            FieldSpec.prime(6)
        with pytest.raises(Exception):
            FieldSpec.prime(1)
        with pytest.raises(Exception):
            FieldSpec("Q", 3)
        FieldSpec.prime(2)
        FieldSpec.prime(1048573)

    def test_coerce_and_show(self):
        assert Q.coerce("-7/2") == Fraction(-7, 2)
        assert Q.show(Fraction(-7, 2)) == "-7/2"
        assert F7.coerce(-1) == 6
        assert F7.coerce("1/2") == 4  # inverse of 2 mod 7
        assert F7.show(5) == "5"

    def test_inverse(self):
        assert field_inv(F7, 3) * 3 % 7 == 1
        assert field_inv(Q, Fraction(3, 4)) == Fraction(4, 3)
        with pytest.raises(ZeroDivisionError):
            field_inv(F7, 0)


class TestMatMul:
    def test_identity(self):
        i2 = Q.eye(2)
        assert same(Q.matmul(i2, i2), i2)

    def test_gf2_ones(self):
        a = F2.asarray([[1, 1], [1, 1]])
        v = F2.asarray([[1], [1]])
        assert same(F2.matmul(a, v), F2.zeros((2, 1)))

    @pytest.mark.parametrize("spec", [Q, F3, F7])
    def test_matches_schoolbook(self, spec):
        rng = random.Random(11)
        for _ in range(25):
            a = rand_mat(spec, 3, 4, rng)
            b = rand_mat(spec, 4, 2, rng)
            assert same(spec.matmul(a, b), schoolbook(spec, a, b))

    def test_unit_laws(self):
        rng = random.Random(5)
        for spec in (Q, F7):
            a = rand_mat(spec, 3, 5, rng)
            assert same(spec.matmul(a, spec.eye(5)), a)
            assert same(spec.matmul(spec.eye(3), a), a)

    def test_dimension_mismatch(self):
        for spec in (Q, F7):
            with pytest.raises(DimensionMismatch):
                spec.matmul(spec.eye(2), spec.eye(3))

    def test_empty_shapes(self):
        a = Q.zeros((0, 3))
        b = Q.zeros((3, 2))
        assert Q.matmul(a, b).shape == (0, 2)
        out = F7.matmul(F7.zeros((2, 0)), F7.zeros((0, 4)))
        assert out.shape == (2, 4) and is_zero(F7, out)


NEAR_TOP = st.integers(min_value=P_MAX - 8, max_value=P_MAX - 1)


@st.composite
def dense_matrices(draw):
    """Entries near p - 1, with zeros mixed in so that ranks vary."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(NEAR_TOP, st.just(0))
    return np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                    dtype=np.int64).reshape(rows, cols)


@st.composite
def sparse_matrices(draw):
    """A scaled permutation matrix with a few entries set (zeros among them,
    so ranks drop) and possibly one row copied onto another, optionally
    followed by an identity block as in [A | I]."""
    n = draw(st.integers(1, 8))
    a = np.zeros((n, n), dtype=np.int64)
    a[range(n), draw(st.permutations(range(n)))] = draw(
        st.lists(NEAR_TOP, min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    for i, j, v in draw(st.lists(st.tuples(index, index, st.one_of(NEAR_TOP, st.just(0))),
                                 max_size=3)):
        a[i, j] = v
    if draw(st.booleans()):
        a[draw(index)] = a[draw(index)]
    if draw(st.booleans()):
        a = np.hstack([a, np.eye(n, dtype=np.int64)])
    return a


def python_matmul_mod(a, b, p):
    """Schoolbook product over Python ints."""
    a, b = a.tolist(), b.tolist()
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


class TestExactnessBound:
    """The GF(p) kernels at the largest admissible prime."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matmul_matches_schoolbook(self, data):
        rows, inner, cols = (data.draw(st.integers(1, 6)) for _ in range(3))
        a = np.array(data.draw(st.lists(NEAR_TOP, min_size=rows * inner,
                                        max_size=rows * inner)),
                     dtype=np.int64).reshape(rows, inner)
        b = np.array(data.draw(st.lists(NEAR_TOP, min_size=inner * cols,
                                        max_size=inner * cols)),
                     dtype=np.int64).reshape(inner, cols)
        assert F_MAX.matmul(a, b).tolist() == python_matmul_mod(a, b, P_MAX)

    # p - 1 is the largest entry; p - 2 is odd, so its partial sums are odd
    # and float64 would round them once they passed 2**53
    @pytest.mark.parametrize("entry", [P_MAX - 1, P_MAX - 2])
    @pytest.mark.parametrize("inner", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_matmul_at_the_chunk_bound(self, entry, inner):
        a = np.full((2, inner), entry, dtype=np.int64)
        b = np.full((inner, 3), entry, dtype=np.int64)
        assert F_MAX.matmul(a, b).tolist() == python_matmul_mod(a, b, P_MAX)

    def test_matmul_across_tiles(self):
        # a float64 tile spans a whole chunk of the inner dimension, so it
        # has at most TILE_ENTRIES // CHUNK rows and columns; this product
        # is wider than that on both sides and takes two chunks
        rows, inner, cols = 130, CHUNK + 1, 140
        assert min(rows, cols) > TILE_ENTRIES // CHUNK
        rng = np.random.default_rng(1)
        a = rng.integers(P_MAX - 64, P_MAX, size=(rows, inner), dtype=np.int64)
        b = rng.integers(P_MAX - 64, P_MAX, size=(inner, cols), dtype=np.int64)
        # an independent reference: int64 cannot overflow, inner * (p-1)**2 < 2**63
        assert F_MAX.matmul(a, b).tolist() == ((a @ b) % P_MAX).tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(dense_matrices(), sparse_matrices()))
    def test_rref_matches_gauss_jordan(self, a):
        r, piv = F_MAX.rref(a)
        ref, ref_piv = gauss_jordan_mod(a.tolist(), P_MAX)
        assert piv == ref_piv
        assert r.tolist() == ref

    def test_chunked_accumulation(self):
        # an inner dimension of 2**22 + 1 is reduced chunk by chunk
        k = (1 << 22) + 1
        assert P_MAX < MAX_PRIME
        rng = np.random.default_rng(0)
        da = rng.integers(0, 8, size=k, dtype=np.int64)
        db = rng.integers(0, 8, size=k, dtype=np.int64)
        a = (P_MAX - 1 - da).reshape(1, k)
        b = (P_MAX - 1 - db).reshape(k, 1)
        # (p-1-x)(p-1-y) = (1+x)(1+y) mod p, a sum small enough to take exactly
        expected = int(np.sum((1 + da) * (1 + db))) % P_MAX
        assert F_MAX.matmul(a, b).tolist() == [[expected]]


def python_matmul_q(a, b, cols):
    """Schoolbook product over Python Fractions, on nested lists."""
    return [[sum((x * row[j] for x, row in zip(arow, b)), Fraction(0))
             for j in range(cols)] for arow in a]


def assert_q_product(a, b):
    got = Q.matmul(a, b)
    assert all(type(x) is Fraction for row in got.tolist() for x in row)
    assert got.tolist() == python_matmul_q(a.tolist(), b.tolist(), b.shape[1])
    assert got.shape == (a.shape[0], b.shape[1])


SMALL_Q = st.one_of(st.just(Fraction(0)), st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def q_factors(draw, entry=SMALL_Q, top=6):
    """Two composable rational matrices, empty shapes allowed, with a zero
    row of the left factor or a zero column of the right one at times."""
    rows, inner, cols = (draw(st.integers(0, top)) for _ in range(3))
    zero = Fraction(0)
    dense = draw(st.booleans())
    pick = entry if dense else st.one_of(st.just(zero), st.just(zero), entry)

    def mat(r, c):
        return Q.asarray([draw(st.lists(pick, min_size=r * c, max_size=r * c))]).reshape(r, c)

    a, b = mat(rows, inner), mat(inner, cols)
    if rows and draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = zero
    if cols and draw(st.booleans()):
        b[:, draw(st.integers(0, cols - 1))] = zero
    return a, b


class TestRationalProduct:
    """The integer-numerator product over Q against a schoolbook product
    over Python Fractions."""

    @settings(max_examples=80, deadline=None)
    @given(q_factors())
    def test_matches_schoolbook(self, ab):
        assert_q_product(*ab)

    @settings(max_examples=40, deadline=None)
    @given(q_factors())
    def test_blocks_meet_inside_a_row(self, ab):
        # tiles of three entries split the inner dimension into chunks, so
        # the partial sums of one output entry come from several chunks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "TILE_ENTRIES", 3)
            assert_q_product(*ab)

    def test_all_zero_factors(self):
        for a, b in ((Q.zeros((3, 4)), Q.eye(4)), (Q.eye(3), Q.zeros((3, 2)))):
            out = Q.matmul(a, b)
            assert is_zero(Q, out) and out.shape == (a.shape[0], b.shape[1])

    def test_empty_inner_dimension(self):
        out = Q.matmul(Q.zeros((2, 0)), Q.zeros((0, 3)))
        assert out.shape == (2, 3) and is_zero(Q, out)

    def test_cancellation_leaves_zero(self):
        a = Q.asarray([[1, 1]])
        b = Q.asarray([["1/3", 2], ["-1/3", 5]])
        assert Q.matmul(a, b).tolist() == [[0, 7]]

    @pytest.mark.parametrize("inner", [2, 1 << 13])
    def test_numerators_near_two_to_the_forty(self, inner):
        # max|na| * max|nb| * inner passes 2**63 at the deep inner
        # dimension, so the numerators stay Python ints; the shallow one
        # stays below and runs on int64, with sums near 2**53
        rng = random.Random(inner)
        a = Q.asarray([[(1 << 40) - rng.randrange(64) for _ in range(inner)]])
        b = Q.asarray([[-(1 << 12) + rng.randrange(8)] for _ in range(inner)])
        wide = (1 << 40) * (1 << 12) * inner >= 1 << 63
        assert wide == (inner > 2)
        assert_q_product(a, b)

    def test_denominators_past_two_to_the_sixty_three(self):
        primes = [1000003, 1000033, 1000037, 1000039]
        a = Q.asarray([[Fraction(1, p) for p in primes]] * 2)
        b = Q.asarray([[Fraction(-1, p), Fraction(p, 7)] for p in reversed(primes)])
        lcm = 1
        for p in primes:
            lcm *= p
        assert lcm >= 1 << 63
        assert_q_product(a, b)

    def test_more_than_one_block(self):
        # 64 * 64 * 300 nonzero products, more than TILE_ENTRIES
        rng = np.random.default_rng(3)
        ia = rng.integers(-5, 6, size=(64, 64))
        ib = rng.integers(-5, 6, size=(64, 300))
        assert np.count_nonzero(ia) * 300 > TILE_ENTRIES
        a = Q.asarray((ia * 2).tolist())
        b = Q.asarray([[Fraction(int(x), 3) for x in row] for row in ib])
        # an independent reference: object matmul over Python ints
        want = (ia.astype(object) @ ib.astype(object)) * 2
        got = Q.matmul(a, b)
        assert got.tolist() == [[Fraction(int(x), 3) for x in row] for row in want]


class TestSingleTile:
    """A product one tile covers returns that tile's product at once; it
    equals the tiled loop, forced with tiles of four entries."""

    @staticmethod
    def both_ways(a, b, p=None):
        one = exactla._int_matmul(a, b, p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactla, "TILE_ENTRIES", 4)
            tiled = exactla._int_matmul(a, b, p)
        assert one.dtype == tiled.dtype
        assert one.tolist() == tiled.tolist()
        return one

    def test_rational_numerators_in_int64(self):
        rng = np.random.default_rng(5)
        a = rng.integers(-50, 51, size=(5, 7))
        b = rng.integers(-50, 51, size=(7, 4))
        got = self.both_ways(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()

    def test_rational_numerators_past_int64(self):
        # Python-int numerators take the object product; int64 numerators
        # whose sums pass 2**63 accumulate chunk by chunk in Python ints
        rng = random.Random(6)
        wide = np.array([[(1 << 70) + rng.randrange(99) for _ in range(3)] for _ in range(2)],
                        dtype=object)
        narrow = np.array([[rng.randrange(-9, 10) for _ in range(2)] for _ in range(3)],
                          dtype=object)
        got = self.both_ways(wide, narrow)
        assert got.dtype == object and got.tolist() == (wide @ narrow).tolist()
        a = np.array([[(1 << 40) - rng.randrange(64) for _ in range(1 << 13)]], dtype=np.int64)
        b = np.array([[(1 << 12) - rng.randrange(8)] for _ in range(1 << 13)], dtype=np.int64)
        got = self.both_ways(a, b)
        assert got.dtype == object
        assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()

    def test_largest_prime(self):
        rng = np.random.default_rng(7)
        a = rng.integers(P_MAX - 64, P_MAX, size=(3, 5), dtype=np.int64)
        b = rng.integers(P_MAX - 64, P_MAX, size=(5, 2), dtype=np.int64)
        got = self.both_ways(a, b, P_MAX)
        assert got.dtype == np.int64 and got.tolist() == python_matmul_mod(a, b, P_MAX)

    @pytest.mark.parametrize("spec", [Q, F7])
    def test_tensordot_over_the_raw_arrays(self, spec):
        # a 2 x 3 x 4 tensor against a 4 x 3 x 2 one over two axes, the
        # rationals over 1/6 and 1/5: against a loop over Fractions
        rng = random.Random(8)
        a = spec.asarray([[Fraction(rng.randrange(-5, 6), 6) for _ in range(12)]
                          for _ in range(2)]).reshape((2, 3, 4))
        b = spec.asarray([[Fraction(rng.randrange(-5, 6), 5) for _ in range(6)]
                          for _ in range(4)]).reshape((4, 3, 2))
        got = spec.tensordot(a, b, ([1, 2], [1, 0]))
        want = [[sum((Fraction(a[i, j, k]) * Fraction(b[k, j, m])
                      for j in range(3) for k in range(4)), Fraction(0))
                 for m in range(2)] for i in range(2)]
        assert got.shape == (2, 2)
        assert got.tolist() == [[spec.coerce(x) for x in row] for row in want]


class TestKernel:
    def test_identity_injective(self):
        assert kernel(Q, Q.eye(2)).shape == (2, 0)

    def test_gf2_forced(self):
        a = F2.asarray([[1, 1], [1, 1]])
        ker = kernel(F2, a)
        assert ker.shape[1] == 1
        assert same(ker, F2.asarray([[1], [1]]))

    @pytest.mark.parametrize("spec", [Q, F3, F7])
    def test_rank_two_5x3(self, spec):
        rng = random.Random(31)
        # rank-2 by construction: third column = sum of the first two
        for _ in range(10):
            c1 = [rng.randrange(-4, 5) for _ in range(5)]
            c2 = [rng.randrange(-4, 5) for _ in range(5)]
            rows = [[c1[i], c2[i], c1[i] + c2[i]] for i in range(5)]
            a = spec.asarray(rows)
            if gauss_rank(spec, a) != 2:
                continue
            ker = kernel(spec, a)
            assert ker.shape[1] == 1
            assert is_zero(spec, spec.matmul(a, ker))

    @pytest.mark.parametrize("spec", [Q, F7])
    def test_soundness_and_completeness(self, spec):
        rng = random.Random(7)
        for _ in range(30):
            a = rand_mat(spec, rng.randrange(1, 6), rng.randrange(1, 6), rng, span=3)
            ker = kernel(spec, a)
            assert is_zero(spec, spec.matmul(a, ker))
            assert ker.shape[1] + gauss_rank(spec, a) == a.shape[1]
            assert rank(spec, ker) == ker.shape[1]

    def test_zero_rows(self):
        a = Q.zeros((0, 3))
        assert kernel(Q, a).shape == (3, 3)


class TestSolveAffine:
    def test_identity(self):
        v = Q.asarray([[2], [3]])
        sol = solve_affine(Q, Q.eye(2), v)
        assert sol is not None
        x, null = sol
        assert same(x, v) and null.shape == (2, 0)

    def test_no_solution(self):
        assert solve_affine(Q, Q.asarray([[0]]), Q.asarray([[1]])) is None

    @pytest.mark.parametrize("spec", [Q, F3, F7])
    def test_substitution_oracle(self, spec):
        rng = random.Random(13)
        hits = 0
        for _ in range(40):
            a = rand_mat(spec, rng.randrange(1, 5), rng.randrange(1, 5), rng, span=3)
            b = rand_mat(spec, a.shape[0], 1, rng, span=3)
            sol = solve_affine(spec, a, b)
            if sol is None:
                # verify infeasibility: rank of [a|b] exceeds rank of a
                assert gauss_rank(spec, spec.concatenate([a, b], axis=1)) \
                    == gauss_rank(spec, a) + 1
                continue
            hits += 1
            x, null = sol
            assert same(spec.matmul(a, x), b)
            assert same(null, kernel(spec, a))
            for v in null.T:
                v = v.reshape(-1, 1)
                assert is_zero(spec, spec.matmul(a, v))
                assert same(spec.matmul(a, spec.reduce(x + v)), b)
        assert hits > 5

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_affine(Q, Q.eye(2), Q.zeros((3, 1)))


class TestInverse:
    @pytest.mark.parametrize("spec", [Q, F3, F7])
    def test_two_sided_and_agrees_with_solve(self, spec):
        rng = random.Random(23)
        seen = {True: 0, False: 0}
        for _ in range(40):
            n = rng.randrange(1, 5)
            a = rand_mat(spec, n, n, rng, span=2)
            inv = inverse(spec, a)
            seen[inv is not None] += 1
            assert (inv is not None) == (gauss_rank(spec, a) == n)
            if inv is None:
                assert solve_affine(spec, a, spec.eye(n)) is None
                continue
            assert same(spec.matmul(a, inv), spec.eye(n))
            assert same(spec.matmul(inv, a), spec.eye(n))
            assert same(inv, solve_affine(spec, a, spec.eye(n))[0])
        assert seen[True] and seen[False]

    def test_not_square(self):
        # a full-row-rank 1x2 matrix has right inverses but no inverse
        assert inverse(Q, Q.asarray([[1, 0]])) is None

    def test_empty(self):
        assert inverse(F7, F7.zeros((0, 0))).shape == (0, 0)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng1, rng2 = random.Random(99), random.Random(99)
        for spec in (Q, F7):
            a1, a2 = rand_mat(spec, 4, 6, rng1), rand_mat(spec, 4, 6, rng2)
            assert same(spec.rref(a1)[0], spec.rref(a2)[0])
            assert kernel(spec, a1).tolist() == kernel(spec, a2).tolist()

    def test_backend_reported(self):
        assert kernel_backend() == "numpy"


class TestRref:
    @pytest.mark.parametrize("spec", [Q, F2, F7])
    def test_pivots_are_unit_columns(self, spec):
        rng = random.Random(3)
        for _ in range(20):
            a = rand_mat(spec, 4, 5, rng, span=2)
            r, piv = spec.rref(a)
            for i, c in enumerate(piv):
                col = [r[k, c] for k in range(r.shape[0])]
                assert col[i] == spec.one
                assert all(col[k] == spec.zero for k in range(r.shape[0]) if k != i)
            assert rank(spec, a) == gauss_rank(spec, a)

    def test_input_untouched(self):
        a = F7.asarray([[0, 3], [5, 1]])
        before = a.copy()
        F7.rref(a)
        assert same(a, before)


# ---------------------------------------------------------------------------
# Differential tests against sympy's DomainMatrix over QQ
# ---------------------------------------------------------------------------

# numerators near 2**31 push the elimination steps past the int64 guard,
# those near 2**62 the sums and products; the denominators are primes of up to
# 61 bits, so the common denominator of a matrix runs far past 2**63
BIG_NUMERATOR = st.one_of(
    st.integers(-3, 3),
    st.integers((1 << 31) - 8, (1 << 31) + 8),
    st.integers(-(1 << 62) - 8, -(1 << 62) + 8))
BIG_DENOMINATOR = st.sampled_from([1, 1, 2, 3, 7, 1000003, (1 << 31) - 1, (1 << 61) - 1])
BIG_Q = st.builds(Fraction, BIG_NUMERATOR, BIG_DENOMINATOR)


@st.composite
def big_q_matrices(draw, rows=None, cols=None):
    """A rational matrix with zeros mixed in, and at times a row that is a
    multiple of another, so that ranks drop."""
    rows = draw(st.integers(1, 5)) if rows is None else rows
    cols = draw(st.integers(1, 5)) if cols is None else cols
    entry = st.one_of(st.just(Fraction(0)), BIG_Q)
    vals = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    m = [vals[i * cols:(i + 1) * cols] for i in range(rows)]
    if rows > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        k = draw(BIG_Q)
        m[i] = [k * x for x in m[j]]
    return m


def to_dm(rows: list, cols: int) -> DomainMatrix:
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                        (len(rows), cols), QQ)


def from_dm(dm: DomainMatrix) -> list:
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in dm.to_list()]


class TestAgainstSympy:
    """The rational lane against DomainMatrix over QQ, past the int64
    guards."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matmul(self, data):
        rows, inner, cols = (data.draw(st.integers(1, 5)) for _ in range(3))
        a = data.draw(big_q_matrices(rows, inner))
        b = data.draw(big_q_matrices(inner, cols))
        got = Q.matmul(Q.asarray(a), Q.asarray(b))
        assert got.tolist() == from_dm(to_dm(a, inner).matmul(to_dm(b, cols)))

    @settings(max_examples=60, deadline=None)
    @given(big_q_matrices())
    def test_rref(self, a):
        r, piv = Q.rref(Q.asarray(a))
        ref, ref_piv = to_dm(a, len(a[0])).rref()
        assert piv == list(ref_piv)
        assert r.tolist() == from_dm(ref)

    @settings(max_examples=40, deadline=None)
    @given(big_q_matrices())
    def test_kernel(self, a):
        ker = kernel(Q, Q.asarray(a))
        ref = from_dm(to_dm(a, len(a[0])).nullspace(divide_last=True))
        assert ker.T.tolist() == ref

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_solve_affine(self, data):
        a = data.draw(big_q_matrices())
        b = data.draw(big_q_matrices(len(a), 1))
        sol = solve_affine(Q, Q.asarray(a), Q.asarray(b))
        n = len(a[0])
        dm_a = to_dm(a, n)
        consistent = dm_a.rank() == dm_a.hstack(to_dm(b, 1)).rank()
        assert (sol is not None) == consistent
        if sol is not None:
            x, null = sol
            assert from_dm(dm_a.matmul(to_dm(x.tolist(), 1))) == b
            assert null.T.tolist() == from_dm(dm_a.nullspace(divide_last=True))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_inverse(self, data):
        n = data.draw(st.integers(1, 4))
        a = data.draw(big_q_matrices(n, n))
        inv = inverse(Q, Q.asarray(a))
        dm = to_dm(a, n)
        assert (inv is not None) == (dm.det() != 0)
        if inv is not None:
            assert inv.tolist() == from_dm(dm.inv())


class TestCanonicalForm:
    """A rational matrix is stored as integer numerators over one positive
    denominator with gcd(den, numerators) = 1, int64 while they fit."""

    def test_two_routes_give_the_same_storage(self):
        a = Q.asarray([["1/2", "1/3"], ["1/6", 0]])
        b = Q.asarray([[6, 0], [0, 6]])
        via_product = Q.matmul(a, b)
        via_scaling = a * 6
        direct = Q.asarray([[3, 2], [1, 0]])
        for x in (via_product, via_scaling):
            assert x.den == direct.den == 1
            assert x.num.dtype == direct.num.dtype == np.int64
            assert np.array_equal(x.num, direct.num)
            assert x.tolist() == direct.tolist()

    def test_zero_has_denominator_one(self):
        a = Q.asarray([["1/3", "-2/7"]])
        assert a.den == 21
        for z in (a - a, a * 0, Q.zeros((2, 2)), Q.matmul(Q.zeros((2, 1)), a)):
            assert z.den == 1 and not z.num.any()

    def test_denominator_positive_and_reduced(self):
        # the elimination meets a negative pivot here
        r, piv = Q.rref(Q.asarray([[0, 1], [-2, 0]]))
        assert piv == [0, 1] and r.den == 1 and r.tolist() == [[1, 0], [0, 1]]
        a = Q.asarray([["2/4", "-3/9"]]) * Fraction(-4, 6)
        assert a.den > 0
        assert math.gcd(a.den, *map(int, a.num.flat)) == 1
        assert a.tolist() == [[Fraction(-1, 3), Fraction(2, 9)]]

    def test_wide_numerators_come_back_to_int64(self):
        big = Q.asarray([[(1 << 62) + 1, 1]])
        twice = big + big
        assert twice.num.dtype == object
        assert twice.tolist() == [[Fraction((1 << 63) + 2), Fraction(2)]]
        back = twice - big
        assert back.num.dtype == np.int64 and Q.equal(back, big)
        assert (big * -3).tolist() == [[-3 * ((1 << 62) + 1), -3]]

    def test_a_slice_is_reduced(self):
        a = Q.asarray([["1/2", 1], [2, 4]])
        row = a[1]
        assert row.den == 1 and row.tolist() == [2, 4]
        assert a[0, 0] == Fraction(1, 2) and type(a[0, 0]) is Fraction

    def test_assignment_rescales(self):
        a = Q.zeros((2, 2))
        a[0, 1] = Fraction(1, 3)
        assert a.den == 3 and a.tolist() == [[0, Fraction(1, 3)], [0, 0]]
        a[0, 1] = 0
        assert a.den == 1 and not a.num.any()
