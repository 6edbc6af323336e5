"""Exact scalars, dense linear algebra and sparse tensors over Q and GF(p).

Scalars are plain Python values: `fractions.Fraction` over the rationals,
int residues in [0, p) over a prime field.  Every operation is exact and
deterministic (identical inputs give bit-identical outputs).

A GF(p) matrix is an int64 numpy array with entries in [0, p).  A rational
matrix is a QArray: an integer numerator array `num` over one positive
integer denominator `den`, always in canonical form: gcd(den, numerators)
= 1, a zero matrix has den 1, and the numerators are int64 when every
|numerator| < 2**63 and Python ints in an object array otherwise.  Equal
rational matrices therefore have equal denominators and numerators, and
equality is structural.  Only this module reads the numerators; elsewhere
a QArray stands in for the numpy array of its values: shape, reshape,
transpose, indexing (a scalar index gives a Fraction), index assignment,
+, -, scaling by a scalar, and tolist() (Fractions).  Reshapes and
transposes share numerators, like numpy views; a write through one is seen
by the other only when it keeps the denominator and dtype, so the package
never writes through a view.  The solvers `rank`, `kernel` and
`solve_affine` take `(spec, matrix)`, the matrix held as below, and all
go through one deterministic reduced row echelon form (_echelon);
`inverse` is solve_affine(a, I).

Both fields share one exact integer product on float64 BLAS
(_int_matmul).  With integer factors bounded by |a| * |b| <= top, the
inner dimension is cut into chunks of k terms with k * top + carry <
2**53, so every partial sum of a chunk, plus a carried value below
`carry`, is an integer that float64 holds exactly; it is cast back to
int64 and combined there.  Over GF(p) the factors are residues, top =
(p-1)**2, and each chunk's sums plus the residues carried from the
previous chunk (carry = p-1) are reduced mod p; with p capped below 2**20
a chunk has at least 8191 terms.  Over Q the factors are the numerator
arrays, the product's denominator is the product of the denominators,
and the chunk sums accumulate in int64 when inner * top < 2**63 and in
Python ints beyond.  When top >= 2**53 not one term fits a float64, and
the product is taken over Python ints.  There is no second product
kernel: an outer product of two tensors (two pieces of a chain that share
no wire) is FieldSpec.tensordot over no axes, one integer product of
inner dimension 1.
The tiles are small, and a second BLAS thread does not make them faster,
so the package loads numpy with one OpenBLAS thread unless the caller set
a thread count (see the package docstring).

A SparseTensor holds an exact tensor by its nonzeros: their row-major
positions and their values (residues, or numerators over one
denominator).  sparse_tensordot contracts two of them by index
arithmetic on int64 (a join on the contracted coordinates, a product
per joined pair, np.add.reduceat over the sorted output positions; over
no axes, the outer product, the positions alone); sparse_sum adds two
by merging their nonzeros, and sparse_exact says when the int64 sums of
a product cannot wrap.  FieldSpec.equal compares either form with the
other by sorted nonzeros.

A tensor of more than SPARSE_FIXED entries is held as a SparseTensor,
one of at most that many as a dense array (_held): so are the chain
evaluator's cores and results and a one-label morphism's blocks.
MAX_STATE_ENTRIES bounds the stored entries of a held intermediate (the
nonzeros of a sparse one) and the dense array of a SparseTensor made
dense (_dense); ChainOverflow names the entries, a solver's ExactError
the site and the shape.  One held product, held_tensordot, serves each
pair of a chain and each grade of `@`.  On the doubles most products are
almost empty (one nonzero in 10^3 to 10^4 entries), so it takes one dense
FieldSpec.tensordot or sparse_tensordot, whichever a cost estimate on
the entries, the nonzeros and the joined pairs finds cheaper
(_sparse_product), the sparse one only where its int64 sums are exact.
Both give the same exact tensor, in the form of their route; held_place
puts a tensor beside an identity without a product.

A matrix held as a SparseTensor is row reduced without being made dense
(sparse_rref), in the manner of structured Gaussian elimination
(LaMacchia and Odlyzko, CRYPTO '90).  On the nonzeros' (row, column)
pairs, each row with exactly one nonzero makes its column c a unit
column, every entry in a unit column is dropped, and this repeats until
no row has one nonzero left.  A row with one nonzero is a multiple of
e_c, so e_c is in the row space and is the reduced form's row with pivot
c; clearing column c in the other rows is a row operation.  The reduced
form is unique, so the rows e_c and the reduced rows of what is left
(its live rows and columns scattered into a dense core, reduced by
FieldSpec.rref) are the reduced form of the whole, and over Q the same
canonical QArray.  The core is checked against MAX_STATE_ENTRIES
before it is allocated.  The systems of the Hopf-module decomposition
are almost monomial: taft3's largest, 1458 x 162, leaves no core when
it has 378 nonzeros and an 18 x 18 one when it has 702.  A block of at
most SPARSE_FIXED entries is never held sparse, so small systems
take FieldSpec.rref as they are.  The solvers read a reduced form by its
pivots and its rows at the other columns (at the pivots the rows are the
identity, and a unit row is zero elsewhere), so neither route writes the
unit rows out.

The GF(p) row reduction runs on int64, where (p-1)**2 < 2**40.  The Q row
reduction is fraction-free Gauss-Jordan elimination on the numerator
matrix, whose scale does not change the reduced form.  With pivot p in
row r, each row x with x[c] != 0 becomes p * x - x[c] * (row r), divided
by the gcd of its entries: rows stay primitive, so entries stay near the
size of the reduced form's own numerators.  At the end each pivot row is
its reduced row times its pivot entry, and the rows are put over the lcm
of the pivot entries.  A step runs on int64 while 2 * max|entry|**2 <
2**63 and on Python ints beyond.  Bareiss's variant (Math. Comp. 22,
1968), which divides every row by the previous pivot instead, keeps each
entry a minor of the input, so entries carry the determinant of the
leading block: on a 1116 x 217 section-space system of a random
six-dimensional kS3 module one Bareiss reduction
took 9 s against 0.25 s for this one, on a 2-core x86-64 host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_PRIME = 1 << 20

# float64 holds every integer below 2**53 exactly
EXACT_FLOAT = 1 << 53

# an int64 numerator has |x| < INT64_BOUND
INT64_BOUND = 1 << 63

# Entries of one float64 temporary in _int_matmul (a tile of either factor
# or of the product).  Bounds the memory a large product takes beyond its
# factors and result.
TILE_ENTRIES = 1 << 20

# Products that may meet at one entry of a sparse GF(p) product: each is
# below (p-1)**2 < 2**40, so the int64 sum of fewer than 2**23 is exact.
SPARSE_TERMS = 1 << 23

# The int64 arrays of one entry per joined pair that sparse_tensordot
# holds at once, at most: a budget of pairs costs this many entries each.
JOIN_ARRAYS = 5

# Cap on the stored entries of any held intermediate (its nonzeros when it
# is sparse), and so of a chain's result, per product.
MAX_STATE_ENTRIES = 3 * 10**8

# The cost rule of held_tensordot (see _sparse_product), in passes over one
# stored entry, about a nanosecond each: the BLAS multiply-adds per pass,
# the sparse product's cost per nonzero and per joined pair (a sort, a
# binary search and several gathers), and its fixed cost beyond the dense
# route's (a few dozen numpy calls).  SPARSE_FIXED is also the size rule
# of the held form (_held).
DENSE_FLOPS_PER_PASS = 8
SPARSE_PASSES = 64
SPARSE_FIXED = 20000


class ExactError(Exception):
    """Base error for the exact-linalg layer."""


class DimensionMismatch(ExactError):
    pass


class ChainOverflow(ExactError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals, or GF(p) for a word-sized prime p."""

    kind: str  # "Q" | "Fp"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ExactError("rationals take no modulus")
        elif self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ExactError(f"modulus {self.p!r} is not prime")
            if self.p >= MAX_PRIME:
                raise ExactError(f"modulus {self.p} too large (max {MAX_PRIME - 1})")
        else:
            raise ExactError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("Fp", p)

    @property
    def is_rationals(self) -> bool:
        return self.kind == "Q"

    # -- scalar helpers ------------------------------------------------

    def coerce(self, x) -> Fraction | int:
        if self.is_rationals:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, str):
                return Fraction(x)
            raise ExactError(f"cannot coerce {x!r} into Q")
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ExactError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        if isinstance(x, (int, np.integer)):
            return int(x) % self.p
        raise ExactError(f"cannot coerce {x!r} into GF({self.p})")

    def show(self, x) -> str:
        return str(x)

    @property
    def zero(self):
        return Fraction(0) if self.is_rationals else 0

    @property
    def one(self):
        return Fraction(1) if self.is_rationals else 1

    def describe(self) -> str:
        return "Q" if self.is_rationals else f"GF({self.p})"

    # -- array helpers ---------------------------------------------------

    def zeros(self, shape):
        out = np.zeros(shape, dtype=np.int64)
        return _raw(out, 1) if self.is_rationals else out

    def eye(self, n: int):
        out = np.eye(n, dtype=np.int64)
        return _raw(out, 1) if self.is_rationals else out

    def asarray(self, rows):
        """A matrix from a list of rows of coercible scalars."""
        shape = (len(rows), len(rows[0]) if rows else 0)
        if not self.is_rationals:
            # residues pass as they are: presentations hand over coerced tables
            p = self.p
            vals = [v if type(v) is int and 0 <= v < p else self.coerce(v)
                    for row in rows for v in row]
            return np.array(vals, dtype=np.int64).reshape(shape)
        vals = [v if type(v) is Fraction else self.coerce(v) for row in rows for v in row]
        den = math.lcm(*{x.denominator for x in vals})
        nums = [x.numerator * (den // x.denominator) for x in vals]
        wide = max(map(abs, nums), default=0) >= INT64_BOUND
        return _qarray(np.array(nums, dtype=object if wide else np.int64)
                       .reshape(shape), den)

    def reduce(self, a):
        return a if self.is_rationals else a % self.p

    def equal(self, a, b) -> bool:
        """Whether two tensors, dense or SparseTensor, hold the same field
        elements: equal arrays, as both fields keep one canonical form
        (residues in [0, p) over GF(p)).  With a SparseTensor on either
        side the two are compared by their sorted nonzeros, and nothing
        is made dense."""
        if isinstance(a, SparseTensor) or isinstance(b, SparseTensor):
            return _sparse_equal(self, a, b)
        if self.is_rationals:
            return a.den == b.den and np.array_equal(a.num, b.num)
        return np.array_equal(a, b)

    def with_identity(self, a, shape: tuple):
        """a ⊗ id on axes of dimensions `shape` for a dense array a: a's
        axes, then the identity's (shape, then shape again).  Nothing is
        multiplied: entry x of a is written on the diagonal of its own
        n x n block (n the product of shape) in one strided assignment."""
        n = math.prod(shape)
        if n == 1:
            return a.reshape(tuple(a.shape) + tuple(shape) * 2)
        num = a.num if self.is_rationals else a
        out = np.zeros((num.size, n * n), dtype=num.dtype)
        out[:, ::n + 1] = num.reshape(-1, 1)
        out = out.reshape(tuple(a.shape) + tuple(shape) * 2)
        # a's nonzeros, so a's denominator, unless there are no entries
        return _raw(out, a.den if n else 1) if self.is_rationals else out

    def concatenate(self, arrays, axis: int = 0):
        """np.concatenate of matrices over this field."""
        if not self.is_rationals:
            return np.concatenate(arrays, axis=axis)
        den = math.lcm(*(x.den for x in arrays))
        return _qarray(np.concatenate([_scaled(x.num, den // x.den) for x in arrays],
                                      axis=axis), den)

    def matmul(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise DimensionMismatch(f"{a.shape} @ {b.shape}")
        if not self.is_rationals:
            return _int_matmul(a, b, self.p)
        return _qarray(_int_matmul(a.num, b.num), a.den * b.den)

    def tensordot(self, a, b, axes):
        """a and b contracted over the axes lists (ax_a, ax_b), the free
        axes of a then those of b: one matmul of the transposed and
        reshaped integer arrays (over Q the numerators, over their
        denominators, with the product canonical once)."""
        ax_a, ax_b = axes
        na, nb = (a.num, b.num) if self.is_rationals else (a, b)
        free_a = [i for i in range(na.ndim) if i not in ax_a]
        free_b = [i for i in range(nb.ndim) if i not in ax_b]
        shape = [na.shape[i] for i in free_a] + [nb.shape[i] for i in free_b]
        con = math.prod(na.shape[i] for i in ax_a)
        at = na.transpose(free_a + list(ax_a)).reshape(-1, con)
        bt = nb.transpose(list(ax_b) + free_b).reshape(con, -1)
        if not self.is_rationals:
            return self.matmul(at, bt).reshape(shape)
        out = self.matmul(_raw(at, a.den), _raw(bt, b.den))
        return _raw(out.num.reshape(shape), out.den)

    def rref(self, a) -> tuple:
        """Reduced row echelon form; deterministic first-nonzero pivoting."""
        if not self.is_rationals:
            return _rref_mod(a, self.p)
        return _rref_int(a.num)


# ---------------------------------------------------------------------------
# Rational arrays
# ---------------------------------------------------------------------------


def _bound(num: np.ndarray) -> int:
    """max |x| over an integer array, as a Python int (0 when empty).  An
    int64 array here never holds -2**63, whose absolute value wraps."""
    if num.size == 0:
        return 0
    if num.dtype == object:
        return max(map(abs, num.flat))
    return int(np.abs(num).max())


def _exact(op, x: np.ndarray, y, top: int):
    """op(x, y) over the integers, on int64 when `top` bounds every |result|
    below 2**63 and both operands are int64, on Python ints otherwise."""
    y_wide = y.dtype == object if isinstance(y, np.ndarray) else abs(y) >= INT64_BOUND
    if top < INT64_BOUND and x.dtype != object and not y_wide:
        return op(x, y)
    y = y.astype(object) if isinstance(y, np.ndarray) else y
    return op(x.astype(object), y)


def _scaled(num: np.ndarray, factor: int) -> np.ndarray:
    """num * factor over the integers."""
    if factor == 1:
        return num
    return _exact(np.multiply, num, factor, _bound(num) * abs(factor))


def _raw(num: np.ndarray, den: int) -> "QArray":
    """A QArray from numerators and a denominator already canonical."""
    q = object.__new__(QArray)
    q.num, q.den = num, den
    return q


def _qarray(num: np.ndarray, den: int) -> "QArray":
    """The canonical QArray of num / den, for integer numerators and a
    nonzero integer den."""
    if den < 0:
        num, den = -num, -den
    if den != 1:
        g = math.gcd(den, int(np.gcd.reduce(num, axis=None)) if num.size else 0)
        if g != 1:
            # g divides every numerator: past int64 it leaves only zeros
            wide = num.dtype != object and g >= INT64_BOUND
            num, den = np.zeros_like(num) if wide else num // g, den // g
    if num.dtype == object and _bound(num) < INT64_BOUND:
        num = num.astype(np.int64)
    return _raw(num, den)


def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(int(x))


class QArray:
    """A rational array: integer numerators over one positive denominator,
    in the canonical form of the module docstring.  Build one with the
    FieldSpec.rationals() methods zeros, eye and asarray."""

    __slots__ = ("num", "den")
    # numpy ufuncs must not run on a QArray as if it were an array
    __array_ufunc__ = None

    def __array__(self, *args, **kwargs):
        raise TypeError("a QArray has no plain ndarray form; use tolist()")

    # -- shape ---------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.num.shape

    @property
    def ndim(self) -> int:
        return self.num.ndim

    @property
    def size(self) -> int:
        return self.num.size

    @property
    def dtype(self):
        return self.num.dtype

    @property
    def itemsize(self) -> int:
        return self.num.itemsize

    def __len__(self) -> int:
        return len(self.num)

    def __bool__(self):
        raise TypeError("the truth value of a QArray is ambiguous")

    @property
    def T(self) -> "QArray":
        return _raw(self.num.T, self.den)

    def transpose(self, *axes) -> "QArray":
        return _raw(self.num.transpose(*axes), self.den)

    def reshape(self, *shape) -> "QArray":
        return _raw(self.num.reshape(*shape), self.den)

    def ravel(self) -> "QArray":
        return _raw(self.num.ravel(), self.den)

    def copy(self) -> "QArray":
        return _raw(self.num.copy(), self.den)

    # -- entries -------------------------------------------------------------

    def __getitem__(self, idx):
        x = self.num[idx]
        if isinstance(x, np.ndarray):
            return _qarray(x, self.den)
        return Fraction(int(x), self.den)

    def __setitem__(self, idx, value):
        if not isinstance(value, QArray):
            value = _fraction(value)
            value = _qarray(np.array(value.numerator, dtype=object), value.denominator)
        den = math.lcm(self.den, value.den)
        num = _scaled(self.num, den // self.den)
        vnum = _scaled(value.num, den // value.den)
        if vnum.dtype == object and num.dtype != object:
            num = num.astype(object)
        num[idx] = vnum
        q = _qarray(num, den)
        self.num, self.den = q.num, q.den

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def tolist(self):
        """The entries as (nested) lists of Fractions."""
        flat = self.num.ravel().tolist()
        made = {x: Fraction(x, self.den) for x in set(flat)}
        return np.array([made[x] for x in flat], dtype=object).reshape(self.shape).tolist()

    def __repr__(self):
        return f"QArray({self.tolist()!r})"

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other, op):
        if not isinstance(other, QArray):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a = _scaled(self.num, den // self.den)
        b = _scaled(other.num, den // other.den)
        return _qarray(_exact(op, a, b, _bound(a) + _bound(b)), den)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __neg__(self) -> "QArray":
        return _raw(-self.num, self.den)

    def __mul__(self, c):
        """Scaling by a rational scalar."""
        if isinstance(c, (QArray, np.ndarray)):
            return NotImplemented
        c = _fraction(c)
        return _qarray(_scaled(self.num, c.numerator), self.den * c.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        """Entrywise comparison, as for numpy arrays."""
        if isinstance(other, QArray):
            return _scaled(self.num, other.den) == _scaled(other.num, self.den)
        if isinstance(other, (Fraction, int, np.integer)):
            c = _fraction(other)
            return _scaled(self.num, c.denominator) == c.numerator * self.den
        return NotImplemented


def _primitive(rows: np.ndarray) -> np.ndarray:
    """Each row divided by the gcd of its entries (zero rows kept)."""
    g = np.gcd.reduce(rows, axis=1)
    g[g == 0] = 1
    return rows // g[:, None]


def _rref_int(num: np.ndarray) -> tuple:
    """Reduced row echelon form of the rational matrix with numerators
    `num` (over any denominator), by fraction-free Gauss-Jordan elimination
    with primitive rows (see the module docstring); `num` is not modified.

    Zero rows change neither the row space nor the reduced form, so they
    are dropped before the elimination and whenever a step makes one.
    """
    rows, cols = num.shape
    m = _primitive(num[num.any(axis=1)])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= len(m):
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        if hit.size:
            if m.dtype != object and 2 * _bound(m) ** 2 >= INT64_BOUND:
                m = m.astype(object)
            m[hit] = _primitive(m[r, c] * m[hit] - np.outer(m[hit, c], m[r]))
        pivots.append(c)
        r += 1
        below = m[r:]
        dead = ~below.any(axis=1)
        if dead.any():
            m = np.concatenate([m[:r], below[~dead]])
    # row i is its reduced row times its pivot entry: put the rows over the
    # lcm of the pivot entries
    m = m[:len(pivots)]
    piv = [int(m[i, c]) for i, c in enumerate(pivots)]
    den = math.lcm(*piv)
    scale = np.array([den // x for x in piv],
                     dtype=np.int64 if den < INT64_BOUND else object)[:, None]
    out = np.zeros((rows, cols), dtype=np.int64)
    if pivots:
        reduced = _exact(np.multiply, m, scale, _bound(m) * _bound(scale))
        out = out.astype(reduced.dtype)
        out[:len(pivots)] = reduced
    return _qarray(out, den), pivots


# ---------------------------------------------------------------------------
# The integer product and the GF(p) row reduction
# ---------------------------------------------------------------------------


def _int_matmul(a: np.ndarray, b: np.ndarray, p: int | None = None) -> np.ndarray:
    """Exact product of two integer matrices, on float64 BLAS (see the module
    docstring); reduced mod p when p is given.

    Precondition for p: every entry of `a` and `b` lies in [0, p); the
    result is then int64 with entries in [0, p).  Without p the result is
    int64 when every partial sum stays below 2**63, and Python ints in an
    object array otherwise.  When one tile covers the product (a single
    chunk, and every tile within TILE_ENTRIES), as for the small
    contractions of the chain evaluator, that tile's product is the result
    and the tiling loop is never entered.
    """
    rows, inner = a.shape
    cols = b.shape[1]
    if p is None:
        top = _bound(a) * _bound(b)
        if top >= EXACT_FLOAT or a.dtype == object or b.dtype == object:
            return a.astype(object) @ b.astype(object)
        carry = 0
        dtype = np.int64 if inner * top < INT64_BOUND else object
    else:
        top, carry, dtype = (p - 1) ** 2, p - 1, np.int64
    if rows == 0 or cols == 0 or inner == 0 or top == 0:
        return np.zeros((rows, cols), dtype=dtype)
    chunk = min(inner, TILE_ENTRIES, (EXACT_FLOAT - 1 - carry) // top)
    row_tile = min(rows, TILE_ENTRIES // chunk)
    col_tile = min(cols, TILE_ENTRIES // max(chunk, row_tile))
    if chunk == inner and row_tile == rows and col_tile == cols:
        # one tile: its sums are exact below 2**53, so int64 holds them
        part = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        return part if p is None else np.remainder(part, p, out=part)
    out = np.zeros((rows, cols), dtype=dtype)
    for j in range(0, cols, col_tile):
        for i in range(0, rows, row_tile):
            tile = out[i:i + row_tile, j:j + col_tile]
            for k in range(0, inner, chunk):
                part = (a[i:i + row_tile, k:k + chunk].astype(np.float64)
                        @ b[k:k + chunk, j:j + col_tile].astype(np.float64))
                if p is None:
                    tile += part.astype(np.int64)
                    continue
                if k:
                    part += tile
                # the sums are exact integers: reduce them in int64, which
                # is many times faster than np.fmod on float64
                np.remainder(part.astype(np.int64), p, out=tile)
    return out


def _rref_mod(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p, first-nonzero pivoting; `m` is not
    modified.

    Each pivot touches only the rows with a nonzero entry in its column,
    and only the columns from the pivot column on: left of it the pivot
    row is already zero.  The reduced form is unique, so skipping the
    zeros cannot change it.
    """
    m = m % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = m[r, c:] * inv % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        if others.size:
            m[others, c:] = (m[others, c:]
                             - np.outer(m[others, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots


# ---------------------------------------------------------------------------
# Sparse tensors
# ---------------------------------------------------------------------------


class SparseTensor:
    """An exact tensor held by its nonzero entries.

    `index` holds their row-major positions in `shape` (distinct, in any
    order) and `vals` their values: int64 residues in [1, p) over GF(p),
    int64 numerators over the positive denominator `den` over Q, in the
    canonical form of a QArray.  `size` is the dense entry count.  A tensor
    made from a dense array keeps it, and dense() hands it back.
    """

    __slots__ = ("shape", "index", "vals", "den", "_dense")

    def __init__(self, shape: tuple, index: np.ndarray, vals: np.ndarray,
                 den: int = 1, dense=None):
        self.shape, self.index, self.vals = tuple(shape), index, vals
        self.den, self._dense = den, dense

    @staticmethod
    def of(spec: FieldSpec, a) -> "SparseTensor | None":
        """The nonzeros of a dense array; None for Python-int numerators,
        which the sparse product does not take."""
        num = a.num if spec.is_rationals else a
        if num.dtype == object:
            return None
        flat = num.reshape(-1)
        index = np.flatnonzero(flat)
        return SparseTensor(a.shape, index, flat[index],
                            a.den if spec.is_rationals else 1, a)

    @staticmethod
    def eye(shape: tuple) -> "SparseTensor":
        """The identity on axes of dimensions `shape`, with shape * 2."""
        n = math.prod(shape)
        return SparseTensor(tuple(shape) * 2, np.arange(n, dtype=np.int64) * (n + 1),
                            np.ones(n, dtype=np.int64))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nnz(self) -> int:
        return len(self.index)

    def transpose(self, axes) -> "SparseTensor":
        if list(axes) == list(range(self.ndim)):
            return self
        coords = _coords(self)
        shape = tuple(self.shape[i] for i in axes)
        return SparseTensor(shape, _ravel([coords[i] for i in axes], shape, self.nnz),
                            self.vals, self.den)

    def reshape(self, shape) -> "SparseTensor":
        """The same entries in another shape (no -1): row-major positions
        do not change."""
        shape = tuple(shape)
        if math.prod(shape) != self.size:
            raise DimensionMismatch(f"cannot reshape {self.shape} into {shape}")
        dense = None if self._dense is None else self._dense.reshape(shape)
        return SparseTensor(shape, self.index, self.vals, self.den, dense)

    def canonical(self) -> tuple:
        """(index, vals) with the positions sorted."""
        index, vals = self.index, self.vals
        if len(index) > 1 and not (index[1:] > index[:-1]).all():
            order = np.argsort(index)
            index, vals = index[order], vals[order]
        return index, vals

    def dense(self, spec: FieldSpec):
        """The dense array: an int64 array over GF(p), a QArray over Q."""
        if self._dense is not None:
            return self._dense
        out = np.zeros(self.size, dtype=np.int64)
        out[self.index] = self.vals
        out = out.reshape(self.shape)
        return _raw(out, self.den) if spec.is_rationals else out


def _sparse_equal(spec: FieldSpec, a, b) -> bool:
    """FieldSpec.equal with a SparseTensor on at least one side: equal
    shapes, denominators and sorted nonzeros.  A dense side is read for
    its nonzeros; Python-int numerators there are past int64, so equal
    to no SparseTensor, whose values are int64 in the same canonical
    form."""
    if tuple(a.shape) != tuple(b.shape):
        return False
    a, b = (t if isinstance(t, SparseTensor) else SparseTensor.of(spec, t) for t in (a, b))
    if a is None or b is None or a.den != b.den or a.nnz != b.nnz:
        return False
    (ia, va), (ib, vb) = a.canonical(), b.canonical()
    return np.array_equal(ia, ib) and np.array_equal(va, vb)


def _coords(t: SparseTensor) -> tuple:
    """The per-axis coordinates of t's nonzeros."""
    if not t.shape:
        return ()
    return np.unravel_index(t.index, t.shape)


def _ravel(coords: list, dims: tuple, n: int) -> np.ndarray:
    """Row-major positions in `dims` of n entries' per-axis coordinates."""
    if not dims:
        return np.zeros(n, dtype=np.int64)
    return np.ravel_multi_index(coords, dims).astype(np.int64, copy=False)


def sparse_exact(spec: FieldSpec, a: SparseTensor, b: SparseTensor, inner: int) -> bool:
    """Whether sparse_tensordot sums exactly in int64 when at most `inner`
    products meet at one entry: over GF(p) each is below (p-1)**2 < 2**40,
    so fewer than SPARSE_TERMS of them fit; over Q, inner * max|a| * max|b|
    must stay below 2**63, the bound _int_matmul keeps for int64."""
    if not spec.is_rationals:
        return inner < SPARSE_TERMS
    return inner * _bound(a.vals) * _bound(b.vals) < INT64_BOUND


def sparse_tensordot(spec: FieldSpec, a: SparseTensor, b: SparseTensor,
                     ax_a: list, ax_b: list, max_pairs: int) -> SparseTensor | None:
    """a and b contracted over the axes ax_a of a and ax_b of b, with the
    free axes of a, then those of b, as a SparseTensor; None when more than
    max_pairs pairs of nonzeros meet.  Precondition: sparse_exact for inner
    = the product of the contracted dimensions.

    The nonzeros are joined on their contracted coordinates (b's sorted,
    each of a's matched to its run by searchsorted), the joined pairs
    multiplied, and the products summed per output position over the
    sorted positions (np.add.reduceat); zero sums are dropped.
    """
    if not ax_a:
        return _sparse_outer(spec, a, b, max_pairs)
    free_a = [i for i in range(a.ndim) if i not in ax_a]
    free_b = [i for i in range(b.ndim) if i not in ax_b]
    ca, cb = _coords(a), _coords(b)
    dims = tuple(a.shape[i] for i in ax_a)
    fdims_b = tuple(b.shape[i] for i in free_b)
    shape = tuple(a.shape[i] for i in free_a) + fdims_b
    key_a = _ravel([ca[i] for i in ax_a], dims, a.nnz)
    key_b = _ravel([cb[i] for i in ax_b], dims, b.nnz)
    order = np.argsort(key_b)
    key_b = key_b[order]
    lo = np.searchsorted(key_b, key_a, "left")
    runs = np.searchsorted(key_b, key_a, "right") - lo
    if runs.sum() > max_pairs:
        return None
    # the joined pairs (ia[k], ib[k]); the in-place steps keep at most
    # JOIN_ARRAYS arrays of one entry per pair alive
    ia = np.repeat(np.arange(len(key_a)), runs)
    ib = np.repeat(lo - (np.cumsum(runs) - runs), runs)
    ib += np.arange(len(ib))
    ib = order[ib]
    pos = _ravel([ca[i] for i in free_a], shape[:len(free_a)], a.nnz)[ia]
    pos *= math.prod(fdims_b)
    pos += _ravel([cb[i] for i in free_b], fdims_b, b.nnz)[ib]
    vals = a.vals[ia]
    vals *= b.vals[ib]
    del ia, ib
    return _summed(spec, shape, pos, vals, a.den * b.den)


def sparse_sum(spec: FieldSpec, a, b, negate: bool = False) -> SparseTensor | None:
    """a + b, or a - b when negate, for two tensors of one shape (dense or
    SparseTensor), as a SparseTensor: the nonzeros of both merged by
    position and summed, zero sums dropped, nothing made dense.  Over Q
    both are put over the lcm of the denominators; None when a numerator
    there, or a sum of two, could leave int64 (or a dense side holds
    Python-int numerators)."""
    a, b = (t if isinstance(t, SparseTensor) else SparseTensor.of(spec, t) for t in (a, b))
    if a is None or b is None:
        return None
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    if spec.is_rationals and _bound(a.vals) * fa + _bound(b.vals) * fb >= INT64_BOUND:
        return None
    vb = b.vals * fb
    return _summed(spec, a.shape, np.concatenate([a.index, b.index]),
                   np.concatenate([a.vals * fa, -vb if negate else vb]), den)


def _summed(spec: FieldSpec, shape: tuple, pos: np.ndarray, vals: np.ndarray,
            den: int) -> SparseTensor:
    """The SparseTensor of the terms (pos, vals) over den: the terms at one
    position summed over the sorted positions (np.add.reduceat), reduced
    mod p, zero sums dropped."""
    if len(pos):
        order = np.argsort(pos)
        pos, vals = pos[order], vals[order]
        first = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))
        pos, vals = pos[first], np.add.reduceat(vals, first)
        if not spec.is_rationals:
            vals %= spec.p
        keep = vals != 0
        pos, vals = pos[keep], vals[keep]
    return _sparse_result(spec, shape, pos, vals, den)


def _sparse_outer(spec: FieldSpec, a: SparseTensor, b: SparseTensor,
                  max_pairs: int) -> SparseTensor | None:
    """sparse_tensordot over no axes: every pair of nonzeros lands at its
    own position, so the product is index arithmetic alone, with no join,
    no sort and no sum (a product of two nonzeros is nonzero)."""
    if a.nnz * b.nnz > max_pairs:
        return None
    pos = (a.index[:, None] * b.size + b.index).ravel()
    vals = (a.vals[:, None] * b.vals).ravel()
    if not spec.is_rationals:
        vals %= spec.p
    return _sparse_result(spec, a.shape + b.shape, pos, vals, a.den * b.den)


def _sparse_result(spec: FieldSpec, shape: tuple, pos: np.ndarray, vals: np.ndarray,
                   den: int) -> SparseTensor:
    """The SparseTensor of nonzeros, over Q put in canonical form."""
    if spec.is_rationals:
        g = math.gcd(den, int(np.gcd.reduce(vals)) if len(vals) else 0)
        vals, den = vals // g, den // g
    return SparseTensor(shape, pos, vals, den)


# ---------------------------------------------------------------------------
# The held form, its bound and the held product
# ---------------------------------------------------------------------------


def _check_size(entries: int) -> None:
    if entries > MAX_STATE_ENTRIES:
        raise ChainOverflow(f"intermediate of {entries} entries; "
                            "restructure the formula (nest sub-composites)")


def _check_dense(site: str, shape: tuple) -> None:
    """Raise before a dense array of `shape` is allocated at `site` when it
    would hold more than MAX_STATE_ENTRIES entries."""
    if math.prod(shape) > MAX_STATE_ENTRIES:
        raise ExactError(f"{site}: a dense {' x '.join(map(str, shape))} array exceeds "
                         f"MAX_STATE_ENTRIES = {MAX_STATE_ENTRIES}")


def _held(spec: FieldSpec, t):
    """The held form of a tensor: a SparseTensor past SPARSE_FIXED entries
    (one read from a dense array keeps it), the dense array otherwise.  A
    smaller tensor is read for its nonzeros only by a product that
    _sparse_product sends to the sparse route, for less than its fixed cost."""
    if isinstance(t, SparseTensor):
        return t if t.size > SPARSE_FIXED else t.dense(spec)
    sparse = SparseTensor.of(spec, t) if t.size > SPARSE_FIXED else None
    return t if sparse is None else sparse


def _dense(spec: FieldSpec, t, site: str | None = None):
    """The dense array of a held tensor.  A SparseTensor's is bounded by
    MAX_STATE_ENTRIES like every intermediate (ChainOverflow), or, for a
    solver that names its `site`, by _check_dense."""
    if not isinstance(t, SparseTensor):
        return t
    if site is None:
        _check_size(t.size)
    else:
        _check_dense(site, t.shape)
    return t.dense(spec)


def held_tensordot(spec: FieldSpec, a, b, ax_a: list, ax_b: list):
    """Two held tensors contracted over the axes ax_a of a and ax_b of b,
    the free axes of a then those of b: sparse where _sparse_product finds
    that cheaper and exact, one dense FieldSpec.tensordot otherwise.  The
    result is in the form its route gave it, its stored entries bounded
    by MAX_STATE_ENTRIES."""
    inner = math.prod(a.shape[i] for i in ax_a)
    size = a.size // inner * (b.size // inner)
    out = _sparse_product(spec, a, b, ax_a, ax_b, inner, size)
    if out is not None:
        _check_size(out.nnz)
        return out
    _check_size(size)
    return spec.tensordot(_dense(spec, a), _dense(spec, b), axes=(ax_a, ax_b))


def _sparse_product(spec: FieldSpec, a, b, ax_a: list, ax_b: list, inner: int, size: int):
    """The product of a and b over the axes ax_a and ax_b, of `inner`
    entries, to a result of `size` entries, by sparse_tensordot, when that
    is exact and cheaper than the dense route; None otherwise.

    The dense route passes over both operands and the result, and makes
    size * inner multiply-adds on BLAS.  The sparse route costs
    SPARSE_FIXED, plus SPARSE_PASSES passes over each nonzero and over
    each pair of nonzeros its join makes.  So it may join at most as many
    pairs as leave it cheaper; sparse_tensordot counts them before it
    multiplies, and gives up when there are more.  The join holds
    JOIN_ARRAYS int64 arrays of one entry per pair, so the budget is also
    at most MAX_STATE_ENTRIES / JOIN_ARRAYS pairs.  Small products stay
    dense without a look at their nonzeros, and so does a result whose
    positions would not fit int64.
    """
    dense = a.size + b.size + size + size * inner // DENSE_FLOPS_PER_PASS
    if dense <= SPARSE_FIXED or size >= INT64_BOUND:
        return None
    sa, sb = (t if isinstance(t, SparseTensor) else SparseTensor.of(spec, t) for t in (a, b))
    if sa is None or sb is None or not sparse_exact(spec, sa, sb, inner):
        return None
    pairs = (dense - SPARSE_FIXED) // SPARSE_PASSES - sa.nnz - sb.nnz
    if pairs < 0:
        return None
    return sparse_tensordot(spec, sa, sb, ax_a, ax_b,
                            min(pairs, MAX_STATE_ENTRIES // JOIN_ARRAYS))


def held_place(spec: FieldSpec, a, shape: tuple):
    """a ⊗ id on axes of dimensions `shape` for a held tensor a, placed,
    not multiplied, in the form _held gives a tensor of its size: past
    SPARSE_FIXED entries the sparse outer product of a's nonzeros with the
    identity's, which sparse_tensordot makes by index arithmetic alone;
    otherwise FieldSpec.with_identity's strided write into zeros.  Bounded
    like every intermediate."""
    n = math.prod(shape)
    size = a.size * n * n
    if SPARSE_FIXED < size < INT64_BOUND:
        sa = a if isinstance(a, SparseTensor) else SparseTensor.of(spec, a)
        if sa is not None:
            _check_size(sa.nnz * n)
            return sparse_tensordot(spec, sa, SparseTensor.eye(shape), [], [], sa.nnz * n)
    _check_size(size)
    return spec.with_identity(_dense(spec, a), shape)


def kernel_backend() -> str:
    """The kernel backend: numpy, with the product on float64 BLAS."""
    return "numpy"


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _free(pivots: list[int], cols: int) -> list[int]:
    """The columns of `cols` that are not pivots, in order."""
    pivset = set(pivots)
    return [c for c in range(cols) if c not in pivset]


def sparse_rref(spec: FieldSpec, a: SparseTensor) -> tuple:
    """The reduced row echelon form of a matrix held as a SparseTensor:
    its pivot columns, its other (free) columns, and its nonzero rows (one
    per pivot, in pivot order) at the free columns, an int64 array over
    GF(p), a QArray over Q.  At the pivot columns those rows are the
    identity, so this is all of the form, and it is what FieldSpec.rref of
    the dense array gives.

    The unit rows are peeled on the nonzeros, then the dense core of what
    is left is reduced by FieldSpec.rref (see the module docstring); a
    unit row e_c is zero off its pivot.  Raises ExactError when the core
    or the result would exceed MAX_STATE_ENTRIES."""
    rows, cols = a.shape
    r, c = np.divmod(a.index, max(cols, 1))
    v = a.vals
    unit = np.zeros(cols, dtype=bool)
    while True:
        hit = (np.bincount(r, minlength=rows) == 1)[r]
        if not hit.any():
            break
        # a row with one nonzero spans e_c: clear column c in every row
        unit[c[hit]] = True
        keep = ~unit[c]
        r, c, v = r[keep], c[keep], v[keep]
    live_rows = np.bincount(r, minlength=rows) > 0
    live_cols = np.bincount(c, minlength=cols) > 0
    shape = (int(live_rows.sum()), int(live_cols.sum()))
    _check_dense("sparse_rref core", shape)
    core = np.zeros(shape, dtype=np.int64)
    core[(np.cumsum(live_rows) - 1)[r], (np.cumsum(live_cols) - 1)[c]] = v
    reduced, core_pivots = spec.rref(_raw(core, 1) if spec.is_rationals else core)
    num, den = (reduced.num, reduced.den) if spec.is_rationals else (reduced, 1)
    num = num[:len(core_pivots)]
    live = np.flatnonzero(live_cols)
    core_free = _free(core_pivots, len(live))
    pivots = np.sort(np.concatenate([np.flatnonzero(unit), live[core_pivots]]))
    free = _free(pivots.tolist(), cols)
    _check_dense("sparse_rref rows", (len(pivots), len(free)))
    out = np.zeros((len(pivots), len(free)), dtype=num.dtype)
    # the core's rows at its free columns, placed among the pivots
    out[np.ix_(np.searchsorted(pivots, live[core_pivots]),
               np.searchsorted(free, live[core_free]))] = num[:, core_free]
    return pivots.tolist(), free, (_qarray(out, den) if spec.is_rationals else out)


def _echelon(spec: FieldSpec, a) -> tuple:
    """(pivots, free columns, rows at the free columns) of the reduced
    echelon form of a held matrix, as sparse_rref gives them: by
    sparse_rref for a SparseTensor, FieldSpec.rref for a dense array."""
    if isinstance(a, SparseTensor):
        return sparse_rref(spec, a)
    r, pivots = spec.rref(a)
    free = _free(pivots, a.shape[1])
    return pivots, free, r[:len(pivots), free]


def _joined(spec: FieldSpec, a, b):
    """[a | b] for two held matrices with as many rows, by index arithmetic
    on their nonzeros, as a SparseTensor; None over Q when a numerator over
    the common denominator would leave int64 (or one side holds Python-int
    numerators), like sparse_sum."""
    a, b = (t if isinstance(t, SparseTensor) else SparseTensor.of(spec, t) for t in (a, b))
    if a is None or b is None:
        return None
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    if spec.is_rationals and max(_bound(a.vals) * fa, _bound(b.vals) * fb) >= INT64_BOUND:
        return None
    (rows, n), m = a.shape, b.shape[1]
    # row i of a moves by i * m, row i of b by (i + 1) * n
    index = np.concatenate([a.index + a.index // max(n, 1) * m,
                            b.index + (b.index // max(m, 1) + 1) * n])
    return _sparse_result(spec, (rows, n + m), index,
                          np.concatenate([a.vals * fa, b.vals * fb]), den)


def rank(spec: FieldSpec, a) -> int:
    """The rank of a held matrix."""
    return len(_echelon(spec, a)[0])


def _null_basis(spec: FieldSpec, pivots: list[int], free: list[int], rows, cols: int):
    """Null-space basis read off a reduced echelon form with `cols` columns,
    given as _echelon gives it: one column per free column, ordered by
    free-column index."""
    basis = spec.zeros((cols, len(free)))
    basis[free, range(len(free))] = spec.one
    basis[pivots, :] = spec.reduce(-rows)
    return basis


def kernel(spec: FieldSpec, a):
    """Exact null-space basis of the held matrix `a`, as the columns of an
    n x k matrix.

    Deterministic: one column per free column of the reduced echelon form,
    ordered by free-column index.
    """
    return _null_basis(spec, *_echelon(spec, a), a.shape[1])


def solve_affine(spec: FieldSpec, a, b) -> tuple | None:
    """Solve a @ x = b exactly, for held matrices a and b.

    Returns (particular solution, null-space basis of `a` as columns) or
    None when the system is inconsistent.  b may have several columns; the
    particular solution then has the same number of columns.  One row
    reduction of [a | b] serves both: when the system is consistent its
    left block is the reduced echelon form of `a`, and b's columns are
    free.  With either side a SparseTensor, [a | b] is joined on the
    nonzeros.
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"lhs has {a.shape[0]} rows, rhs has {b.shape[0]}")
    n, m = a.shape[1], b.shape[1]
    ab = None
    if isinstance(a, SparseTensor) or isinstance(b, SparseTensor):
        ab = _joined(spec, a, b)
    if ab is None:
        ab = spec.concatenate([_dense(spec, a, "solve_affine lhs"),
                               _dense(spec, b, "solve_affine rhs")], axis=1)
    pivots, free, rows = _echelon(spec, ab)
    if any(p >= n for p in pivots):
        return None
    nf = len(free) - m
    x = spec.zeros((n, m))
    x[pivots, :] = rows[:, nf:]
    return x, _null_basis(spec, pivots, free[:nf], rows[:, :nf], n)


def inverse(spec: FieldSpec, a):
    """Two-sided inverse of a square held matrix, or None when it is
    singular or not square: the solution of a @ x = I, which is consistent
    exactly when a has full rank."""
    n = a.shape[0]
    if a.shape[1] != n:
        return None
    solved = solve_affine(spec, a, spec.eye(n))
    return None if solved is None else solved[0]
