"""Exact scalars and dense linear algebra over Q and GF(p).

Scalars are plain Python values: `fractions.Fraction` over the rationals,
int residues in [0, p) over a prime field.  Every operation is exact and
deterministic (identical inputs give bit-identical outputs).

Matrices are plain numpy arrays paired with the FieldSpec that gives them
meaning: object arrays of Fractions over Q (kept in canonical reduced form
with positive denominator by Fraction itself, so equality is structural),
int64 arrays with entries in [0, p) over GF(p).  The solvers `rank`,
`kernel`, `solve_affine` and `inverse` take `(spec, array)` and all go
through one deterministic reduced row echelon form, `FieldSpec.rref`.

The rational product touches only nonzeros.  Each factor's nonzero
values are put over one common denominator (math.lcm), the integer
numerators of the pairs (a[i,k], b[k,j]) with both entries nonzero are
multiplied and summed per output entry, and Fraction(sum, da*db) is
written only where that sum is nonzero.  The numerators run on int64
when max|na| * max|nb| * inner < 2**63, which bounds every partial sum,
and stay Python ints in an object array otherwise; both are exact.  At
most TILE_ENTRIES pairs are expanded at a time.

The mod-p product runs on float64 BLAS and is still exact.  Its factors
must have entries in [0, p): a product of two entries is then at most
(p-1)**2, and the inner dimension is cut into chunks of k terms with
k*(p-1)**2 + (p-1) < 2**53, so every partial sum, plus the residue
carried from the previous chunk, is an integer that float64 holds
exactly.  Those integers are cast back to int64 and reduced mod p
there.  With p capped below 2**20 a chunk has at least 8191 terms.
The mod-p row reduction stays on int64, where (p-1)**2 < 2**40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_PRIME = 1 << 20

# float64 holds every integer below 2**53 exactly
EXACT_FLOAT = 1 << 53

# Entries of one float64 temporary in _matmul_mod (a tile of either factor
# or of the product) and of one pair buffer in _matmul_q.  Bounds the
# memory a large product takes beyond its factors and result.
TILE_ENTRIES = 1 << 20


class ExactError(Exception):
    """Base error for the exact-linalg layer."""


class DimensionMismatch(ExactError):
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

    def inv(self, x):
        if self.is_rationals:
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / x
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(int(x), self.p - 2, self.p)

    @property
    def zero(self):
        return Fraction(0) if self.is_rationals else 0

    @property
    def one(self):
        return Fraction(1) if self.is_rationals else 1

    def describe(self) -> str:
        return "Q" if self.is_rationals else f"GF({self.p})"

    # -- array helpers ---------------------------------------------------

    def zeros(self, shape) -> np.ndarray:
        if self.is_rationals:
            return np.full(shape, Fraction(0), dtype=object)
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        a = self.zeros((n, n))
        one = self.one
        for i in range(n):
            a[i, i] = one
        return a

    def asarray(self, rows) -> np.ndarray:
        if self.is_rationals:
            arr = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    arr[i, j] = self.coerce(v)
            return arr
        return np.array([[self.coerce(v) for v in row] for row in rows],
                        dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a if self.is_rationals else a % self.p

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape[1] != b.shape[0]:
            raise DimensionMismatch(f"{a.shape} @ {b.shape}")
        if not self.is_rationals:
            return _matmul_mod(a, b, self.p)
        return _matmul_q(a, b)

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.size == 0 or b.size == 0:
            return self.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))
        return self.reduce(np.kron(a, b))

    def tensordot(self, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
        ax_a, ax_b = axes
        ax_a = [ax_a] if isinstance(ax_a, int) else list(ax_a)
        ax_b = [ax_b] if isinstance(ax_b, int) else list(ax_b)
        ax_a = [x % a.ndim for x in ax_a]
        ax_b = [x % b.ndim for x in ax_b]
        free_a = [i for i in range(a.ndim) if i not in ax_a]
        free_b = [i for i in range(b.ndim) if i not in ax_b]
        con = int(np.prod([a.shape[i] for i in ax_a])) if ax_a else 1
        at = a.transpose(free_a + ax_a).reshape(-1, con)
        bt = b.transpose(ax_b + free_b).reshape(con, -1)
        out = self.matmul(at, bt)
        return out.reshape([a.shape[i] for i in free_a] + [b.shape[i] for i in free_b])

    def rref(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form; deterministic first-nonzero pivoting."""
        if not self.is_rationals:
            return _rref_mod(a, self.p)
        m = a.copy()
        rows, cols = m.shape
        pivots: list[int] = []
        zero = Fraction(0)
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            sel = -1
            for i in range(r, rows):
                if m[i, c] != 0:
                    sel = i
                    break
            if sel < 0:
                continue
            if sel != r:
                m[[r, sel]] = m[[sel, r]]
            nz_cols = np.nonzero(m[r])[0]
            inv = Fraction(1) / m[r, c]
            m[r, nz_cols] = m[r, nz_cols] * inv
            piv_row = m[r, nz_cols]
            factors = m[:, c]
            for i in range(rows):
                if i != r and factors[i] != zero:
                    m[i, nz_cols] = m[i, nz_cols] - factors[i] * piv_row
            pivots.append(c)
            r += 1
        return m, pivots


# ---------------------------------------------------------------------------
# Q kernel
# ---------------------------------------------------------------------------


def _numerators(vals: np.ndarray) -> tuple[list, int]:
    """Integer numerators of rationals over their least common denominator."""
    den = math.lcm(*(x.denominator for x in vals))
    return [x.numerator * (den // x.denominator) for x in vals], den


def _matmul_q(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two rational matrices, on integer numerators (see
    the module docstring).

    The pair sums are taken with np.add.reduceat over the sorted linear
    output index.  Pairs are expanded TILE_ENTRIES at a time, in row-major
    order of `a`, so only the row shared by two consecutive blocks needs
    adding up across blocks.  An inner dimension of one has no sums: its
    nonzero pairs are multiplied as Fractions directly.
    """
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.full((rows, cols), Fraction(0), dtype=object)
    if inner == 1:
        # nothing to sum: the outer product of the nonzeros
        i, j = np.flatnonzero(a), np.flatnonzero(b)
        out[i[:, None], j] = np.multiply.outer(a[i, 0], b[0, j])
        return out
    ia, ka = np.nonzero(a)
    kb, jb = np.nonzero(b)
    if ia.size == 0 or kb.size == 0:
        return out
    na, da = _numerators(a[ia, ka])
    nb, db = _numerators(b[kb, jb])
    wide = max(map(abs, na)) * max(map(abs, nb)) * inner >= 1 << 63
    dtype = object if wide else np.int64
    na = np.array(na, dtype=dtype)
    nb = np.array(nb, dtype=dtype)
    den = da * db
    # the nonzeros of row k of b are start[k]:start[k + 1]; pair number q
    # joins nonzero e of a, the first with ends[e] > q, and nonzero
    # q + shift[e] of b
    start = np.searchsorted(kb, np.arange(inner + 1))
    cnt = start[ka + 1] - start[ka]
    ends = np.cumsum(cnt)
    shift = start[ka] - ends + cnt
    total = int(ends[-1])
    seam = -1  # last output row of the previous block
    for lo in range(0, total, TILE_ENTRIES):
        pair = np.arange(lo, min(lo + TILE_ENTRIES, total))
        e = np.searchsorted(ends, pair, side="right")
        f = pair + shift[e]
        lin = ia[e] * cols + jb[f]
        order = np.argsort(lin)
        lin, e, f = lin[order], e[order], f[order]
        first = np.flatnonzero(np.concatenate(([True], lin[1:] != lin[:-1])))
        sums = np.add.reduceat(na[e] * nb[f], first)
        keep = sums != 0
        lin, sums = lin[first][keep], sums[keep].tolist()
        # few distinct sums: build one Fraction per value and share it
        made = {s: Fraction(s, den) for s in set(sums)}
        vals = np.array([made[s] for s in sums], dtype=object)
        if seam >= 0:
            joint = lin < (seam + 1) * cols
            vals[joint] += out.flat[lin[joint]]
        out.flat[lin] = vals
        seam = int(ia[e[-1]])
    return out


# ---------------------------------------------------------------------------
# GF(p) kernels
# ---------------------------------------------------------------------------


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p of two int64 matrices, on float64 BLAS.

    Precondition: every entry of `a` and `b` lies in [0, p).  The result
    is int64 with entries in [0, p).
    """
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.int64)
    if out.size == 0 or inner == 0:
        return out
    chunk = min(inner, TILE_ENTRIES, (EXACT_FLOAT - p) // (p - 1) ** 2)
    row_tile = min(rows, TILE_ENTRIES // chunk)
    col_tile = min(cols, TILE_ENTRIES // max(chunk, row_tile))
    for j in range(0, cols, col_tile):
        for i in range(0, rows, row_tile):
            tile = out[i:i + row_tile, j:j + col_tile]
            for k in range(0, inner, chunk):
                part = (a[i:i + row_tile, k:k + chunk].astype(np.float64)
                        @ b[k:k + chunk, j:j + col_tile].astype(np.float64))
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


def kernel_backend() -> str:
    """The GF(p) kernel backend: numpy, with the product on float64 BLAS."""
    return "numpy"


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def rank(spec: FieldSpec, a: np.ndarray) -> int:
    return len(spec.rref(a)[1])


def _null_basis(spec: FieldSpec, r: np.ndarray, pivots: list[int],
                cols: int) -> np.ndarray:
    """Null-space basis read off a reduced echelon form with `cols` columns:
    one column per free column, ordered by free-column index."""
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = spec.zeros((cols, len(free)))
    basis[free, range(len(free))] = spec.one
    basis[pivots, :] = spec.reduce(-r[:len(pivots), free])
    return basis


def kernel(spec: FieldSpec, a: np.ndarray) -> np.ndarray:
    """Exact null-space basis of `a`, as the columns of an n x k matrix.

    Deterministic: one column per free column of the reduced echelon form,
    ordered by free-column index.
    """
    r, pivots = spec.rref(a)
    return _null_basis(spec, r, pivots, a.shape[1])


def solve_affine(spec: FieldSpec, a: np.ndarray,
                 b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve a @ x = b exactly.

    Returns (particular solution, null-space basis of `a` as columns) or
    None when the system is inconsistent.  b may have several columns; the
    particular solution then has the same number of columns.  One row
    reduction of [a | b] serves both: when the system is consistent its
    left block is the reduced echelon form of `a`.
    """
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"lhs has {a.shape[0]} rows, rhs has {b.shape[0]}")
    n = a.shape[1]
    r, pivots = spec.rref(np.hstack([a, b]))
    if any(p >= n for p in pivots):
        return None
    x = spec.zeros((n, b.shape[1]))
    for i, pc in enumerate(pivots):
        x[pc, :] = r[i, n:]
    return x, _null_basis(spec, r, pivots, n)


def inverse(spec: FieldSpec, a: np.ndarray) -> np.ndarray | None:
    """Two-sided inverse of a square matrix, or None when it is singular
    or not square; one row reduction of [a | I]."""
    n = a.shape[0]
    if a.shape[1] != n:
        return None
    r, pivots = spec.rref(np.hstack([a, spec.eye(n)]))
    if pivots != list(range(n)):
        return None
    return r[:, n:].copy()
