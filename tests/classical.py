"""A classical oracle: the structure constants of a one-label presentation
as field arrays, and the Hopf-algebra axioms stated on them directly.

Entries are Fractions in numpy object arrays over Q, and residues in
[0, p) over GF(p), held in int64 while no sum below can overflow it.  Every
law is np.einsum over the tables, and nothing of hopfmonad evaluates them.
Index conventions follow the presentation:

    e_a e_b  = Σ_c mul[a, b, c] e_c          unit   = Σ_a unit[a] e_a
    Δ(e_a)   = Σ delta[a, p, q] e_p ⊗ e_q    ε(e_a) = counit[a]
    S(e_b)   = Σ_a s[a, b] e_a               (s_inv likewise for S⁻¹)
    R        = Σ r[a, b] e_a ⊗ e_b

On one label T = A ⊗ − satisfies the bimonad axioms exactly when A is a
bialgebra; its left antipode is S and its right one S⁻¹, the antipode of
the co-opposite bialgebra.
"""

from fractions import Fraction

import numpy as np


class Classical:
    def __init__(self, pres: dict):
        tag = pres["field"]
        self.p = None if tag == "Q" else int(tag["Fp"])
        self.n = len(pres["unit"])
        # the longest sum below has n⁴ terms of at most four factors
        small = self.p is not None and self.n ** 4 * (self.p - 1) ** 4 < 2 ** 63
        self.dtype = np.int64 if small else object
        self.mul = self.array(pres["mul"])
        self.unit = self.array(pres["unit"])
        self.delta = self.array(pres["t2"]["element_coproduct"])
        self.counit = self.array(pres["t0"])
        self.s = self.s_inv = self.r = None
        if "antipode" in pres:
            self.s = self.array(pres["antipode"]["element"])
            inv = pres["antipode"].get("element_inverse")
            self.s_inv = self.inverse(self.s) if inv is None else self.array(inv)
        if "rmatrix" in pres:
            self.r = self.array(pres["rmatrix"]["element"])

    # -- scalars and arrays ------------------------------------------------

    def scalar(self, token):
        x = Fraction(token)
        if self.p is None:
            return x
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def array(self, table):
        """The field array of a nested list of scalar tokens."""
        return self.reduce(np.frompyfunc(self.scalar, 1, 1)(
            np.array(table, dtype=object)).astype(self.dtype))

    def reduce(self, a):
        return a if self.p is None else a % self.p

    def einsum(self, spec: str, *ops):
        return self.reduce(np.einsum(spec, *ops, optimize=True))

    def eye(self, n: int):
        return self.array(np.eye(n, dtype=int).tolist())

    def inverse(self, m):
        """The inverse of a square field array by Gauss–Jordan, or None."""
        n = len(m)
        a = np.concatenate([m, self.eye(n)], axis=1)
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r, col] != 0), None)
            if piv is None:
                return None
            a[[col, piv]] = a[[piv, col]]
            a[col] = self.reduce(a[col] * self._inv(a[col, col]))
            for r in range(n):
                if r != col and a[r, col] != 0:
                    a[r] = self.reduce(a[r] - a[r, col] * a[col])
        return a[:, n:]

    def _inv(self, x):
        return 1 / Fraction(x) if self.p is None else pow(int(x), -1, self.p)

    # -- elements --------------------------------------------------------------

    def product(self, x, y):
        return self.einsum("a,b,abc->c", x, y, self.mul)

    def element_inverse(self, v):
        """The two-sided inverse of an element, or None."""
        left = self.einsum("a,abc->cb", v, self.mul)   # column b holds v e_b
        inv = self.inverse(left)
        if inv is None:
            return None
        w = self.einsum("cb,b->c", inv, self.unit)
        return w if np.array_equal(self.product(w, v), self.unit) else None

    def drinfeld_element(self):
        """u = Σ S(r₂) r₁ for R = Σ r₁ ⊗ r₂."""
        return self.einsum("ab,kb,kac->c", self.r, self.s, self.mul)

    # -- the axioms ------------------------------------------------------------

    def antipode_laws(self, s, twisted: bool = False) -> dict:
        """S(a₁)a₂ = ε(a)1 and a₁S(a₂) = ε(a)1; twisted, the laws of the
        antipode of the co-opposite: S(a₂)a₁ = ε(a)1 and a₂S(a₁) = ε(a)1."""
        m, d = self.mul, self.delta
        eu = self.einsum("a,c->ac", self.counit, self.unit)
        first, second = ("apq,xq,xpc->ac", "apq,yp,qyc->ac") if twisted else \
            ("apq,xp,xqc->ac", "apq,yq,pyc->ac")
        return {"s_first_leg": np.array_equal(self.einsum(first, d, s, m), eu),
                "s_second_leg": np.array_equal(self.einsum(second, d, s, m), eu)}

    def laws(self) -> dict:
        """Each bialgebra law, and each antipode law of S and S⁻¹, by name."""
        m, u, d, e = self.mul, self.unit, self.delta, self.counit
        ident = self.eye(self.n)
        eq = np.array_equal
        out = {
            "assoc": eq(self.einsum("abx,xcd->abcd", m, m),
                        self.einsum("bcx,axd->abcd", m, m)),
            "unit_left": eq(self.einsum("a,abc->bc", u, m), ident),
            "unit_right": eq(self.einsum("b,abc->ac", u, m), ident),
            "coassoc": eq(self.einsum("axr,xpq->apqr", d, d),
                          self.einsum("apx,xqr->apqr", d, d)),
            "counit_left": eq(self.einsum("p,apq->aq", e, d), ident),
            "counit_right": eq(self.einsum("q,apq->ap", e, d), ident),
            "coproduct_mult": self._coproduct_mult(),
            "coproduct_unit": eq(self.einsum("a,apq->pq", u, d),
                                 self.einsum("p,q->pq", u, u)),
            "counit_mult": eq(self.einsum("abc,c->ab", m, e),
                              self.einsum("a,b->ab", e, e)),
            "counit_unit": self.einsum("a,a->", u, e) == 1,
        }
        if self.s is not None:
            for name, ok in self.antipode_laws(self.s).items():
                out[f"left.{name}"] = ok
            for name, ok in self.antipode_laws(self.s_inv, twisted=True).items():
                out[f"right.{name}"] = ok
        return out

    def _coproduct_mult(self) -> bool:
        """Δ(e_a e_b) = Δ(e_a)Δ(e_b), the right side summed over the
        nonzero terms of the two coproducts."""
        m, d = self.mul, self.delta
        lhs = self.einsum("abx,xpq->abpq", m, d)
        terms = [np.nonzero(d[a]) for a in range(self.n)]
        for a, (r, s) in enumerate(terms):
            for b, (t, u) in enumerate(terms):
                rhs = self.einsum("i,j,ijp,ijq->pq", d[a][r, s], d[b][t, u],
                                  m[np.ix_(r, t)], m[np.ix_(s, u)])
                if not np.array_equal(lhs[a, b], rhs):
                    return False
        return True

    def passes(self) -> bool:
        return all(self.laws().values())
