"""Builders for the example gallery.

Every builder returns a plain-dict presentation (see presentation.py for
the schema).  Vector-backend builders describe a finite-dimensional
algebra-with-coproduct by structure constants; the graded builder
describes a groupoid algebra.
"""

from __future__ import annotations

from .exactla import ExactError, FieldSpec, inverse


def _field_tag(field: FieldSpec):
    return "Q" if field.is_rationals else {"Fp": field.p}


def _show_vec(field, v):
    return [field.show(x) for x in v]


def _show_mat(field, m):
    return [[field.show(x) for x in row] for row in m]


def _basis_vec(field, n, i, coeff=1):
    v = [field.zero] * n
    v[i] = field.coerce(coeff)
    return v


def _hopf_presentation(name, field, names, mul, unit, delta, counit,
                       antipode=None, antipode_inv=None, rmatrix=None,
                       twist=None, grouplikes=None, meta=None):
    pres = {
        "schema": 1,
        "name": name,
        "field": _field_tag(field),
        "labels": ["*"],
        "carrier": [[len(unit)]],
        "basis": names,
        "mul": [[_show_vec(field, v) for v in row] for row in mul],
        "unit": _show_vec(field, unit),
        "t2": {"element_coproduct": [_show_mat(field, d) for d in delta]},
        "t0": _show_vec(field, counit),
    }
    if antipode is not None:
        pres["antipode"] = {"element": _show_mat(field, antipode)}
        if antipode_inv is not None:
            pres["antipode"]["element_inverse"] = _show_mat(field, antipode_inv)
    if rmatrix is not None:
        pres["rmatrix"] = {"element": _show_mat(field, rmatrix)}
    if twist is not None:
        pres["twist"] = {"element": _show_vec(field, twist[0]),
                         "element_inverse": _show_vec(field, twist[1])}
    if grouplikes is not None:
        pres["grouplikes"] = [_show_vec(field, g) for g in grouplikes]
    if meta:
        pres["meta"] = meta
    return pres


def _matrix_inverse(field, m):
    inv = inverse(field, field.asarray(m))
    if inv is None:
        raise ExactError("matrix is singular")
    return [list(row) for row in inv]


# ---------------------------------------------------------------------------
# Builders (vector backend)
# ---------------------------------------------------------------------------


def build_trivial(field: FieldSpec) -> dict:
    """The identity monad: one-dimensional carrier with trivial structure."""
    one = field.one
    return _hopf_presentation(
        "trivial", field, ["1"],
        mul=[[[one]]], unit=[one],
        delta=[[[one]]], counit=[one],
        antipode=[[one]], antipode_inv=[[one]],
        rmatrix=[[one]], twist=([one], [one]),
        grouplikes=[[one]],
        meta={"classical_drinfeld": [field.show(one)]},
    )


def build_group_algebra(table: list, field: FieldSpec, name: str = "group",
                        element_names: list | None = None,
                        with_rmatrix: bool = False) -> dict:
    """Group algebra with coproduct g -> g⊗g and antipode g -> g^{-1}.

    `table` is the multiplication table: table[a][b] = index of a*b, with
    index 0 the neutral element.
    """
    n = len(table)
    f = field
    if any(table[0][b] != b or table[b][0] != b for b in range(n)):
        raise ExactError("index 0 must be the neutral element")
    names = element_names or [f"g{i}" for i in range(n)]
    mul = [[_basis_vec(f, n, table[a][b]) for b in range(n)] for a in range(n)]
    unit = _basis_vec(f, n, 0)
    delta = []
    for a in range(n):
        d = [[f.zero] * n for _ in range(n)]
        d[a][a] = f.one
        delta.append(d)
    counit = [f.one] * n
    inv = [next(b for b in range(n) if table[a][b] == 0) for a in range(n)]
    s = [[f.one if inv[b] == a else f.zero for b in range(n)] for a in range(n)]
    kwargs = {}
    if with_rmatrix:
        r = [[f.zero] * n for _ in range(n)]
        r[0][0] = f.one
        kwargs["rmatrix"] = r
        kwargs["twist"] = (unit, unit)
        kwargs["meta"] = {"classical_drinfeld": _show_vec(f, unit)}
    return _hopf_presentation(
        name, f, names, mul, unit, delta, counit,
        antipode=s, antipode_inv=s, grouplikes=[_basis_vec(f, n, a) for a in range(n)],
        **kwargs)


def cyclic_group_table(n: int) -> list:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def symmetric3_table() -> list:
    """Multiplication table of the 6-element symmetric group."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    idx = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p∘q)(i) = p[q[i]]
        return tuple(p[q[i]] for i in range(3))

    return [[idx[compose(p, q)] for q in perms] for p in perms]


def build_taft(n: int, p: int, name: str | None = None) -> dict:
    """Taft algebra of dimension n² over GF(p); needs n | p - 1.

    Basis g^a x^b with relations g^n = 1, x^n = 0, x g = q g x for q a
    primitive n-th root of unity.
    """
    field = FieldSpec.prime(p)
    if (p - 1) % n != 0:
        raise ExactError(f"no primitive {n}-th root of unity in GF({p})")
    q = None
    for cand in range(2, p):
        if pow(cand, n, p) == 1 and all(pow(cand, k, p) != 1 for k in range(1, n)):
            q = cand
            break
    if q is None:
        raise ExactError(f"no primitive {n}-th root of unity in GF({p})")
    f = field
    dim = n * n

    def bidx(a, b):
        return a * n + b

    names = [f"g{a}x{b}" for a in range(n) for b in range(n)]
    mul = [[None] * dim for _ in range(dim)]
    for a1 in range(n):
        for b1 in range(n):
            for a2 in range(n):
                for b2 in range(n):
                    v = [f.zero] * dim
                    if b1 + b2 < n:
                        coeff = pow(q, b1 * a2, p)
                        v[bidx((a1 + a2) % n, b1 + b2)] = f.coerce(coeff)
                    mul[bidx(a1, b1)][bidx(a2, b2)] = v
    unit = _basis_vec(f, dim, 0)
    # [b, k]_q for 0 <= k <= b < n, by the q-Pascal rule
    qbin = [[1]]
    for b in range(1, n):
        prev = qbin[-1] + [0]
        qbin.append([1] + [(prev[k - 1] + pow(q, k, p) * prev[k]) % p
                           for k in range(1, b + 1)])
    # x⊗1 and g⊗x q-commute, so by the q-binomial theorem
    # Δ(g^a x^b) = Σ_k [b, k]_q g^(a+k) x^(b-k) ⊗ g^a x^k
    delta = []
    for a in range(n):
        for b in range(n):
            d = [[f.zero] * dim for _ in range(dim)]
            for k in range(b + 1):
                d[bidx((a + k) % n, b - k)][bidx(a, k)] = qbin[b][k]
            delta.append(d)
    counit = [f.one if b == 0 else f.zero for a in range(n) for b in range(n)]
    # S(g^a x^b) = S(x)^b S(g)^a with S(g) = g^-1, S(x) = -g^-1 x:
    # (-1)^b q^((n-1) b(b-1)/2 + b((n-a) mod n)) g^(-a-b) x^b
    s = [[f.zero] * dim for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            e = (n - 1) * b * (b - 1) // 2 + b * ((n - a) % n)
            s[bidx((-a - b) % n, b)][bidx(a, b)] = (-1) ** b * pow(q, e, p) % p
    s_inv = _matrix_inverse(f, s)
    return _hopf_presentation(
        name or f"taft{n}_p{p}", f, names, mul, unit, delta, counit,
        antipode=s, antipode_inv=s_inv,
        grouplikes=[_basis_vec(f, dim, bidx(a, 0)) for a in range(n)],
        meta={"q": f.show(f.coerce(q))})


def build_sweedler(field: FieldSpec, name: str = "sweedler") -> dict:
    """The four-dimensional algebra with g² = 1, x² = 0, xg = -gx."""
    if field.p == 2:
        raise ExactError("characteristic 2 is excluded")
    f = field
    names = ["1", "g", "x", "gx"]

    def bidx(a, b):
        return a + 2 * b  # 1, g, x, gx with (a = g-power, b = x-power)

    mul = [[None] * 4 for _ in range(4)]
    for a1 in range(2):
        for b1 in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    v = [f.zero] * 4
                    if b1 + b2 < 2:
                        v[bidx((a1 + a2) % 2, b1 + b2)] = f.coerce((-1) ** (b1 * a2))
                    mul[bidx(a1, b1)][bidx(a2, b2)] = v
    unit = _basis_vec(f, 4, 0)
    one = f.one
    zero = f.zero
    i1, ig, ix, igx = bidx(0, 0), bidx(1, 0), bidx(0, 1), bidx(1, 1)
    delta = [None] * 4
    d = [[zero] * 4 for _ in range(4)]
    d[i1][i1] = one
    delta[i1] = d
    d = [[zero] * 4 for _ in range(4)]
    d[ig][ig] = one
    delta[ig] = d
    d = [[zero] * 4 for _ in range(4)]
    d[ix][i1] = one          # x⊗1
    d[ig][ix] = one          # g⊗x
    delta[ix] = d
    d = [[zero] * 4 for _ in range(4)]
    d[igx][ig] = one         # gx⊗g
    d[i1][igx] = one         # 1⊗gx
    delta[igx] = d
    counit = [one, one, zero, zero]
    # S(1)=1, S(g)=g, S(x)=-gx, S(gx)=x
    s = [[zero] * 4 for _ in range(4)]
    s[i1][i1] = one
    s[ig][ig] = one
    s[igx][ix] = f.coerce(-1)
    s[ix][igx] = one
    s_inv = _matrix_inverse(f, s)
    return _hopf_presentation(
        name, f, names, mul, unit, delta, counit,
        antipode=s, antipode_inv=s_inv,
        grouplikes=[_basis_vec(f, 4, i1), _basis_vec(f, 4, ig)])


def build_drinfeld_double_group(table: list, field: FieldSpec,
                                name: str = "double") -> dict:
    """Drinfeld double of a finite group: carrier k^G ⊗ kG.

    Basis (h, g) at index h*|G|+g, with product
    (δ_h ⊗ g)(δ_{h'} ⊗ g') = [h = g h' g^{-1}] δ_h ⊗ g g', the coproduct
    Δ(δ_h ⊗ g) = Σ_{h1 h2 = h} (δ_{h1} ⊗ g)⊗(δ_{h2} ⊗ g), the antipode
    S(δ_h ⊗ g) = δ_{g^{-1} h^{-1} g} ⊗ g^{-1}, and the standard R-matrix.
    """
    f = field
    m = len(table)
    dim = m * m
    inv = [next(b for b in range(m) if table[a][b] == 0) for a in range(m)]

    def bidx(h, g):
        return h * m + g

    names = [f"d{h}g{g}" for h in range(m) for g in range(m)]
    mul = [[None] * dim for _ in range(dim)]
    for h in range(m):
        for g in range(m):
            for h2 in range(m):
                for g2 in range(m):
                    v = [f.zero] * dim
                    if h == table[table[g][h2]][inv[g]]:
                        v[bidx(h, table[g][g2])] = f.one
                    mul[bidx(h, g)][bidx(h2, g2)] = v
    unit = [f.zero] * dim
    for h in range(m):
        unit[bidx(h, 0)] = f.one
    delta = []
    for h in range(m):
        for g in range(m):
            d = [[f.zero] * dim for _ in range(dim)]
            for h1 in range(m):
                h2 = table[inv[h1]][h]
                d[bidx(h1, g)][bidx(h2, g)] = f.one
            delta.append(d)
    counit = [f.one if h == 0 else f.zero for h in range(m) for g in range(m)]
    s = [[f.zero] * dim for _ in range(dim)]
    for h in range(m):
        for g in range(m):
            target = bidx(table[table[inv[g]][inv[h]]][g], inv[g])
            s[target][bidx(h, g)] = f.one
    # r = Σ_g (δ_g ⊗ e) ⊗ (Σ_h δ_h ⊗ g)
    r = [[f.zero] * dim for _ in range(dim)]
    for g in range(m):
        for h in range(m):
            r[bidx(g, 0)][bidx(h, g)] = f.one
    # classical ribbon data: u = Σ_g δ_g ⊗ g^{-1}, θ = u^{-1} = Σ_g δ_g ⊗ g
    dri = [f.zero] * dim
    theta = [f.zero] * dim
    for g in range(m):
        dri[bidx(g, inv[g])] = f.one
        theta[bidx(g, g)] = f.one
    pres = _hopf_presentation(
        name, f, names, mul, unit, delta, counit,
        antipode=s, antipode_inv=s, rmatrix=r, twist=(theta, dri),
        grouplikes=[unit],
        meta={"classical_drinfeld": _show_vec(f, dri)})
    # small stock module: functions on the group, acted on by conjugation
    # and multiplication-projection
    act = [[f.zero] * (dim * m) for _ in range(m)]
    for h in range(m):
        for g in range(m):
            for x in range(m):
                y = table[table[g][x]][inv[g]]
                if h == y:
                    act[y][bidx(h, g) * m + x] = f.one
    pres["stock_modules"] = [{"dim": m, "action": _show_mat(f, act)}]
    return pres


# ---------------------------------------------------------------------------
# Builder (graded backend)
# ---------------------------------------------------------------------------


def build_groupoid_algebra(labels: list, arrows: list, field: FieldSpec,
                           name: str = "groupoid",
                           compose: list | None = None) -> dict:
    """Groupoid algebra on the graded backend.

    `arrows` lists triples (name, source, target) of non-identity arrows;
    identity loops are added automatically in front.  The carrier is
    graded by (target, source); the product is composition; the coproduct
    sends an arrow to arrow ⊗ arrow expanded gradewise; the antipode is
    inversion.

    Composition is inferred for thin groupoids (at most one arrow per
    ordered pair of objects); otherwise pass the full table, where
    compose[a][b] is the index of a∘b (b applied first) or None.
    """
    L = len(labels)
    names = [f"id_{labels[i]}" for i in range(L)]
    srcs = list(range(L))
    tgts = list(range(L))
    for nm, s0, t0 in arrows:
        names.append(nm)
        srcs.append(s0)
        tgts.append(t0)
    n = len(names)
    f = field
    if compose is None:
        compose = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if srcs[a] != tgts[b]:
                    continue
                if a < L:
                    compose[a][b] = b
                elif b < L:
                    compose[a][b] = a
                else:
                    matches = [c for c in range(n)
                               if srcs[c] == srcs[b] and tgts[c] == tgts[a]]
                    if len(matches) != 1:
                        raise ExactError(
                            "ambiguous composition; give a thin groupoid or "
                            "pass the compose table")
                    compose[a][b] = matches[0]
    invs = []
    for a in range(n):
        cand = [b for b in range(n)
                if srcs[b] == tgts[a] and tgts[b] == srcs[a]
                and compose[b][a] is not None and compose[b][a] < L
                and compose[a][b] is not None and compose[a][b] < L]
        if len(cand) != 1:
            raise ExactError(f"arrow {names[a]} has no unique inverse")
        invs.append(cand[0])
    return {
        "schema": 1,
        "name": name,
        "field": _field_tag(f),
        "labels": [str(x) for x in labels],
        "groupoid": {
            "names": names,
            "source": srcs,
            "target": tgts,
            "compose": compose,
            "inverse": invs,
        },
    }


def build_pair_groupoid(field: FieldSpec, name: str = "pair_groupoid") -> dict:
    return build_groupoid_algebra(
        ["1", "2"], [("a12", 1, 0), ("a21", 0, 1)], field, name=name)


def build_disconnected_groupoid(field: FieldSpec,
                                name: str = "disconnected_groupoid") -> dict:
    return build_groupoid_algebra(["1", "2"], [], field, name=name)
