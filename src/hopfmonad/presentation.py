"""The JSON presentation schema and its loader.

A presentation is a plain dict (see zoo.py for producers).  load() turns
it into a Model: the bimonad plus whatever optional structure the
presentation carries (antipodes, R-matrix, twist, grouplike candidates),
ready for the checkers.

Schema (version 1):
  schema: 1
  name: str
  field: "Q" | {"Fp": p}
  labels: [str, ...]                   (length 1 = plain vector spaces)
  vector backend:
    carrier: [[n]]
    mul:  mul[a][b] = coefficient vector of e_a * e_b
    unit: coefficient vector
    t2:   {"element_coproduct": [matrix per basis element]}
    t0:   coefficient vector (the counit functional)
    antipode: {"element": matrix, "element_inverse"?: matrix}
    rmatrix:  {"element": matrix}      (coefficients of sum r_ab e_a⊗e_b)
    twist:    {"element": vector, "element_inverse"?: vector}
    grouplikes: [vector, ...]
  graded backend:
    groupoid: {names, source, target, compose, inverse}
  meta: free-form strings (classical cross-check data); on the vector
        backend meta.classical_drinfeld is a coefficient vector of any length

A scalar token is an integer or a string such as "3", "-7/2"; FieldSpec.coerce
decides.  Each table becomes one field array: its distinct tokens are
coerced once per load and the blocks are reshapes and transposes of that
array.  A malformed token (a zero or p-divisible denominator included) is a
SchemaError that names its table.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
import itertools

import numpy as np

from .antipode import AntipodeData
from .cat import BaseSpec, GradedMor, GradedObj
from .exactla import ExactError, FieldSpec, inverse
from .modcat import TModule, check_module
from .monad import Element, PairFamily, TensoringBimonad, check_monad


class SchemaError(ExactError):
    """Malformed presentation input (CLI exit code 2)."""


@dataclass
class Model:
    name: str
    base: BaseSpec
    t: TensoringBimonad
    antipode: AntipodeData | None = None
    rmatrix: PairFamily | None = None
    twist: tuple | None = None            # (theta, theta_inverse) Elements
    grouplikes: list = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)
    stock_modules: list = dc_field(default_factory=list)


def _parse_field(tag) -> FieldSpec:
    if tag == "Q":
        return FieldSpec.rationals()
    if isinstance(tag, dict) and set(tag) == {"Fp"}:
        try:
            return FieldSpec.prime(int(tag["Fp"]))
        except ExactError as e:
            raise SchemaError(str(e)) from e
    raise SchemaError(f"unknown field tag {tag!r}")


def _need(pres: dict, key: str, what: str = ""):
    """pres[key]; `what` names `pres` in the error when it is not the root."""
    at = f"{what}: " if what else ""
    if not isinstance(pres, dict):
        raise SchemaError(f"{at}expected an object, got {type(pres).__name__}")
    if key not in pres:
        raise SchemaError(f"{at}missing key {key!r}")
    return pres[key]


def _size(x, what: str, least: int) -> int:
    """An integer size of at least `least` read from the presentation."""
    try:
        k = int(x)
    except (TypeError, ValueError):
        raise SchemaError(f"{what}: not an integer: {x!r}") from None
    if k < least:
        raise SchemaError(f"{what}: must be at least {least}, got {k}")
    return k


def _entries(table, shape: tuple, what: str) -> list:
    """The entries of a nested list of the given shape, in row-major order."""
    rows = [table]
    for depth, size in enumerate(shape):
        for r, row in enumerate(rows):
            if not isinstance(row, (list, tuple)) or len(row) != size:
                at = "".join(f"[{i}]" for i in np.unravel_index(r, shape[:depth]))
                got = (f"{len(row)}" if isinstance(row, (list, tuple))
                       else f"{type(row).__name__}")
                raise SchemaError(f"{what}{at}: expected {size} entries, got {got}")
        rows = list(itertools.chain.from_iterable(rows))
    return rows


def _hashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


def _field_array(f: FieldSpec, memo: dict, table, shape: tuple, what: str,
                 named: int = 0):
    """The field array of a nested list of scalar tokens with the given shape.

    Each distinct token is coerced once per load: `memo` maps
    (type(token), token) to its coerced value, so 1, "1", 1.0 and true keep
    their own verdicts.  The array is the distinct values taken by each
    entry's index among them.  An error names the table, followed by the
    first `named` indices of the entry at fault.
    """
    flat = _entries(table, shape, what)

    def name(k: int) -> str:
        return what + "".join(f"[{i}]" for i in np.unravel_index(k, shape)[:named])

    # tokens of one type are told apart by value alone
    one_type = len(set(map(type, flat))) <= 1
    keys = flat if one_type else list(zip(map(type, flat), flat))
    try:
        index = dict.fromkeys(keys)
    except TypeError:
        k = next(k for k, x in enumerate(flat) if not _hashable(x))
        raise SchemaError(f"{name(k)}: not a scalar: {flat[k]!r}") from None
    values = []
    for code, key in enumerate(index):
        index[key] = code
        token = key if one_type else key[1]
        typed = (type(token), token)
        if typed not in memo:
            try:
                memo[typed] = f.coerce(token)
            except ZeroDivisionError:
                raise SchemaError(f"{name(keys.index(key))}: "
                                  f"zero denominator in {token!r}") from None
            except (ValueError, ExactError) as e:
                raise SchemaError(f"{name(keys.index(key))}: {e}") from e
        values.append(memo[typed])
    codes = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
    return f.asarray([values])[0][codes].reshape(shape)


def load(pres: dict) -> Model:
    if not isinstance(pres, dict):
        raise SchemaError("presentation must be a JSON object")
    if pres.get("schema") != 1:
        raise SchemaError("schema version must be 1")
    name = _need(pres, "name")
    f = _parse_field(_need(pres, "field"))
    labels = tuple(_need(pres, "labels"))
    base = BaseSpec(f, labels)
    if "groupoid" in pres:
        return _load_groupoid(pres, name, base)
    if base.is_vector:
        return _load_vector(pres, name, base)
    raise SchemaError("multi-label presentations need groupoid data")


# ---------------------------------------------------------------------------
# Vector backend
# ---------------------------------------------------------------------------


def _load_vector(pres: dict, name: str, base: BaseSpec) -> Model:
    f = base.field
    # one label: a 1x1 grid
    n = _size(_entries(_need(pres, "carrier"), (1, 1), "carrier")[0], "carrier", 1)
    a_obj = GradedObj.space(base, n, name="A")
    s_obj = GradedObj.simple(base, 0, 0)
    memo: dict = {}

    def table(data, shape, what, named=0):
        return _field_array(f, memo, data, shape, what, named)

    mul = table(_need(pres, "mul"), (n, n, n), "mul", named=2)
    unit = table(_need(pres, "unit"), (n,), "unit")
    # m sends e_a ⊗ e_b (column a*n + b) to mul[a][b]
    m = GradedMor(a_obj.tensor(a_obj), a_obj, {(0, 0): mul.reshape(n * n, n).T.copy()})
    u = GradedMor(GradedObj.unit(base), a_obj, {(0, 0): unit.reshape(n, 1)})

    t2_spec = _need(pres, "t2")
    if "element_coproduct" not in t2_spec:
        raise SchemaError("vector-backend t2 needs element_coproduct")
    ds = table(t2_spec["element_coproduct"], (n, n, n), "coproduct", named=1)
    # column a holds the coproduct matrix of e_a, row p*n + q its (p, q) entry
    t2_comp = GradedMor(a_obj.tensor(s_obj).tensor(s_obj),
                        a_obj.tensor(s_obj).tensor(a_obj).tensor(s_obj),
                        {(0, 0): ds.reshape(n, n * n).T.copy()})
    t0_block = table(_need(pres, "t0"), (n,), "t0").reshape(1, n)
    t0 = GradedMor(a_obj, GradedObj.unit(base), {(0, 0): t0_block})

    t = TensoringBimonad(base, a_obj, m, u, {((0, 0), (0, 0)): t2_comp}, t0,
                         name=name)
    model = Model(name=name, base=base, t=t, meta=dict(pres.get("meta", {})))
    if "classical_drinfeld" in model.meta:
        c = model.meta["classical_drinfeld"]
        if not isinstance(c, list):
            raise SchemaError("meta.classical_drinfeld: expected a list, "
                              f"got {type(c).__name__}")
        model.meta["classical_drinfeld"] = table(c, (len(c),), "meta.classical_drinfeld",
                                                 named=1)

    if "antipode" in pres:
        spec = pres["antipode"]
        if "element" not in spec:
            raise SchemaError("vector-backend antipode needs an element matrix")
        s = table(spec["element"], (n, n), "antipode")
        if "element_inverse" in spec:
            s_inv = table(spec["element_inverse"], (n, n), "antipode inverse")
        else:
            s_inv = inverse(f, s)
            if s_inv is None:
                raise SchemaError("antipode matrix is singular")
        model.antipode = AntipodeData(
            t,
            sl={(0, 0): _antipode_component(t, s)},
            sr={(0, 0): _antipode_component(t, s_inv)})

    if "rmatrix" in pres:
        spec = pres["rmatrix"]
        if "element" not in spec:
            raise SchemaError("vector-backend rmatrix needs an element matrix")
        r = table(spec["element"], (n, n), "rmatrix")
        # row p*n + q holds r[q][p]
        comp = GradedMor(s_obj.tensor(s_obj),
                         t.on_obj(s_obj).tensor(t.on_obj(s_obj)),
                         {(0, 0): r.T.reshape(n * n, 1)})
        model.rmatrix = PairFamily(t, {((0, 0), (0, 0)): comp}, "R")

    if "twist" in pres:
        spec = pres["twist"]
        v = table(_need(spec, "element"), (n,), "twist")
        if "element_inverse" in spec:
            w = table(spec["element_inverse"], (n,), "twist inverse")
        else:
            # θ⁻¹ = L⁻¹(1) for the left multiplication L: column b is θ e_b
            left = f.matmul(v.reshape(1, n), mul.reshape(n, n * n)).reshape(n, n).T
            left_inv = inverse(f, left)
            if left_inv is None:
                raise SchemaError("twist element is not invertible")
            w = f.matmul(left_inv, unit.reshape(n, 1))
        model.twist = (element_from_vector(t, v, "theta"),
                       element_from_vector(t, w, "theta_inv"))

    grouplikes = pres.get("grouplikes", [])
    gs = table(grouplikes, (len(grouplikes), n), "grouplike", named=1)
    model.grouplikes = [element_from_vector(t, g, f"g{k}") for k, g in enumerate(gs)]

    for k, spec in enumerate(pres.get("stock_modules", [])):
        what = f"stock_modules[{k}]"
        d = _size(_need(spec, "dim", what), what + ".dim", 0)
        act = table(_need(spec, "action", what), (d, n * d), what)
        carrier = GradedObj.space(base, d, f"V{k}")
        mod = TModule(t, carrier, GradedMor(t.on_obj(carrier), carrier,
                                            {(0, 0): act}), check=False)
        # a module that fails its laws over a lawful monad is an input
        # error; over a failing monad the report names the failing axioms
        if not check_module(t, mod) and check_monad(t).passed:
            raise ExactError("action fails the module laws")
        model.stock_modules.append(mod)
    return model


def element_from_vector(t: TensoringBimonad, v, label="f") -> Element:
    """Element of the convolution monoid from a carrier coefficient vector,
    a field array of n entries."""
    s = t.simple((0, 0))
    block = v.reshape(t.carrier_dim, 1)
    return Element(t, {(0, 0): GradedMor(s, t.on_obj(s), {(0, 0): block})}, label)


def _antipode_component(t: TensoringBimonad, s_matrix) -> GradedMor:
    """One-label antipode component from an element-level matrix (a field
    array).

    The component sends h ⊗ ξ to ξ(S h); with the flip braiding of plain
    vector spaces this is the classical expansion.
    """
    n = t.carrier_dim
    s = t.simple((0, 0))
    src = t.on_obj(t.on_obj(s).dual())
    # entry h*n + j is s_matrix[j][h]
    return GradedMor(src, s.dual(), {(0, 0): s_matrix.T.reshape(1, n * n)})


# ---------------------------------------------------------------------------
# Graded backend: groupoid algebras
# ---------------------------------------------------------------------------


def _load_groupoid(pres: dict, name: str, base: BaseSpec) -> Model:
    f = base.field
    L = base.nlabels
    spec = _need(pres, "groupoid")
    names = _need(spec, "names")
    srcs = _need(spec, "source")
    tgts = _need(spec, "target")
    compose = _need(spec, "compose")
    inverse = _need(spec, "inverse")
    n = len(names)
    if not (len(srcs) == len(tgts) == len(inverse) == n and len(compose) == n):
        raise SchemaError("groupoid arrays must agree in length")
    if any(not (0 <= s < L and 0 <= t0 < L) for s, t0 in zip(srcs, tgts)):
        raise SchemaError("arrow endpoints out of range")

    # carrier grid by (target, source); arrows ordered by index within a grade
    grid = [[0] * L for _ in range(L)]
    pos = {}
    by_grade = {}
    for a in range(n):
        g = (tgts[a], srcs[a])
        pos[a] = grid[g[0]][g[1]]
        grid[g[0]][g[1]] += 1
        by_grade.setdefault(g, []).append(a)
    a_obj = GradedObj.from_grid(base, grid, name="A")

    identity_at = {}
    for a in range(n):
        if srcs[a] == tgts[a] and compose[a][a] == a and inverse[a] == a:
            # id_i is the first such loop at each label (builders put it first)
            identity_at.setdefault(srcs[a], a)
    if set(identity_at) != set(range(L)):
        raise SchemaError("missing identity loop at some label")

    def transport(arrow: int, lab: int) -> int:
        """Loop standing for the arrow at the given label (gradewise coproduct)."""
        if srcs[arrow] == lab and tgts[arrow] == lab:
            return arrow
        return identity_at[lab]

    # product: composition
    m_blocks = {}
    aa = a_obj.tensor(a_obj)
    for (i, k) in aa.grades():
        if a_obj.count(i, k) == 0:
            continue
        block = f.zeros((a_obj.count(i, k), aa.count(i, k)))
        col = 0
        for j in range(L):
            for a in by_grade.get((i, j), []):
                for b in by_grade.get((j, k), []):
                    c = compose[a][b]
                    if c is not None:
                        block[pos[c], col] = f.one
                    col += 1
        if col:
            m_blocks[(i, k)] = block
    m = GradedMor(aa, a_obj, m_blocks)

    u_blocks = {}
    for i in range(L):
        if a_obj.count(i, i):
            blk = f.zeros((a_obj.count(i, i), 1))
            blk[pos[identity_at[i]], 0] = f.one
            u_blocks[(i, i)] = blk
    u = GradedMor(GradedObj.unit(base), a_obj, u_blocks)

    # counit: every loop goes to 1
    t0_blocks = {}
    for i in range(L):
        cnt = a_obj.count(i, i)
        if cnt:
            blk = f.zeros((1, cnt))
            for a in by_grade.get((i, i), []):
                blk[0, pos[a]] = f.one
            t0_blocks[(i, i)] = blk
    t0 = GradedMor(a_obj, GradedObj.unit(base), t0_blocks)

    # coproduct components: arrow ↦ arrow ⊗ (its loop avatar at the junction)
    t2 = {}
    for g1 in [(i, j) for i in range(L) for j in range(L)]:
        for g2 in [(g1[1], k) for k in range(L)]:
            s1 = GradedObj.simple(base, *g1)
            s2 = GradedObj.simple(base, *g2)
            src = a_obj.tensor(s1).tensor(s2)
            dst = a_obj.tensor(s1).tensor(a_obj).tensor(s2)
            blocks = {}
            i, j = g1
            k = g2[1]
            for p in range(L):
                if a_obj.count(p, i) == 0:
                    continue
                rows = dst.count(p, k)
                cols = src.count(p, k)
                if rows == 0 or cols == 0:
                    continue
                blk = f.zeros((rows, cols))
                loops_j = by_grade.get((j, j), [])
                nloops = len(loops_j)
                for ci, arrow in enumerate(by_grade.get((p, i), [])):
                    avatar = transport(arrow, j)
                    blk[ci * nloops + pos[avatar], ci] = f.one
                blocks[(p, k)] = blk
            t2[(g1, g2)] = GradedMor(src, dst, blocks)

    t = TensoringBimonad(base, a_obj, m, u, t2, t0, name=name)
    model = Model(name=name, base=base, t=t, meta=dict(pres.get("meta", {})))

    # antipode from inversion, expanded grade-diagonally
    sl = {}
    for g in t.simples():
        i, j = g
        s = t.simple(g)
        src = t.on_obj(t.on_obj(s).dual())
        dst = s.dual()
        blocks = {}
        loops_j = by_grade.get((j, j), [])
        loops_i = by_grade.get((i, i), [])
        if loops_j and loops_i:
            blk = f.zeros((1, len(loops_j) * len(loops_i)))
            for ai, a in enumerate(loops_j):
                target = transport(inverse[a], i)
                blk[0, ai * len(loops_i) + pos[target]] = f.one
            blocks[(j, i)] = blk
        sl[g] = GradedMor(src, dst, blocks)
    model.antipode = AntipodeData(t, sl=dict(sl), sr=dict(sl))
    model.grouplikes = []
    return model
