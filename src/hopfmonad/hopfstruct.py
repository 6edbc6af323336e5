"""Hopf modules, coinvariants, integrals, cointegrals and semisimplicity.

The central tool is the natural map gamma: X ⊗ T(1) -> T²(X) built from
the right antipode.  Its components are computed once at simples from
the defining composite and extended by linearity everywhere else;
agreement of the two routes on small objects is part of the test suite.
"""

from __future__ import annotations

import numpy as np

from .antipode import AntipodeData
from .cat import (
    GradedMor,
    GradedObj,
    coev_right_mor,
    ev_right_mor,
    identity,
    summand_inclusions,
    tensor_mor,
)
from .chain import Chain
from .exactla import ExactError, kernel, rank, solve_affine
from .modcat import (
    TModule,
    _invert_mor,
    _random_iso,
    check_module,
    free_module,
    is_t_linear,
    module_hom_space,
    tensor_modules,
    unit_module,
)
from .monad import CROSSCHECK_DIM, Element, Family, TensoringBimonad, compare_at
from .report import Report


# ---------------------------------------------------------------------------
# The antipode comparison map gamma
# ---------------------------------------------------------------------------


def gamma_defining_chain(t: TensoringBimonad, a: AntipodeData,
                         x: GradedObj) -> Chain:
    """The defining composite of gamma at an object (right antipode route)."""
    ts = t.on_obj(x)
    src = x.tensor(t.carrier)
    n = len(x.atoms)
    ch = Chain(src)
    ch.then(coev_right_mor(ts), at=n + 1)
    ch.then(t.t2.at_step(ts.dual(), ts), at=n)
    ch.then(a.sr.at_step(x), at=n)
    ch.then(ev_right_mor(x), at=0)
    return ch


def gamma_family(t: TensoringBimonad, a: AntipodeData) -> Family:
    """gamma as the family X ⊗ T(1) -> T²(X), stored at simples."""
    comps = {g: gamma_defining_chain(t, a, t.simple(g)).eval() for g in t.simples()}
    return Family(t, comps, (0, t.carrier), (t.carrier, t.carrier, 0), "gamma")


def check_gamma_suite(t: TensoringBimonad, a: AntipodeData, fam: Family,
                      stock_modules: list | None = None) -> Report:
    """The four identities of the comparison map, plus module linearity."""
    rep = Report(f"{t.name}: gamma identities")
    unit = t.unit_obj()

    def absorb_items():  # mu ∘ gamma = eta ⊗ counit
        for g in t.simples():
            s = t.simple(g)
            src = s.tensor(t.carrier)
            lhs = Chain(src).then(fam.at_step(s), at=0).then(t.m, at=0)
            rhs = Chain(src).then(t.t0, at=1).then(t.u, at=0)
            yield (g,), lhs, rhs

    def free_items():  # T(mu) ∘ gamma_{T} ∘ coproduct-with-unit = T(eta)
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            src = ts
            lhs = Chain(src).then(t.t2.at_step(s, unit), at=0) \
                            .then(fam.at_step(ts), at=0) \
                            .then(t.m, at=1)
            rhs = Chain(src).then(t.u, at=1)
            yield (g,), lhs, rhs

    def coaction_items():
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            src = s.tensor(t.carrier)
            inner = Chain(t.on_obj(s.tensor(t.carrier))) \
                .then(t.t2.at_step(s, t.carrier), at=0) \
                .then(t.m, at=1 + len(s.atoms)).eval()
            lhs = Chain(src).then(t.t2.at_step(unit, unit), at=len(s.atoms)) \
                            .then(fam.at_step(s.tensor(t.carrier)), at=0) \
                            .then(inner, at=1)
            rhs = Chain(src).then(fam.at_step(s), at=0) \
                            .then(t.u, at=2 + len(s.atoms))
            yield (g,), lhs, rhs

    def unit_items():
        for g in t.simples():
            s = t.simple(g)
            src = s
            lhs = Chain(src).then(t.u, at=len(s.atoms)) \
                            .then(fam.at_step(s), at=0)
            rhs = Chain(src).then(t.u, at=0) \
                            .then(t.u, at=0)
            yield (g,), lhs, rhs

    compare_at(rep, "gamma.absorb", absorb_items())
    compare_at(rep, "gamma.free", free_items())
    compare_at(rep, "gamma.coaction", coaction_items())
    compare_at(rep, "gamma.unit", unit_items())

    # the defining formula and the linearity extension agree off simples
    if t.base.is_vector and t.carrier_dim > CROSSCHECK_DIM:
        rep.skip("gamma.extension_consistent",
                 "redundant cross-route probe skipped for large carriers")
    else:
        if t.base.is_vector:
            probe = GradedObj.space(t.base, 2, "P")
        else:
            s = t.simple(t.simples()[0])
            probe = s.tensor(s)
        agree = gamma_defining_chain(t, a, probe).eval() == fam.at(probe)
        rep.record("gamma.extension_consistent", agree)

    for k, mod in enumerate(stock_modules or []):
        lhs_mod = tensor_modules(mod, free_module(t, unit))
        f = Chain(mod.carrier.tensor(t.carrier)) \
            .then(fam.at_step(mod.carrier), at=0) \
            .then(mod.action, at=1).eval()
        ok = is_t_linear(lhs_mod, free_module(t, mod.carrier), f)
        rep.record(f"gamma.module_linear_{k}", ok)
    return rep


# ---------------------------------------------------------------------------
# Hopf modules
# ---------------------------------------------------------------------------


class HopfModule:
    """Module-with-coaction triple (M, r, rho)."""

    __slots__ = ("t", "carrier", "action", "coaction")

    def __init__(self, t: TensoringBimonad, carrier: GradedObj,
                 action: GradedMor, coaction: GradedMor):
        self.t = t
        self.carrier = carrier
        self.action = action
        self.coaction = coaction
        if coaction.src != carrier or coaction.dst != carrier.tensor(t.carrier):
            raise ExactError("coaction must map M -> M ⊗ T(1)")

    def module(self) -> TModule:
        return TModule(self.t, self.carrier, self.action, check=False)


def check_comodule(t: TensoringBimonad, carrier: GradedObj,
                   rho: GradedMor) -> bool:
    """Coassociativity and counit law over the coalgebra T(1)."""
    n = len(carrier.atoms)
    lhs = Chain(carrier).then(rho, at=0).then(rho, at=0).eval()
    rhs = Chain(carrier).then(rho, at=0).then(t.t2.at_step(t.unit_obj(), t.unit_obj()),
                                              at=n).eval()
    if lhs != rhs:
        return False
    counit = Chain(carrier).then(rho, at=0).then(t.t0, at=n).eval()
    return counit == identity(carrier)


def check_hopf_module(t: TensoringBimonad, h: HopfModule) -> Report:
    rep = Report(f"{t.name}: Hopf module laws")
    rep.record("hopf_module.action", check_module(t, h.module()))
    rep.record("hopf_module.coaction", check_comodule(t, h.carrier, h.coaction))
    n = len(h.carrier.atoms)
    src = t.on_obj(h.carrier)
    lhs = Chain(src).then(h.action, at=0).then(h.coaction, at=0).eval()
    rhs = Chain(src).then(h.coaction, at=1) \
                    .then(t.t2.at_step(h.carrier, t.carrier), at=0) \
                    .then(h.action, at=0) \
                    .then(t.m, at=n).eval()
    diff = lhs - rhs
    rep.record("hopf_module.compatibility", diff.is_zero(),
               witness=None if diff.is_zero() else diff)
    return rep


def induced_hopf_module(t: TensoringBimonad, carrier: GradedObj,
                        rho: GradedMor) -> HopfModule:
    """The free Hopf module on a comodule."""
    n = len(carrier.atoms)
    coact = Chain(t.on_obj(carrier)).then(rho, at=1) \
        .then(t.t2.at_step(carrier, t.carrier), at=0) \
        .then(t.m, at=1 + n).eval()
    return HopfModule(t, t.on_obj(carrier), t.mu_mor(carrier), coact)


def canonical_hopf_module(t: TensoringBimonad, x: GradedObj) -> HopfModule:
    """(T(X), mu_X, coproduct against the unit)."""
    coact = Chain(t.on_obj(x)).then(t.t2.at_step(x, t.unit_obj()), at=0).eval()
    return HopfModule(t, t.on_obj(x), t.mu_mor(x), coact)


def trivial_coaction(t: TensoringBimonad, carrier: GradedObj) -> GradedMor:
    return Chain(carrier).then(t.u,
                               at=len(carrier.atoms)).eval()


def random_comodule(t: TensoringBimonad, grouplikes: list, rng,
                    dim_factor: int = 2) -> tuple:
    """A valid comodule: grouplike coaction lines mixed by an isomorphism."""
    f = t.base.field
    if t.base.is_vector:
        d = max(1, dim_factor)
        carrier = GradedObj.space(t.base, d, "N")
    else:
        L = t.base.nlabels
        grid = [[rng.randrange(0, dim_factor + 1) for _ in range(L)]
                for _ in range(L)]
        if all(v == 0 for row in grid for v in row):
            grid[0][0] = 1
        carrier = GradedObj.from_grid(t.base, grid, "N")
    choices = list(grouplikes) if t.base.is_vector else []
    rho = GradedMor.zero(carrier, carrier.tensor(t.carrier))
    for grade, inc, proj in summand_inclusions(carrier):
        g = choices[rng.randrange(len(choices))] if choices else None
        s = t.simple(grade)
        if g is None:
            line = Chain(s).then(t.u, at=len(s.atoms)).eval()
        else:
            line = _grouplike_coaction_line(t, g, s)
        rho = rho + tensor_mor(inc, identity(t.carrier)) @ line @ proj
    phi = _random_iso(carrier, rng)
    phi_inv = _invert_mor(phi)
    rho = tensor_mor(phi, identity(t.carrier)) @ rho @ phi_inv
    return carrier, rho


def _grouplike_coaction_line(t: TensoringBimonad, g: Element,
                             s: GradedObj) -> GradedMor:
    """Coaction of a one-dimensional comodule along a grouplike element."""
    # s -> s ⊗ T(1): pair the grouplike's carrier leg to the right
    comp = g.at(s)  # s -> T(s) = [A] + s
    # reorder [A] + s to s + [A]: on 1-dim simples this is a data move
    src = s
    dst = s.tensor(t.carrier)
    blocks = {}
    for grade in set(comp.blocks) & set(dst.grades()):
        blocks[grade] = comp.blocks[grade].copy()
    return GradedMor(src, dst, blocks)


# ---------------------------------------------------------------------------
# Coinvariants and the structure theorem
# ---------------------------------------------------------------------------


def coinvariants(t: TensoringBimonad, carrier: GradedObj,
                 rho: GradedMor) -> tuple:
    """Equalizer of the coaction and the trivial coaction, as a kernel."""
    f = t.base.field
    diff = rho - trivial_coaction(t, carrier)
    grid = [[0] * t.base.nlabels for _ in range(t.base.nlabels)]
    basis_by_grade = {}
    for grade in sorted(carrier.grades()):
        cols = carrier.count(*grade)
        rows = diff.dst.count(*grade)
        blk = diff.block(*grade) if rows else f.zeros((0, cols))
        ker = kernel(f, blk)
        grid[grade[0]][grade[1]] = ker.shape[1]
        if ker.shape[1]:
            basis_by_grade[grade] = ker
    n_obj = GradedObj.from_grid(t.base, grid, "coinv")
    blocks = {g: b for g, b in basis_by_grade.items()}
    inc = GradedMor(n_obj, carrier, blocks)
    return n_obj, inc


def fundamental_iso(t: TensoringBimonad, fam: Family,
                    h: HopfModule) -> Report:
    """Coinvariants generate freely: the canonical map is an isomorphism."""
    rep = Report(f"{t.name}: Hopf module decomposition")
    hm = check_hopf_module(t, h)
    if not hm.passed:
        rep.merge(hm)
        return rep
    m_obj, r, rho = h.carrier, h.action, h.coaction
    n = len(m_obj.atoms)

    psi = Chain(m_obj).then(rho, at=0).then(fam.at_step(m_obj), at=0) \
                      .then(r, at=1).eval()
    rep.record("decomp.retraction", (r @ psi) == identity(m_obj))
    lhs = Chain(t.on_obj(m_obj)).then(r, at=0).then(psi, at=0).eval()
    rhs = Chain(t.on_obj(m_obj)).then(psi, at=1).then(t.m, at=0).eval()
    rep.record("decomp.linearity", lhs == rhs)
    lhs = Chain(m_obj).then(psi, at=0).then(rho, at=1).eval()
    rhs = Chain(m_obj).then(psi, at=0) \
        .then(t.u, at=1 + n).eval()
    rep.record("decomp.coinvariance", lhs == rhs)

    n_obj, inc = coinvariants(t, m_obj, rho)
    lhs = Chain(n_obj).then(inc, at=0).then(psi, at=0).eval()
    rhs = Chain(n_obj).then(inc, at=0).then(t.u, at=0).eval()
    rep.record("decomp.unit_on_coinvariants", lhs == rhs)

    ti = t.on_mor(inc)
    # factor psi through T(coinvariants), then invert the canonical map
    phi_blocks = {}
    ok = True
    for grade in sorted(t.on_obj(m_obj).grades()):
        a_blk = ti.block(*grade)
        b_blk = psi.block(*grade) if grade in psi.dst.grades() else None
        rows = a_blk.shape[0]
        if b_blk is None:
            b_blk = t.base.field.zeros((rows, m_obj.count(*grade)))
        sol = solve_affine(t.base.field, a_blk, b_blk)
        if sol is None:
            ok = False
            break
        phi_blocks[grade] = sol[0]
    rep.record("decomp.factorization", ok)
    if not ok:
        return rep
    phi = GradedMor(m_obj, t.on_obj(n_obj), phi_blocks)
    can = Chain(t.on_obj(n_obj)).then(inc, at=1).then(r, at=0).eval()
    rep.record("decomp.iso_right", (can @ phi) == identity(m_obj))
    rep.record("decomp.iso_left", (phi @ can) == identity(t.on_obj(n_obj)))
    rep.info["coinvariant_dims"] = n_obj.dims_grid()
    rep.info["carrier_dims"] = m_obj.dims_grid()

    free_h = canonical_hopf_module(t, n_obj)
    rep.record("decomp.can_linear",
               is_t_linear(free_h.module(), h.module(), can))
    lhs = Chain(t.on_obj(n_obj)).then(can, at=0).then(rho, at=0).eval()
    rhs = Chain(t.on_obj(n_obj)).then(free_h.coaction, at=0) \
        .then(can, at=0).eval()
    rep.record("decomp.can_comodule", lhs == rhs)

    # the unit map equalizes the induced pair after applying T (kernel check)
    tm_dim = t.on_obj(m_obj).total_dim()
    if t.base.is_vector and tm_dim * tm_dim * t.carrier_dim <= 1 << 24:
        diff = Chain(t.on_obj(m_obj)).then(rho, at=1).eval() - \
            Chain(t.on_obj(m_obj)).then(t.u, at=1 + n).eval()
        ker = kernel(t.base.field, diff.block(0, 0))
        span = ti.block(0, 0)
        okk = ker.shape[1] == span.shape[1]
        if okk and ker.shape[1]:
            okk = rank(t.base.field, np.concatenate([ker, span], axis=1)) \
                == span.shape[1]
        rep.record("decomp.kernel_match", okk)
    elif t.base.is_vector:
        rep.skip("decomp.kernel_match", "carrier too large for the redundant kernel probe")
    return rep


# ---------------------------------------------------------------------------
# Integrals
# ---------------------------------------------------------------------------


class IntegralSolution:
    """Basis of one-sided integral functionals (one-label backend)."""

    def __init__(self, t: TensoringBimonad, direction: str, basis: list):
        self.t = t
        self.direction = direction
        self.basis = basis  # list of length-n coefficient lists

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _t2_tensor(t: TensoringBimonad):
    n = t.carrier_dim
    return t.t2[((0, 0), (0, 0))].block(0, 0).reshape(n, n, n)


def solve_integrals(t: TensoringBimonad, direction: str) -> IntegralSolution:
    """Exact basis of functional-valued one-sided integrals.

    Only the one-label backend is supported: there all invertible value
    objects are trivializable, so functional-valued integrals are
    complete.
    """
    if not t.base.is_vector:
        raise ExactError("integral solver supports the one-label backend only")
    f = t.base.field
    n = t.carrier_dim
    d3 = _t2_tensor(t)                 # [p, q, a]
    u = t.u.block(0, 0)[:, 0]
    rows = []
    for p in range(n):
        for a_i in range(n):
            row = [f.zero] * n
            for k in range(n):
                if direction == "left":
                    row[k] = f.coerce(row[k] + d3[p, k, a_i])
                else:
                    row[k] = f.coerce(row[k] + d3[k, p, a_i])
            row[a_i] = f.coerce(row[a_i] - u[p])
            rows.append(row)
    basis = kernel(f, f.asarray(rows))
    return IntegralSolution(t, direction, [list(v) for v in basis.T])


def integral_check(t: TensoringBimonad, direction: str, chi) -> bool:
    """Whether a functional satisfies the one-sided integral condition."""
    f = t.base.field
    n = t.carrier_dim
    d3 = _t2_tensor(t)
    u = t.u.block(0, 0)[:, 0]
    for p in range(n):
        for a_i in range(n):
            acc = f.zero
            for k in range(n):
                acc = f.coerce(acc + (d3[p, k, a_i] if direction == "left"
                                      else d3[k, p, a_i]) * chi[k])
            if f.coerce(acc - u[p] * chi[a_i]) != f.zero:
                return False
    return True


def transport_integral(t: TensoringBimonad, a: AntipodeData, chi,
                       direction: str) -> list:
    """Antipode transport between left and right integral functionals."""
    if not t.base.is_vector:
        raise ExactError("integral transport supports the one-label backend only")
    f = t.base.field
    n = t.carrier_dim
    s = t.simple((0, 0))
    ds = s.dual()
    c_mor = GradedMor(t.on_obj(ds), ds, {(0, 0): _chi_block(t, chi)})
    if direction == "left":
        # left integral -> right integral through the right antipode
        ch = Chain(t.on_obj(s)).then(c_mor.rdual(), at=1) \
                               .then(a.sr.at_step(ds), at=0)
    else:
        ch = Chain(t.on_obj(s)).then(c_mor.ldual(), at=1) \
                               .then(a.sl.at_step(ds), at=0)
    out = ch.eval().block(0, 0)
    return [out[0, k] for k in range(n)]


def _chi_block(t: TensoringBimonad, chi) -> np.ndarray:
    f = t.base.field
    n = t.carrier_dim
    blk = f.zeros((1, n))
    for k in range(n):
        blk[0, k] = f.coerce(chi[k])
    return blk


# ---------------------------------------------------------------------------
# Cointegrals, separability and the semisimplicity criterion
# ---------------------------------------------------------------------------


def solve_cointegrals(t: TensoringBimonad) -> list[GradedMor]:
    """Basis of maps 1 -> T(1) absorbed by the product (module maps)."""
    return module_hom_space(unit_module(t), free_module(t, t.unit_obj()))


def maschke_verdict(t: TensoringBimonad) -> dict:
    """Search for a normalized cointegral; build the splitting data if any."""
    f = t.base.field
    basis = solve_cointegrals(t)
    target = identity(t.unit_obj())
    grades = sorted(t.unit_obj().grades())
    cols = []
    for lam in basis:
        comp = t.t0 @ lam
        cols.append([x for g in grades for x in comp.block(*g).ravel().tolist()])
    rhs = [x for g in grades for x in target.block(*g).ravel().tolist()]
    out = {"semisimple": False, "cointegral_dim": len(basis), "witness": None,
           "counit_values": [c for c in cols], "cointegral_basis": basis}
    if not basis:
        return out
    a_mat = np.array([[cols[j][i] for j in range(len(cols))]
                      for i in range(len(rhs))],
                     dtype=object if f.is_rationals else np.int64)
    b_mat = np.array([[v] for v in rhs],
                     dtype=object if f.is_rationals else np.int64)
    sol = solve_affine(f, a_mat, b_mat)
    if sol is None:
        return out
    lam = GradedMor.zero(t.unit_obj(), t.carrier)
    for j, b in enumerate(basis):
        c = sol[0][j, 0]
        if c != f.zero:
            lam = lam + b.scale(c)
    out["semisimple"] = True
    out["witness"] = lam
    return out


def separability_element(t: TensoringBimonad, fam: Family,
                         lam: GradedMor) -> Family:
    """gamma-with-cointegral: the natural splitting 1 -> T² of the product."""
    comps = {}
    for g in t.simples():
        s = t.simple(g)
        comps[g] = Chain(s).then(lam, at=len(s.atoms)).then(fam.at_step(s), at=0).eval()
    return Family(t, comps, (0,), (t.carrier, t.carrier, 0), "separability")


# the checks check_separability records, in report order
SEPARABILITY_CHECKS = ("separable.bimodule", "separable.splitting")


def check_separability(t: TensoringBimonad, gam: Family) -> Report:
    """The two equations making the splitting natural and unital."""
    rep = Report(f"{t.name}: separability")

    def bimodule_items():
        for g in t.simples():
            s = t.simple(g)
            ts = t.on_obj(s)
            lhs = Chain(ts).then(gam.at_step(ts), at=0).then(t.m, at=1)
            rhs = Chain(ts).then(gam.at_step(s), at=1).then(t.m, at=0)
            yield (g,), lhs, rhs

    def splitting_items():
        for g in t.simples():
            s = t.simple(g)
            lhs = Chain(s).then(gam.at_step(s), at=0).then(t.m, at=0)
            rhs = Chain(s).then(t.u, at=0)
            yield (g,), lhs, rhs

    for check, items in zip(SEPARABILITY_CHECKS, (bimodule_items, splitting_items)):
        compare_at(rep, check, items())
    return rep


def split_module_action(t: TensoringBimonad, gam: Family,
                        m: TModule) -> GradedMor:
    """The natural module-map section of the action."""
    return Chain(m.carrier).then(gam.at_step(m.carrier), at=0) \
                           .then(m.action, at=1).eval()
