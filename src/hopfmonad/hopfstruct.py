"""Hopf modules, coinvariants, integrals, cointegrals and semisimplicity.

The central tool is the natural map gamma: X ⊗ T(1) -> T²(X) built from
the right antipode.  Its components are computed once at simples from
the defining composite and extended by linearity everywhere else;
agreement of the two routes on small objects is part of the test suite.
"""

from __future__ import annotations

from .antipode import AntipodeData
from .cat import (
    GradedMor,
    GradedObj,
    coev_right_mor,
    ev_right_mor,
    identity,
)
from .chain import Chain
from .exactla import ExactError, kernel, rank, solve_affine
from .modcat import (
    TModule,
    _mor_coords,
    _mor_from_coords,
    _random_iso,
    check_module,
    free_module,
    is_t_linear,
    module_hom_space,
    random_carrier,
    tensor_modules,
    unit_module,
)
from .monad import Family, TensoringBimonad, compare_at
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
    comps = t.components(lambda s: gamma_defining_chain(t, a, s).eval())
    return Family(t, comps, (0, t.carrier), (t.carrier, t.carrier, 0), "gamma")


def check_gamma_suite(t: TensoringBimonad, a: AntipodeData, fam: Family,
                      stock_modules: list | None = None) -> Report:
    """The four identities of the comparison map, plus module linearity."""
    rep = Report(f"{t.name}: gamma identities")
    unit = t.unit_obj()

    def absorb(s):  # mu ∘ gamma = eta ⊗ counit
        src = s.tensor(t.carrier)
        lhs = Chain(src).then(fam.at_step(s), at=0).then(t.m, at=0)
        rhs = Chain(src).then(t.t0, at=1).then(t.u, at=0)
        return lhs, rhs

    def free(s):  # T(mu) ∘ gamma_{T} ∘ coproduct-with-unit = T(eta)
        ts = t.on_obj(s)
        src = ts
        lhs = Chain(src).then(t.t2.at_step(s, unit), at=0) \
                        .then(fam.at_step(ts), at=0) \
                        .then(t.m, at=1)
        rhs = Chain(src).then(t.u, at=1)
        return lhs, rhs

    def coaction(s):
        src = s.tensor(t.carrier)
        inner = Chain(t.on_obj(s.tensor(t.carrier))) \
            .then(t.t2.at_step(s, t.carrier), at=0) \
            .then(t.m, at=1 + len(s.atoms)).eval()
        lhs = Chain(src).then(t.t2.at_step(unit, unit), at=len(s.atoms)) \
                        .then(fam.at_step(s.tensor(t.carrier)), at=0) \
                        .then(inner, at=1)
        rhs = Chain(src).then(fam.at_step(s), at=0) \
                        .then(t.u, at=2 + len(s.atoms))
        return lhs, rhs

    def unit_law(s):
        src = s
        lhs = Chain(src).then(t.u, at=len(s.atoms)) \
                        .then(fam.at_step(s), at=0)
        rhs = Chain(src).then(t.u, at=0) \
                        .then(t.u, at=0)
        return lhs, rhs

    compare_at(rep, "gamma.absorb", t.at_simples(1, absorb))
    compare_at(rep, "gamma.free", t.at_simples(1, free))
    compare_at(rep, "gamma.coaction", t.at_simples(1, coaction))
    compare_at(rep, "gamma.unit", t.at_simples(1, unit_law))

    # the defining formula and the linearity extension agree off simples
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
    same = lhs == rhs
    rep.record("hopf_module.compatibility", same, witness=None if same else lhs - rhs)
    return rep


def induced_hopf_module(t: TensoringBimonad, carrier: GradedObj,
                        rho: GradedMor) -> HopfModule:
    """The free Hopf module on a comodule."""
    n = len(carrier.atoms)
    coact = Chain(t.on_obj(carrier)).then(rho, at=1) \
        .then(t.t2.at_step(carrier, t.carrier), at=0) \
        .then(t.m, at=1 + n).eval()
    return HopfModule(t, t.on_obj(carrier), free_module(t, carrier).action, coact)


def canonical_hopf_module(t: TensoringBimonad, x: GradedObj) -> HopfModule:
    """(T(X), mu_X, coproduct against the unit)."""
    coact = Chain(t.on_obj(x)).then(t.t2.at_step(x, t.unit_obj()), at=0).eval()
    return HopfModule(t, t.on_obj(x), free_module(t, x).action, coact)


def trivial_coaction(t: TensoringBimonad, carrier: GradedObj) -> GradedMor:
    return Chain(carrier).then(t.u,
                               at=len(carrier.atoms)).eval()


def random_comodule(t: TensoringBimonad, grouplikes: list, rng,
                    dim_factor: int = 2) -> tuple:
    """A valid comodule: grouplike coaction lines mixed by an isomorphism,
    or the trivial coaction when there are no grouplikes."""
    f = t.base.field
    carrier = random_carrier(t, rng, dim_factor, "N")
    if not (t.base.is_vector and grouplikes):
        # every isomorphism fixes the trivial coaction; draw one all the same
        _random_iso(carrier, rng)
        return carrier, trivial_coaction(t, carrier)
    # basis vector k goes to e_k ⊗ g_k: row k*n + a of column k holds g_k[a]
    n, d = t.carrier_dim, carrier.total_dim()
    block = f.zeros((d * n, d))
    for k in range(d):
        g = grouplikes[rng.randrange(len(grouplikes))]
        block[k * n:(k + 1) * n, k] = g.comps[(0, 0)].block(0, 0)[:, 0]
    rho = GradedMor(carrier, carrier.tensor(t.carrier), {(0, 0): block})
    phi, phi_inv = _random_iso(carrier, rng)
    rho = Chain(carrier).then(phi_inv).then(rho).then(phi, at=0).eval()
    return carrier, rho


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
        ker = kernel(f, diff.held(*grade))
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
        sol = solve_affine(t.base.field, ti.held(*grade), psi.held(*grade))
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
    if t.base.is_vector:
        diff = Chain(t.on_obj(m_obj)).then(rho, at=1).eval() - \
            Chain(t.on_obj(m_obj)).then(t.u, at=1 + n).eval()
        rep.record("decomp.kernel_match", kernel_is_image(diff, ti))
    return rep


def kernel_is_image(diff: GradedMor, inc: GradedMor) -> bool:
    """Whether ker(diff) is the image of inc, on one label: it has the
    dimension k of inc's source, and diff ∘ inc = 0 (for a kernel of
    dimension k, rank([kernel basis | inc]) = k exactly when diff ∘ inc = 0)."""
    nullity = diff.src.total_dim() - rank(diff.field, diff.held(0, 0))
    return nullity == inc.src.total_dim() and (diff @ inc).is_zero()


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


def _integral_system(t: TensoringBimonad, direction: str):
    """The matrix whose kernel is the space of one-sided integrals.

    Row (p, a), column k holds d3[p, k, a] (left) or d3[k, p, a] (right),
    less u[p] where k = a: the condition sum_k d3 chi[k] = u[p] chi[a].
    """
    f = t.base.field
    n = t.carrier_dim
    d3 = _t2_tensor(t)                 # [p, q, a]
    order = (0, 2, 1) if direction == "left" else (1, 2, 0)
    eta = t.eta_mor(t.carrier).block(0, 0)  # [(p, a), k]: u[p] where k = a
    return f.reduce(d3.transpose(order).reshape(n * n, n) - eta)


def solve_integrals(t: TensoringBimonad, direction: str) -> IntegralSolution:
    """Exact basis of functional-valued one-sided integrals.

    Only the one-label backend is supported: there all invertible value
    objects are trivializable, so functional-valued integrals are
    complete.
    """
    if not t.base.is_vector:
        raise ExactError("integral solver supports the one-label backend only")
    basis = kernel(t.base.field, _integral_system(t, direction))
    return IntegralSolution(t, direction, [list(v) for v in basis.T])


def integral_check(t: TensoringBimonad, direction: str, chi) -> bool:
    """Whether a functional satisfies the one-sided integral condition."""
    f = t.base.field
    out = f.matmul(_integral_system(t, direction), f.asarray([[x] for x in chi]))
    return f.equal(out, f.zeros(out.shape))


def transport_integral(t: TensoringBimonad, side: Family, chi) -> list:
    """Antipode transport of an integral functional through one side: a
    left integral to a right one with `a.sr`, a right one back with `a.sl`."""
    if not t.base.is_vector:
        raise ExactError("integral transport supports the one-label backend only")
    n = t.carrier_dim
    s = t.simple((0, 0))
    ds = s.dual()
    c_mor = GradedMor(t.on_obj(ds), ds, {(0, 0): _chi_block(t, chi)})
    ch = Chain(t.on_obj(s)).then(c_mor.ldual(), at=1).then(side.at_step(ds), at=0)
    out = ch.eval().block(0, 0)
    return [out[0, k] for k in range(n)]


def _chi_block(t: TensoringBimonad, chi):
    return t.base.field.asarray([[chi[k] for k in range(t.carrier_dim)]])


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
    unit = t.unit_obj()
    out = {"semisimple": False, "cointegral_dim": len(basis), "witness": None,
           "cointegral_basis": basis}
    if not basis:
        return out
    # the combination of the basis on which the counit is the identity of 1
    grades = sorted(unit.grades())
    sol = solve_affine(f, f.concatenate([_mor_coords(t.t0 @ lam, grades) for lam in basis],
                                        axis=1),
                       _mor_coords(identity(unit), grades))
    if sol is None:
        return out
    hom_grades = sorted(set(unit.grades()) & set(t.carrier.grades()))
    coords = f.concatenate([_mor_coords(lam, hom_grades) for lam in basis], axis=1)
    out["semisimple"] = True
    out["witness"] = _mor_from_coords(unit, t.carrier, f.matmul(coords, sol[0])[:, 0])
    return out


def separability_element(t: TensoringBimonad, fam: Family,
                         lam: GradedMor) -> Family:
    """gamma-with-cointegral: the natural splitting 1 -> T² of the product."""
    comps = t.components(
        lambda s: Chain(s).then(lam, at=len(s.atoms)).then(fam.at_step(s), at=0).eval())
    return Family(t, comps, (0,), (t.carrier, t.carrier, 0), "separability")


# the checks check_separability records, in report order
SEPARABILITY_CHECKS = ("separable.bimodule", "separable.splitting")


def check_separability(t: TensoringBimonad, gam: Family) -> Report:
    """The two equations making the splitting natural and unital."""
    rep = Report(f"{t.name}: separability")

    def bimodule(s):
        ts = t.on_obj(s)
        lhs = Chain(ts).then(gam.at_step(ts), at=0).then(t.m, at=1)
        rhs = Chain(ts).then(gam.at_step(s), at=1).then(t.m, at=0)
        return lhs, rhs

    def splitting(s):
        lhs = Chain(s).then(gam.at_step(s), at=0).then(t.m, at=0)
        rhs = Chain(s).then(t.u, at=0)
        return lhs, rhs

    for check, law in zip(SEPARABILITY_CHECKS, (bimodule, splitting)):
        compare_at(rep, check, t.at_simples(1, law))
    return rep


def split_module_action(t: TensoringBimonad, gam: Family,
                        m: TModule) -> GradedMor:
    """The natural module-map section of the action."""
    return Chain(m.carrier).then(gam.at_step(m.carrier), at=0) \
                           .then(m.action, at=1).eval()
