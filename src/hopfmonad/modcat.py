"""The category of modules over a tensoring bimonad.

Modules are pairs (M, r) with r: T(M) -> M; maps between them are solved
for exactly, tensor products use the coproduct, duals use the antipode.
"""

from __future__ import annotations

from .antipode import AntipodeData
from .cat import (
    GradedMor,
    GradedObj,
    coev_mor,
    coev_right_mor,
    ev_mor,
    ev_right_mor,
    identity,
)
from .chain import Chain
from .exactla import ExactError, inverse, kernel, rank
from .monad import Family, TensoringBimonad, TransTT
from .report import Report


class TModule:
    """A module (M, r) over a tensoring bimonad."""

    __slots__ = ("t", "carrier", "action")

    def __init__(self, t: TensoringBimonad, carrier: GradedObj,
                 action: GradedMor, check: bool = True):
        self.t = t
        self.carrier = carrier
        self.action = action
        if action.src != t.on_obj(carrier) or action.dst != carrier:
            raise ExactError("action must map T(M) -> M")
        if check and not check_module(t, self):
            raise ExactError("action fails the module laws")

    def __eq__(self, other):
        if not isinstance(other, TModule):
            return NotImplemented
        return self.carrier == other.carrier and self.action == other.action

    def __hash__(self):
        raise TypeError("TModule is unhashable")

    def __repr__(self):
        return f"TModule(dim {self.carrier.total_dim()})"


def check_module(t: TensoringBimonad, m: TModule) -> bool:
    """Associativity and unit law of the action."""
    r = m.action
    src = t.on_obj(t.on_obj(m.carrier))
    lhs = Chain(src).then(r, at=1).then(r, at=0).eval()
    rhs = Chain(src).then(t.m, at=0).then(r, at=0).eval()
    if lhs != rhs:
        return False
    unit_side = Chain(m.carrier).then(t.u, at=0) \
                                .then(r, at=0).eval()
    return unit_side == identity(m.carrier)


def free_module(t: TensoringBimonad, x: GradedObj) -> TModule:
    """(T(X), mu_X), mu_X = m ⊗ id_X."""
    mu = Chain(t.on_obj(t.on_obj(x))).then(t.m, at=0).eval()
    return TModule(t, t.on_obj(x), mu, check=False)


def unit_module(t: TensoringBimonad) -> TModule:
    return TModule(t, t.unit_obj(), t.t0, check=False)


def is_t_linear(m: TModule, n: TModule, f: GradedMor) -> bool:
    if f.src != m.carrier or f.dst != n.carrier:
        return False
    t = m.t
    src = t.on_obj(m.carrier)
    lhs = Chain(src).then(m.action, at=0).then(f, at=0).eval()
    rhs = Chain(src).then(f, at=len(t.carrier.atoms)).then(n.action, at=0).eval()
    return lhs == rhs


def _hom_basis_c(base, m_obj: GradedObj, n_obj: GradedObj):
    """Deterministic basis of plain graded maps M -> N (matrix units)."""
    out = []
    for g in sorted(set(m_obj.grades()) & set(n_obj.grades())):
        rows, cols = n_obj.count(*g), m_obj.count(*g)
        for i in range(rows):
            for j in range(cols):
                blk = base.field.zeros((rows, cols))
                blk[i, j] = base.field.one
                out.append(GradedMor(m_obj, n_obj, {g: blk}))
    return out


def _mor_coords(f: GradedMor, grades):
    """The blocks of f at the grades, raveled in order, as one column."""
    fld = f.field
    return fld.concatenate([fld.zeros((0, 1))]
                           + [f.block(*g).reshape(-1, 1) for g in grades])


def _mor_from_coords(m_obj: GradedObj, n_obj: GradedObj, vec) -> GradedMor:
    """The map M -> N with coordinates `vec` on the basis of _hom_basis_c."""
    blocks, at = {}, 0
    for g in sorted(set(m_obj.grades()) & set(n_obj.grades())):
        rows, cols = n_obj.count(*g), m_obj.count(*g)
        blocks[g] = vec[at:at + rows * cols].reshape(rows, cols)
        at += rows * cols
    return GradedMor(m_obj, n_obj, blocks)


def module_hom_space(m: TModule, n: TModule) -> list[GradedMor]:
    """Exact basis of the space of module maps (M, r) -> (N, s)."""
    t = m.t
    f = t.base.field
    basis = _hom_basis_c(t.base, m.carrier, n.carrier)
    if not basis:
        return []
    src = t.on_obj(m.carrier)
    grades = sorted(set(src.grades()) & set(n.carrier.grades()))
    cols = []
    for b in basis:
        tb = Chain(src).then(b, at=len(t.carrier.atoms)).then(n.action, at=0).eval()
        cols.append(_mor_coords((b @ m.action) - tb, grades))
    return [_mor_from_coords(m.carrier, n.carrier, v)
            for v in kernel(f, f.concatenate(cols, axis=1)).T]


def tensor_modules(m: TModule, n: TModule) -> TModule:
    """Module structure on M ⊗ N through the coproduct."""
    t = m.t
    carrier = m.carrier.tensor(n.carrier)
    ch = Chain(t.on_obj(carrier)).then(t.t2.at_step(m.carrier, n.carrier), at=0) \
                                 .then(m.action, at=0) \
                                 .then(n.action, at=len(m.carrier.atoms))
    return TModule(t, carrier, ch.eval(), check=False)


def dual_module(t: TensoringBimonad, side: Family, m: TModule) -> TModule:
    """The dual module (M∨, s ∘ T(r∨)) through one antipode side: the left
    dual with `a.sl`, the right dual with `a.sr`."""
    src = t.on_obj(m.carrier.dual())
    ch = Chain(src).then(m.action.ldual(), at=1).then(side.at_step(m.carrier), at=0)
    return TModule(t, m.carrier.dual(), ch.eval(), check=False)


def pullback_module(f: TransTT, m: TModule) -> TModule:
    """Restriction along a bimonad morphism: (M, r ∘ f_M)."""
    if m.t is not f.t_dst and m.t.carrier != f.t_dst.carrier:
        raise ExactError("module lives over the wrong target monad")
    return TModule(f.t, m.carrier, m.action @ f.at(m.carrier), check=False)


def conservativity_probe(t: TensoringBimonad) -> dict:
    """yes when the unit is split monic at every simple, else unknown."""
    for g in t.simples():
        s = t.simple(g)
        eta = t.eta_mor(s)
        for grade in s.grades():
            blk = eta.block(*grade)
            cols = blk.shape[1]
            if rank(t.base.field, blk) < cols:
                return {"verdict": "unknown",
                        "evidence": f"unit not split at simple {g}"}
    return {"verdict": "yes",
            "evidence": "unit is a split monomorphism at every simple"}


# ---------------------------------------------------------------------------
# Duality inside the module category
# ---------------------------------------------------------------------------


def check_dual_module_duality(t: TensoringBimonad, a: AntipodeData,
                              m: TModule, rep: Report) -> Report:
    """Evaluation and coevaluation are module maps for the preferred duals:
    M∨ ⊗ M -> 1 and 1 -> M ⊗ M∨ on the left, the mirror images on the right.

    The three checks of a side with no antipode data are skipped."""
    for label, side, ev, coev in (("left", a.sl, ev_mor, coev_mor),
                                  ("right", a.sr, ev_right_mor, coev_right_mor)):
        if side is None:
            for check in ("valid", "ev_linear", "coev_linear"):
                rep.skip(f"dual.{label}_{check}", f"no {label} antipode data")
            continue
        d = dual_module(t, side, m)
        pair = (d, m) if label == "left" else (m, d)  # the source of ev
        rep.record(f"dual.{label}_valid", check_module(t, d))
        rep.record(f"dual.{label}_ev_linear",
                   is_t_linear(tensor_modules(*pair), unit_module(t), ev(m.carrier)))
        rep.record(f"dual.{label}_coev_linear",
                   is_t_linear(unit_module(t), tensor_modules(*pair[::-1]), coev(m.carrier)))
    return rep


def random_carrier(t: TensoringBimonad, rng, dim_factor: int, name: str) -> GradedObj:
    """A nonzero object: dim_factor copies of the simple on one label, else
    a random grid of 0 to dim_factor copies of each simple."""
    if t.base.is_vector:
        return GradedObj.space(t.base, max(1, dim_factor), name)
    L = t.base.nlabels
    grid = [[rng.randrange(0, dim_factor + 1) for _ in range(L)] for _ in range(L)]
    if all(v == 0 for row in grid for v in row):
        grid[0][0] = 1
    return GradedObj.from_grid(t.base, grid, name)


def random_module(t: TensoringBimonad, rng, dim_factor: int = 1) -> TModule:
    """A valid module: a free module conjugated by a random isomorphism."""
    x = random_carrier(t, rng, dim_factor, "X")
    return conjugated(free_module(t, x), *_random_iso(t.on_obj(x), rng))


def conjugated(m: TModule, phi: GradedMor, phi_inv: GradedMor) -> TModule:
    """The module (M, phi ∘ r ∘ T(phi^-1)) for an automorphism phi of M
    with inverse phi_inv."""
    t = m.t
    action = Chain(t.on_obj(m.carrier)).then(phi_inv, at=len(t.carrier.atoms)) \
                                       .then(m.action, at=0).then(phi, at=0).eval()
    return TModule(t, m.carrier, action, check=False)


def _random_iso(x: GradedObj, rng) -> tuple:
    """(phi, phi^-1) for a random automorphism phi of x: each block is
    drawn with entries in [-2, 2] until one row reduction inverts it."""
    f = x.base.field
    blocks, inverses = {}, {}
    for g in x.grades():
        n = x.count(*g)
        while True:
            blk = f.asarray([[rng.randrange(-2, 3) for _ in range(n)]
                             for _ in range(n)])
            inv = inverse(f, blk)
            if inv is not None:
                blocks[g], inverses[g] = blk, inv
                break
    return GradedMor(x, x, blocks), GradedMor(x, x, inverses)


def _invert_mor(f_mor: GradedMor) -> GradedMor:
    f = f_mor.field
    blocks = {}
    for g in f_mor.blocks:
        inv = inverse(f, f_mor.block(*g))
        if inv is None:
            raise ExactError("morphism is not invertible")
        blocks[g] = inv
    return GradedMor(f_mor.dst, f_mor.src, blocks)


def invert_module_map(m: TModule, n: TModule, f_mor: GradedMor) -> GradedMor | None:
    """Inverse of a module map when it exists (None otherwise)."""
    try:
        inv = _invert_mor(f_mor)
    except ExactError:
        return None
    if f_mor.src != m.carrier or f_mor.dst != n.carrier:
        return None
    if (f_mor @ inv) != identity(n.carrier) or (inv @ f_mor) != identity(m.carrier):
        return None
    return inv
