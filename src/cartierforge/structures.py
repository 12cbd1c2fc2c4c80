"""Cartier- and Frobenius-module structures on Artinian-tier modules.

A Cartier structure is a matrix K with K X_i^q = X_i K (the structural map
F_* M -> M written on the common underlying space); a Frobenius structure
is T with T X_i = X_i^q T.  `power` records structures for iterated
Frobenii: equivariance is then against q^power.

Everything here is exact linear algebra: nilpotence, stable parts, the
adjoint structural morphism, unitalization, and nil-isomorphism testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .artinian import (ArtinRing, FinModule, direct_sum, f_flat,
                       hom_coords, i_torsion, module_violations,
                       quotient_module, regular_module, restrict,
                       restrict_scalars, submodule, zero_module)


CARTIER = "cartier"
FROBENIUS = "frobenius"


@dataclass(frozen=True)
class CartierModule:
    module: FinModule
    kappa: np.ndarray
    power: int = 1

    kind = CARTIER

    @property
    def mat(self) -> np.ndarray:
        return self.kappa

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def ring(self) -> ArtinRing:
        return self.module.ring


@dataclass(frozen=True)
class FModule:
    module: FinModule
    tau: np.ndarray
    power: int = 1

    kind = FROBENIUS

    @property
    def mat(self) -> np.ndarray:
        return self.tau

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def ring(self) -> ArtinRing:
        return self.module.ring


Structured = CartierModule | FModule


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def structured(kind: str, module: FinModule, mat, power: int = 1,
               check: bool = True) -> Structured:
    """The Cartier (kind CARTIER) or Frobenius structure `mat` on `module`;
    with `check`, a structure that fails `validate` raises ValueError."""
    cartier = kind == CARTIER
    m = (CartierModule if cartier else FModule)(
        module, np.asarray(mat, dtype=np.int64), power)
    if check:
        rep = validate(m)
        if not rep.ok:
            name = "Cartier" if cartier else "F-module"
            raise ValueError(f"invalid {name} structure: " + "; ".join(rep.violations))
    return m


def cartier_module(module: FinModule, kappa, power: int = 1,
                   check: bool = True) -> CartierModule:
    return structured(CARTIER, module, kappa, power, check)


def f_module(module: FinModule, tau, power: int = 1, check: bool = True) -> FModule:
    return structured(FROBENIUS, module, tau, power, check)


def with_structure(m: Structured, module: FinModule, mat: np.ndarray,
                   check: bool = False) -> Structured:
    return structured(m.kind, module, mat, m.power, check)


def validate(m: Structured) -> ValidationReport:
    """Check the commuting-square condition on every ring generator, plus
    underlying module validity.  Returns violations instead of raising."""
    F = m.ring.field
    out = list(module_violations(m.ring, m.module.actions))
    if m.mat.shape != (m.dim, m.dim):
        out.append("structure matrix has wrong shape")
        return ValidationReport(False, tuple(out))
    t = m.ring.q ** m.power
    for var, X in zip(m.ring.vars, m.module.actions):
        Xq = mx.mat_pow(F, X, t)
        if m.kind == CARTIER:
            lhs, rhs = mx.mmul(F, m.mat, Xq), mx.mmul(F, X, m.mat)
            law = f"K*{var}^q = {var}*K"
        else:
            lhs, rhs = mx.mmul(F, m.mat, X), mx.mmul(F, Xq, m.mat)
            law = f"T*{var} = {var}^q*T"
        if not np.array_equal(lhs, rhs):
            out.append(f"equivariance fails: {law}")
    return ValidationReport(not out, tuple(out))


def nilpotency_index(m: Structured):
    """Least n <= dim with the n-fold structural composite zero, else inf.

    On the prime tier the composite of the structure with itself is the
    plain matrix power, so the image chain stabilizes within dim steps."""
    return mx.nil_index(m.ring.field, m.mat)


def stable_image(m: CartierModule) -> tuple[CartierModule, np.ndarray]:
    """sigma(M): image of the dim-fold composite, as a Cartier submodule.

    The crystal class of M is zero exactly when this vanishes."""
    F = m.ring.field
    power = mx.mat_pow(F, m.kappa, max(m.dim, 1))
    cols = mx.column_space(F, power)
    return sub_structure(m, cols), cols


def stable_kernel(m: FModule) -> tuple[FModule, np.ndarray]:
    """N_infty: the stabilized kernel of the iterated structure; the module
    is crystal-zero exactly when this is everything."""
    F = m.ring.field
    power = mx.mat_pow(F, m.tau, max(m.dim, 1))
    cols = mx.kernel(F, power)
    return sub_structure(m, cols), cols


def sub_structure(m: Structured, cols: np.ndarray) -> Structured:
    """Restrict module and structure to the span of `cols` (must be stable)."""
    sub = submodule(m.module, cols, check=False)
    k = restrict(m.ring.field, [m.mat], cols)
    if k is None:
        raise ValueError("columns are not stable under the structure")
    return with_structure(m, sub, k[0])


def quotient_structure(m: Structured, cols: np.ndarray):
    """Quotient module and induced structure by the substructure span(cols).

    Returns (structured quotient, proj, sect)."""
    F = m.ring.field
    quot, proj, sect = quotient_module(m.module, cols)
    k = mx.mmul(F, proj, mx.mmul(F, m.mat, sect))
    return with_structure(m, quot, k), proj, sect


def direct_sum_structured(a: Structured, b: Structured) -> Structured:
    if a.kind != b.kind or a.power != b.power:
        raise ValueError("direct sum of mismatched structures")
    mod = direct_sum(a.module, b.module)
    k = mx.zeros(a.dim + b.dim, a.dim + b.dim)
    k[: a.dim, : a.dim] = a.mat
    k[a.dim:, a.dim:] = b.mat
    return with_structure(a, mod, k)


def iterate_structure(m: Structured, s: int) -> Structured:
    """Replace the structure by its s-fold composite; the result is a
    structure for the q^(power*s) Frobenius (base change by iteration)."""
    if s < 1:
        raise ValueError("iteration count must be >= 1")
    return structured(m.kind, m.module, mx.mat_pow(m.ring.field, m.mat, s),
                      m.power * s, check=False)


def adjoint_structural(m: CartierModule):
    """The adjoint structural morphism M -> F^flat M.

    Returns (matrix in flat coordinates, flat module, flat hom basis).
    Column i encodes the hom F_* lambda -> kappa(F_*(lambda e_i)): its
    column l is column i of kappa * x^(mono_l), so stacking the products
    kappa * x^(mono_l) over l gives the vec of every image at once."""
    F = m.ring.field
    R = m.ring
    flat, basis = f_flat(m.module, power=m.power)
    imgs = (np.concatenate([mx.mmul(F, m.kappa, m.module.action_of(mono))
                            for mono in R.basis])
            if R.dim else mx.zeros(0, m.dim))
    a = hom_coords(F, basis, imgs)
    if a is None:
        raise RuntimeError("adjoint image not R-linear; structure invalid?")
    return a, flat, basis


def flat_cartier(m: CartierModule):
    """F^flat M as a Cartier module, with the transition data unitalize needs.

    Returns (structured flat module, adjoint matrix, flat hom basis)."""
    F = m.ring.field
    a, flat, basis = adjoint_structural(m)
    if basis:
        # H e_1 is the column of H at the unit monomial
        unit = m.ring.basis_index((0,) * m.ring.nvars)
        eval1 = np.stack(basis, axis=1)[:, :, unit]
    else:
        eval1 = mx.zeros(m.dim, 0)
    kappa_flat = mx.mmul(F, a, eval1)
    return CartierModule(flat, kappa_flat, m.power), a, basis


def is_unit(m: CartierModule) -> bool:
    """True when the adjoint structural morphism is bijective."""
    a, flat, _ = adjoint_structural(m)
    return flat.dim == m.dim and mx.inverse(m.ring.field, a) is not None


@dataclass(frozen=True)
class NilIsoReport:
    ok: bool
    kernel_index: object
    cokernel_index: object
    kernel_dim: int
    cokernel_dim: int


def nil_isomorphism_check(f: np.ndarray, src: Structured, dst: Structured) -> NilIsoReport:
    """Certify that a structure-preserving map has nilpotent kernel and
    cokernel; returns the two indices (a value, never an exception)."""
    F = src.ring.field
    f = np.asarray(f, dtype=np.int64)
    if not is_morphism(f, src, dst):
        raise ValueError("map does not commute with the structures")
    ker_cols = mx.kernel(F, f)
    ker = sub_structure(src, ker_cols)
    img_cols = mx.column_space(F, f)
    coker, _, _ = quotient_structure(dst, img_cols)
    ki, ci = nilpotency_index(ker), nilpotency_index(coker)
    return NilIsoReport(ki != math.inf and ci != math.inf, ki, ci,
                        ker.dim, coker.dim)


def is_morphism(f: np.ndarray, src: Structured, dst: Structured) -> bool:
    """Structure- and ring-equivariance of a linear map src -> dst."""
    if src.kind != dst.kind or src.power != dst.power:
        return False
    F = src.ring.field
    for Xs, Xd in zip(src.module.actions, dst.module.actions):
        if not np.array_equal(mx.mmul(F, f, Xs), mx.mmul(F, Xd, f)):
            return False
    return np.array_equal(mx.mmul(F, f, src.mat), mx.mmul(F, dst.mat, f))


@dataclass(frozen=True)
class UnitalizeResult:
    status: str                 # 'unit' | 'zero' | 'not_stabilized'
    module: "CartierModule | None"
    canonical_map: "np.ndarray | None"
    certificate: "NilIsoReport | None"
    steps: int


def unitalize(m: CartierModule, max_steps: int = 16) -> UnitalizeResult:
    """Colimit of M -> F^flat M -> F^(2 flat) M -> ...

    Stages are built functorially: t_0 is the adjoint structural map and
    t_j = F^flat(t_{j-1}).  The colimit is recognized when a transition
    becomes bijective, when it becomes zero, or when the stage-modulo-
    eventual-kernel quotients stabilize; otherwise NotStabilized is
    reported as a value, with steps = max_steps.  The returned canonical
    map is certified as a nil-isomorphism.

    Stages are built only until the eventual kernels are known.  Write
    T_{n->j} for the composite stages[n] -> stages[j] and N_e = ker T_{0->e}.
    As T_{0->e+1} = F^flat(T_{0->e}) t_0 and F^flat = Hom_R(F_*R, -) is left
    exact, N_{e+1} = t_0^{-1}(F^flat N_e): one monotone map, iterated, so the
    chain is constant from the first e0 with N_{e0} = N_{e0+1} (the nil-part
    chains of Blickle-Boeckle, "Cartier modules: finiteness results", 2011).
    Its dimension costs one product and one rank per stage.  As
    T_{n->n+e} = F^(n flat)(T_{0->e}), ker T_{n->n+e} = F^(n flat)(N_e), so
    every stage-n chain is constant from n + e0 on: the eventual kernel of
    stage n is ker T_{n->n+e0}, whose canonical basis is the one that
    ker T_{n->max_steps} gives.  Stage n is scanned as soon as stage
    n+2+e0 exists.  Without e0, or at max_steps, the windows are clipped at
    the last stage, as in a full build of max_steps stages.

    Returning at a scan success misses no loop exit that a full build
    would take first.  Lemma: if f : A -> B is R-linear and f(v) != 0 for a
    v in the socle of A, then phi_v : F_*R -> A, r -> r(0) v, is R-linear
    and lies in the socle of F^flat A (each x_i maps F_*R into the maximal
    ideal), and F^flat(f) phi_v = f phi_v != 0; by induction F^(s flat) f
    is nonzero on the socle for every s.
    (i) No later t_s is bijective.  If ker t_0 = 0, every eventual kernel
    is 0, the quotients are the stages themselves, and a success at n
    needs t_n bijective, where the loop has already returned.  Otherwise
    ker t_s = F^(s flat)(ker t_0) is nonzero, by the lemma for the identity
    of ker t_0 (a nonzero module over the local ring R has a nonzero socle).
    (ii) No later t_s is zero if the quotient found has dim > 0: with
    s + 1 > n + e0, t_s = 0 would put all of stage n into
    ker T_{n->s+1} = ker T_{n->n+e0}.  A zero quotient is returned at once
    when t_0 is nonzero on the socle of M, for then no t_s is zero by the
    lemma.  Otherwise the build goes on: the first zero transition, if
    one comes, is returned, and the zero quotient if none does.
    """
    F = m.ring.field
    stages = [m]
    trans = []        # trans[n] : stages[n] -> stages[n+1]
    bases = [None]
    cur = m
    t_prev = None
    head, rank = mx.identity(m.dim), m.dim      # T_{0->e} and its rank
    e0 = None                                   # set once N_e repeats
    # pending: a zero quotient found while a later t_s may still be zero
    built, scanned, pending = {}, 0, None
    for step in range(max_steps):
        nxt, adj, basis = flat_cartier(cur)
        if t_prev is None:
            t = adj
        else:
            t = _flat_transition(F, t_prev, bases[-1], basis)
        stages.append(nxt)
        bases.append(basis)
        trans.append(t)
        if nxt.dim == cur.dim and mx.inverse(F, t) is not None:
            return _finish_unitalize(m, stages, trans, step, exact_stage=step)
        if not t.any():
            zero = CartierModule(zero_module(m.ring), mx.zeros(0, 0), m.power)
            cmap = mx.zeros(0, m.dim)
            cert = nil_isomorphism_check(cmap, m, zero)
            return UnitalizeResult("zero" if cert.ok else "not_stabilized",
                                   zero, cmap, cert, step + 1)
        cur = nxt
        t_prev = t
        if pending is not None:
            continue
        if e0 is None:
            head = mx.mmul(F, t, head)
            rank, last_rank = mx.rank(F, head), rank
            if rank == last_rank:
                e0 = step
        if e0 is None:
            continue
        # stage n needs stage n+2+e0, and a full build scans n < max_steps-2
        stop = min(len(trans) - 1 - e0, max_steps - 2)
        found = _try_quotient_stabilization(m, stages, trans, range(scanned, stop),
                                            e0, built)
        scanned = max(scanned, stop)
        if found is not None:
            soc = mx.kernel(F, np.vstack((mx.zeros(0, m.dim),) + m.module.actions))
            if found.module.dim or mx.mmul(F, trans[0], soc).any():
                return found
            pending = found
    if pending is not None:
        return pending
    found = _try_quotient_stabilization(m, stages, trans, range(scanned, max_steps - 2),
                                        e0, built)
    if found is not None:
        return found
    return UnitalizeResult("not_stabilized", stages[-1], None, None, max_steps)


def _flat_transition(F, t_prev, prev_basis, basis):
    """F^flat of t_prev in the flat hom bases: H -> t_prev H.

    The images of all basis homs come from one product with the homs side
    by side; reshaping it in column order puts the vec of image j in
    column j, so one `hom_coords` call gives the whole matrix."""
    if not prev_basis:
        return mx.zeros(len(basis), 0)
    prod = mx.mmul(F, t_prev, np.hstack(prev_basis))
    imgs = prod.reshape(-1, len(prev_basis), order="F")
    t = hom_coords(F, basis, imgs)
    if t is None:
        raise RuntimeError("functorial transition left the hom space")
    return t


def _finish_unitalize(m, stages, trans, step, exact_stage):
    F = m.ring.field
    target = stages[exact_stage]
    cmap = _composite(F, trans[:exact_stage], m.dim)
    cert = nil_isomorphism_check(cmap, m, target)
    status = "zero" if target.dim == 0 else "unit"
    return UnitalizeResult(status if cert.ok else "not_stabilized",
                           target, cmap, cert, step + 1)


def _try_quotient_stabilization(m, stages, trans, ns, e0, built):
    """Mixed case: quotient each stage by its eventual forward kernel and
    look, at each n of `ns` in turn, for two consecutive induced
    isomorphisms out of stage n.  Returns the first success, else None.

    The kernels of the composites out of stage k are nested, since
    T_{k->j+1} = t_j T_{k->j}; the eventual one is ker T_{k->k+e0}
    (see unitalize), clipped at the last stage, and the kernel of the
    composite to the last stage when `e0` is None.  `built` keeps the
    quotients from call to call, and one is built only once the scan
    reaches its stage."""
    F = m.ring.field

    def quot(k):
        if k not in built:
            end = len(trans) if e0 is None else min(k + e0, len(trans))
            tail = _composite(F, trans[k:end], stages[k].dim)
            kbar = mx.column_space(F, mx.kernel(F, tail))
            q, proj, _ = quotient_structure(stages[k], kbar)
            built[k] = (q, proj)
        return built[k]

    for n in ns:
        (a, pa), (b, pb), (c, pc) = quot(n), quot(n + 1), quot(n + 2)
        if a.dim != b.dim or b.dim != c.dim:
            continue
        ind1 = _induced_map(F, trans[n], pa, pb, a.dim)
        ind2 = _induced_map(F, trans[n + 1], pb, pc, b.dim)
        if ind1 is None or ind2 is None:
            continue
        if mx.inverse(F, ind1) is not None and mx.inverse(F, ind2) is not None:
            cmap = mx.mmul(F, pa, _composite(F, trans[:n], m.dim))
            cert = nil_isomorphism_check(cmap, m, a)
            if cert.ok and is_unit(a):
                status = "zero" if a.dim == 0 else "unit"
                return UnitalizeResult(status, a, cmap, cert, n + 1)
    return None


def _composite(F, trans, dim):
    """The composite of the transitions `trans`, in order, out of a stage
    of dimension `dim`: the identity when there are none."""
    return _composites_to_end(F, trans)[0] if trans else mx.identity(dim)


def _composites_to_end(F, trans):
    """[T_{n->N} for each n]: the composites out of every stage to the
    last one, by one backward pass of len(trans) - 1 products."""
    tails = [None] * len(trans)
    acc = None
    for n in reversed(range(len(trans))):
        acc = trans[n] if acc is None else mx.mmul(F, acc, trans[n])
        tails[n] = acc
    return tails


def _induced_map(F, t, proj_src, proj_dst, dim):
    # solve proj_dst . t = ind . proj_src  (proj_src is onto)
    sol = mx.solve(F, proj_src.T, mx.mmul(F, proj_dst, t).T)
    if sol is None:
        return None
    return sol.T


def twist_by_unit_line(m: Structured, a_coords) -> Structured:
    """Tensor with the rank-one unit line of an invertible ring section.

    Cartier structures pick up the action of a^{-1} inside F_*, Frobenius
    structures the action of a outside."""
    F = m.ring.field
    R = regular_module(m.ring)
    act = R.element_action(a_coords)
    inv = mx.inverse(F, act)
    if inv is None:
        raise ValueError("section is not invertible in the ring")
    a_inv_coords = mx.mmul(F, inv, m.ring.one())
    if m.kind == CARTIER:
        new = mx.mmul(F, m.mat, m.module.element_action(a_inv_coords))
    else:
        new = mx.mmul(F, m.module.element_action(a_coords), m.mat)
    return with_structure(m, m.module, new, check=True)


def structured_i_torsion(m: Structured, j_gens) -> tuple[Structured, np.ndarray]:
    """i-flat for the closed immersion cut out by J: the J-torsion
    submodule with restricted structure, over the quotient ring."""
    tors, cols = i_torsion(m.module, j_gens)
    k = restrict(m.ring.field, [m.mat], cols)
    if k is None:
        raise ValueError("structure does not restrict to the torsion part "
                         "(expected for Cartier structures)")
    return with_structure(m, tors, k[0], check=True), cols


def structured_restrict_scalars(m: Structured) -> Structured:
    """i_*: the same data viewed over the ambient ring."""
    return with_structure(m, restrict_scalars(m.module), m.mat, check=True)


@dataclass(frozen=True)
class KashiwaraReport:
    roundtrip_exact: bool
    counit: "NilIsoReport | None"
    supported: bool


def kashiwara_roundtrip(m: Structured) -> bool:
    """i-flat o i_* on a module over a quotient ring: must be the identity
    on the nose (matrix equality after the canonical identification)."""
    if m.ring.ambient is None:
        raise ValueError("module must live over a declared quotient ring")
    pushed = structured_restrict_scalars(m)
    back, cols = structured_i_torsion(pushed, m.ring.quotient_gens)
    if back.dim != m.dim or not np.array_equal(cols, mx.identity(m.dim)):
        return False
    return (np.array_equal(back.mat, m.mat)
            and all(np.array_equal(a, b)
                    for a, b in zip(back.module.actions, m.module.actions)))


def kashiwara_counit(n: Structured, j_gens) -> KashiwaraReport:
    """For N over R: the counit i_* i^flat N -> N (the torsion inclusion).

    When N is supported on V(J) (J acts nilpotently), the counit must be a
    nil-isomorphism."""
    F = n.ring.field
    tors, cols = structured_i_torsion(n, j_gens)
    pushed = structured_restrict_scalars(tors)
    rep = nil_isomorphism_check(cols, pushed, n)
    supported = all(
        mx.nil_index(F, n.module.action_of(g)) != math.inf for g in j_gens)
    return KashiwaraReport(rep.ok, rep, supported)
