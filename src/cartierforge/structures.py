"""Cartier- and Frobenius-module structures on Artinian-tier modules.

A Cartier structure is a matrix K with K X_i^q = X_i K (the structural map
F_* M -> M written on the common underlying space); a Frobenius structure
is T with T X_i = X_i^q T.  `power` records structures for iterated
Frobenii: equivariance is then against q^power.

Everything here is exact linear algebra: nilpotence, stable parts, the
adjoint structural morphism, unitalization, and nil-isomorphism testing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import matrix as mx
from .artinian import (MEMO_KEYS, ArtinRing, FinModule, _array_key, _key, direct_sum,
                       f_flat, f_flat_dim, hom_coords, induce, memo, module_violations,
                       quotient_data, regular_module, restrict, restrict_scalars,
                       submodule, torsion_basis, zero_module)


CARTIER = "cartier"
FROBENIUS = "frobenius"


class Unsupported(ValueError):
    """A documented scope boundary, not a fault: the input lies outside the
    handled scope of the theory.  Every boundary raises it, and
    `cli.run_command` alone catches it."""


@dataclass(frozen=True)
class Structured:
    """A Cartier (kind CARTIER) or Frobenius (kind FROBENIUS) structure
    `mat` on `module`, for the q^power Frobenius."""
    kind: str
    module: FinModule
    mat: np.ndarray
    power: int = 1

    def __post_init__(self):
        self.mat.setflags(write=False)      # a value, as a FinModule is

    @functools.cached_property
    def _key(self) -> tuple:
        return (self.kind, self.power, _array_key(self.mat), _key(self.module))

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def ring(self) -> ArtinRing:
        return self.module.ring


MEMO_KEYS[Structured] = MEMO_KEYS[FinModule]


def _expect(kind: str, *ms: Structured) -> None:
    """A ValueError naming `kind` unless each of `ms` has a structure of it."""
    for m in ms:
        if m.kind != kind:
            raise ValueError(f"expects a {kind} structure, got a {m.kind} one")


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def structured(kind: str, module: FinModule, mat, power: int = 1) -> Structured:
    """The Cartier (kind CARTIER) or Frobenius structure, a copy of `mat`, on `module`.

    Constructors build and `validate` checks: input data is validated once,
    where it enters (`forge run` does it per module), and everything built
    from valid data is valid by construction."""
    return Structured(kind, module, np.array(mat, dtype=np.int64), power)


def cartier_module(module: FinModule, kappa, power: int = 1) -> Structured:
    return structured(CARTIER, module, kappa, power)


def f_module(module: FinModule, tau, power: int = 1) -> Structured:
    return structured(FROBENIUS, module, tau, power)


def validate(m: Structured) -> ValidationReport:
    """Check the commuting-square condition on every ring generator, plus
    underlying module validity.  Returns violations instead of raising."""
    F, d, acts, n = m.ring.field, m.dim, m.module.actions, len(m.module.actions)
    out = module_violations(m.module)
    if m.mat.shape != (d, d):
        out.append("structure matrix has wrong shape")
        return ValidationReport(False, tuple(out))
    powers = [mx.mat_pow(F, X, m.ring.q ** m.power) for X in acts]
    # K X^q = X K or T X = X^q T: one product a side, block i for variable i
    right, left, law = ((powers, acts, "K*{0}^q = {0}*K") if m.kind == CARTIER
                        else (acts, powers, "T*{0} = {0}^q*T"))
    lhs = mx.mmul(F, m.mat, np.concatenate((mx.zeros(d, 0), *right), axis=1))
    rhs = mx.mmul(F, np.concatenate((mx.zeros(0, d), *left)), m.mat).reshape(n, d, d)
    out += [f"equivariance fails: {law.format(v)}" for v, a, b in
            zip(m.ring.vars, lhs.reshape(d, n, d).transpose(1, 0, 2), rhs) if not mx.equal(a, b)]
    return ValidationReport(not out, tuple(out))


@memo(512)
def nilpotency_index(m: Structured):
    """Least n <= dim with the n-fold structural composite zero, else inf;
    memoized on the structure.

    The composite of the structure with itself is the plain matrix power,
    so the image chain stabilizes within dim steps."""
    return mx.nil_index(m.ring.field, m.mat)


def stable_image(m: Structured) -> tuple[Structured, np.ndarray]:
    """The stable image kappa^dim(M), as a Cartier submodule.

    The crystal class of M is zero exactly when this vanishes."""
    _expect(CARTIER, m)
    cols = mx.column_space(m.ring.field, mx.mat_pow(m.ring.field, m.mat, max(m.dim, 1)))
    return sub_structure(m, cols), cols


def stable_kernel(m: Structured) -> tuple[Structured, np.ndarray]:
    """N_infty: the stabilized kernel of the iterated structure; the module
    is crystal-zero exactly when this is everything."""
    _expect(FROBENIUS, m)
    cols = mx.kernel(m.ring.field, mx.mat_pow(m.ring.field, m.mat, max(m.dim, 1)))
    return sub_structure(m, cols), cols


def _derived(m: Structured, ring: ArtinRing, ops) -> Structured:
    """The structure of m's kind and power on `ops`: the actions of a
    module over `ring`, then the structure matrix."""
    *acts, mat = ops
    return replace(m, module=FinModule(ring, len(mat), tuple(acts)), mat=mat)


def _restricted(m: Structured, ring: ArtinRing, cols: np.ndarray):
    """m's actions and structure restricted to span(cols) in one `restrict`,
    over `ring`; None when the structure alone leaves the span."""
    ops = restrict(m.ring.field, [*m.module.actions, m.mat], cols)
    if ops is None:
        submodule(m.module, cols)       # raises if the actions are what fails
        return None
    return _derived(m, ring, ops)


def sub_structure(m: Structured, cols: np.ndarray) -> Structured:
    """Restrict module and structure to the span of `cols` (must be stable)."""
    if (sub := _restricted(m, m.ring, cols)) is None:
        raise ValueError("columns are not stable under the structure")
    return sub


def quotient_structure(m: Structured, cols: np.ndarray):
    """Quotient module and induced structure by the substructure span(cols),
    in one `induce`.

    Returns (structured quotient, proj, sect)."""
    F = m.ring.field
    proj, sect = quotient_data(F, m.dim, cols)
    return _derived(m, m.ring, induce(F, [*m.module.actions, m.mat], proj, sect)), proj, sect


def direct_sum_structured(a: Structured, b: Structured) -> Structured:
    if a.kind != b.kind or a.power != b.power:
        raise ValueError("direct sum of mismatched structures")
    return replace(a, module=direct_sum(a.module, b.module), mat=mx.block_diag((a.mat, b.mat)))


def iterate_structure(m: Structured, s: int) -> Structured:
    """Replace the structure by its s-fold composite; the result is a
    structure for the q^(power*s) Frobenius (base change by iteration)."""
    if s < 1:
        raise ValueError("iteration count must be >= 1")
    return structured(m.kind, m.module, mx.mat_pow(m.ring.field, m.mat, s),
                      m.power * s)


def kappa_monomials(m: Structured) -> np.ndarray:
    """vstack_lambda(kappa x^lambda) over the ring basis of a Cartier
    structure.  That basis is sorted by degree and closed under division,
    so each block after kappa is an earlier block times one variable action."""
    _expect(CARTIER, m)
    blocks = {}
    for mono in m.ring.basis:
        v = next((i for i, e in enumerate(mono) if e), None)
        blocks[mono] = m.mat if v is None else mx.mmul(
            m.ring.field, blocks[mono[:v] + (mono[v] - 1,) + mono[v + 1:]],
            m.module.actions[v])
    return np.concatenate((mx.zeros(0, m.dim), *blocks.values()))


_NOT_LINEAR = ("adjoint image not R-linear: the structure is not "
               "equivariant (check it with validate)")


def adjoint_structural(m: Structured):
    """The adjoint structural morphism M -> F^flat M.

    Returns (matrix in flat coordinates, flat module, flat hom basis).
    Column i encodes the hom F_* lambda -> kappa(F_*(lambda e_i)): its
    column l is column i of kappa * x^(mono_l), so `kappa_monomials` is the
    vec of every image at once."""
    flat, ker = hom = f_flat(m.module, power=m.power)
    a = hom_coords(m.ring.field, ker, kappa_monomials(m), hom.free)
    if a is None:
        raise ValueError(_NOT_LINEAR)
    return a, flat, ker


@memo(256)
def flat_cartier(m: Structured):
    """F^flat M as a Cartier module, with the transition data unitalize needs.

    Returns (structured flat module, adjoint matrix, flat hom basis).  The
    structure evaluates at 1: H e_1 is the column of H at the unit
    monomial, first in the ring basis, so the first dim rows of vec H."""
    a, flat, ker = adjoint_structural(m)
    kappa_flat = mx.mmul(m.ring.field, a, ker[:m.dim])
    return Structured(CARTIER, flat, kappa_flat, m.power), a, ker


def is_unit(m: Structured) -> bool:
    """Whether the adjoint structural morphism alpha: M -> F^flat M is
    bijective.  Column i of K = kappa_monomials(m) is vec alpha(e_i), the
    hom lambda -> kappa(x^lambda e_i), so alpha is injective exactly when
    rank K = dim M, and then bijective exactly when dim F^flat M = dim M
    (`artinian.f_flat_dim`); F^flat M is never built.  Each alpha(e_i) is
    R-linear exactly when kappa X_v^Q = X_v kappa (Q = q^power) for every v:
    that is the case lambda = 0, and it gives the rest, as the actions
    commute.  kappa X_v^Q is K's block at x_v^Q, or 0 when x_v^Q lies in I:
    one product checks them all."""
    K, rows, _ = _kappa_stack(m)
    R, d, Q = m.ring, m.dim, m.ring.q ** m.power
    pure = (tuple(Q * (i == v) for i in range(R.nvars)) for v in range(R.nvars))
    blocks = [K[R.basis_index(b) * d:][:d] if b in R.basis else mx.zeros(d, d) for b in pure]
    acts = m.module.actions
    if acts and not mx.equal(mx.mmul(R.field, np.concatenate(acts), m.mat),
                             np.concatenate(blocks)):
        raise ValueError(_NOT_LINEAR)
    return rows.size == d and f_flat_dim(m.module, m.power) == d


@memo(256)
def _kappa_stack(m: Structured):
    """K = kappa_monomials(m), its first independent rows, and K[rows]^-1
    when they number dim, else None; shared and read-only (`memo`).  The
    row operations E that reduce [K^T | I] bring K^T to RREF, pivots at the
    rows, so E K[rows]^T = I at rank dim: one reduction gives all three."""
    K = kappa_monomials(m)
    r, piv = mx.rref(m.ring.field, np.concatenate((K.T, mx.identity(m.dim)), axis=1))
    rows = np.array([c for c in piv if c < len(K)], dtype=np.intp)
    inv = np.ascontiguousarray(r[:, len(K):].T) if rows.size == m.dim else None
    return K, rows, inv


class NilIsoReport(NamedTuple):
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
    """Structure- and ring-equivariance of a linear map src -> dst: f X = Y f
    for the actions and structures, one product per side with them stacked."""
    if src.kind != dst.kind or src.power != dst.power:
        return False
    F, (r, c), k = src.ring.field, f.shape, len(src.module.actions) + 1
    left = mx.mmul(F, f, np.concatenate((*src.module.actions, src.mat), axis=1))
    right = mx.mmul(F, np.concatenate((*dst.module.actions, dst.mat)), f)
    return mx.equal(left.reshape(r, k, c).transpose(1, 0, 2), right.reshape(k, r, c))


class UnitalizeResult(NamedTuple):
    status: str                 # 'unit' | 'zero' | 'not_stabilized'
    module: "Structured | None"
    canonical_map: "np.ndarray | None"
    certificate: "NilIsoReport | None"
    steps: int


def unitalize(m: Structured, max_steps: int = 16) -> UnitalizeResult:
    """Colimit of M -> F^flat M -> F^(2 flat) M -> ...

    The colimit is recognized when a transition becomes bijective, when it
    becomes zero, or when the stage-modulo-eventual-kernel quotients
    stabilize; otherwise NotStabilized is reported as a value, with
    steps = max_steps.  The returned canonical map is certified as a
    nil-isomorphism.

    Each transition t_j = F^flat(t_{j-1}), t_0 = alpha_M the adjoint
    structural map, is the adjoint `flat_cartier` returns with stage j.
    F^flat M = Hom_R(F_*R, M) has kappa^flat(H) = alpha_M(H(1)), and lambda
    acts by (lambda H)(s) = H(lambda s).  So alpha_{F^flat M}(H)(lambda) =
    kappa^flat(lambda H) = alpha_M(H(lambda)), that is alpha_{F^flat M} =
    F^flat(alpha_M); induct on j.  Both sides are matrices in the canonical
    flat hom bases, read by the checked `hom_coords` of adjoint_structural.

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
    _expect(CARTIER, m)        # max_steps = 0 reaches no kappa_monomials
    F = m.ring.field
    stages = [m]
    trans = []        # trans[n] : stages[n] -> stages[n+1]
    head, rank = mx.identity(m.dim), m.dim      # T_{0->e} and its rank
    e0 = None                                   # set once N_e repeats
    # pending: a zero quotient found while a later t_s may still be zero
    built, scanned, pending = {}, 0, None
    for step in range(max_steps):
        nxt, t, _ = flat_cartier(stages[-1])
        stages.append(nxt)
        trans.append(t)
        if nxt.dim == stages[-2].dim and mx.is_invertible(F, t):
            cmap = _composite(F, trans[:step], m.dim)
            cert = nil_isomorphism_check(cmap, m, stages[step])
            status = "zero" if stages[step].dim == 0 else "unit"
            return UnitalizeResult(status if cert.ok else "not_stabilized",
                                   stages[step], cmap, cert, step + 1)
        if not mx.nonzero(t):
            zero = Structured(CARTIER, zero_module(m.ring), mx.zeros(0, 0), m.power)
            cmap = mx.zeros(0, m.dim)
            cert = nil_isomorphism_check(cmap, m, zero)
            return UnitalizeResult("zero" if cert.ok else "not_stabilized",
                                   zero, cmap, cert, step + 1)
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
            soc = mx.kernel(F, np.concatenate((mx.zeros(0, m.dim),) + m.module.actions))
            if found.module.dim or mx.nonzero(mx.mmul(F, trans[0], soc)):
                return found
            pending = found
    if pending is not None:
        return pending
    found = _try_quotient_stabilization(m, stages, trans, range(scanned, max_steps - 2),
                                        e0, built)
    if found is not None:
        return found
    return UnitalizeResult("not_stabilized", stages[-1], None, None, max_steps)


def _try_quotient_stabilization(m, stages, trans, ns, e0, built):
    """Mixed case: quotient each stage by its eventual forward kernel and
    return the first n of `ns` with two consecutive induced isomorphisms
    out of stage n, else None.

    The eventual kernel K_k of stage k is ker T_{k->end_k}, end_k = k + e0
    clipped at the last stage N (see unitalize), or N when `e0` is None.
    Either end_k = end_{k+1} = N, where T_{k->N} = T_{k+1->N} t_k, or
    end_k = k + e0 < N, where the stage-k chain is constant from k + e0 on;
    both give t_k^{-1}(K_{k+1}) = K_k.  So t_k induces an injective map
    stage k / K_k -> stage k+1 / K_{k+1}, between spaces whose dimensions
    are the ranks of the tails T_{k->end_k}, and it is onto exactly when
    they agree.  So a quotient is built only at an n whose tail ranks at
    n, n+1 and n+2 agree.  `built` keeps each tail with its rank."""
    F = m.ring.field

    def tail(k):
        if k not in built:
            end = len(trans) if e0 is None else min(k + e0, len(trans))
            t = _composite(F, trans[k:end], stages[k].dim)
            built[k] = (t, mx.rank(F, t))
        return built[k]

    for n in ns:
        if not tail(n)[1] == tail(n + 1)[1] == tail(n + 2)[1]:
            continue
        kbar = mx.column_space(F, mx.kernel(F, tail(n)[0]))
        a, pa, _ = quotient_structure(stages[n], kbar)
        cmap = mx.mmul(F, pa, _composite(F, trans[:n], m.dim))
        cert = nil_isomorphism_check(cmap, m, a)
        if cert.ok and is_unit(a):
            status = "zero" if a.dim == 0 else "unit"
            return UnitalizeResult(status, a, cmap, cert, n + 1)
    return None


def _composite(F, trans, dim):
    """The composite T_{n->N} of the transitions `trans`, in order, out of
    a stage of dimension `dim`: one backward pass of len(trans) - 1
    products, or the identity when there are none."""
    if not trans:
        return mx.identity(dim)
    acc = trans[-1]
    for t in reversed(trans[:-1]):
        acc = mx.mmul(F, acc, t)
    return acc


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
    return replace(m, mat=new)


def structured_i_torsion(m: Structured, j_gens) -> tuple[Structured, np.ndarray]:
    """i-flat for the closed immersion cut out by J: the J-torsion
    submodule M[J] with restricted structure, over the quotient ring.  A
    Cartier structure always restricts (a kappa(v) = kappa(a^q v) = 0 for
    a in J); a Frobenius one need not, as tau(a v) = a^q tau(v): then
    i-flat does not exist, and this raises Unsupported."""
    ring, cols = torsion_basis(m.module, j_gens)
    if (tors := _restricted(m, ring, cols)) is None:
        raise Unsupported("structure does not restrict to the torsion part "
                          "(possible only for Frobenius structures)")
    return tors, cols


def structured_restrict_scalars(m: Structured, ambient: ArtinRing) -> Structured:
    """i_*: the same data over `ambient`, as in `restrict_scalars`."""
    return replace(m, module=restrict_scalars(m.module, ambient))


class KashiwaraReport(NamedTuple):
    ok: bool                    # the counit is a nil-isomorphism
    counit: NilIsoReport
    supported: bool


def kashiwara_counit(n: Structured, j_gens) -> KashiwaraReport:
    """For N over R: the counit i_* i^flat N -> N (the torsion inclusion).

    When N is supported on V(J) (J acts nilpotently), the counit must be a
    nil-isomorphism."""
    F = n.ring.field
    tors, cols = structured_i_torsion(n, j_gens)
    pushed = structured_restrict_scalars(tors, n.ring)
    rep = nil_isomorphism_check(cols, pushed, n)
    supported = all(
        mx.nil_index(F, n.module.action_of(g)) != math.inf for g in j_gens)
    return KashiwaraReport(rep.ok, rep, supported)
