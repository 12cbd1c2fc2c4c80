"""Duality on the Artinian tier: the Hom pairings through the inverse-
monomial dualizing module, double duality, Sol, and base change.

pair_F_to_C sends (M, tau) and (N, kappa) to Hom(M, N) with structure
f -> kappa_N o F_* f o tau_M.  pair_C_to_F needs N unit: tau_H(f)(m) is the
unique e with kappa_N(F_*(lambda e)) = f(kappa_M(F_*(lambda m))) for all
lambda, solved as one exact linear system.

The ordinarity detector at the end is the Cartier-operator action on the
one-dimensional space of top forms of y^2 = cubic, with a brute-force
point count as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .artinian import (ArtinRing, fin_module, hom_coords, hom_module,
                       quotient_data, regular_module, ring_make)
from .field import GF, FiniteField, is_prime
from .poly import Poly
from .structures import (CARTIER, FROBENIUS, CartierModule, FModule,
                         Structured, cartier_module, f_module, is_morphism,
                         is_unit, iterate_structure, nilpotency_index,
                         stable_image, stable_kernel, structured)
from .twisted import (TwistedOperator, semilinear_fixed_points, stable_rank)


@dataclass(frozen=True)
class DualizingData:
    """The explicit unit Cartier structure seeding the duality functor."""

    tier: str
    ring: ArtinRing
    module: CartierModule
    unit: bool


_DUALIZING_CACHE: dict = {}


def inverse_hull(ring: ArtinRing, power: int = 1) -> CartierModule:
    """E_R inside the inverse-monomial hull: span of x^-a with x^(a-1)
    standard, with the contraction Cartier structure for q^power.

    The basis is indexed like the ring basis (x^-(b+1) for standard b), the
    variables act by downward shift, and kappa_E sends index b to b/q^power
    when q^power divides every exponent: the power-fold iterate of the
    q-contraction."""
    t = ring.q ** power
    n = ring.dim
    index = {b: i for i, b in enumerate(ring.basis)}
    acts = []
    for v in range(ring.nvars):
        X = mx.zeros(n, n)
        for j, b in enumerate(ring.basis):
            if b[v] >= 1:
                tgt = tuple(e - (1 if k == v else 0) for k, e in enumerate(b))
                X[index[tgt], j] = 1
        acts.append(X)
    kap = mx.zeros(n, n)
    for j, b in enumerate(ring.basis):
        if all(e % t == 0 for e in b):
            tgt = tuple(e // t for e in b)
            kap[index[tgt], j] = 1
    return cartier_module(fin_module(ring, acts), kap, power, check=False)


def dualizing_module(ring: ArtinRing, power: int = 1) -> DualizingData:
    """E_R = inverse_hull(ring, power), validated unit at construction and
    cached per ring (the unit check is the expensive part)."""
    key = (ring.key(), power)
    hit = _DUALIZING_CACHE.get(key)
    if hit is not None:
        return hit
    # No validate() here: is_unit below solves for the adjoint, and that
    # solve fails unless the structure is equivariant for q^power.
    e_mod = inverse_hull(ring, power)
    unit = is_unit(e_mod)
    if not unit:
        raise RuntimeError("dualizing module failed the unit check")
    data = DualizingData("artinian", ring, e_mod, unit)
    _DUALIZING_CACHE[key] = data
    return data


def pair_F_to_C(m: FModule, n: CartierModule) -> tuple[CartierModule, list]:
    """Hom(M, N) as a Cartier module: f -> kappa_N o F_* f o tau_M."""
    if m.ring.key() != n.ring.key() or m.power != n.power:
        raise ValueError("pairing requires one ring and one Frobenius power")
    F = m.ring.field
    hom, basis = hom_module(m.module, n.module)
    if not basis:
        return CartierModule(hom, mx.zeros(0, 0), m.power), basis
    imgs = [mx.vec(mx.mmul(F, n.kappa, mx.mmul(F, H, m.tau))) for H in basis]
    coords = hom_coords(F, basis, np.stack(imgs, axis=1))
    if coords is None:
        raise RuntimeError("pairing image left the hom space")
    return cartier_module(hom, coords, m.power), basis


def pair_C_to_F(m: CartierModule, n: CartierModule) -> tuple[FModule, list]:
    """Hom(M, N) as an F-module, N unit: solve the defining rule
    kappa_N(F_*(lambda e)) = f(kappa_M(F_*(lambda m))) for all lambda.

    For f = H the rule reads (kappa_N x^lambda) e = H kappa_M x^lambda, so
    each column of e solves against vstack_lambda(kappa_N x^lambda), and
    one solve takes the right-hand sides of every basis hom side by side.
    The answer is unique exactly when that matrix has rank dim N."""
    if m.ring.key() != n.ring.key() or m.power != n.power:
        raise ValueError("pairing requires one ring and one Frobenius power")
    F = m.ring.field
    R = m.ring
    hom, basis = hom_module(m.module, n.module)
    if not basis:
        return FModule(hom, mx.zeros(0, 0), m.power), basis
    lhs = np.vstack([mx.mmul(F, n.kappa, n.module.action_of(mono)) for mono in R.basis])
    rs = [mx.mmul(F, m.kappa, m.module.action_of(mono)) for mono in R.basis]
    rhs = np.hstack([np.vstack([mx.mmul(F, H, r) for r in rs]) for H in basis])
    sol, unique = mx.solve_full(F, lhs, rhs)
    if sol is None:
        raise ValueError("pairing is unsolvable; is the target a unit module?")
    if not unique:
        raise ValueError("pairing solution not unique; target is not unit")
    # sol is hstack_j(e_j); its column-major reshape has vec(e_j) as column j
    coords = hom_coords(F, basis, sol.reshape(n.dim * m.dim, len(basis), order="F"))
    if coords is None:
        raise RuntimeError("pairing image left the hom space")
    return f_module(hom, coords, m.power), basis


def dualize_artinian(m: Structured):
    """D(M) = Hom(M, E_R) with the pairing structure of the opposite kind."""
    e_mod = dualizing_module(m.ring, m.power).module
    if m.kind == FROBENIUS:
        return pair_F_to_C(m, e_mod)
    return pair_C_to_F(m, e_mod)


def double_dual_check(m: Structured) -> tuple[bool, np.ndarray]:
    """The evaluation map M -> Hom(Hom(M, E), E): structure-preserving and
    bijective on the Artinian tier; returns its matrix as the witness.

    The evaluation at e_i is the hom f -> f(e_i), whose matrix has column j
    equal to column i of the basis hom H_j; stacking the H_j vertically
    gives the vec of every evaluation at once, for one `hom_coords` call."""
    F = m.ring.field
    d1, b1 = dualize_artinian(m)
    d2, b2 = dualize_artinian(d1)
    imgs = np.vstack(b1) if b1 else mx.zeros(0, m.dim)
    ev = hom_coords(F, b2, imgs)
    if ev is None:
        return False, mx.zeros(d2.dim, m.dim)
    ok = (d2.dim == m.dim and mx.inverse(F, ev) is not None
          and is_morphism(ev, m, d2))
    return ok, ev


def nilpotence_exchange_check(m: Structured) -> bool:
    """Nilpotency finiteness agrees for M and D(M)."""
    d, _ = dualize_artinian(m)
    return (nilpotency_index(m) == math.inf) == (nilpotency_index(d) == math.inf)


# -- Sol and base change --


@dataclass(frozen=True)
class SolReport:
    fixed_basis: np.ndarray
    dim_fq: int
    geometric_dim: int
    ext_field: FiniteField
    reduced: TwistedOperator


def sol_point(m: FModule, s: int = 1) -> SolReport:
    """Sol at the closed point: reduce modulo the variables, then compute
    arithmetic fixed points over GF(q^s) and the geometric dimension
    (stable rank) of the reduced semilinear operator."""
    F = m.ring.field
    t = reduced_operator(m)
    fixed = semilinear_fixed_points(t, s)
    return SolReport(fixed.basis, fixed.dim_fq, stable_rank(t), fixed.ext_field, t)


def reduced_operator(m: FModule) -> TwistedOperator:
    F = m.ring.field
    if m.ring.nvars:
        ims = np.hstack([X for X in m.module.actions])
        cols = mx.column_space(F, ims)
    else:
        cols = mx.zeros(m.dim, 0)
    proj, sect = quotient_data(F, m.dim, cols)
    tbar = mx.mmul(F, proj, mx.mmul(F, m.tau, sect))
    return TwistedOperator(F, F.order ** m.power, tbar, 1)


def extend_scalars(m: Structured, s: int) -> Structured:
    """Genuine scalar extension to GF(q^s) with the iterated structure, so
    the result is a level-one structure over the bigger field."""
    if m.power != 1:
        raise ValueError("extend_scalars expects a level-one structure")
    F = m.ring.field
    ext = GF(F.p, F.deg * s)
    emb = F.embedding(ext)
    ring_s = ring_make(ext, m.ring.vars, m.ring.relations)
    acts = tuple(emb[X] for X in m.module.actions)
    mod = fin_module(ring_s, acts, check=False)
    return structured(m.kind, mod, emb[iterate_structure(m, s).mat])


def sol_base_change_check(m: FModule, s: int) -> dict:
    """dim_Fq Sol(M) = dim_F(q^s) Sol(M_s), evaluated at matching levels,
    plus equality of the geometric dimensions."""
    base = sol_point(m, s)
    ms = extend_scalars(m, s)
    ext = sol_point(ms, 1)
    ok = base.dim_fq == ext.dim_fq and base.geometric_dim == ext.geometric_dim
    return {"ok": ok,
            "dim_base": base.dim_fq, "dim_ext": ext.dim_fq,
            "geom_base": base.geometric_dim, "geom_ext": ext.geometric_dim}


def dual_base_change_check(m: Structured, s: int) -> bool:
    """D(M_s) = D(M)_s with matrix-exact agreement on the common hom space
    (base change of module structures is s-fold iteration)."""
    lhs, basis_l = dualize_artinian(iterate_structure(m, s))
    rhs = iterate_structure(dualize_artinian(m)[0], s)
    return (lhs.dim == rhs.dim and np.array_equal(lhs.mat, rhs.mat)
            and all(np.array_equal(a, b) for a, b in
                    zip(lhs.module.actions, rhs.module.actions)))


# -- heuristic crystal comparison --


def crystal_signature(m: Structured) -> tuple:
    """Invariants of the crystal class: stable-part dimension and Sol
    dimensions over GF(q), GF(q^2) and GF(q^3) (through the dual for Cartier
    modules).  Equal signatures do not prove equivalence; unequal ones
    refute it -- no general decision procedure is offered."""
    if m.kind == CARTIER:
        part, _ = stable_image(m)
        stable_dim = part.dim
        fmod, _ = dualize_artinian(m)
    else:
        part, _ = stable_kernel(m)
        stable_dim = m.dim - part.dim
        fmod = m
    sols = tuple(sol_point(fmod, s).dim_fq for s in (1, 2, 3))
    geo = sol_point(fmod, 1).geometric_dim
    return (stable_dim, geo, sols)


def crystal_possibly_equivalent(a: Structured, b: Structured) -> bool:
    if a.kind != b.kind or a.power != b.power:
        return False
    return crystal_signature(a) == crystal_signature(b)


# -- ordinarity via the Cartier operator on top forms --


def hasse_invariant(p: int, cubic) -> int:
    """Coefficient of x^(p-1) in f^((p-1)/2) for the curve y^2 = f(x).

    This is the action of the Cartier operator on the one-dimensional space
    of top forms; nonzero means ordinary.  Requires p odd and f a
    square-free monic cubic."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    F = GF(p)
    f = Poly.make(F, cubic)
    if f.deg != 3 or f.lead() != 1:
        raise ValueError("f must be a monic cubic")
    g = f.gcd(f.derivative())
    if g.deg >= 1:
        raise ValueError("singular curve: the cubic has a repeated root")
    acc = f ** ((p - 1) // 2)
    return int(acc.coeffs[p - 1]) if len(acc.coeffs) > p - 1 else 0


def elliptic_ap(p: int, cubic) -> int:
    """Brute-force trace of Frobenius: a_p = p + 1 - #E(F_p)."""
    F = GF(p)
    f = Poly.make(F, cubic)
    squares = {}
    for y in range(p):
        squares.setdefault((y * y) % p, 0)
        squares[(y * y) % p] += 1
    count = 1   # point at infinity
    for x in range(p):
        v = int(f.eval(np.int64(x)))
        count += squares.get(v, 0)
    return p + 1 - count


def ordinarity(p: int, cubic) -> bool:
    """Ordinary iff the rank-one Frobenius module scaled by the Hasse
    invariant has geometric Sol dimension one."""
    h = hasse_invariant(p, cubic)
    ring = ring_make(p, [], [])
    taum = f_module(regular_module(ring), mx.mat([[h]]))
    return sol_point(taum, 1).geometric_dim == 1


def nonsingular_short_weierstrass(p: int) -> list[tuple[int, int]]:
    """All (a, b) with y^2 = x^3 + ax + b nonsingular over GF(p)."""
    out = []
    for a in range(p):
        for b in range(p):
            if (4 * a ** 3 + 27 * b ** 2) % p != 0:
                out.append((a, b))
    return out
