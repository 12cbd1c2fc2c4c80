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
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import matrix as mx
from .artinian import (ArtinRing, FinModule, Hom, _monomial_map, hom_coords, hom_images,
                       hom_module, memo, quotient_data, regular_module, ring_make)
from .field import GF, FiniteField, is_prime, order_fits
from .poly import Poly, smith_normal_form
from .structures import (CARTIER, FROBENIUS, Structured, Unsupported, _expect,
                         _kappa_stack, cartier_module, f_module,
                         is_morphism, is_unit, iterate_structure,
                         kappa_monomials, nilpotency_index, structured)
from .twisted import semilinear_fixed_points


def inverse_hull(ring: ArtinRing, power: int = 1) -> Structured:
    """E_R inside the inverse-monomial hull: span of x^-a with x^(a-1)
    standard, with the contraction Cartier structure for q^power.

    The basis is indexed like the ring basis (x^-(b+1) for standard b), the
    variables act by downward shift, and kappa_E sends index b to b/q^power
    when q^power divides every exponent: the power-fold iterate of the
    q-contraction, so kappa_E is the transpose of the ring's Frobenius
    b -> q^power b.  Likewise the shift x^-(b+1) -> x^-b by x_v is the
    transpose of the ring's multiplication x^b -> x^(b+e_v): standard
    monomials are closed under division."""
    t = ring.q ** power
    acts = tuple(np.ascontiguousarray(op.T) for op in ring.mult_ops)
    frobenius = _monomial_map(ring.basis, lambda b: tuple(t * e for e in b))
    return cartier_module(FinModule(ring, ring.dim, acts),
                          np.ascontiguousarray(frobenius.T), power)


@memo
def dualizing_module(ring: ArtinRing, power: int = 1) -> Structured:
    """E_R = inverse_hull(ring, power), checked to be unit; memoized per
    ring and power (the unit check is the expensive part)."""
    e_mod = inverse_hull(ring, power)
    if not is_unit(e_mod):
        raise RuntimeError("dualizing module failed the unit check")
    return e_mod


_NOT_EQUIVARIANT = ("pairing image left the hom space: a structure is not "
                    "equivariant (check both modules with validate)")


def pair_F_to_C(m: Structured, n: Structured) -> Hom:
    """Hom(M, N) as a Cartier module: f -> kappa_N o F_* f o tau_M, for M
    Frobenius and N Cartier.

    Returns it with its hom basis, the kernel matrix from `hom_module`."""
    _expect(FROBENIUS, m)
    _expect(CARTIER, n)
    if m.ring != n.ring or m.power != n.power:
        raise ValueError("pairing requires one ring and one Frobenius power")
    F = m.ring.field
    hom, ker = space = hom_module(m.module, n.module)
    imgs = hom_images(F, ker, (n.dim, m.dim), left=n.mat, right=m.mat)
    coords = hom_coords(F, ker, imgs, space.free)
    if coords is None:
        raise ValueError(_NOT_EQUIVARIANT)
    return Hom(cartier_module(hom, coords, m.power), ker, space.free)


def pair_C_to_F(m: Structured, n: Structured) -> Hom:
    """Hom(M, N) as an F-module, M Cartier and N unit Cartier: solve the
    defining rule kappa_N(F_*(lambda e)) = f(kappa_M(F_*(lambda m))) for
    all lambda.

    For f = H the rule reads (kappa_N x^lambda) e = H kappa_M x^lambda, so
    each column of e solves against K = vstack_lambda(kappa_N x^lambda),
    with the right-hand sides of every basis hom side by side; they come
    from one product, H_j times hstack_lambda(kappa_M x^lambda).  The
    answer is unique exactly when K has rank dim N; then it is K[rows]^-1
    (`structures._kappa_stack`, once per N) times the right-hand sides at
    those rows, checked by one product.  Otherwise N is not unit, and this
    raises Unsupported.  Returns the F-module with its hom basis, the kernel
    matrix from `hom_module`."""
    _expect(CARTIER, m, n)
    if m.ring != n.ring or m.power != n.power:
        raise ValueError("pairing requires one ring and one Frobenius power")
    F = m.ring.field
    hom, ker = space = hom_module(m.module, n.module)
    k, dn, dm, rd = ker.shape[1], n.dim, m.dim, m.ring.dim
    if not k:
        return Hom(f_module(hom, mx.zeros(0, 0), m.power), ker, space.free)
    stack, rows, inv = _kappa_stack(n)
    if inv is None:
        raise Unsupported("pairing solution not unique; target is not unit")
    rs = kappa_monomials(m).reshape(rd, dm, dm).transpose(1, 0, 2).reshape(dm, rd * dm)
    # column j, vstack_lambda vec(H_j kappa_M x^lambda), reorders into rhs
    imgs = hom_images(F, ker, (dn, dm), right=rs)
    rhs = (imgs.reshape(dn, dm, rd, k, order="F").transpose(0, 2, 1, 3)
           .reshape(dn * rd, dm * k, order="F"))
    sol = mx.mmul(F, inv, rhs[rows])
    if not mx.equal(mx.mmul(F, stack, sol), rhs):
        raise ValueError("pairing is unsolvable: the source structure is not "
                         "equivariant or the target is not unit (check both "
                         "modules with validate)")
    # sol is hstack_j(e_j); its column-major reshape has vec(e_j) as column j
    coords = hom_coords(F, ker, sol.reshape(dn * dm, k, order="F"), space.free)
    if coords is None:
        raise ValueError(_NOT_EQUIVARIANT)
    return Hom(f_module(hom, coords, m.power), ker, space.free)


@memo
def dualize_artinian(m: Structured):
    """D(M) = Hom(M, E_R) with the pairing structure of the opposite kind,
    and its hom basis.  Memoized on the content of M (`memo`): results are
    shared, and the structure matrix, actions and hom basis are read-only."""
    e_mod = dualizing_module(m.ring, m.power)
    return pair_F_to_C(m, e_mod) if m.kind == FROBENIUS else pair_C_to_F(m, e_mod)


def double_dual_check(m: Structured) -> tuple[bool, np.ndarray]:
    """The evaluation map M -> Hom(Hom(M, E), E): structure-preserving and
    bijective on the Artinian tier; returns its matrix as the witness.

    The evaluation at e_i is the hom f -> f(e_i), whose matrix has column j
    equal to column i of the basis hom H_j; stacking the H_j vertically, a
    reshape of the first kernel matrix, gives the vec of every evaluation
    at once, for one `hom_coords` call."""
    F = m.ring.field
    d1, ker1 = dualize_artinian(m)
    d2, ker2 = dual2 = dualize_artinian(d1)
    e, k = m.ring.dim, ker1.shape[1]          # E_R has the ring's dimension
    imgs = ker1.reshape(e, m.dim, k, order="F").transpose(2, 0, 1).reshape(k * e, m.dim)
    ev = hom_coords(F, ker2, imgs, dual2.free)
    if ev is None:
        return False, mx.zeros(d2.dim, m.dim)
    ok = d2.dim == m.dim and mx.is_invertible(F, ev) and is_morphism(ev, m, d2)
    return ok, ev


def matlis_witness(m: Structured) -> tuple[bool, np.ndarray]:
    """D(M) against the closed form (M^T, X_v^T, S^T), S the structure of
    M, by W = the socle row (index 0, x^-1) of each basis hom of D(M),
    without the Hom route; returns (ok, W).  Proof: E_R = Hom_k(R, k), so
    H -> row 0 of H is the adjunction Hom_R(M, E_R) = Hom_k(M, k), and W is
    invertible.  H is R-linear, so row 0 of X_v^E H = H X_v is (row 0 of
    H) X_v: W X_v^D = X_v^T W.  Row 0 of kappa_E is e_0^T, as only x^-1
    contracts to x^-1, so row 0 of either pairing's image of H (kappa_E H
    tau_M, or the e with kappa_E e = H kappa_M) is (row 0 of H) S:
    W S^D = S^T W."""
    F = m.ring.field
    d, ker = dualize_artinian(m)
    w = ker.reshape(m.ring.dim, m.dim, ker.shape[1], order="F")[0]
    dual = Structured(d.kind, FinModule(m.ring, m.dim, tuple(x.T for x in m.module.actions)),
                      m.mat.T, m.power)
    return mx.is_invertible(F, w) and is_morphism(w, d, dual), w


def nilpotence_exchange_check(m: Structured) -> bool:
    """Nilpotency finiteness agrees for M and D(M)."""
    d, _ = dualize_artinian(m)
    return (nilpotency_index(m) == math.inf) == (nilpotency_index(d) == math.inf)


# -- Sol and base change --


class SolReport(NamedTuple):
    fixed_basis: np.ndarray
    dim_fq: int
    geometric_dim: int
    ext_field: FiniteField
    operator: np.ndarray     # T, the structure at the point over F_q


def sol_point(m: Structured, s: int = 1) -> SolReport:
    """Sol at the closed point: reduce modulo the variables to the matrix T
    over F_q, then compute arithmetic fixed points over GF(q^s) and the
    geometric dimension, the rank of T^dim (the size of T's bijective part)."""
    F = m.ring.field
    t = reduced_operator(m)
    fixed = semilinear_fixed_points(F, t, s)
    return SolReport(fixed.basis, fixed.dim_fq, mx.rank(F, mx.mat_pow(F, t, len(t))),
                     fixed.ext_field, t)


def sol_certified(m: Structured, rep: SolReport) -> bool:
    """The check behind `sol`: dim_fq = d - rank(T^s - I), by Galois descent
    (Sol spans ker(T^s - I) over GF(q^s)); T v^q = v for each basis vector;
    and the basis has rank dim_fq over GF(q^s), so it is F_q-independent."""
    F, t, b, ext = m.ring.field, rep.operator, rep.fixed_basis, rep.ext_field
    d, s = len(t), ext.deg // F.deg
    return (rep.dim_fq == d - mx.rank(F, F.sub(mx.mat_pow(F, t, s), mx.identity(d)))
            and mx.equal(mx.mmul(ext, F.embedding(ext)[t], ext.power(b, F.order)), b)
            and mx.rank(ext, b) == rep.dim_fq == b.shape[1])


def reduced_operator(m: Structured) -> np.ndarray:
    """The matrix over F_q of the Frobenius structure induced on M/mM, m the
    ideal of the variables; the structure must be level one (q = |F|)."""
    _expect(FROBENIUS, m)
    if m.power != 1:
        raise ValueError("Sol at the point expects a level-one structure")
    F = m.ring.field
    cols = mx.column_space(F, np.concatenate((mx.zeros(m.dim, 0), *m.module.actions), axis=1))
    proj, sect = quotient_data(F, m.dim, cols)
    return mx.mmul(F, proj, mx.mmul(F, m.mat, sect))


def extend_scalars(m: Structured, s: int) -> Structured:
    """Genuine scalar extension to GF(q^s) with the iterated structure, so
    the result is a level-one structure over the bigger field."""
    if m.power != 1:
        raise ValueError("extend_scalars expects a level-one structure")
    F = m.ring.field
    ext = GF(F.p, F.deg * s)
    emb = F.embedding(ext)
    ring_s = replace(m.ring, field=ext)     # 0/1 mult_ops: the same codes over ext
    acts = tuple(emb[X] for X in m.module.actions)
    mod = FinModule(ring_s, m.dim, acts)
    return structured(m.kind, mod, emb[iterate_structure(m, s).mat])


def sol_base_change_check(m: Structured, s: int) -> dict:
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
    lhs, _ = dualize_artinian(iterate_structure(m, s))
    rhs = iterate_structure(dualize_artinian(m)[0], s)
    return (lhs.dim == rhs.dim and mx.equal(lhs.mat, rhs.mat)
            and all(mx.equal(a, b) for a, b in zip(lhs.module.actions, rhs.module.actions)))


# -- the crystal at the point --


def crystal_class(m: Structured) -> tuple:
    """The crystal of M: the invariant factors (degree >= 1, low-first) of
    tI - B, B the k-linear structure on the Fitting-bijective part S.
    With e = dim >= the m-nilpotency index: a kappa^e(v) = kappa^e(a^(q^e) v)
    = 0 for a in m, so S = kappa^e(M) lies in M[m] and S -> M is a
    nil-isomorphism; tau^e(mM) lies in m^[q^e] M = 0, so S injects into
    M/mM and M -> M/mM -> S are nil-isomorphisms.  Nil-isomorphisms of
    bijective structures are isomorphisms, so crystals are isomorphic
    exactly when their B are similar."""
    F = m.ring.field
    neg = F.neg(mx.bijective_part(F, m.mat))
    pres = [[Poly.make(F, (c, i == j)) for j, c in enumerate(r)] for i, r in enumerate(neg)]
    return tuple(f.coeffs for f in smith_normal_form(F, pres) if f.deg >= 1)


def crystal_equivalent(a: Structured, b: Structured) -> bool:
    """Whether a and b are isomorphic as crystals (see crystal_class)."""
    return ((a.kind, a.power, a.ring.field) == (b.kind, b.power, b.ring.field)
            and crystal_class(a) == crystal_class(b))


# -- ordinarity via the Cartier operator on top forms --


def hasse_invariant(p: int, cubic) -> int:
    """Coefficient of x^(p-1) in f^((p-1)/2) for the curve y^2 = f(x).

    This is the action of the Cartier operator on the one-dimensional space
    of top forms; nonzero means ordinary.  Requires p odd and f a
    square-free monic cubic.  Found in O(p) steps by `_power_coefficient`;
    when f(0) = 0, f = x h with h(0) != 0 (x^2 does not divide f), and the
    coefficient is that of x^n in h^n, n = (p-1)/2."""
    if p == 2 or (order_fits(p, 1) and not is_prime(p)):
        raise ValueError("p must be an odd prime")
    F = GF(p)       # past the field-order cap, GF raises before trial division
    f = Poly.make(F, cubic)
    if f.deg != 3 or f.lead() != 1:
        raise ValueError("f must be a monic cubic")
    g = f.gcd(f.derivative())
    if g.deg >= 1:
        raise ValueError("singular curve: the cubic has a repeated root")
    n = (p - 1) // 2
    c = f.coeffs
    return _power_coefficient(p, c, n, p - 1) if c[0] else _power_coefficient(p, c[1:], n, n)


def _power_coefficient(p: int, c, n: int, k: int) -> int:
    """Coefficient of x^k in g = f^n over GF(p), f = c_0 + ... + c_3 x^3 of
    degree at most 3, c_0 != 0 and k < p.  The x^(j-1) coefficients of
    f g' = n f' g give j c_0 g_j = -sum_(i >= 1) c_i (j - i - n i) g_(j-i),
    and j < p is invertible mod p."""
    c1, c2, c3 = (list(c[1:]) + [0, 0])[:3]
    inv0 = pow(c[0], -1, p)
    g1, g2, g3 = pow(c[0], n, p), 0, 0          # g_(j-1), g_(j-2), g_(j-3)
    for j in range(1, k + 1):
        s = c1 * (j - 1 - n) * g1 + c2 * (j - 2 - 2 * n) * g2 + c3 * (j - 3 - 3 * n) * g3
        g1, g2, g3 = -s * inv0 * pow(j, -1, p) % p, g1, g2
    return g1


def elliptic_ap(p: int, cubic) -> int:
    """Brute-force trace of Frobenius: a_p = p + 1 - #E(F_p), counting the
    points over every x at once: f(x) by Horner on the int64 codes, then
    the number of y with y^2 = f(x) from a table of the squares."""
    xs = np.arange(p, dtype=np.int64)
    v = np.zeros(p, dtype=np.int64)
    for c in reversed(cubic):
        v = (v * xs + int(c) % p) % p
    roots = np.bincount(xs * xs % p, minlength=p)
    count = 1 + int(roots[v].sum())   # with the point at infinity
    return p + 1 - count


def ordinarity(p: int, cubic) -> bool:
    """Ordinary iff the rank-one Frobenius module scaled by the Hasse
    invariant has geometric Sol dimension one."""
    return _ordinary_by_sol(p, hasse_invariant(p, cubic))


def _ordinary_by_sol(p: int, h: int) -> bool:
    """`ordinarity` for the Hasse invariant h over GF(p)."""
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
