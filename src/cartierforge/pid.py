"""Finitely generated GF(q)[x]-modules and their local theory at the origin.

Unstructured modules come as presentation matrices normalized by Smith form.
Structure-carrying modules are split into an x-power-torsion part (a module
over the truncation ring GF(q)[x]/(x^N), so all Artinian-tier machinery
applies verbatim) and a free part recorded by its multiplier matrix: the
rank-one Cartier structures on GF(q)[x] are exactly kappa_S o (mult by u),
and Frobenius structures are g -> F_*(w g^q).

The injective hull E is modeled by truncations (inverse_module); its Cartier
structure contracts exponents by q, so truncations are stable and the whole
Matlis/local-duality story reduces to exact finite solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .artinian import ArtinRing, fin_module, ring_make
from .field import FiniteField
from .poly import Poly, poly_mat, smith_normal_form
from .duality import inverse_hull
from .structures import (CARTIER, FROBENIUS, CartierModule, Structured,
                         cartier_module, direct_sum_structured,
                         nilpotency_index, structured, validate,
                         with_structure)

# -- kappa_S: the explicit unit Cartier structure on GF(q)[x] --


def kappa_s(f: Poly, q: int) -> Poly:
    """kappa_S(F_* f): picks the x^(qm+q-1) coefficients of f onto x^m.

    This is the structure sending the free basis monomial x^(q-1) to 1 and
    the other monomials x^j (j < q) to 0, extended by kappa(F_*(x^q g)) =
    x kappa(F_* g).
    """
    return Poly.make(f.field, list(f.coeffs[q - 1::q]))


# -- presentations and Smith normal form --


@dataclass(frozen=True)
class PresModule:
    """coker of a polynomial presentation matrix (rows = generators)."""

    field: FiniteField
    pres: tuple
    diag: tuple
    u_mat: tuple
    v_mat: tuple

    @property
    def n_gens(self) -> int:
        return len(self.pres)

    @property
    def invariant_factors(self) -> tuple:
        return tuple(d for d in self.diag if not d.is_zero() and d.deg >= 1)

    @property
    def free_rank(self) -> int:
        nonzero = sum(1 for d in self.diag if not d.is_zero())
        return self.n_gens - nonzero

    @property
    def torsion_dim(self) -> int:
        return sum(d.deg for d in self.invariant_factors)


def pres_module(field: FiniteField, rows) -> PresModule:
    pm = poly_mat(field, rows)
    if not pm:
        raise ValueError("presentation needs at least one generator row")
    diag, u, v, _, _ = smith_normal_form(field, pm)
    return PresModule(field, tuple(tuple(r) for r in pm), tuple(diag),
                      tuple(tuple(r) for r in u), tuple(tuple(r) for r in v))


def frobenius_pushforward_presentation(pm: PresModule, power: int = 1) -> PresModule:
    """Presentation of F^r_* coker(P): the q-fold blow-up.

    Generator (j, k) stands for F_*(x^k e_j); the relation column for an
    original column c and twist t expands x^t c_j = sum_k g_jk(x)^q x^k.
    The GF(q)-dimension of the cokernel is preserved.
    """
    F = pm.field
    q = F.order ** power
    n = pm.n_gens
    m = len(pm.pres[0]) if pm.pres and pm.pres[0] else 0
    rows = [[Poly.zero(F) for _ in range(m * q)] for _ in range(n * q)]
    for col in range(m):
        for t in range(q):
            new_col = col * q + t
            for j in range(n):
                f = pm.pres[j][col].shift(t)
                parts = f.q_decompose(q)
                for k in range(q):
                    rows[j * q + k][new_col] = parts[k]
    if m == 0:
        return pres_module(F, [[Poly.zero(F)] for _ in range(n * q)])
    return pres_module(F, rows)


# -- the truncated injective hull --


def truncation_ring(field: FiniteField, level: int) -> ArtinRing:
    return ring_make(field, ["x"], [[level]])


def inverse_module(field: FiniteField, level: int, power: int = 1) -> CartierModule:
    """Truncation of E = GF(q)[x, 1/x]/GF(q)[x]: basis x^-1 .. x^-level, the
    inverse hull of the truncation ring (index j stands for x^-(j+1))."""
    return inverse_hull(truncation_ring(field, level), power)


# -- structured modules over GF(q)[x] at the origin --


@dataclass(frozen=True)
class PidModule:
    """Structure-carrying module: x-primary torsion part (+) free part.

    torsion: a CartierModule/FModule over a truncation ring, or None.
    free: square multiplier matrix of Poly (None for rank zero); only
    diagonal matrices are inside the handled scope of the local theory.
    """

    field: FiniteField
    kind: str
    torsion: "Structured | None"
    free: "tuple | None"
    power: int = 1

    @property
    def free_rank(self) -> int:
        return len(self.free) if self.free is not None else 0

    @property
    def torsion_dim(self) -> int:
        return self.torsion.dim if self.torsion is not None else 0

    def free_is_diagonal(self) -> bool:
        if self.free is None:
            return True
        return all(self.free[i][j].is_zero()
                   for i in range(len(self.free))
                   for j in range(len(self.free)) if i != j)

    def free_diagonal(self) -> list:
        if not self.free_is_diagonal():
            raise ValueError("free part multiplier matrix is not diagonal")
        return [self.free[i][i] for i in range(self.free_rank)]


class Unsupported:
    """Marker for results outside the handled scope: a documented boundary,
    not an error."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Unsupported({self.reason!r})"


def pid_torsion(field: FiniteField, x_action, struct, kind: str,
                power: int = 1, check: bool = True) -> PidModule:
    """Torsion module supported at the origin: x_action must be nilpotent."""
    x_action = np.asarray(x_action, dtype=np.int64)
    n = mx.nil_index(field, x_action)
    if n == math.inf:
        raise ValueError("x-action is not nilpotent: module not supported at the origin")
    mod = fin_module(truncation_ring(field, n), [x_action])
    t = structured(kind, mod, struct, power, check)
    return PidModule(field, kind, t, None, power)


def pid_free(field: FiniteField, multipliers, kind: str, power: int = 1) -> PidModule:
    """Free module of rank len(multipliers) with diagonal multiplier
    structure; pass a full matrix for the general (mostly unsupported) case."""
    if multipliers and isinstance(multipliers[0], (list, tuple)):
        matr = tuple(tuple(m if isinstance(m, Poly) else Poly.make(field, m)
                           for m in row) for row in multipliers)
    else:
        polys = [m if isinstance(m, Poly) else Poly.make(field, m) for m in multipliers]
        matr = tuple(tuple(polys[i] if i == j else Poly.zero(field)
                           for j in range(len(polys))) for i in range(len(polys)))
    return PidModule(field, kind, None, matr, power)


def pid_sum(a: PidModule, b: PidModule) -> PidModule:
    if a.kind != b.kind or a.power != b.power or a.field != b.field:
        raise ValueError("incompatible summands")
    tors = _merge_torsion(a, b)
    free = None
    if a.free is not None or b.free is not None:
        fa = a.free or ()
        fb = b.free or ()
        na, nb = len(fa), len(fb)
        z = Poly.zero(a.field)
        free = tuple(
            tuple((fa[i][j] if i < na and j < na else
                   (fb[i - na][j - na] if i >= na and j >= na else z))
                  for j in range(na + nb))
            for i in range(na + nb))
    return PidModule(a.field, a.kind, tors, free, a.power)


def _merge_torsion(a: PidModule, b: PidModule):
    if a.torsion is None:
        return b.torsion
    if b.torsion is None:
        return a.torsion
    lvl = max(_ring_level(a.torsion.ring), _ring_level(b.torsion.ring))
    ta = retruncate(a.torsion, lvl)
    tb = retruncate(b.torsion, lvl)
    return direct_sum_structured(ta, tb)


def _ring_level(ring: ArtinRing) -> int:
    return ring.relations[0][0]


def retruncate(t: Structured, level: int) -> Structured:
    """View a torsion module over a (possibly larger) truncation ring."""
    ring = truncation_ring(t.ring.field, level)
    mod = fin_module(ring, t.module.actions, check=True)
    return with_structure(t, mod, t.mat, check=True)


def validate_pid(m: PidModule):
    notes = []
    ok = True
    if m.torsion is not None:
        rep = validate(m.torsion)
        ok = ok and rep.ok
        notes.extend(rep.violations)
    if m.free is not None and not m.free_is_diagonal():
        notes.append("free multiplier matrix is not diagonal; "
                     "local cohomology of this shape is Unsupported")
    return ok, notes


# -- Cech local cohomology at the maximal ideal (x) --


@dataclass(frozen=True)
class CechReport:
    h0: "Structured | None"
    h1: object            # list of hull-truncation CartierModules | Unsupported | None
    h1_multipliers: "list | None"


def cech_local_cohomology(m: PidModule) -> CechReport:
    """H^0_m = the x-power-torsion part with its structure; H^1_m = the
    hull-model cokernel of M -> M_x for the free part.

    Torsion modules have H^1 = 0; free modules with diagonal multiplier
    structure give twisted truncations of the inverse-monomial hull
    (Cartier side) or expanding maps recorded by multiplier (Frobenius
    side).  Anything else is Unsupported by design.
    """
    h0 = m.torsion
    if m.free is None or m.free_rank == 0:
        return CechReport(h0, None, None)
    if not m.free_is_diagonal():
        return CechReport(h0, Unsupported("non-diagonal free multiplier matrix"), None)
    diag = m.free_diagonal()
    q = m.field.order ** m.power
    if m.kind == CARTIER:
        lvl = default_truncation([u.deg for u in diag], q)
        entries = []
        for u in diag:
            entries.append(hull_twist(m.field, lvl, u, m.power))
        return CechReport(h0, entries, diag)
    return CechReport(h0, [Unsupported("H^1 of a Frobenius module is not "
                                       "truncation-stable; verdicts use the multiplier")
                          for _ in diag], diag)


def default_truncation(degs, q: int) -> int:
    return max(4 * max([d + 1 for d in degs] + [1]), 2 * q)


def hull_twist(field: FiniteField, level: int, u: Poly, power: int = 1) -> CartierModule:
    """(E_level, kappa_E o mult(u)): the H^1 model of (R, kappa_u)."""
    inv = inverse_module(field, level, power)
    coords = np.zeros(level, dtype=np.int64)
    for i, c in enumerate(u.coeffs[:level]):
        coords[i] = c
    act_u = inv.module.element_action(coords)
    kap = mx.mmul(field, inv.kappa, act_u)
    return cartier_module(inv.module, kap, power)


def h1_entry_crystal_zero(m: PidModule, u: Poly) -> bool:
    """Bounded-nilpotence verdict for one H^1 hull component.

    Cartier side: the structure contracts, so we compute nilpotency indices
    at two truncation depths; a bounded (crystal-zero) structure has the
    same finite index at both, an unbounded one grows with the depth.
    Frobenius side: the expanding map is zero iff the multiplier is zero.
    """
    q = m.field.order ** m.power
    if m.kind == FROBENIUS:
        return u.is_zero()
    lvl = default_truncation([u.deg], q)
    i1 = nilpotency_index(hull_twist(m.field, lvl, u, m.power))
    i2 = nilpotency_index(hull_twist(m.field, q * lvl + q, u, m.power))
    return i1 != math.inf and i2 != math.inf and i1 == i2


def free_dual_crystal_zero(m: PidModule, u: Poly) -> bool:
    """Ext-side verdict for one free component: the dual of a multiplier
    structure is the opposite-kind multiplier structure with the same u,
    and on the full polynomial ring it is nilpotent exactly when u = 0
    (iterates always move some monomial to a nonzero one otherwise)."""
    return u.is_zero()
