"""Finitely generated GF(q)[x]-modules and their local theory at the origin.

Structure-carrying modules are split into an x-power-torsion part (a module
over the truncation ring GF(q)[x]/(x^N), so all Artinian-tier machinery
applies verbatim) and a free part recorded by its multiplier matrix: the
rank-one Cartier structures on GF(q)[x] are exactly kappa_S o (mult by u),
and Frobenius structures are g -> F_*(w g^q).

The injective hull E is modeled by truncations (inverse_module); its Cartier
structure contracts exponents by q, so truncations are stable and Matlis
duality reduces to exact finite solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .artinian import ArtinRing, fin_module, memo, ring_make
from .field import FiniteField
from .poly import Poly
from .duality import inverse_hull
from .structures import (CARTIER, FROBENIUS, CartierModule, Structured,
                         direct_sum_structured, nilpotency_index, structured,
                         validate, with_structure)

# -- the truncated injective hull --


@memo(64)
def truncation_ring(field: FiniteField, level: int) -> ArtinRing:
    """GF(q)[x]/(x^level), memoized; its multiplication matrix is read-only."""
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
                power: int = 1) -> PidModule:
    """Torsion module supported at the origin: x_action must be nilpotent."""
    x_action = np.asarray(x_action, dtype=np.int64)
    n = mx.nil_index(field, x_action)
    if n == math.inf:
        raise ValueError("x-action is not nilpotent: module not supported at the origin")
    mod = fin_module(truncation_ring(field, n), [x_action])
    t = structured(kind, mod, struct, power)
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
    """View a torsion module over the truncation ring at `level`, which
    must be at least the x-nilpotency index of `t`."""
    mod = fin_module(truncation_ring(t.ring.field, level), t.module.actions)
    return with_structure(t, mod, t.mat)


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


def free_crystal_zero(m: PidModule) -> bool:
    """The free part is crystal-zero, and so is its H^1_m: every multiplier
    u is zero.

    On the polynomial ring kappa_S o u (or g -> F_*(u g^q)) is nilpotent
    exactly when u = 0; otherwise iterates move some monomial to a nonzero
    one.  The H^1 hull component (E, kappa_E o u), E = GF(q)[x, 1/x]/GF(q)[x],
    has the same verdict.  Crystal-zero means bounded nilpotence: some
    iterate of the structure is zero on all of E.  Since u kappa_E(v) =
    kappa_E(u^q v), the iterates are (kappa_E u)^e = kappa_E^e o
    u^((q^e - 1)/(q - 1)).  If u != 0, let w = u^((q^e - 1)/(q - 1)) have
    order a; then w x^-(a+1) = w_a x^-1 in E, and kappa_E^e sends it to
    w_a^(1/q^e) x^-1 != 0.  So bounded nilpotence holds exactly when u = 0.
    Frobenius side: the expanding map is zero iff the multiplier is zero.
    """
    return m.free is None or all(u.is_zero() for u in m.free_diagonal())


def torsion_crystal_zero(t: "Structured | None") -> bool:
    """A torsion part is crystal-zero: its structure is nilpotent."""
    return t is None or nilpotency_index(t) != math.inf
