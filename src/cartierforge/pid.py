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
from dataclasses import dataclass, replace

import numpy as np

from . import matrix as mx
from .artinian import ArtinRing, FinModule, fin_module, memo, ring_make
from .field import FiniteField
from .poly import Poly
from .duality import inverse_hull
from .structures import (CARTIER, FROBENIUS, Structured, Unsupported,
                         ValidationReport, direct_sum_structured, nilpotency_index,
                         structured, validate)

# -- the truncated injective hull --


@memo
def truncation_ring(field: FiniteField, level: int) -> ArtinRing:
    """GF(q)[x]/(x^level), memoized; its multiplication matrix is read-only."""
    return ring_make(field, ["x"], [[level]])


def inverse_module(field: FiniteField, level: int, power: int = 1) -> Structured:
    """Truncation of E = GF(q)[x, 1/x]/GF(q)[x]: basis x^-1 .. x^-level, the
    inverse hull of the truncation ring (index j stands for x^-(j+1))."""
    return inverse_hull(truncation_ring(field, level), power)


# -- structured modules over GF(q)[x] at the origin --


@dataclass(frozen=True)
class PidModule:
    """Structure-carrying module: x-primary torsion part (+) free part.

    torsion: a `Structured` of the module's kind over a truncation ring,
    or None.
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

    def free_diagonal(self) -> list:
        """The multipliers of a diagonal free part; Unsupported otherwise."""
        if self.free is None:
            return []
        n = len(self.free)
        if any(not self.free[i][j].is_zero() for i in range(n) for j in range(n) if i != j):
            raise Unsupported("non-diagonal free multiplier matrix")
        return [self.free[i][i] for i in range(n)]


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
    structure, `multipliers` a list of Polys; a square matrix of Polys, as
    a list of rows, gives the general (mostly unsupported) case."""
    if multipliers and isinstance(multipliers[0], (list, tuple)):
        matr = tuple(map(tuple, multipliers))
    else:
        matr = tuple(tuple(u if i == j else Poly.zero(field) for j in range(len(multipliers)))
                     for i, u in enumerate(multipliers))
    if not all(isinstance(u, Poly) for row in matr for u in row):
        raise TypeError("free multipliers must be Polys")
    if any(len(row) != len(matr) for row in matr):
        raise ValueError("free multiplier matrix must be square")
    return PidModule(field, kind, None, matr, power)


def pid_sum(a: PidModule, b: PidModule) -> PidModule:
    if a.kind != b.kind or a.power != b.power or a.field != b.field:
        raise ValueError("incompatible summands")
    tors = _merge_torsion(a, b)
    free = None
    if a.free is not None or b.free is not None:
        # the square multiplier matrices down the diagonal
        fa, fb, z = a.free or (), b.free or (), (Poly.zero(a.field),)
        free = tuple(row + z * len(fb) for row in fa) + tuple(z * len(fa) + row for row in fb)
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
    must be at least the x-nilpotency index of `t`; `t` itself when its
    ring already has that level."""
    if _ring_level(t.ring) == level:
        return t
    mod = FinModule(truncation_ring(t.ring.field, level), t.dim, t.module.actions)
    return replace(t, module=mod)


def validate_pid(m: PidModule) -> ValidationReport:
    """The validation of the torsion part; a free part, diagonal or not,
    breaks no law."""
    return ValidationReport(True, ()) if m.torsion is None else validate(m.torsion)


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
