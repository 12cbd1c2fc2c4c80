"""Complexes of structured modules, Matlis duality, local duality, and the
perverse t-structure checks on the one-dimensional tier.

Degree convention: the normalized unit dualizing object is (R, kappa_S)
placed in degree -1, so torsion modules dualize into degree 0 and free
parts into degree -(d+1) from degree d.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import matrix as mx
from .artinian import FinModule, memo
from .duality import dualize_artinian
from .pid import (CARTIER, FROBENIUS, PidModule, free_crystal_zero, pid_free,
                  pid_sum, retruncate, torsion_crystal_zero)
from .poly import Poly
from .structures import Structured


def _opposite(kind: str) -> str:
    return FROBENIUS if kind == CARTIER else CARTIER


def matlis_dual(t: Structured) -> Structured:
    """Hom(M, E) for an x-primary torsion module, with the pairing-induced
    structure of the opposite kind.

    Computed by dualize_artinian over the truncation ring at level
    N = index, the x-nilpotency index of M (`_x_index`); the
    dual lives over that ring.
    Every N >= index gives the same hom basis, structure matrix and
    x-action, bit for bit:

    - x^index kills M, so a hom M -> E_N lands in the x^index-socle E_index
      (x^-1 .. x^-index).  The equivariance system at level N therefore has
      the level-index kernel, padded with coordinates forced to zero.
    - The RREF kernel basis depends only on the kernel and the column
      order, and padding with forced-zero coordinates keeps it (such a
      coordinate is never a free column).  kappa_E and the shift by x map
      E_index into itself, and the structure solves have unique solutions,
      so the hom basis, the structure matrix and the x-action come out
      bit-identical.  Only the dual's ring level depends on N.
    """
    index = _x_index(t.module)
    if index == math.inf:
        raise ValueError("x-action is not nilpotent: module not supported at the origin")
    return dualize_artinian(retruncate(t, index))[0]


@memo
def _x_index(m: FinModule):
    """The nilpotency index of x on `m`, memoized on the module."""
    return mx.nil_index(m.ring.field, m.actions[0])


class StructuredComplex(NamedTuple):
    """Bounded complex of PidModules with zero differentials."""

    terms: dict            # degree -> PidModule


def shift_module(m: PidModule, degree: int = 0) -> StructuredComplex:
    return StructuredComplex({degree: m})


def dualize(obj):
    """The duality functor D on the one-dimensional tier.

    A module placed in degree d sends its torsion part to degree -d (its
    Matlis dual, opposite kind) and its free multiplier part to degree
    -d - 1 (same multipliers, opposite kind).  A non-diagonal free part
    raises Unsupported (`PidModule.free_diagonal`).
    """
    if isinstance(obj, PidModule):
        obj = shift_module(obj, 0)
    out = {}
    for d, m in obj.terms.items():
        diag = m.free_diagonal()
        kind = _opposite(m.kind)
        if m.torsion is not None:
            _merge_term(out, -d, PidModule(m.field, kind, matlis_dual(m.torsion), None, m.power))
        if diag:
            _merge_term(out, -d - 1, PidModule(m.field, kind, None, m.free, m.power))
    return StructuredComplex(out)


def _merge_term(out: dict, degree: int, term: PidModule) -> None:
    out[degree] = pid_sum(out[degree], term) if degree in out else term


# -- local duality --


class DegreeVerdict(NamedTuple):
    degree: int
    local_zero: bool
    ext_zero: bool

    @property
    def agree(self) -> bool:
        return self.local_zero == self.ext_zero


class LocalDualityReport(NamedTuple):
    verdicts: tuple

    @property
    def ok(self) -> bool:
        return all(v.agree for v in self.verdicts)


def local_duality_check(m: PidModule) -> LocalDualityReport:
    """Compare, degree by degree, crystal-vanishing of H^i_m(M) against
    Ext^{-i}(M, omega) for a module placed in degree zero.

    The local side reads the Cech model: H^0_m is the torsion part itself,
    and H^1_m, the hull twists of the free part, is crystal-zero exactly
    when the free part is (`free_crystal_zero`).  The Ext side reads D(M):
    the Matlis dual in degree 0 and the dual multiplier module in degree -1.
    A non-diagonal free part raises Unsupported, as in `dualize`.
    """
    dual = dualize(m)
    t0, tm1 = dual.terms.get(0), dual.terms.get(-1)
    return LocalDualityReport((
        DegreeVerdict(0, torsion_crystal_zero(m.torsion),
                      t0 is None or torsion_crystal_zero(t0.torsion)),
        DegreeVerdict(1, free_crystal_zero(m),
                      tm1 is None or free_crystal_zero(tm1))))


# -- perversity --


class PointCondition(NamedTuple):
    point: str
    side: str
    degree: int
    ok: bool


class PerverseReport(NamedTuple):
    ok: bool
    conditions: tuple


def is_perverse(c: "StructuredComplex | PidModule") -> PerverseReport:
    """Middle-perversity membership over Spec GF(q)[x].

    Conditions, with p(generic) = -1 and p(closed) = 0:
      stalk side:  H^j(M_eta) ~ 0 for j > -1, H^j(M_0) ~ 0 for j > 0;
      local side:  H^j_m ~ 0 for j < 0 at the closed points.
    Torsion parts see only the closed point at the origin; free parts see
    the generic point and every closed point alike.  A complex has zero
    differentials, so H^j of it is its term in degree j.  A term with a
    non-diagonal free part raises Unsupported (`PidModule.free_diagonal`).
    """
    if isinstance(c, PidModule):
        c = shift_module(c, 0)
    conds = []
    for d, m in sorted(c.terms.items()):
        # degree -1 reads no free condition and degree 0 no torsion one
        free_zero = d == -1 or free_crystal_zero(m)
        tors_zero = d == 0 or torsion_crystal_zero(m.torsion)
        if d > -1:
            conds.append(PointCondition("generic", "stalk", d, free_zero))
        if d > 0:
            conds.append(PointCondition("closed", "stalk", d, tors_zero and free_zero))
        if d < 0:
            conds.append(PointCondition("closed", "local", d, tors_zero))
        if d < -1:
            conds.append(PointCondition("closed", "local", d + 1, free_zero))
    return PerverseReport(all(x.ok for x in conds), tuple(conds))


# -- coherent localization models --


def coherent_model_of_localization(m: PidModule, f: Poly) -> PidModule:
    """A coherent Cartier model of M_f.

    The free multiplier parts pick up f^(q(q-1)) in the multiplier (the
    (1/f^q)-lattice rewritten in its own basis); x-primary torsion dies if
    x | f and is untouched otherwise.  This builds the model and decides
    nothing: every one-layer quotient f^-(n+1) M' / f^-n M' has the zero
    induced structure, since kappa lowers the pole order from n+1 to
    ceil((n+1)/q) <= n, so a layer-by-layer nilpotence check holds for
    every f and could not fail.  A non-diagonal free part raises
    Unsupported (`PidModule.free_diagonal`) unless f is a unit.
    """
    if m.kind != CARTIER:
        raise ValueError("localization models are built for Cartier modules")
    if f.is_zero():
        raise ValueError("cannot localize at f = 0")
    if f.is_unit():
        return m
    F, free = m.field, None
    if diag := m.free_diagonal():
        q = F.order ** m.power
        fq = f ** (q * (q - 1))
        free = pid_free(F, [u * fq for u in diag], CARTIER, m.power).free
    tors = None if f.coeffs[0] == 0 else m.torsion
    return PidModule(F, CARTIER, tors, free, m.power)
