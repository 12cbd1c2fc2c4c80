"""Complexes of structured modules, Matlis duality, local duality, and the
perverse t-structure checks on the one-dimensional tier.

Degree convention: the normalized unit dualizing object is (R, kappa_S)
placed in degree -1, so torsion modules dualize into degree 0 and free
parts into degree -(d+1) from degree d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import matrix as mx
from .duality import dualize_artinian
from .field import FiniteField
from .pid import (CARTIER, FROBENIUS, PidModule, Unsupported, _ring_level,
                  cech_local_cohomology, free_dual_crystal_zero,
                  h1_entry_crystal_zero, pid_free, pid_sum, retruncate)
from .poly import Poly
from .structures import (Structured, is_morphism, nilpotency_index,
                         quotient_structure, sub_structure)


def _opposite(kind: str) -> str:
    return FROBENIUS if kind == CARTIER else CARTIER


def matlis_dual(t: Structured, trunc: int | None = None) -> Structured:
    """Hom(M, E) for an x-primary torsion module, with the pairing-induced
    structure of the opposite kind.

    Computed by dualize_artinian over the truncation ring at level
    N = max(trunc, index), where index is the x-nilpotency index of M; the
    dual lives over that ring.  Every N >= index gives the same hom basis,
    structure matrix and x-action, bit for bit:

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
    F = t.ring.field
    index = mx.nil_index(F, t.module.actions[0])
    if index == math.inf:
        raise ValueError("x-action is not nilpotent: module not supported at the origin")
    return dualize_artinian(retruncate(t, max(trunc or 0, index)))[0]


@dataclass(frozen=True)
class StructuredComplex:
    """Bounded complex of PidModules with (optional) differentials.

    Differentials act on the torsion parts; free parts must carry zero
    differentials (other shapes are outside the modeled scope).
    """

    terms: dict            # degree -> PidModule
    diffs: dict = dfield(default_factory=dict)   # degree -> matrix on torsion parts

    def validate(self) -> list[str]:
        out = []
        for d, f in self.diffs.items():
            src, dst = self.terms.get(d), self.terms.get(d + 1)
            if src is None or dst is None:
                out.append(f"differential at {d} lacks endpoints")
                continue
            if src.torsion is None or dst.torsion is None:
                out.append(f"differential at {d} needs torsion endpoints")
                continue
            lvl = max(_ring_level(src.torsion.ring), _ring_level(dst.torsion.ring))
            if not is_morphism(np.asarray(f, dtype=np.int64),
                               retruncate(src.torsion, lvl),
                               retruncate(dst.torsion, lvl)):
                out.append(f"differential at {d} is not structure-preserving")
        for d in self.diffs:
            if d + 1 in self.diffs:
                F = self.terms[d].field
                comp = mx.mmul(F, np.asarray(self.diffs[d + 1], dtype=np.int64),
                               np.asarray(self.diffs[d], dtype=np.int64))
                if comp.any():
                    out.append(f"d^2 != 0 at degree {d}")
        return out


def shift_module(m: PidModule, degree: int = 0) -> StructuredComplex:
    return StructuredComplex({degree: m})


def complex_cohomology(c: StructuredComplex) -> StructuredComplex:
    """Cohomology termwise (zero-differential output); torsion-only
    differentials supported."""
    bad = c.validate()
    if bad:
        raise ValueError("; ".join(bad))
    if not c.diffs:
        return c
    out = {}
    for d, m in c.terms.items():
        tors = m.torsion
        if tors is not None:
            f_in = c.diffs.get(d - 1)
            f_out = c.diffs.get(d)
            cur = tors
            if f_out is not None:
                ker = mx.kernel(cur.ring.field, np.asarray(f_out, dtype=np.int64))
                cur = sub_structure(cur, ker)
                if f_in is not None:
                    raise ValueError("two-sided differentials on one term "
                                     "are outside the modeled scope")
            elif f_in is not None:
                img = mx.column_space(cur.ring.field,
                                      np.asarray(f_in, dtype=np.int64))
                cur, _, _ = quotient_structure(cur, img)
            tors = cur
        out[d] = PidModule(m.field, m.kind, tors, m.free, m.power)
    return StructuredComplex(out)


def dualize(obj):
    """The duality functor D on the one-dimensional tier.

    A module placed in degree d sends its torsion part to degree -d (its
    Matlis dual, opposite kind) and its free multiplier part to degree
    -d - 1 (same multipliers, opposite kind).  Complexes must carry zero
    differentials.  Non-diagonal free shapes are Unsupported.
    """
    if isinstance(obj, PidModule):
        obj = shift_module(obj, 0)
    if obj.diffs:
        return Unsupported("dualize of a complex with nonzero differentials")
    out = {}
    for d, m in obj.terms.items():
        if m.free is not None and not m.free_is_diagonal():
            return Unsupported("non-diagonal free multiplier matrix")
        kind = _opposite(m.kind)
        if m.torsion is not None:
            dual_t = matlis_dual(m.torsion)
            _merge_term(out, -d, m.field, kind, dual_t, None, m.power)
        if m.free is not None and m.free_rank:
            dual_f = pid_free(m.field, list(m.free_diagonal()), kind, m.power)
            _merge_term(out, -d - 1, m.field, kind, None, dual_f.free, m.power)
    return StructuredComplex(out)


def _merge_term(out, degree, field, kind, torsion, free, power):
    prev = out.get(degree)
    if prev is None:
        out[degree] = PidModule(field, kind, torsion, free, power)
        return
    out[degree] = pid_sum(prev, PidModule(field, kind, torsion, free, power))


def cartier_structure_on_ring(field: FiniteField) -> PidModule:
    """(R, kappa_S): the explicit unit Cartier structure on GF(q)[x],
    as the rank-one free module with multiplier 1."""
    return pid_free(field, [Poly.one(field)], CARTIER)


def unit_dualizing_complex(field: FiniteField) -> StructuredComplex:
    """The normalized unit dualizing object of the one-dimensional tier:
    (R, kappa_S) placed in degree -1, so skyscrapers dualize into degree 0."""
    return shift_module(cartier_structure_on_ring(field), -1)


# -- local duality --


@dataclass(frozen=True)
class DegreeVerdict:
    degree: int
    local_zero: bool
    ext_zero: bool

    @property
    def agree(self) -> bool:
        return self.local_zero == self.ext_zero


@dataclass(frozen=True)
class LocalDualityReport:
    verdicts: tuple
    unsupported: object = None

    @property
    def ok(self) -> bool:
        return self.unsupported is None and all(v.agree for v in self.verdicts)


def local_duality_check(m: PidModule) -> LocalDualityReport:
    """Compare, degree by degree, crystal-vanishing of H^i_m(M) against
    Ext^{-i}(M, omega) for a module placed in degree zero.

    The two sides are computed by independent routes: the local side from
    the Cech model (torsion structure itself; hull truncations for the free
    part), the Ext side through the Hom pairing (Matlis dual; dual
    multiplier module placed per the degree convention).
    """
    cech = cech_local_cohomology(m)
    if isinstance(cech.h1, Unsupported):
        return LocalDualityReport((), cech.h1)
    dual = dualize(m)
    if isinstance(dual, Unsupported):
        return LocalDualityReport((), dual)
    verdicts = []
    # degree 0: H^0_m = torsion part vs Ext^0 = H^0(D(M)) = Matlis dual
    local0 = (cech.h0 is None) or (nilpotency_index(cech.h0) != math.inf)
    t0 = dual.terms.get(0)
    ext0 = t0 is None or t0.torsion is None or nilpotency_index(t0.torsion) != math.inf
    verdicts.append(DegreeVerdict(0, local0, ext0))
    # degree 1: H^1_m (hull models) vs Ext^{-1} = H^{-1}(D(M)) (dual free part)
    if m.free is not None and m.free_rank:
        local1 = all(h1_entry_crystal_zero(m, u) for u in m.free_diagonal())
        tm1 = dual.terms.get(-1)
        if tm1 is None or tm1.free is None:
            ext1 = True
        else:
            ext1 = all(free_dual_crystal_zero(tm1, u) for u in tm1.free_diagonal())
    else:
        local1, ext1 = True, True
    verdicts.append(DegreeVerdict(1, local1, ext1))
    return LocalDualityReport(tuple(verdicts))


# -- perversity --


@dataclass(frozen=True)
class PointCondition:
    point: str
    side: str
    degree: int
    ok: bool
    reason: str


@dataclass(frozen=True)
class PerverseReport:
    ok: bool
    conditions: tuple
    unsupported: object = None


def is_perverse(c: "StructuredComplex | PidModule") -> PerverseReport:
    """Middle-perversity membership over Spec GF(q)[x].

    Conditions, with p(generic) = -1 and p(closed) = 0:
      stalk side:  H^j(M_eta) ~ 0 for j > -1, H^j(M_0) ~ 0 for j > 0;
      local side:  H^j_m ~ 0 for j < 0 at the closed points.
    Torsion parts see only the closed point at the origin; free parts see
    the generic point and every closed point alike.
    """
    if isinstance(c, PidModule):
        c = shift_module(c, 0)
    try:
        c = complex_cohomology(c)
    except ValueError as exc:
        return PerverseReport(False, (), Unsupported(str(exc)))
    for m in c.terms.values():
        if m.free is not None and not m.free_is_diagonal():
            return PerverseReport(False, (), Unsupported("non-diagonal free part"))
    conds = []
    for d, m in sorted(c.terms.items()):
        free_zero = (m.free is None or m.free_rank == 0
                     or all(u.is_zero() for u in m.free_diagonal()))
        tors_zero = m.torsion is None or nilpotency_index(m.torsion) != math.inf
        if d > -1:
            conds.append(PointCondition(
                "generic", "stalk", d, free_zero,
                f"H^{d}(M_eta) must be crystal-zero"))
        if d > 0:
            conds.append(PointCondition(
                "closed", "stalk", d, tors_zero and free_zero,
                f"H^{d}(M_0) must be crystal-zero"))
        if d < 0:
            conds.append(PointCondition(
                "closed", "local", d, tors_zero,
                f"H^{d}_m (torsion contribution) must be crystal-zero"))
        if d < -1:
            conds.append(PointCondition(
                "closed", "local", d + 1,
                (m.free is None or m.free_rank == 0
                 or all(h1_entry_crystal_zero(m, u) for u in m.free_diagonal())),
                f"H^{d + 1}_m (hull contribution) must be crystal-zero"))
    return PerverseReport(all(x.ok for x in conds), tuple(conds))


# -- coherent localization models --


@dataclass(frozen=True)
class LocalizationModel:
    model: PidModule
    layer_indices: tuple
    ok: bool
    note: str


def coherent_model_of_localization(m: PidModule, f: Poly,
                                   depth: int = 3) -> LocalizationModel:
    """A coherent Cartier model of M_f.

    The free multiplier parts pick up f^(q(q-1)) in the multiplier (the
    (1/f^q)-lattice rewritten in its own basis); x-primary torsion dies if
    x | f and is untouched otherwise.  The certificate computes the induced
    structure on `depth` successive one-layer quotients and records their
    nilpotency indices (the chain of nil-isomorphisms).
    """
    if m.kind != CARTIER:
        raise ValueError("localization models are built for Cartier modules")
    if f.is_zero():
        raise ValueError("cannot localize at f = 0")
    F = m.field
    q = F.order ** m.power
    if f.is_unit():
        return LocalizationModel(m, (), True, "f is a unit; model is M itself")
    x_divides = f.coeffs[0] == 0
    tors = None if x_divides else m.torsion
    free = None
    if m.free is not None and m.free_rank:
        if not m.free_is_diagonal():
            raise ValueError("non-diagonal free multiplier matrix is unsupported")
        fq = f ** (q * (q - 1))
        free = [u * fq for u in m.free_diagonal()]
    model = PidModule(F, CARTIER, tors, None, m.power)
    if free is not None:
        model = PidModule(F, CARTIER, tors,
                          pid_free(F, free, CARTIER, m.power).free, m.power)
    indices = []
    ok = True
    if m.free is not None and m.free_rank:
        for j in range(depth):
            idx = _layer_quotient_index(F, q, m.free_diagonal(), f, q + j)
            indices.append(idx)
            ok = ok and idx == 1
    return LocalizationModel(model, tuple(indices), ok,
                             "layer quotients all nilpotent" if ok
                             else "a layer quotient failed nilpotence")


def _layer_quotient_index(F, q, multipliers, f, n) -> int:
    """Nilpotency index of the induced structure on f^-(n+1) M' / f^-n M'.

    kappa maps f^-(n+1) g to f^-ceil((n+1)/q) kappa_S(u f^t g); the image
    layer ceil((n+1)/q) < n+1 for q >= 2, so the quotient structure is zero
    (index 1) whenever that exponent drop really happens; we compute it."""
    target = -(-(n + 1) // q)    # ceil((n+1)/q)
    return 1 if target <= n else math.inf
