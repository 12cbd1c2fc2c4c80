"""Twisted (semilinear) operators on finite-dimensional spaces over GF(q^s).

A TwistedOperator is a matrix together with a twist exponent e; it acts by
v |-> mat @ sigma^e(v) where sigma is the entrywise q-power map of the
coordinate field.  Over the prime tier (s = 1) sigma is the identity on
scalars and the twist is pure bookkeeping; over proper extensions it is the
actual Frobenius of GF(q^s) over GF(q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .field import GF, FiniteField


@dataclass(frozen=True)
class TwistedOperator:
    """Additive operator v |-> mat @ sigma^twist(v) on field^dim.

    `q` must be a power of field.p whose degree divides field.deg.
    Structural operators carry twist in {-1, 0, +1}; composites may carry
    any integer twist.
    """

    field: FiniteField
    q: int
    mat: np.ndarray
    twist: int

    def __post_init__(self):
        r = _log_power(self.field.p, self.q)
        if r is None or self.field.deg % r != 0:
            raise ValueError("q must be a power of p with degree dividing field degree")
        object.__setattr__(self, "mat", np.asarray(self.mat, dtype=np.int64))

    @property
    def r(self) -> int:
        return _log_power(self.field.p, self.q)

    @property
    def s(self) -> int:
        return self.field.deg // self.r

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]


def _log_power(p: int, q: int):
    r = 0
    v = 1
    while v < q:
        v *= p
        r += 1
    return r if v == q and r >= 1 else None


def sigma(t: TwistedOperator, a, e: int = 1):
    """Entrywise sigma^e = (q-power Frobenius)^e; e may be negative."""
    s = t.s
    e = e % s
    if e == 0:
        return np.asarray(a, dtype=np.int64)
    return t.field.power(a, t.q ** e)


def identity_operator(field: FiniteField, q: int, n: int) -> TwistedOperator:
    return TwistedOperator(field, q, mx.identity(n), 0)


def twisted_compose(a: TwistedOperator, b: TwistedOperator) -> TwistedOperator:
    """The operator v |-> a(b(v)); matrix a.mat @ sigma^a.twist(b.mat)."""
    if a.field != b.field or a.q != b.q:
        raise ValueError("operators live over different fields")
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in twisted composition")
    m = mx.mmul(a.field, a.mat, sigma(a, b.mat, a.twist))
    return TwistedOperator(a.field, a.q, m, a.twist + b.twist)


def change_basis(t: TwistedOperator, p_mat: np.ndarray) -> TwistedOperator:
    """Rewrite t in the basis given by the columns of p_mat (invertible)."""
    pinv = mx.inverse(t.field, np.asarray(p_mat, dtype=np.int64))
    if pinv is None:
        raise ValueError("change of basis matrix is singular")
    m = mx.mmul(t.field, pinv, mx.mmul(t.field, t.mat, sigma(t, p_mat, t.twist)))
    return TwistedOperator(t.field, t.q, m, t.twist)


def rank_chain(t: TwistedOperator, upto: int | None = None) -> list[int]:
    if t.rows != t.cols:
        raise ValueError("rank chain of a non-square operator")
    d = t.rows
    upto = d if upto is None else upto
    out = []
    acc = identity_operator(t.field, t.q, d)
    for _ in range(upto):
        acc = twisted_compose(t, acc)
        out.append(mx.rank(t.field, acc.mat))
    return out


def stable_rank(t: TwistedOperator) -> int:
    """Rank of the dim-fold twisted composite: the size of the part on
    which t is bijective.  Invariant under change_basis."""
    d = t.rows
    if d == 0:
        return 0
    return rank_chain(t, d)[-1]


@dataclass(frozen=True)
class FixedPoints:
    """Fixed space of a twist +1 operator over the extension GF(q^s)."""

    ext_field: FiniteField
    basis: np.ndarray        # columns over ext_field; an F_q-basis
    dim_fq: int
    dim_fp: int


def semilinear_fixed_points(t: TwistedOperator, s: int = 1) -> FixedPoints:
    """Solve t(v) = v in V tensor GF(q^s).

    Restricts scalars to GF(p) and solves a p-linear kernel of dimension
    r*s*dim; the fixed set is an F_q-space and an F_q-basis is returned.
    The operator's own field must embed in GF(q^s).
    """
    if t.twist != 1:
        raise ValueError("fixed points are defined for twist +1 operators")
    if t.rows != t.cols:
        raise ValueError("fixed points of a non-square operator")
    F = t.field
    p, r = F.p, t.r
    ext = GF(p, r * s)
    emb = F.embedding(ext)
    m = ext.deg
    mat_e = emb[t.mat]
    d = t.rows
    n = d * m
    fp = GF(p)
    # column j*m + i holds the digits of column j of mat_e times (t^i)^q,
    # where t^i, the i-th polynomial-basis element of ext, has code p^i
    tq = ext.power(p ** np.arange(m, dtype=np.int64), t.q)
    big = ext.digits(ext.mul(mat_e[:, :, None], tq)).transpose(0, 3, 1, 2).reshape(n, n)
    kern = mx.kernel(fp, fp.sub(big, mx.identity(n)))
    dim_fp = kern.shape[1]
    vecs = [ext.from_digits(kern[:, k].reshape(d, m)) for k in range(dim_fp)]
    if r == 1:
        basis = np.stack(vecs, axis=1) if vecs else mx.zeros(d, 0)
        return FixedPoints(ext, basis, dim_fp, dim_fp)
    # Greedy F_q-basis: flatten to GF(p) coordinates; a vector is kept when
    # it is independent of the F_q-span of those already chosen.
    fq = GF(p, r)
    emb_q = fq.embedding(ext)
    chosen: list[np.ndarray] = []
    span: np.ndarray | None = None
    for v in vecs:
        flat = ext.digits(v).reshape(-1)
        if span is not None and mx.in_span(fp, span, flat):
            continue
        chosen.append(v)
        cols = [ext.digits(ext.mul(v, emb_q[c])).reshape(-1) for c in range(1, fq.order)]
        new = np.stack(cols, axis=1)
        span = new if span is None else mx.column_space(fp, np.hstack([span, new]))
    basis = np.stack(chosen, axis=1) if chosen else mx.zeros(d, 0)
    if dim_fp % r != 0 or len(chosen) != dim_fp // r:
        raise RuntimeError("fixed space is not an F_q-space; internal error")
    return FixedPoints(ext, basis, dim_fp // r, dim_fp)


def fixed_point_attainment(t: TwistedOperator, bound: int | None = None):
    """Search extension degrees s = 1..bound for arithmetic fixed points
    attaining stable_rank(t); default bound 2*dim*r (configurable).

    Returns (attained_s or None, list of (s, dim_fq)).  The sharp degree is
    not bounded by theory we implement, so both numbers are exposed.
    """
    d = t.rows
    bound = 2 * d * t.r if bound is None else bound
    target = stable_rank(t)
    seen = []
    for s in range(1, bound + 1):
        dim = semilinear_fixed_points(t, s).dim_fq
        seen.append((s, dim))
        if dim == target:
            return s, seen
    return None, seen
