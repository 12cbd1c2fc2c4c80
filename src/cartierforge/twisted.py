"""Twisted (semilinear) operators on finite-dimensional spaces over GF(q^s).

A TwistedOperator is a matrix together with a twist exponent e; it acts by
v |-> mat @ sigma^e(v) where sigma is the entrywise q-power map of the
coordinate field.  Over the prime tier (s = 1) sigma is the identity on
scalars and the twist is pure bookkeeping; over proper extensions it is the
actual Frobenius of GF(q^s) over GF(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .field import GF, FiniteField, _prime_factors


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


def stable_rank(t: TwistedOperator) -> int:
    """Rank of the dim-fold twisted composite, one rank: the size of the
    part on which t is bijective.  Invariant under change_basis."""
    acc = identity_operator(t.field, t.q, t.rows)
    for _ in range(t.rows):
        acc = twisted_compose(t, acc)
    return mx.rank(t.field, acc.mat)


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
    r*s*dim; the fixed set is an F_q-space.  The operator's own field must
    embed in GF(q^s).

    The F_q-basis is the kernel vectors v_k at the pivot columns of one F_q
    row reduction of their F_q-coordinates.  The polynomial generator of
    GF(p^rs) (code p) generates it over GF(p), so also over F_q, and its
    powers 1 .. s-1 are an F_q-basis: coordinates in it are an F_q-linear
    isomorphism.  Column k of a matrix is a pivot column exactly when it
    leaves the span of columns 1 .. k-1, so the pivots are the k with v_k
    outside span_Fq(v_1 .. v_(k-1)): the vectors a greedy F_q-basis keeps.
    For q = p every kernel vector is a pivot.
    """
    if t.twist != 1:
        raise ValueError("fixed points are defined for twist +1 operators")
    if t.rows != t.cols:
        raise ValueError("fixed points of a non-square operator")
    F = t.field
    p, r = F.p, t.r
    ext = GF(p, r * s)
    mat_e = F.embedding(ext)[t.mat]
    m, d = ext.deg, t.rows
    n = d * m
    fp, fq = GF(p), GF(p, r)
    # column j*m + i holds the digits of column j of mat_e times (t^i)^q,
    # where t^i, the i-th polynomial-basis element of ext, has code p^i
    tq = ext.power(p ** np.arange(m, dtype=np.int64), t.q)
    big = ext.digits(ext.mul(mat_e[:, :, None], tq)).transpose(0, 3, 1, 2).reshape(n, n)
    kern = mx.kernel(fp, fp.sub(big, mx.identity(n)))
    dim_fp = kern.shape[1]
    digs = kern.reshape(d, m, dim_fp).transpose(0, 2, 1)     # [entry, vector, digit]
    # GF(p)-basis t^j * c_k of ext (j < s, k < r), c_k the image of fq's t^k;
    # the coordinates of each entry at k read as digits give its F_q-coordinate
    # at t^j: an (s*d) x dim_fp matrix over fq
    theta_c = ext.mul(p ** np.arange(s, dtype=np.int64)[:, None],
                      fq.embedding(ext)[p ** np.arange(r, dtype=np.int64)])
    x = mx.solve(fp, ext.digits(theta_c).reshape(m, m).T, digs.reshape(-1, m).T)
    coords = fq.from_digits(x.reshape(s, r, d * dim_fp).transpose(0, 2, 1))
    keep = list(mx.rref(fq, coords.reshape(s * d, dim_fp))[1])
    if dim_fp % r != 0 or len(keep) != dim_fp // r:
        raise RuntimeError("fixed space is not an F_q-space; internal error")
    return FixedPoints(ext, ext.from_digits(digs[:, keep]), dim_fp // r, dim_fp)


def fixed_point_attainment(t: TwistedOperator) -> int:
    """The least s with dim_Fq Sol(t) over GF(q^s) = stable_rank(t), for t
    of twist +1 over F_q itself (as `duality.reduced_operator` builds it):
    the order of B = `mx.bijective_part`.  Sol lies in B's space, where
    v = B sigma(v) gives v = B^s v; Galois descent gives dim_Fq Sol =
    dim ker(B^s - I).  The order divides N = p^c lcm_{k<=n}(q^k - 1), n the
    size of B and p^c >= n (semisimple and unipotent parts); each prime l
    of N is divided out while B^(N/l) = I."""
    F, q = t.field, t.q
    if t.twist != 1 or q != F.order:
        raise ValueError("attainment is defined for twist +1 operators over F_q")
    b = mx.bijective_part(F, t.mat)
    n = len(b)
    cyclo = [q ** k - 1 for k in range(1, n + 1)]
    order = next(F.p ** c for c in range(n + 1) if F.p ** c >= n) * math.lcm(*cyclo)
    for ell in sorted({F.p}.union(*map(_prime_factors, cyclo))):
        while order % ell == 0 and np.array_equal(mx.mat_pow(F, b, order // ell),
                                                  mx.identity(n)):
            order //= ell
    return order
