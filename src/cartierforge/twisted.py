"""Sol at a closed point: Frobenius-semilinear fixed points over GF(q^s).

The reduced structure at the point (`duality.reduced_operator`) is a plain
matrix T over F_q, the module's own field F with q = |F|.  It acts on
F^d tensor GF(q^s) by v |-> T v^q, with v^q taken entrywise.  The q-power
map fixes F_q, so it acts only on the scalars of the extension, and the
k-fold composite is v |-> T^k v^(q^k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .field import GF, FiniteField, _prime_factors


@dataclass(frozen=True)
class FixedPoints:
    """Fixed space of v |-> T v^q over the extension GF(q^s)."""

    ext_field: FiniteField
    basis: np.ndarray        # columns over ext_field; an F_q-basis
    dim_fq: int
    dim_fp: int


@functools.lru_cache(maxsize=None)
def _frame(p: int, r: int, s: int) -> tuple:
    """(ext, sigma, tc, tc_inv) for F = GF(p^r) in ext = GF(p^(rs)).  t, the
    code p, generates ext over GF(p), so over F_q, and its powers t^j (j < s)
    are an F_q-basis; with c_k the image of F's t^k, the t^j c_k (k < r) are
    a GF(p)-basis.  Column j*r + k of `tc` holds the digits of t^j c_k, and
    `tc_inv` takes digits to coordinates, whose block j read as digits is
    the F_q-coordinate at t^j.  Column i of `sigma` holds those of (t^i)^q."""
    F, ext, fp = GF(p, r), GF(p, r * s), GF(p)
    pw = p ** np.arange(r * s, dtype=np.int64)      # t^j in ext, and F's t^k
    tc = ext.digits(ext.mul(pw[:s, None], F.embedding(ext)[pw[:r]])).reshape(r * s, -1).T
    tc_inv = mx.inverse(fp, tc)
    x = mx.mmul(fp, tc_inv, ext.digits(ext.power(pw[:s], F.order)).T)
    sigma = F.from_digits(x.reshape(s, r, s).transpose(0, 2, 1))
    for a in (tc, tc_inv, sigma):
        a.flags.writeable = False
    return ext, sigma, tc, tc_inv


def semilinear_fixed_points(F: FiniteField, T: np.ndarray, s: int = 1) -> FixedPoints:
    """Solve T v^q = v in F^d tensor GF(q^s), q = |F|, in d*s unknowns over F.

    The q-power map is additive and fixes F_q, so v |-> T v^q is F_q-linear.
    In the basis t^j of `_frame`, v^q has coordinates sigma y when v has y,
    so T v^q has (T kron sigma) y, entry by entry: Sol = ker(T kron sigma - I).

    The GF(p) kernel basis B of the restriction of scalars, as `mx.kernel`
    gives it, is the identity at its free rows, and a pivot row c is nonzero
    only in the columns of free rows below c.  So B^T with its rows and
    columns reversed is in RREF: the RREF of Sol's GF(p) span (that of the
    c_k w, w an F_q-basis) with the columns reversed.  An RREF depends only
    on the span and the column order, so B is rebuilt exactly.

    The F_q-basis is the columns v_k of B at the pivot columns of one F_q row
    reduction of their F_q-coordinates: the v_k outside span_Fq(v_1 ..
    v_(k-1)), those a greedy F_q-basis keeps.  For q = p all are pivots.
    """
    p, r, d = F.p, F.deg, len(T)
    ext, sigma, tc, tc_inv = _frame(p, r, s)
    m, fp = ext.deg, F.prime
    kern = mx.kernel(F, F.sub(F.mul(T[:, None, :, None], sigma[:, None]).reshape(d * s, d * s),
                              mx.identity(d * s)))
    if (k := kern.shape[1]) == 0:
        return FixedPoints(ext, mx.zeros(d, 0), 0, 0)
    # digits of c_j w: row (w, j), column (entry, digit)
    y = F.digits(F.mul(kern.T[:, None], p ** np.arange(r, dtype=np.int64)[:, None]))
    span = mx.mmul(fp, y.reshape(-1, s * r), tc.T).reshape(k * r, d * m)
    red, pivots = mx.rref(fp, span[:, ::-1])
    dim_fp = len(pivots)
    digs = red[:dim_fp][::-1, ::-1].T.reshape(d, m, dim_fp).transpose(0, 2, 1)
    x = mx.mmul(fp, tc_inv, digs.reshape(-1, m).T)
    coords = F.from_digits(x.reshape(s, r, d * dim_fp).transpose(0, 2, 1))
    keep = list(mx.rref(F, coords.reshape(s * d, dim_fp))[1])
    if dim_fp % r != 0 or len(keep) != dim_fp // r:
        raise RuntimeError("fixed space is not an F_q-space; internal error")
    return FixedPoints(ext, ext.from_digits(digs[:, keep]), dim_fp // r, dim_fp)


def fixed_point_attainment(F: FiniteField, T: np.ndarray) -> int:
    """The least s with dim_Fq Sol(T) over GF(q^s) = rank(T^d), q = |F|:
    the order of B = `mx.bijective_part`.  Sol lies in B's space, where
    v = B v^q gives v = B^s v; Galois descent gives dim_Fq Sol =
    dim ker(B^s - I).  The order divides N = p^c lcm_{k<=n}(q^k - 1), n the
    size of B and p^c >= n (semisimple and unipotent parts); each prime l
    of N is divided out while B^(N/l) = I."""
    q = F.order
    b = mx.bijective_part(F, T)
    n = len(b)
    cyclo = [q ** k - 1 for k in range(1, n + 1)]
    order = next(F.p ** c for c in range(n + 1) if F.p ** c >= n) * math.lcm(*cyclo)
    for ell in sorted({F.p}.union(*map(_prime_factors, cyclo))):
        while order % ell == 0 and mx.equal(mx.mat_pow(F, b, order // ell), mx.identity(n)):
            order //= ell
    return order
