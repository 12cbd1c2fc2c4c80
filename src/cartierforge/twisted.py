"""Sol at a closed point: Frobenius-semilinear fixed points over GF(q^s).

The reduced structure at the point (`duality.reduced_operator`) is a plain
matrix T over F_q, the module's own field F with q = |F|.  It acts on
F^d tensor GF(q^s) by v |-> T v^q, with v^q taken entrywise.  The q-power
map fixes F_q, so it acts only on the scalars of the extension, and the
k-fold composite is v |-> T^k v^(q^k).
"""

from __future__ import annotations

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


def semilinear_fixed_points(F: FiniteField, T: np.ndarray, s: int = 1) -> FixedPoints:
    """Solve T v^q = v in F^d tensor GF(q^s), q = |F|.

    Restricts scalars to GF(p) and solves a p-linear kernel of dimension
    r*s*d, r = F.deg; the fixed set is an F_q-space.

    The F_q-basis is the kernel vectors v_k at the pivot columns of one F_q
    row reduction of their F_q-coordinates.  The polynomial generator of
    GF(p^rs) (code p) generates it over GF(p), so also over F_q, and its
    powers 1 .. s-1 are an F_q-basis: coordinates in it are an F_q-linear
    isomorphism.  Column k of a matrix is a pivot column exactly when it
    leaves the span of columns 1 .. k-1, so the pivots are the k with v_k
    outside span_Fq(v_1 .. v_(k-1)): the vectors a greedy F_q-basis keeps.
    For q = p every kernel vector is a pivot.
    """
    p, r = F.p, F.deg
    ext = GF(p, r * s)
    emb = F.embedding(ext)
    mat_e = emb[T]
    m, d = ext.deg, len(T)
    n = d * m
    fp = GF(p)
    # column j*m + i holds the digits of column j of mat_e times (t^i)^q,
    # where t^i, the i-th polynomial-basis element of ext, has code p^i
    tq = ext.power(p ** np.arange(m, dtype=np.int64), F.order)
    big = ext.digits(ext.mul(mat_e[:, :, None], tq)).transpose(0, 3, 1, 2).reshape(n, n)
    kern = mx.kernel(fp, fp.sub(big, mx.identity(n)))
    dim_fp = kern.shape[1]
    digs = kern.reshape(d, m, dim_fp).transpose(0, 2, 1)     # [entry, vector, digit]
    # GF(p)-basis t^j * c_k of ext (j < s, k < r), c_k the image of F's t^k;
    # the coordinates of each entry at k read as digits give its F_q-coordinate
    # at t^j: an (s*d) x dim_fp matrix over F
    theta_c = ext.mul(p ** np.arange(s, dtype=np.int64)[:, None],
                      emb[p ** np.arange(r, dtype=np.int64)])
    x = mx.solve(fp, ext.digits(theta_c).reshape(m, m).T, digs.reshape(-1, m).T)
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
