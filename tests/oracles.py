"""Independent oracles shared by the test modules.

These recompute, by the definitions, what the package computes another way:
the rank-one structures on GF(q)[x], the dual-basis table of kappa_S, the
hull structure read off the Laurent extension, polynomial-matrix products,
twisted operators applied and powered step by step, and the Hom/tensor
twist law.  They live with the tests so that they stay independent of the
code under test.
"""

import numpy as np

from cartierforge import matrix as mx
from cartierforge.artinian import fin_module
from cartierforge.duality import dualize_artinian
from cartierforge.field import FiniteField
from cartierforge.pid import PresModule, kappa_s, pres_module
from cartierforge.poly import Poly
from cartierforge.structures import CartierModule, twist_by_unit_line
from cartierforge.twisted import (TwistedOperator, identity_operator, sigma,
                                  twisted_compose)

# -- rank-one structures on GF(q)[x] --


def kappa_multiplier(u: Poly, f: Poly, q: int) -> Poly:
    """kappa_u(F_* f) = kappa_S(F_*(u f)); every rank-one Cartier structure
    on GF(q)[x] has this form for a unique u."""
    return kappa_s(u * f, q)


def tau_multiplier(w: Poly, f: Poly, q: int) -> Poly:
    """tau_w(f) = F_*(w f^q); every rank-one Frobenius structure on
    GF(q)[x] has this form."""
    fq = Poly.make(f.field, _poly_q_power(f, q))
    return w * fq


def _poly_q_power(f: Poly, q: int) -> list:
    out = [0] * (q * max(f.deg, 0) + 1) if not f.is_zero() else []
    for i, c in enumerate(f.coeffs):
        if c:
            out[q * i] = int(f.field.power(np.int64(c), q))
    return out


def dual_basis_matrix(field: FiniteField) -> np.ndarray:
    """The pairing table [kappa_S(F_* x^(i+j))]_{i,j<q} as 0/1 constants.

    The dual-basis law says this is the antidiagonal identity: the flat of
    kappa_S carries the monomial basis of F_* GF(q)[x] to its dual basis.
    """
    q = field.order
    out = mx.zeros(q, q)
    for i in range(q):
        for j in range(q):
            v = kappa_s(Poly.x(field, i + j), q)
            if v.coeffs == (1,):
                out[i, j] = 1
            elif not v.is_zero():
                out[i, j] = -1   # marks a non-constant value; law would fail
    return out


def free_presentation(field: FiniteField, rank: int) -> PresModule:
    return pres_module(field, [[Poly.zero(field)] for _ in range(rank)])


def kappa_e_oracle(field: FiniteField, level: int, q: int) -> np.ndarray:
    """Independent Cech-side computation of the hull structure: apply the
    Laurent extension of kappa_S to x^-a and read the class in E."""
    kap = mx.zeros(level, level)
    for j in range(level):
        a = j + 1
        # kappa_S(F_* x^(-a)) via exponent bookkeeping: write -a = q*m + e,
        # 0 <= e < q; nonzero iff e == q-1, value x^(m+... ) computed exactly.
        m_, e = divmod(-a, q)
        if e == q - 1:
            target = m_            # exponent of the image monomial
            if target <= -1 and -target <= level:
                kap[-target - 1, j] = 1
    return kap


# -- polynomial matrices --


def pm_mul(a, b):
    if not a or not b:
        return []
    F = a[0][0].field if a and a[0] else b[0][0].field
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[Poly.zero(F) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = Poly.zero(F)
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def pm_eq(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x.coeffs == y.coeffs for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


# -- twisted operators --


def apply_operator(t: TwistedOperator, v):
    return mx.mmul(t.field, t.mat, sigma(t, v, t.twist))


def operator_power(t: TwistedOperator, n: int) -> TwistedOperator:
    if t.rows != t.cols:
        raise ValueError("power of a non-square operator")
    out = identity_operator(t.field, t.q, t.rows)
    for _ in range(n):
        out = twisted_compose(t, out)
    return out


# -- Hom/tensor compatibility --


def hom_tensor_twist_check(m: CartierModule, a_coords) -> bool:
    """D(M tensor line(a)) equals D(M) twisted by the inverse line,
    matrix-exactly on the same hom space."""
    F = m.ring.field
    twisted = twist_by_unit_line(m, a_coords)
    lhs, _ = dualize_artinian(twisted)
    reg = fin_module(m.ring, m.ring.mult_ops)
    act = reg.element_action(a_coords)
    inv = mx.inverse(F, act)
    a_inv = mx.mmul(F, inv, m.ring.one())
    rhs = twist_by_unit_line(dualize_artinian(m)[0], a_inv)
    return np.array_equal(lhs.mat, rhs.mat)
