"""Independent oracles shared by the test modules.

These recompute, by the definitions, what the package computes another way:
field arithmetic one code at a time, polynomial arithmetic one
coefficient pair at a time, kappa_S and the rank-one structures
on GF(q)[x], the dual-basis table of kappa_S, the hull structure read off
the Laurent extension, the H^1 hull twist on a truncation, the two-depth
H^1 verdict and the hull twist applied to one Laurent tail, the determinantal divisors of a polynomial matrix, matrix
powers one factor at a time with their rank chain, the Sol attainment
degree by search, conjugacy classes in GL_n(F_q) by enumeration, the Hom/tensor twist
law, the Kashiwara round trip i-flat o i_* = id, field embedding
tables by a root search over the whole target field, the Hasse
invariant by the full polynomial power, column-stacking vec, and the
Kronecker product with the intertwiner space solved from its stacked
Kronecker system, the free rows of a kernel basis read as the last
nonzero row of each column, and the derived structured modules in two
steps (module first, then the structure by a second solve or product
pair, block diagonals written by hand).  They live with the tests so that
they stay independent of the code under test.
"""

import itertools
import math
import random
from dataclasses import replace

import numpy as np

from cartierforge import matrix as mx
from cartierforge.artinian import (ArtinRing, FinModule, fin_module, i_torsion,
                                   quotient_data, restrict, ring_make, submodule)
from cartierforge.duality import dualize_artinian
from cartierforge.field import GF, FiniteField
from cartierforge.generate import random_invertible
from cartierforge.pid import PidModule, inverse_module
from cartierforge.poly import Poly
from cartierforge.structures import (Structured, Unsupported, cartier_module,
                                     nilpotency_index, structured_i_torsion,
                                     structured_restrict_scalars,
                                     twist_by_unit_line)
from cartierforge.twisted import semilinear_fixed_points

# -- field embeddings --


def embedding_table_full_search(p: int, deg: int, target_deg: int) -> np.ndarray:
    """The embedding table of GF(p^deg) into GF(p^target_deg), sending t to
    the smallest root of the source modulus found by evaluating it at every
    element of the target."""
    src, target = FiniteField(p, deg), FiniteField(p, target_deg)
    cand = target.elements()
    vals = np.zeros(target.order, dtype=np.int64)
    for c in src.modulus[::-1]:
        vals = target.add(target.mul(vals, cand), np.full(target.order, c))
    root = np.nonzero(vals == 0)[0][0]
    table, acc = np.zeros(src.order, dtype=np.int64), np.int64(1)
    for digit in src.digits(src.elements()).T:
        table = target.add(table, target.mul(digit, acc))
        acc = target.mul(acc, root)
    return table


# -- hom bases as lists --


def hom_list(ker, rows, cols):
    """A package hom basis (column j of `ker` is vec H_j) as the list of
    the rows x cols matrices H_j."""
    return [mx.unvec(ker[:, j], rows, cols) for j in range(ker.shape[1])]


# -- the Kronecker form of intertwiner systems --


def vec(a) -> np.ndarray:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(a, dtype=np.int64).reshape(-1, order="F")


def kron(F, a, b) -> np.ndarray:
    """The Kronecker product a (x) b over F: block (i, k) is a[i, k] b, so
    vec(B H A) = (A^T (x) B) vec H."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = F.mul(a[:, np.newaxis, :, np.newaxis], b[np.newaxis, :, np.newaxis, :])
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron_system(F, As, Bs, rows: int, cols: int) -> np.ndarray:
    """The stacked dense system A_i^T (x) I - I (x) B_i on vec H, whose
    kernel is { H (rows x cols) : H A_i = B_i H for every i }."""
    eye_r, eye_c = mx.identity(rows), mx.identity(cols)
    sys_ = [F.sub(kron(F, A.T, eye_r), kron(F, eye_c, B)) for A, B in zip(As, Bs)]
    return np.vstack(sys_) if sys_ else mx.zeros(0, rows * cols)


def kron_intertwiners(F, As, Bs, rows: int, cols: int) -> np.ndarray:
    """The intertwiner space as `mx.kernel` of its Kronecker system."""
    return mx.kernel(F, kron_system(F, As, Bs, rows, cols))


def last_nonzero_rows(ker: np.ndarray) -> np.ndarray:
    """The last nonzero row of each column of `ker`: on a canonical RREF
    kernel basis, the free rows, where the basis is the identity."""
    if not ker.size:
        return np.zeros(0, dtype=np.intp)
    return ker.shape[0] - 1 - np.argmax(ker[::-1] != 0, axis=0)


# -- field arithmetic from the polynomial form --


def poly_mul(a, b, p):
    """The product of two coefficient lists (low-first) over GF(p),
    trailing zeros dropped."""
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mod(a, f, p):
    """a mod the monic f over GF(p), by long division; coefficient lists
    low-first, trailing zeros dropped."""
    a, m = list(a), len(f) - 1
    while len(a) > m:
        c = a.pop()
        for i in range(m):
            a[len(a) - m + i] = (a[len(a) - m + i] - c * f[i]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


class RefField:
    """One code at a time, from the polynomial form: digits low-first,
    products reduced by the modulus, quotients by a**(q-2)."""

    def __init__(self, F):
        self.F, self.p, self.f = F, F.p, list(F.modulus)

    def poly(self, a):
        return [(int(a) // self.p ** i) % self.p for i in range(self.F.deg)]

    def code(self, d):
        return sum(int(x) * self.p ** i for i, x in enumerate(d))

    def sub(self, a, b):
        return self.code([(x - y) % self.p for x, y in zip(self.poly(a), self.poly(b))])

    def mul(self, a, b):
        return self.code(poly_mod(poly_mul(self.poly(a), self.poly(b), self.p), self.f, self.p))

    def div(self, a, b):
        out, base, t = 1, int(b), self.F.order - 2
        while t:
            if t & 1:
                out = self.mul(out, base)
            base, t = self.mul(base, base), t >> 1
        return self.mul(a, out)


# -- rank-one structures on GF(q)[x] --


def kappa_s(f: Poly, q: int) -> Poly:
    """kappa_S(F_* f): picks the x^(qm+q-1) coefficients of f onto x^m.

    This is the structure sending the free basis monomial x^(q-1) to 1 and
    the other monomials x^j (j < q) to 0, extended by kappa(F_*(x^q g)) =
    x kappa(F_* g).
    """
    return Poly.make(f.field, list(f.coeffs[q - 1::q]))


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


def default_truncation(degs, q: int) -> int:
    """The shallow hull level of the two-depth reference: four times the
    largest multiplier degree plus one, and at least 2q."""
    return max(4 * max([d + 1 for d in degs] + [1]), 2 * q)


def hull_twist(field: FiniteField, level: int, u: Poly, power: int = 1) -> Structured:
    """(E_level, kappa_E o mult(u)): the H^1 model of (R, kappa_u) on the
    truncation x^-1 .. x^-level of E."""
    inv = inverse_module(field, level, power)
    coords = np.zeros(level, dtype=np.int64)
    for i, c in enumerate(u.coeffs[:level]):
        coords[i] = c
    act_u = inv.module.element_action(coords)
    return cartier_module(inv.module, mx.mmul(field, inv.mat, act_u), power)


def two_depth_h1_zero(m: PidModule, u: Poly) -> bool:
    """H^1 hull component (E, kappa_E o u) of a free Cartier summand read
    at two truncation depths: crystal-zero when the nilpotency indices at
    levels lvl and q*lvl + q are finite and equal, since an unbounded
    structure's index grows with the depth."""
    q = m.field.order ** m.power
    lvl = default_truncation([u.deg], q)
    i1 = nilpotency_index(hull_twist(m.field, lvl, u, m.power))
    i2 = nilpotency_index(hull_twist(m.field, q * lvl + q, u, m.power))
    return i1 != math.inf and i2 != math.inf and i1 == i2


def hull_twist_iterate(u: Poly, q: int, pole: int, e: int) -> dict:
    """(kappa_E o u)^e applied to x^-pole in E = GF(q)[x, 1/x]/GF(q)[x], by
    exponent bookkeeping on Laurent tails {pole: coefficient}: u x^-n keeps
    its terms u_k x^(k-n) with k < n, and kappa_E sends c x^-(qm+1) to
    c x^-(m+1) and every other x^-n to 0 (c^(1/q) = c, since q is a power
    of the field order)."""
    F = u.field
    tail = {pole: 1}
    for _ in range(e):
        out = {}
        for n, c in tail.items():
            for k, uk in enumerate(u.coeffs):
                if uk and k < n and (n - k - 1) % q == 0:
                    t = (n - k - 1) // q + 1
                    out[t] = int(F.add(out.get(t, 0), F.mul(c, uk)))
        tail = {n: c for n, c in out.items() if c}
    return tail


# -- GF(q)[x] one coefficient pair at a time --
#
# Coefficient tuples low-first with no trailing zeros, as in Poly.coeffs;
# each op is a loop of scalar field calls.


def _trimmed(c) -> tuple:
    c = [int(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_add(F: FiniteField, a, b) -> tuple:
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trimmed(F.add(x, y) for x, y in zip(a, b))


def ref_neg(F: FiniteField, a) -> tuple:
    return tuple(int(F.neg(c)) for c in a)


def ref_sub(F: FiniteField, a, b) -> tuple:
    return ref_add(F, a, ref_neg(F, b))


def ref_mul(F: FiniteField, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = int(F.add(out[i + j], F.mul(x, y)))
    return _trimmed(out)


def ref_scale(F: FiniteField, a, c) -> tuple:
    return _trimmed(F.mul(x, c) for x in a)


def ref_divmod(F: FiniteField, a, b) -> tuple:
    """(quotient, remainder) by long division, one quotient coefficient
    c = top / lead(b) per step."""
    rem, q = list(a), [0] * max(0, len(a) - len(b) + 1)
    inv_lead = int(F.inv(b[-1]))
    while len(rem) >= len(b) and rem:
        if rem[-1] == 0:
            rem.pop()
            continue
        c = int(F.mul(rem[-1], inv_lead))
        shift = len(rem) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] = int(F.submul(rem[shift + i], c, y))
        while rem and rem[-1] == 0:
            rem.pop()
    return _trimmed(q), _trimmed(rem)


def ref_derivative(F: FiniteField, a) -> tuple:
    """The coefficients i c_i, the integer i read in GF(p) as i mod p."""
    return _trimmed(F.mul(c, np.int64(i % F.p)) for i, c in enumerate(a[1:], start=1))


def ref_monic(F: FiniteField, a) -> tuple:
    return ref_scale(F, a, F.inv(a[-1])) if a else a


def ref_gcd(F: FiniteField, a, b) -> tuple:
    while b:
        a, b = b, ref_divmod(F, a, b)[1]
    return ref_monic(F, a)


# -- polynomial matrices --


def _det(F: FiniteField, a) -> tuple:
    """Determinant of a square matrix of coefficient tuples, by Laplace
    expansion along the first row."""
    if not a:
        return (1,)
    out = ()
    for j, e in enumerate(a[0]):
        term = ref_mul(F, e, _det(F, [row[:j] + row[j + 1:] for row in a[1:]]))
        out = ref_sub(F, out, term) if j % 2 else ref_add(F, out, term)
    return out


def determinantal_divisors(F: FiniteField, rows) -> list[Poly]:
    """D_1 .. D_min(n, m) of an n x m matrix of Polys: D_k is the monic gcd
    of all k x k minors, zero when they all vanish, by the coefficient
    loops above.  The Smith diagonal d_1 .. d_k multiplies to D_k."""
    n, m = len(rows), len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(n, m) + 1):
        g = ()
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(m), k):
                g = ref_gcd(F, g, _det(F, [[rows[i][j].coeffs for j in ci] for i in ri]))
        out.append(Poly(F, g))
    return out


# -- the Frobenius-semilinear structure at the point --


def operator_power(F: FiniteField, t: np.ndarray, n: int) -> np.ndarray:
    """t^n by n products, one factor at a time."""
    if t.shape[0] != t.shape[1]:
        raise ValueError("power of a non-square matrix")
    out = mx.identity(len(t))
    for _ in range(n):
        out = mx.mmul(F, t, out)
    return out


def rank_chain(F: FiniteField, t: np.ndarray, upto: int | None = None) -> list[int]:
    """Ranks of t, t^2, ..., t^upto (default dim), each power taken on its
    own; the last one at upto = dim is the stable rank."""
    upto = len(t) if upto is None else upto
    return [mx.rank(F, operator_power(F, t, k)) for k in range(1, upto + 1)]


def attainment_search(F: FiniteField, t: np.ndarray, bound: int):
    """The least s <= bound with dim_Fq Sol over GF(q^s) equal to the
    stable rank, found by solving over each GF(q^s) in turn; None when no
    s <= bound attains it."""
    target = rank_chain(F, t)[-1] if len(t) else 0
    return next((s for s in range(1, bound + 1)
                 if semilinear_fixed_points(F, t, s).dim_fq == target), None)


# -- conjugacy in GL_n(F_q) --


def conjugacy_classes(F: FiniteField, n: int) -> list[frozenset]:
    """The orbits of GL_n(F) acting on itself by conjugation, by
    enumeration; matrices are tuples of row tuples of codes.

    Products use addition and multiplication tables filled by RefField.
    The inverse of P is the power before the first identity among
    P, P^2, ..., P^(q^n): an element of GL_n(F_q) has order below q^n,
    and a singular P never reaches the identity."""
    R, q = RefField(F), F.order
    add = [[R.sub(a, R.sub(0, b)) for b in range(q)] for a in range(q)]
    mul = [[R.mul(a, b) for b in range(q)] for a in range(q)]

    def prod(a, b):
        out = []
        for row in a:
            entries = []
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = add[acc][mul[row[k]][b[k][j]]]
                entries.append(acc)
            out.append(tuple(entries))
        return tuple(out)

    one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    inverse = {}
    for codes in itertools.product(range(q), repeat=n * n):
        p = tuple(codes[i * n:(i + 1) * n] for i in range(n))
        prev, acc = one, p
        for _ in range(q ** n):
            if acc == one:
                inverse[p] = prev
                break
            prev, acc = acc, prod(acc, p)
    orbits, seen = [], set()
    for a in inverse:
        if a not in seen:
            orbit = frozenset(prod(prod(p, a), pinv) for p, pinv in inverse.items())
            seen |= orbit
            orbits.append(orbit)
    return orbits


# -- Hom/tensor compatibility --


def hom_tensor_twist_check(m: Structured, a_coords) -> bool:
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


# -- closed immersions --


def kashiwara_roundtrip(m: Structured, ambient, j_gens) -> bool:
    """i-flat o i_* on a module over the quotient ring `ambient` / (j_gens):
    must be the identity on the nose (matrix equality after the canonical
    identification)."""
    pushed = structured_restrict_scalars(m, ambient)
    back, cols = structured_i_torsion(pushed, j_gens)
    if back.dim != m.dim or not np.array_equal(cols, mx.identity(m.dim)):
        return False
    return (np.array_equal(back.mat, m.mat)
            and all(np.array_equal(a, b)
                    for a, b in zip(back.module.actions, m.module.actions)))


# -- derived structured modules in two steps --


def hand_block_diag(blocks) -> np.ndarray:
    """The square blocks written one by one down the diagonal."""
    total = sum(b.shape[0] for b in blocks)
    out = mx.zeros(total, total)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def two_step_sub_structure(m: Structured, cols) -> Structured:
    """The submodule, then the structure by a second `restrict`."""
    sub = submodule(m.module, cols)
    k = restrict(m.ring.field, [m.mat], cols)
    if k is None:
        raise ValueError("columns are not stable under the structure")
    return replace(m, module=sub, mat=k[0])


def two_step_quotient_structure(m: Structured, cols):
    """proj X sect for each action, then for the structure: two products
    each."""
    F = m.ring.field
    proj, sect = quotient_data(F, m.dim, cols)
    acts = tuple(mx.mmul(F, proj, mx.mmul(F, X, sect)) for X in m.module.actions)
    k = mx.mmul(F, proj, mx.mmul(F, m.mat, sect))
    return replace(m, module=FinModule(m.ring, proj.shape[0], acts), mat=k), proj, sect


def hand_direct_sum(a: FinModule, b: FinModule) -> FinModule:
    return FinModule(a.ring, a.dim + b.dim,
                     tuple(hand_block_diag([x, y]) for x, y in zip(a.actions, b.actions)))


def hand_direct_sum_structured(a: Structured, b: Structured) -> Structured:
    return replace(a, module=hand_direct_sum(a.module, b.module),
                   mat=hand_block_diag([a.mat, b.mat]))


def two_step_structured_i_torsion(m: Structured, j_gens):
    """The torsion module, then the structure by a second `restrict`."""
    tors, cols = i_torsion(m.module, j_gens)
    k = restrict(m.ring.field, [m.mat], cols)
    if k is None:
        raise Unsupported("structure does not restrict to the torsion part "
                          "(possible only for Frobenius structures)")
    return replace(m, module=tors, mat=k[0]), cols


def hand_random_module(rng: random.Random, ring: ArtinRing, max_dim: int = 5) -> FinModule:
    """`generate.random_module` with its block diagonals written by hand:
    the same draws from `rng`, so the same module."""
    F = ring.field
    summands, total, guard = [], 0, 0
    target = rng.randrange(1, max_dim + 1)
    while total < target and guard < 30:
        guard += 1
        extra = []
        for _ in range(rng.randrange(0, 3)):
            e = [rng.randrange(0, 3) for _ in range(ring.nvars)]
            if sum(e) >= 1:
                extra.append(e)
        sub = ring_make(F, ring.vars, tuple(ring.relations) + tuple(tuple(e) for e in extra))
        if total + sub.dim > target and summands:
            break
        if total + sub.dim > target:
            continue
        summands.append(sub)
        total += sub.dim
    if not summands:
        kill = [tuple(1 if j == i else 0 for j in range(ring.nvars))
                for i in range(ring.nvars)]
        summands = [ring_make(F, ring.vars, tuple(ring.relations) + tuple(kill))]
        total = summands[0].dim
    acts = [hand_block_diag([s.mult_ops[v] for s in summands]) for v in range(ring.nvars)]
    P = random_invertible(rng, F, total)
    Pi = mx.inverse(F, P)
    return fin_module(ring, [mx.mmul(F, Pi, mx.mmul(F, X, P)) for X in acts])


# -- the Hasse invariant by the power --


def hasse_by_power(p: int, cubic) -> int:
    """The coefficient of x^(p-1) in f^((p-1)/2), f the cubic over GF(p),
    from the full polynomial power."""
    acc = Poly.make(GF(p), cubic) ** ((p - 1) // 2)
    return int(acc.coeffs[p - 1]) if len(acc.coeffs) > p - 1 else 0
