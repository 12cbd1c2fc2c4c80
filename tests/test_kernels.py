"""Exact kernels (mmul, rref, rank, kernel, power) and the field ops rref
uses (div, submul, sub) against independent oracles.

The references below are the straightforward loops: one field call per
inner index for the product, one row at a time for elimination, one entry
at a time for the kernel basis.  The vectorized kernels must agree with
them bit for bit, and over GF(p) with sympy's DomainMatrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF as SympyGF
from sympy.polys.matrices import DomainMatrix

from cartierforge import matrix as mx
from cartierforge.field import GF, MAX_ORDER, is_prime
from oracles import RefField

BIG_P = 4194301   # the largest prime below MAX_ORDER
BIG_SQ = 2039     # the largest prime p with p**2 <= MAX_ORDER
FIELDS = [(2, 1), (3, 1), (BIG_P, 1), (2, 2), (3, 2), (3, 3)]
# GF(BIG_SQ^2) has the largest p of any extension field under MAX_ORDER, so
# its products of digits and regular representations come nearest the bound
PRODUCT_FIELDS = FIELDS + [(BIG_SQ, 2)]
PRIMES = [(p, d) for p, d in FIELDS if d == 1]
# extensions whose products and reductions descend to the prime field
SUBFIELD_FIELDS = [(2, 2), (3, 2), (3, 3), (BIG_SQ, 2)]
EXTENSIONS = [(p, d) for p, d in FIELDS if d > 1]
SETTINGS = settings(max_examples=40, deadline=None)


def ref_mmul(F, a, b):
    out = mx.zeros(a.shape[0], b.shape[1])
    for k in range(a.shape[1]):
        out = F.add(out, F.mul(a[:, k:k + 1], b[k:k + 1, :]))
    return out


def ref_rref(F, a):
    r = np.array(a, dtype=np.int64)
    pivots, row = [], 0
    for col in range(r.shape[1]):
        if row >= r.shape[0]:
            break
        nz = np.nonzero(r[row:, col])[0]
        if len(nz) == 0:
            continue
        piv = row + int(nz[0])
        r[[row, piv]] = r[[piv, row]]
        r[row] = F.mul(r[row], F.inv(r[row, col]))
        for i in range(r.shape[0]):
            if i != row and r[i, col]:
                r[i] = F.sub(r[i], F.mul(r[i, col], r[row]))
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def ref_kernel(F, a):
    ncols = a.shape[1]
    if a.size == 0:
        return mx.identity(ncols)
    r, pivots = ref_rref(F, a)
    free = [c for c in range(ncols) if c not in pivots]
    out = mx.zeros(ncols, len(free))
    for k, fc in enumerate(free):
        out[fc, k] = 1
        for i, pc in enumerate(pivots):
            out[pc, k] = F.neg(r[i, fc])
    return out


def sympy_matrix(p, a):
    K = SympyGF(p, symmetric=False)
    return DomainMatrix([[K(int(v)) for v in row] for row in a], a.shape, K)


def to_codes(p, dm):
    K = dm.domain
    rows, cols = dm.shape
    out = mx.zeros(rows, cols)
    for i, row in enumerate(dm.to_list()):
        for j, v in enumerate(row):
            out[i, j] = K.to_int(v) % p
    return out


@st.composite
def field_and_matrix(draw, fields, max_rows=6, max_cols=7):
    p, d = draw(st.sampled_from(fields))
    F = GF(p, d)
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    # small codes make rank deficiency likely; the field's top code is p^d - 1
    code = st.one_of(st.integers(0, min(F.order, 4) - 1), st.just(F.order - 1),
                     st.integers(0, F.order - 1))
    entries = draw(st.lists(code, min_size=rows * cols, max_size=rows * cols))
    return F, np.array(entries, dtype=np.int64).reshape(rows, cols)


@st.composite
def product_operands(draw):
    F, a = draw(field_and_matrix(PRODUCT_FIELDS))
    cols = draw(st.integers(0, 6))
    fill = st.integers(0, F.order - 1)
    entries = draw(st.lists(fill, min_size=a.shape[1] * cols,
                            max_size=a.shape[1] * cols))
    return F, a, np.array(entries, dtype=np.int64).reshape(a.shape[1], cols)


# -- field ops of the rref pivot step --

@pytest.mark.parametrize("p,d", FIELDS)
def test_div_submul_sub_match_elementwise_definitions(p, d):
    F, ref = GF(p, d), RefField(GF(p, d))
    top = F.order - 1
    rng = np.random.default_rng(p + d)
    # the first entries are the worst case: 0 - top*top = -(p-1)**2 at BIG_P
    a = np.concatenate([[0, 0, top, 1, top], rng.integers(0, F.order, 40)])
    b = np.concatenate([[top, top, top, top, 0], rng.integers(0, F.order, 40)])
    c = np.concatenate([[top, 1, top, 0, top], rng.integers(0, F.order, 40)])
    assert F.sub(a, b).tolist() == [ref.sub(x, y) for x, y in zip(a, b)]
    assert F.submul(a, b, c).tolist() == [ref.sub(x, ref.mul(y, z))
                                          for x, y, z in zip(a, b, c)]
    nz = b != 0
    assert F.div(a[nz], b[nz]).tolist() == [ref.div(x, y) for x, y in zip(a[nz], b[nz])]
    # the shapes rref passes: a block, its pivot column and the pivot row,
    # and a row over a scalar pivot
    block, column, row = a[:12].reshape(3, 4), c[:3, None], b[:4]
    assert F.submul(block, column, row).tolist() == [
        [ref.sub(block[i, j], ref.mul(column[i, 0], row[j])) for j in range(4)]
        for i in range(3)]
    assert F.div(row, np.int64(top)).tolist() == [ref.div(x, top) for x in row]


@pytest.mark.parametrize("p,d", FIELDS)
def test_division_by_zero_raises(p, d):
    F = GF(p, d)
    with pytest.raises(ZeroDivisionError):
        F.div(np.array([1, 2 % F.order]), np.int64(0))
    with pytest.raises(ZeroDivisionError):
        F.div(np.array([1, 1]), np.array([1, 0]))
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# -- mmul --

@SETTINGS
@given(product_operands())
def test_mmul_matches_per_column_reference(case):
    F, a, b = case
    assert np.array_equal(mx.mmul(F, a, b), ref_mmul(F, a, b))


@SETTINGS
@given(product_operands())
def test_mmul_vector_inputs(case):
    F, a, b = case
    ref = ref_mmul(F, a, b)
    if a.shape[0]:
        assert np.array_equal(mx.mmul(F, a[0], b), ref[0])
    if b.shape[1]:
        assert np.array_equal(mx.mmul(F, a, b[:, 0]), ref[:, 0])
    if a.shape[0] and b.shape[1]:
        assert mx.mmul(F, a[0], b[:, 0]) == ref[0, 0]


@pytest.mark.parametrize("p,d", PRODUCT_FIELDS)
@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0),
                                   (1, 1, 1), (4, 300, 3)])
def test_mmul_worst_case_entries(p, d, shape):
    """Every entry is the top code; at BIG_P each product is (p - 1)^2."""
    F = GF(p, d)
    r, k, c = shape
    a = np.full((r, k), F.order - 1, dtype=np.int64)
    b = np.full((k, c), F.order - 1, dtype=np.int64)
    out = mx.mmul(F, a, b)
    assert out.shape == (r, c)
    assert np.array_equal(out, ref_mmul(F, a, b))
    if d == 1:
        assert np.all(out == (k * (p - 1) ** 2) % p)


def test_mmul_shape_mismatch():
    with pytest.raises(ValueError):
        mx.mmul(GF(2), mx.zeros(2, 3), mx.zeros(2, 3))


@SETTINGS
@given(product_operands(), st.integers(1, 3))
def test_mmul_chunked_inner_dimension(case, step):
    """Split the inner dimension far below the real bound; same product."""
    F, a, b = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mx, "dot_chunk", lambda p: step)
        assert np.array_equal(mx.mmul(F, a, b), ref_mmul(F, a, b))


def draw_codes(draw, F, shape, kind):
    """A matrix over F: all zero, in the prime field (codes below p) or
    anywhere, with the top code of its range and the code p likely."""
    if kind == "zero":
        return mx.zeros(*shape)
    top = F.p - 1 if kind == "prime" else F.order - 1
    code = st.one_of(st.integers(0, top), st.just(top), st.just(min(F.p, top)))
    n = shape[0] * shape[1]
    return np.array(draw(st.lists(code, min_size=n, max_size=n)),
                    dtype=np.int64).reshape(shape)


@st.composite
def subfield_operands(draw):
    """A product over GF(p^m) with at least one operand in the prime field
    GF(p); a zero operand lies there too."""
    F = GF(*draw(st.sampled_from(SUBFIELD_FIELDS)))
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    ka, kb = draw(st.sampled_from([(x, y) for x in ("zero", "prime", "any")
                                   for y in ("zero", "prime", "any")
                                   if (x, y) != ("any", "any")]))
    return F, draw_codes(draw, F, (r, k), ka), draw_codes(draw, F, (k, c), kb)


@st.composite
def subfield_matrix(draw):
    F = GF(*draw(st.sampled_from(SUBFIELD_FIELDS)))
    shape = (draw(st.integers(0, 6)), draw(st.integers(0, 7)))
    return F, draw_codes(draw, F, shape, draw(st.sampled_from(["zero", "prime", "any"])))


@SETTINGS
@given(subfield_operands(), st.integers(0, 3))
def test_mmul_with_prime_subfield_operands(case, step):
    """Each descent (both in GF(p), only a, only b), on matrices and 1-D
    operands, with the inner dimension split at step 1-3 (0: unsplit)."""
    F, a, b = case
    ref = ref_mmul(F, a, b)
    with pytest.MonkeyPatch.context() as mp:
        if step:
            mp.setattr(mx, "dot_chunk", lambda p: step)
        assert np.array_equal(mx.mmul(F, a, b), ref)
        if a.shape[0]:
            assert np.array_equal(mx.mmul(F, a[0], b), ref[0])
        if b.shape[1]:
            assert np.array_equal(mx.mmul(F, a, b[:, 0]), ref[:, 0])
        if a.shape[0] and b.shape[1]:
            assert mx.mmul(F, a[0], b[:, 0]) == ref[0, 0]


@SETTINGS
@given(subfield_matrix())
def test_rref_and_kernel_of_prime_subfield_matrices(case):
    """Zero and prime-field matrices, which reduce over GF(p), and general
    ones, which may hold the code p, the least outside GF(p)."""
    F, a = case
    r, pivots = mx.rref(F, a)
    rr, rpivots = ref_rref(F, a)
    assert pivots == rpivots and np.array_equal(r, rr)
    assert np.array_equal(mx.kernel(F, a), ref_kernel(F, a))


def test_prime_entry_rref_over_gf9_equals_rref_over_gf3():
    rng = np.random.default_rng(9)
    for shape in [(0, 3), (3, 0), (3, 3), (4, 6), (6, 4)]:
        for _ in range(10):
            a = rng.integers(0, 3, shape)
            r9, p9 = mx.rref(GF(3, 2), a)
            r3, p3 = mx.rref(GF(3), a)
            assert p9 == p3 and np.array_equal(r9, r3)
    # 3 = t is the least code outside GF(3): no descent
    a = np.array([[1, 3], [2, 0]])
    assert np.array_equal(mx.rref(GF(3, 2), a)[0], ref_rref(GF(3, 2), a)[0])


@pytest.mark.parametrize("p,d", FIELDS)
@pytest.mark.parametrize("shape", [(0, 0), (3, 3), (2, 4), (4, 2), (1, 1)])
def test_is_invertible_matches_inverse(p, d, shape):
    """Square, tall and wide; a wide matrix of full row rank is not
    invertible though its rank equals its row count."""
    F = GF(p, d)
    rng = np.random.default_rng(p + d + shape[0])
    for _ in range(20):
        a = rng.integers(0, min(F.order, 3), shape)
        assert mx.is_invertible(F, a) == (shape[0] == shape[1]
                                          and mx.inverse(F, a) is not None)
    wide = np.hstack([mx.identity(2), mx.zeros(2, 1)])
    assert mx.rank(F, wide) == 2 and not mx.is_invertible(F, wide)
    assert mx.is_invertible(F, mx.identity(3))


def test_dot_chunk_bound_at_largest_prime():
    p = BIG_P
    assert is_prime(p) and p < MAX_ORDER
    assert not any(is_prime(q) for q in range(p + 1, MAX_ORDER))
    k = mx.dot_chunk(p)
    assert k * (p - 1) ** 2 < 2 ** 63 <= (k + 1) * (p - 1) ** 2
    assert k >= 2 ** 19
    assert mx.dot_chunk(2) == 2 ** 63 - 1
    assert is_prime(BIG_SQ) and BIG_SQ ** 2 <= MAX_ORDER
    assert not any(is_prime(q) for q in range(BIG_SQ + 1, 2049))


# -- rref, rank, kernel over GF(p): the sympy oracle --

@SETTINGS
@given(field_and_matrix(PRIMES))
def test_rref_rank_kernel_match_sympy(case):
    F, a = case
    dm = sympy_matrix(F.p, a)
    r, pivots = mx.rref(F, a)
    sr, spivots = dm.rref()
    assert pivots == tuple(spivots)
    assert np.array_equal(r, to_codes(F.p, sr))
    assert mx.rank(F, a) == dm.rank() == len(pivots)
    # sympy scales its basis differently; the spans must agree, and ours is
    # the one basis of that span that is the identity on the free columns
    k = mx.kernel(F, a)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    assert np.array_equal(k[free], mx.identity(len(free)))
    span_ours = sympy_matrix(F.p, k.T).rref()[0]
    span_sympy = dm.nullspace().rref()[0]
    assert np.array_equal(to_codes(F.p, span_ours), to_codes(F.p, span_sympy))


# -- rref, kernel over every field: the row-at-a-time reference --

@SETTINGS
@given(field_and_matrix(FIELDS))
def test_rref_and_kernel_match_reference(case):
    F, a = case
    r, pivots = mx.rref(F, a)
    rr, rpivots = ref_rref(F, a)
    assert pivots == rpivots and np.array_equal(r, rr)
    assert np.array_equal(mx.kernel(F, a), ref_kernel(F, a))


@SETTINGS
@given(field_and_matrix(EXTENSIONS))
def test_extension_kernel_annihilated_with_right_dimension(case):
    F, a = case
    k = mx.kernel(F, a)
    rank = mx.rank(F, a)
    assert k.shape == (a.shape[1], a.shape[1] - rank)
    assert not mx.mmul(F, a, k).any()
    assert mx.rank(F, k) == k.shape[1]


# -- power --

@pytest.mark.parametrize("t", [0, 1, 2, BIG_P - 2, BIG_P - 1, BIG_P, 3 ** 40 + 7])
def test_prime_power_matches_python_pow(t):
    F = GF(BIG_P)
    rng = np.random.default_rng(t % 1000)
    a = np.concatenate([[0, 1, 2, BIG_P - 1],
                        rng.integers(0, BIG_P, size=60)]).astype(np.int64)
    got = F.power(a.reshape(8, 8), t)
    want = np.array([pow(int(v), t, BIG_P) for v in a], dtype=np.int64)
    assert got.shape == (8, 8)
    assert np.array_equal(got.reshape(-1), want)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_power_small_fields_every_exponent(p):
    F = GF(p)
    els = F.elements()
    for t in range(3 * p):
        assert [int(v) for v in F.power(els, t)] == [pow(int(v), t, p) for v in els]
