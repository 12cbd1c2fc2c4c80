"""Exact kernels (mmul, rref, rank, kernel, power) and the field ops rref
uses (div, submul, sub) against independent oracles.

The references below are the straightforward loops: one field call per
inner index for the product, one row at a time for elimination, one entry
at a time for the kernel basis.  The vectorized kernels must agree with
them bit for bit, and over GF(p) with sympy's DomainMatrix.  `rref` has
two paths, Python ints up to `matrix.SMALL_RREF_CELLS` cells and numpy
above, and over GF(p^m) `mmul` too: Zech logarithms on Python ints up to
`matrix.SMALL_MMUL_MACS` multiply-adds, numpy above.  The properties run
each path with its bound forced either way.  `intertwiners` must equal
`kernel` of the stacked Kronecker system (`tests/oracles.py`), solving
either the system itself or the Kronecker rows fed last first, and with
empty equations; a planted solve that skips the clearing of earlier
pivot rows must fail that check.  The one Zech step of the three
GF(p^m) kernels skips the zero entries of the row it adds; a planted
step that keeps them must fail the product property and an
`intertwiners` check on systems that leave a zero in a pivot row.  The
GF(p) product splits its inner dimension only past `matrix.dot_chunk`,
which the chunk properties patch; a planted split that drops its last
chunk must fail them.  `mmul` and `equal` take int64 arrays as they are
and cast anything else: lists, int32 and bool arrays, read-only arrays,
1-D and empty ones all give the reference answer.
"""

import __future__
import ast
import inspect
import textwrap
import types
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st
from sympy import GF as SympyGF
from sympy.polys.matrices import DomainMatrix

from cartierforge import artinian, matrix as mx
from cartierforge.field import GF, MAX_ORDER, is_prime
from oracles import RefField, kron_intertwiners, kron_system

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
# SMALL_RREF_CELLS and SMALL_MMUL_MACS values that send every matrix or
# product down one path
RREF_PATHS = {"int": 1 << 62, "np": -1}
MMUL_PATHS = RREF_PATHS


@contextmanager
def rref_path(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mx, "SMALL_RREF_CELLS", RREF_PATHS[name])
        yield


@contextmanager
def mmul_path(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mx, "SMALL_MMUL_MACS", MMUL_PATHS[name])
        yield


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
def product_operands(draw, fields=PRODUCT_FIELDS):
    F, a = draw(field_and_matrix(fields))
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


def operand_cases(F, a, b) -> list:
    """(x, y, reference x @ y) for a @ b, a row of a times b, a times a
    column of b, and the row times the column."""
    ref = ref_mmul(F, a, b)
    cases = [(a, b, ref)]
    if a.shape[0]:
        cases.append((a[0], b, ref[0]))
    if b.shape[1]:
        cases.append((a, b[:, 0], ref[:, 0]))
    if a.shape[0] and b.shape[1]:
        cases.append((a[0], b[:, 0], ref[0, 0]))
    return cases


def read_only(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.flags.writeable = False
    return out


# what callers pass besides the package's own int64 arrays; a memo hit is
# a read-only int64 array
OPERAND_FORMS = {"int64": np.copy, "list": np.ndarray.tolist,
                 "int32": lambda a: a.astype(np.int32), "bool": lambda a: a.astype(bool),
                 "read-only": read_only}


@SETTINGS
@given(product_operands(), st.sampled_from(sorted(OPERAND_FORMS)))
def test_mmul_and_equal_input_contract(case, form):
    """mmul and equal on lists, int32, bool and read-only operands, 1-D and
    empty ones among them, give the reference answer, and each product
    shares no memory with its operands and can be written.  A list of
    empty rows or no rows carries no shape, so lists are nonempty."""
    F, a, b = case
    if form == "bool":
        a, b = np.minimum(a, 1), np.minimum(b, 1)
    if form == "list" and not (a.size and b.size):
        return
    cast = OPERAND_FORMS[form]
    # products by 1 and by 0, which a shortcut could answer with an operand
    one = mx.identity(a.shape[1])
    ones_zeros = [(a, one, a), (0 * a, one, 0 * a)]
    for x, y, ref in operand_cases(F, a, b) + ones_zeros:
        cx, cy = cast(x), cast(y)
        out = mx.mmul(F, cx, cy)
        assert np.array_equal(out, ref)
        if np.ndim(out):
            assert out.flags.writeable
            assert not any(isinstance(v, np.ndarray) and np.shares_memory(out, v)
                           for v in (cx, cy))
        assert mx.equal(cx, x) and mx.equal(x, cx)
        assert not mx.equal(cx, x.reshape(1, -1) if x.ndim == 1 else x.reshape(-1))
        if x.size:
            other = x.copy()
            other.flat[-1] ^= 1
            assert not mx.equal(cx, other) and not mx.equal(other, cx)


@pytest.mark.parametrize("p,d", PRODUCT_FIELDS)
@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0),
                                   (1, 1, 1), (4, 300, 3)])
def test_mmul_worst_case_entries(p, d, shape):
    """Every entry is the top code, on each path; at BIG_P each product is
    (p - 1)^2."""
    F = GF(p, d)
    r, k, c = shape
    a = np.full((r, k), F.order - 1, dtype=np.int64)
    b = np.full((k, c), F.order - 1, dtype=np.int64)
    for path in MMUL_PATHS:
        with mmul_path(path):
            out = mx.mmul(F, a, b)
        assert out.shape == (r, c)
        assert np.array_equal(out, ref_mmul(F, a, b))
        if d == 1:
            assert np.all(out == (k * (p - 1) ** 2) % p)


def test_mmul_shape_mismatch():
    with pytest.raises(ValueError):
        mx.mmul(GF(2), mx.zeros(2, 3), mx.zeros(2, 3))


def split_products(F, a, b, step) -> list:
    """(mmul, reference) for each of `operand_cases`, on the numpy path with
    the inner dimension split at `step` (0: unsplit)."""
    with mmul_path("np"), pytest.MonkeyPatch.context() as mp:
        if step:
            mp.setattr(mx, "dot_chunk", lambda p: step)
        return [(mx.mmul(F, x, y), ref) for x, y, ref in operand_cases(F, a, b)]


@SETTINGS
@given(product_operands(), st.integers(1, 3))
def test_mmul_chunked_inner_dimension(case, step):
    """Split the inner dimension far below the real bound; same product, on
    matrices and 1-D operands.  The split is in the numpy path, so every
    product takes it."""
    for out, ref in split_products(*case, step):
        assert np.array_equal(out, ref)


def draw_codes(draw, F, shape, kind):
    """A matrix over F: all zero, in the prime field (codes below p),
    outside it ("ext", codes from p on) or anywhere; 0, 1, p - 1 (whose log
    is log(-1)), p and the top code of the range are likely where the range
    holds them."""
    if kind == "zero":
        return mx.zeros(*shape)
    lo, top = ((F.p, F.order - 1) if kind == "ext"
               else (0, F.p - 1 if kind == "prime" else F.order - 1))
    picks = [c for c in (0, 1, F.p - 1, F.p, top) if lo <= c <= top]
    code = st.one_of(st.integers(lo, top), st.sampled_from(picks))
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
    operands, with the inner dimension split at step 1-3 (0: unsplit).
    The descents are in the numpy path, so every product takes it."""
    for out, ref in split_products(*case, step):
        assert np.array_equal(out, ref)


def with_last_chunk_dropped():
    """A planted fault: `mmul` whose GF(p) chunk loop leaves out the last
    chunk of the inner dimension.  It reads the globals of `matrix`, so a
    patched dot_chunk splits it."""
    dropped = []

    class Drop(ast.NodeTransformer):
        def visit_comprehension(self, node):
            if ast.unparse(node.iter) == "range(0, k, step)":
                dropped.append(node)
                node.iter = ast.parse("range(0, k, step)[:-1]", mode="eval").body
            return self.generic_visit(node)

    tree = Drop().visit(ast.parse(textwrap.dedent(inspect.getsource(mx.mmul))))
    assert len(dropped) == 1
    namespace = {}
    exec(compile(ast.fix_missing_locations(tree), "<planted>", "exec",
                 __future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return types.FunctionType(namespace["mmul"].__code__, vars(mx))


def test_planted_dropped_chunk_fails_the_chunk_properties(monkeypatch):
    """The split stays reachable: with the last chunk dropped, the chunked
    product fails over GF(p) and the subfield descents fail on 1-D operands."""
    monkeypatch.setattr(mx, "mmul", with_last_chunk_dropped())
    never = settings(max_examples=500, database=None)

    def wrong(products):
        return any(not np.array_equal(out, ref) for out, ref in products)
    find(st.tuples(product_operands(PRIMES), st.integers(1, 3)),
         lambda c: wrong(split_products(*c[0], c[1])[:1]), settings=never)
    find(st.tuples(subfield_operands(), st.integers(1, 3)),
         lambda c: wrong(split_products(*c[0], c[1])[1:]), settings=never)


@SETTINGS
@given(subfield_matrix())
def test_rref_and_kernel_of_prime_subfield_matrices(case):
    """Zero and prime-field matrices, which reduce over GF(p), and general
    ones, which may hold the code p, the least outside GF(p)."""
    F, a = case
    rr, rpivots = ref_rref(F, a)
    for path in RREF_PATHS:
        with rref_path(path):
            r, pivots = mx.rref(F, a)
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


# -- the Zech path over GF(p^m) --

# GF(4), GF(8), GF(9), GF(16), GF(25), GF(27), GF(2^8), and GF(BIG_SQ^2),
# whose log indices run highest
ZECH_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8), (BIG_SQ, 2)]


@pytest.mark.parametrize("p,d", ZECH_FIELDS)
def test_zech_table(p, d):
    """zech[k] = -1 exactly at 1 + g^k = 0, and 1 + g^k = g^zech[k]
    everywhere else; log(-1) is the log of the code p - 1."""
    F = GF(p, d)
    n, log, exp, zech, neg = F._zech_tables
    zech, exp = np.asarray(zech), np.asarray(exp)
    assert n == F.order - 1 and exp.size > 2 * n and np.array_equal(exp[:n], F._exp)
    assert np.array_equal(np.asarray(log), F._log)
    assert np.flatnonzero(zech == -1).tolist() == [0 if p == 2 else n // 2]
    one_plus = F.add(1, F._exp)
    ok = zech >= 0
    assert np.array_equal(one_plus[ok], F._exp[zech[ok]])
    assert not one_plus[~ok].any()
    assert exp[neg] == p - 1 == F.neg(1)


SHAPE = st.sampled_from([0, 1, 1, 2, 3, 4, 5, 6])
KIND = st.sampled_from(["any", "any", "prime", "ext"])


@st.composite
def zech_matrix(draw):
    F = GF(*draw(st.sampled_from(ZECH_FIELDS)))
    a = draw_codes(draw, F, (draw(SHAPE), draw(SHAPE)), draw(KIND))
    if draw(st.booleans()):
        a.setflags(write=False)         # as the memos hand their results out
    return F, a


@st.composite
def zech_operands(draw):
    F = GF(*draw(st.sampled_from(ZECH_FIELDS)))
    r, k, c = draw(SHAPE), draw(SHAPE), draw(SHAPE)
    a, b = draw_codes(draw, F, (r, k), draw(KIND)), draw_codes(draw, F, (k, c), draw(KIND))
    if draw(st.booleans()):
        a.setflags(write=False)
        b.setflags(write=False)
    return F, a, b


@SETTINGS
@given(zech_matrix())
def test_zech_rref_rank_kernel_match_reference(case):
    F, a = case
    before = a.copy()
    rr, rpivots = ref_rref(F, before)
    for path in RREF_PATHS:
        with rref_path(path):
            r, pivots = mx.rref(F, a)
            assert pivots == rpivots and np.array_equal(r, rr)
            assert mx.rank(F, a) == len(rpivots)
            assert np.array_equal(mx.kernel(F, a), ref_kernel(F, before))
    assert np.array_equal(a, before)


@SETTINGS
@given(zech_operands())
def test_zech_mmul_matches_reference(case):
    F, a, b = case
    before = a.copy(), b.copy()
    assert zech_product_is_right(F, a, b)
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


def zech_product_is_right(F, a, b) -> bool:
    """`_mmul_zech`, and `mmul` on each path, equal `ref_mmul`: values,
    shape and dtype."""
    ref = ref_mmul(F, a, b)
    got = [mx._mmul_zech(F, a, b)]
    for path in MMUL_PATHS:
        with mmul_path(path):
            got.append(mx.mmul(F, a, b))
    return all(g.dtype == np.int64 and g.shape == ref.shape and np.array_equal(g, ref)
               for g in got)


@pytest.mark.parametrize("p,d", [(2, 3), (3, 3)])
def test_mmul_path_is_chosen_by_field_shape_and_size(p, d, monkeypatch):
    """The Zech product for 2-D operands over GF(p^m) of at most
    SMALL_MMUL_MACS multiply-adds, whatever their entries; numpy for a
    larger product, a 1-D operand or GF(p)."""
    F, calls, zech = GF(p, d), [], mx._mmul_zech

    def counted(F, a, b):
        calls.append((a.shape, b.shape))
        return zech(F, a, b)

    monkeypatch.setattr(mx, "_mmul_zech", counted)
    bound = mx.SMALL_MMUL_MACS
    for k in (bound, bound + 1):
        mx.mmul(F, np.ones((1, k), dtype=np.int64), np.full((k, 1), p))
    mx.mmul(F, np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64))
    mx.mmul(F, np.ones(2, dtype=np.int64), np.full((2, 2), p))
    mx.mmul(GF(p), np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64))
    assert calls == [((1, bound), (bound, 1)), ((1, 1), (1, 1))]


# -- the one Zech step (`matrix._zech_add` on `matrix._zech_logs`) --

@st.composite
def cancelling_system(draw):
    """A Hom system over ZECH_FIELDS whose reduction leaves a zero-valued
    entry in a pivot row.  With rows = 1 and B_0 = 0, equation k of
    `intertwiners` is column k of A_0 on the unknowns 0-4, and columns 3
    and 4 are zero.  Column 0 gives pivot 0 the row {1: -a, 2: -b};
    column 1, pivot 1 with {2: -b/a, 3: -d}, clears column 1 from it, and
    -b + (-a)(-b/a) = 0 stays at column 2, which column 2, reduced by
    pivot 0, then meets.  Unknowns are renamed by a permutation of 0-4."""
    F = GF(*draw(st.sampled_from(ZECH_FIELDS)))
    a, b, d, e = (draw(st.integers(1, F.order - 1)) for _ in range(4))
    name = draw(st.permutations(range(5)))
    A = mx.zeros(5, 5)
    for k, r in enumerate([{0: 1, 1: a, 2: b}, {1: 1, 2: int(F.div(b, a)), 3: d}, {0: 1, 2: e}]):
        A[[name[j] for j in r], k] = list(r.values())
    return F, [A], [mx.zeros(1, 1)], 1, 5


def solves_as_stacked(F, As, Bs, rows, cols) -> bool:
    """`intertwiners` of a `cancelling_system` equals the reference kernel
    of its equations stacked, the columns of A_0 as rows."""
    return np.array_equal(artinian.intertwiners(F, As, Bs, rows, cols)[0], ref_kernel(F, As[0].T))


@SETTINGS
@given(cancelling_system())
def test_intertwiners_skip_a_cancelled_entry(case):
    assert solves_as_stacked(*case)


def test_planted_zero_log_fails_the_properties(monkeypatch):
    """A step that takes zero entries of y too, reading log 0 = 0 as the
    log of 1, must fail both the product and the Hom-solve property."""
    monkeypatch.setattr(mx, "_zech_logs", lambda log, y: [(j, log[v]) for j, v in y])
    never = settings(max_examples=500, database=None)
    find(zech_operands(), lambda case: not zech_product_is_right(*case), settings=never)
    find(cancelling_system(), lambda case: not solves_as_stacked(*case), settings=never)


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
    sr, spivots = dm.rref()
    span_sympy = to_codes(F.p, dm.nullspace().rref()[0])
    for path in RREF_PATHS:
        with rref_path(path):
            r, pivots = mx.rref(F, a)
            assert pivots == tuple(spivots)
            assert np.array_equal(r, to_codes(F.p, sr))
            assert mx.rank(F, a) == dm.rank() == len(pivots)
            # sympy scales its basis differently; the spans must agree, and
            # ours is the one basis of that span that is the identity on the
            # free columns
            k = mx.kernel(F, a)
            free = [c for c in range(a.shape[1]) if c not in pivots]
            assert np.array_equal(k[free], mx.identity(len(free)))
            span_ours = sympy_matrix(F.p, k.T).rref()[0]
            assert np.array_equal(to_codes(F.p, span_ours), span_sympy)


# -- rref, kernel over every field: the row-at-a-time reference --

@SETTINGS
@given(field_and_matrix(FIELDS))
def test_rref_and_kernel_match_reference(case):
    F, a = case
    rr, rpivots = ref_rref(F, a)
    for path in RREF_PATHS:
        with rref_path(path):
            r, pivots = mx.rref(F, a)
            assert pivots == rpivots and np.array_equal(r, rr)
            assert np.array_equal(mx.kernel(F, a), ref_kernel(F, a))


# -- rref on both sides of SMALL_RREF_CELLS --

# the fields whose matrices may take the Python-int path: GF(p), and GF(9)
# with entries in GF(3)
INT_FIELDS = PRIMES + [(5, 1), (3, 2)]


@st.composite
def straddling_matrix(draw):
    """A rows x (bound // rows + d) matrix, d in -1..2, so its cells lie
    near the real bound on either side; over a field of INT_FIELDS, with
    entries in the prime field, often 0."""
    p, d = draw(st.sampled_from(INT_FIELDS))
    F = GF(p, d)
    bound = mx.SMALL_RREF_CELLS
    rows = draw(st.integers(1, bound + 1))
    cols = max(0, (bound // rows) + draw(st.integers(-1, 2)))
    code = st.one_of(st.just(0), st.integers(0, p - 1), st.just(p - 1))
    entries = draw(st.lists(code, min_size=rows * cols, max_size=rows * cols))
    return F, np.array(entries, dtype=np.int64).reshape(rows, cols)


@SETTINGS
@given(straddling_matrix())
def test_rref_straddling_the_bound_matches_reference(case):
    F, a = case
    r, pivots = mx.rref(F, a)
    rr, rpivots = ref_rref(F, a)
    assert pivots == rpivots and np.array_equal(r, rr)
    assert np.array_equal(mx.kernel(F, a), ref_kernel(F, a))
    assert mx.rank(F, a) == len(rpivots)


@pytest.mark.parametrize("p,d", INT_FIELDS + [(2, 3)])
def test_rref_path_is_chosen_by_field_and_size(p, d, monkeypatch):
    """Python ints for a matrix of at most SMALL_RREF_CELLS cells: over
    GF(p) for a GF(p) matrix or a GF(p^m) one with prime entries, through
    the Zech tables of GF(p^m) for one with a code outside GF(p); numpy
    for anything larger."""
    F, calls, ints = GF(p, d), [], mx._rref_ints

    def counted(K, a):
        calls.append((K, a.shape))
        return ints(K, a)

    monkeypatch.setattr(mx, "_rref_ints", counted)
    bound = mx.SMALL_RREF_CELLS
    mx.rref(F, np.ones((1, bound), dtype=np.int64))
    mx.rref(F, np.ones((1, bound + 1), dtype=np.int64))
    assert calls == [(GF(p), (1, bound))]
    if d > 1:
        mx.rref(F, np.full((1, bound), p, dtype=np.int64))    # t lies outside GF(p)
        mx.rref(F, np.full((1, bound + 1), p, dtype=np.int64))
        assert calls == [(GF(p), (1, bound)), (F, (1, bound))]


@pytest.mark.parametrize("path", RREF_PATHS)
@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 7), (7, 2), (12, 12)])
def test_rref_worst_case_entries_at_largest_prime(path, shape):
    """Top codes p - 1 at BIG_P: every product in a row update is (p - 1)^2."""
    F, top = GF(BIG_P), BIG_P - 1
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    full = np.full(shape, top, dtype=np.int64)
    mixed = np.where(rng.integers(0, 2, shape) == 1, top, rng.integers(1, 3, shape))
    with rref_path(path):
        for a in (full, mixed, np.eye(*shape, dtype=np.int64) * top):
            r, pivots = mx.rref(F, a)
            rr, rpivots = ref_rref(F, a)
            assert pivots == rpivots and np.array_equal(r, rr)
            assert r.dtype == np.int64 and r.min(initial=0) >= 0 and r.max(initial=0) < BIG_P


@pytest.mark.parametrize("path", RREF_PATHS)
@pytest.mark.parametrize("p,d", INT_FIELDS)
def test_rref_of_empty_and_read_only_inputs(path, p, d):
    """0 x n and n x 0 keep their shape with no pivots; a read-only input
    is left as it was, and the result is a fresh writable array."""
    F = GF(p, d)
    with rref_path(path):
        for shape in [(0, 0), (0, 4), (4, 0)]:
            r, pivots = mx.rref(F, mx.zeros(*shape))
            assert r.shape == shape and r.dtype == np.int64 and pivots == ()
            assert mx.kernel(F, mx.zeros(*shape)).shape == (shape[1], shape[1])
        a = np.array([[0, 1, 1], [1, 1, 0], [1, 2 % p, 1]], dtype=np.int64)
        before = a.copy()
        a.setflags(write=False)
        r, pivots = mx.rref(F, a)
        assert np.array_equal(a, before)
        assert r.flags.writeable and not np.shares_memory(r, a)
        rr, rpivots = ref_rref(F, before)
        assert pivots == rpivots and np.array_equal(r, rr)


@SETTINGS
@given(field_and_matrix(EXTENSIONS))
def test_extension_kernel_annihilated_with_right_dimension(case):
    F, a = case
    k = mx.kernel(F, a)
    rank = mx.rank(F, a)
    assert k.shape == (a.shape[1], a.shape[1] - rank)
    assert not mx.mmul(F, a, k).any()
    assert mx.rank(F, k) == k.shape[1]


# -- intertwiner systems: the sparse solve against the Kronecker kernel --

KRON_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]


def draw_action(draw, F, n, kind):
    """An n x n action: zero, the identity, a monomial shift (a nonzero
    code at each (i + 1, i)) or dense, its codes of `kind`."""
    form = draw(st.sampled_from(["zero", "identity", "shift", "dense"]))
    if form == "zero":
        return mx.zeros(n, n)
    if form == "identity":
        return mx.identity(n)
    if form == "dense":
        return draw_codes(draw, F, (n, n), kind)
    top = F.p - 1 if kind == "prime" else F.order - 1
    a = mx.zeros(n, n)
    a[np.arange(1, n), np.arange(n - 1)] = draw(
        st.lists(st.integers(1, top), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    return a


@st.composite
def intertwiner_system(draw):
    """0-3 pairs (A_i, B_i) with A_i cols x cols and B_i rows x rows, rows
    and cols 0-6, over GF(q) for q = 2, 3, 5, 4, 8, 9, 25, 27; "prime"
    systems have every code below p."""
    F = GF(*draw(st.sampled_from(KRON_FIELDS)))
    kind = draw(st.sampled_from(["any", "prime"]))
    rows, cols, pairs = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 3))
    As = [draw_action(draw, F, cols, kind) for _ in range(pairs)]
    Bs = [draw_action(draw, F, rows, kind) for _ in range(pairs)]
    if draw(st.booleans()):
        for a in As + Bs:
            a.setflags(write=False)     # as the memos hand their results out
    return F, As, Bs, rows, cols


def as_rows_system(F, eqs):
    """A Hom system whose equations, in `intertwiners`' order, are the rows
    of `eqs`: rows = 1 and B_i = 0, so equation (i, k) is column k of A_i,
    and each A_i holds the next N rows as columns, N the unknowns; the
    last is padded with zero columns."""
    n = eqs.shape[1]
    if not n:
        return F, [], [], 1, 0
    pad = np.concatenate((eqs, mx.zeros(-len(eqs) % n, n)))
    As = [pad[s:s + n].T.copy() for s in range(0, len(pad), n)]
    return F, As, [mx.zeros(1, 1)] * len(As), 1, n


def solves_as_kron(F, As, Bs, rows, cols) -> bool:
    """`intertwiners` of the system, and of the rows of its Kronecker
    system fed last row first (`as_rows_system`), both equal `mx.kernel`
    of that system: values, shape and dtype; the free rows they return
    with it are where that kernel is the identity."""
    want = kron_intertwiners(F, As, Bs, rows, cols)
    eqs = kron_system(F, As, Bs, rows, cols)[::-1]
    got = [artinian.intertwiners(F, As, Bs, rows, cols),
           artinian.intertwiners(*as_rows_system(F, eqs))]
    return all(g.dtype == want.dtype and g.shape == want.shape and np.array_equal(g, want)
               and np.array_equal(want[free], mx.identity(want.shape[1]))
               for g, free in got)


@settings(max_examples=200, deadline=None)
@given(intertwiner_system())
def test_intertwiners_equal_the_kronecker_kernel(case):
    F, As, Bs, rows, cols = case
    before = [a.copy() for a in As + Bs]
    assert solves_as_kron(F, As, Bs, rows, cols)
    assert all(np.array_equal(a, b) for a, b in zip(As + Bs, before))


@pytest.mark.parametrize("p,d", [(3, 1), (5, 1), (2, 2), (3, 2)])
def test_intertwiners_skip_empty_equations(p, d):
    """Where column k of A_i and row j of B_i are both zero, equation
    (i, k, j) is empty: the solve skips it and still equals the Kronecker
    kernel, also with a variable whose A_i and B_i are both zero."""
    F, rng = GF(p, d), np.random.default_rng(p + d)
    As = [rng.integers(0, F.order, (4, 4)) for _ in range(2)] + [mx.zeros(4, 4)]
    Bs = [rng.integers(0, F.order, (3, 3)) for _ in range(2)] + [mx.zeros(3, 3)]
    As[0][:, [0, 2]] = As[1][:, 3] = 0
    Bs[0][1] = Bs[1][[0, 2]] = 0
    assert solves_as_kron(F, As, Bs, 3, 4)


def without_back_clearing():
    """A planted fault: `intertwiners` with the loop that clears a new
    pivot's column from the earlier pivot rows taken out."""
    dropped = []

    class Drop(ast.NodeTransformer):
        def visit_For(self, node):
            if ast.unparse(node.iter) == "live":
                dropped.append(node)
                return None
            return self.generic_visit(node)

    tree = Drop().visit(ast.parse(textwrap.dedent(inspect.getsource(artinian.intertwiners))))
    assert len(dropped) == 1
    namespace = dict(vars(artinian))
    exec(compile(tree, "<planted>", "exec", __future__.annotations.compiler_flag,
                 dont_inherit=True), namespace)
    return namespace["intertwiners"]


def test_planted_fault_fails_the_property(monkeypatch):
    monkeypatch.setattr(artinian, "intertwiners", without_back_clearing())

    def fails(case):
        try:
            return not solves_as_kron(*case)
        except (KeyError, ValueError, IndexError):
            return True     # a pivot row left with another pivot's column
    find(intertwiner_system(), fails, settings=settings(max_examples=500, database=None))


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
