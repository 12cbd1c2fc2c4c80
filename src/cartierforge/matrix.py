"""Dense exact linear algebra over a FiniteField.

Matrices are 2-D numpy int64 arrays of element codes; vectors are 1-D.
Row reduction is full Gauss-Jordan so kernels and solutions come out in
a canonical (deterministic) form.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .field import FiniteField

INT64 = np.dtype(np.int64)      # the dtype of every array the package builds


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def equal(a, b) -> bool:
    """Whether a and b are one int64 matrix: shapes and bytes compared, no
    numpy reduction.  Other integer dtypes are cast; others raise TypeError."""
    if a.__class__ is not np.ndarray or b.__class__ is not np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
    if a.dtype is not INT64 or b.dtype is not INT64:
        a, b = a.astype(np.int64, casting="safe"), b.astype(np.int64, casting="safe")
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def nonzero(a) -> bool:
    """Whether some entry of `a` is nonzero, by one count, no reduction."""
    return np.count_nonzero(a) > 0


def dot_chunk(p: int) -> int:
    """Longest inner dimension k whose int64 dot products of codes in
    [0, p) are exact: k * (p - 1)**2 <= 2**63 - 1.  Under MAX_ORDER = 2**22
    this is at least 2**19."""
    return (2 ** 63 - 1) // (p - 1) ** 2


# 2-D operands over GF(p^m) with rows * k * cols at most this many
# multiply-adds are multiplied on Python ints (`_mmul_zech`); numpy pays
# two `max` scans, a digit gather and a regular representation whatever
# the size.  The mmul replay of `python3 tools/kernel_bench.py` (as for
# SMALL_RREF_CELLS; "int": all on ints), per column the median of 5 runs:
#                         np     8    27    64   128   256   512   int
#   extension-field     44.7  39.8  34.8  33.3  32.6  33.3  35.2  39.3
# It is flat from 27 to 256: past 27, products with a code outside GF(p)
# gain on ints and those with every code below p lose.
SMALL_MMUL_MACS = 128


def mmul(F: FiniteField, a, b) -> np.ndarray:
    """Matrix product over F; exact.  1-D operands act as in numpy's @.

    An int64 ndarray operand is used as it is; anything else is cast.  Over
    GF(p) this is delayed modular reduction: np.dot(a, b) % p on int64,
    the inner dimension split into chunks of dot_chunk(p) only past that
    length, so that every partial sum stays below 2**63.  The result shares
    no memory with a or b.  Over GF(p^m), small 2-D operands
    take `_mmul_zech`; otherwise the product descends to GF(p), the codes
    below p, as far as the operands allow: two GF(p) operands take the
    GF(p) product of their codes; a GF(p) operand a needs only digits(b),
    as a scalar in GF(p) scales each digit; b in GF(p) takes (ab)^T = b^T a^T.
    Otherwise a becomes its digits, shape (rows, k*m), and b the regular
    representations of its entries, shape (k*m, cols*m), whose entry
    ((k, i), (c, l)) is digit l of b[k, c] * t^i; this temporary holds
    k*cols*m**2 codes.  In each case every factor is below p and
    dot_chunk(p) splits the inner dimension, k or k*m, so the bound holds
    unchanged.  The digit products hold the digits of the result, shape
    (rows, cols, m), recombined into codes.
    """
    a = a if a.__class__ is np.ndarray and a.dtype is INT64 else np.asarray(a, dtype=np.int64)
    b = b if b.__class__ is np.ndarray and b.dtype is INT64 else np.asarray(b, dtype=np.int64)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    p, m, flip = F.p, F.deg, False
    if m > 1 and a.ndim == b.ndim == 2 and a.size * b.shape[1] <= SMALL_MMUL_MACS:
        return _mmul_zech(F, a, b)
    if m > 1:
        a_ext, b_ext = a.max(initial=0) >= p, b.max(initial=0) >= p
        if a_ext and not b_ext:
            a, b, flip = b.T, a.T, True     # (ab)^T = b^T a^T
        tail = b.shape[1:]
        if a_ext and b_ext:
            # the field's digit, regular-representation and place-value tables
            a = F._dig[a].reshape(*a.shape[:-1], a.shape[-1] * m)
            reg = ((F._dig[b] @ F._reg) % p).reshape(*b.shape, m, m)
            b = reg.swapaxes(1, -2).reshape(b.shape[0] * m, math.prod(tail) * m)
        elif a_ext or b_ext:
            b = F._dig[b].reshape(b.shape[0], math.prod(tail) * m)
        else:
            m = 1
    step, k = dot_chunk(p), a.shape[-1]
    if k <= step:
        out = np.dot(a, b) % p
    else:       # fewer than 2**63 / p chunks, so the sum of the reduced ones is exact
        out = sum(np.dot(a[..., s:s + step], b[s:s + step]) % p for s in range(0, k, step)) % p
    if m > 1:
        out = out.reshape(*out.shape[:-1], *tail, m) @ F._pw
    return out.T if flip else out


def mat_pow(F: FiniteField, a: np.ndarray, n: int) -> np.ndarray:
    """a**n by left-to-right squaring from the leading bit of n: at most
    2*floor(log2 n) products, none after the first that gives 0, and
    always a fresh array."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix power needs a square matrix")
    if n == 0:
        return identity(a.shape[0])
    out = np.array(a, dtype=np.int64)
    for bit in bin(n)[3:]:
        if not nonzero(out):
            break
        out = mmul(F, out, out)
        if bit == "1" and nonzero(out):
            out = mmul(F, out, a)
    return out


def bijective_part(F: FiniteField, a: np.ndarray) -> np.ndarray:
    """a on its Fitting-bijective part S = column_space(a**d): B with a S = S B."""
    s = column_space(F, mat_pow(F, a, len(a)))
    return solve(F, s, mmul(F, a, s))


def nil_index(F: FiniteField, a: np.ndarray):
    """Least n >= 1 with a**n = 0, else math.inf.

    The kernels of the powers of a d x d matrix stop growing by the d-th
    power, so at most d - 1 products are taken; a 0 x 0 matrix gives 1."""
    acc, n = a, 1
    while nonzero(acc):
        if n >= a.shape[0]:
            return math.inf
        acc, n = mmul(F, a, acc), n + 1
    return n


# A matrix of at most this many cells is reduced on Python ints
# (`_rref_ints`), a larger one by the numpy pivot step, whose dispatch
# cost per pivot outweighs the arithmetic of a small system.  Read off the
# rref replay of `python3 tools/kernel_bench.py`: ms per replay of one
# round's calls, median of 15, 2-CPU Linux host, Python 3.11, numpy 2.4
# ("int": all on ints; a matrix of codes below p counts as GF(p)):
#                             np     36    144    256    400    576    int
#   artinian-prime GF(p)    35.4   18.1   12.8   11.6   11.7   11.5   11.8
#   pid-duality GF(p)        2.2    1.3    1.1    0.8    0.8    0.8    0.8
#   extension-field GF(p)   11.8    7.4    5.5    5.0    5.0    5.0    4.9
#   extension-field GF(p^m) 15.1    5.6    5.3    5.3    5.3    5.3    5.3
# No call passes 400 cells (at most 288), so from 400 up the columns differ
# by noise.  Past 400, numpy wins 1.2-3.3x on dense random codes over GF(2),
# GF(3) and GF(27) at 400 to 1024 cells, so the bound stays.
SMALL_RREF_CELLS = 400


def rref(F: FiniteField, a) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Over GF(p^m) a matrix whose codes are all below p lies in GF(p), which
    the pivot steps keep, so it is reduced by the ops of `F.prime`.  A
    matrix of at most SMALL_RREF_CELLS cells is reduced on Python ints
    (`_rref_ints`).  Otherwise each pivot takes two field ops: one
    `div` normalises the pivot row, and one fused rank-1 `submul` clears
    the pivot column in every row nonzero there, the pivot row too, before
    the normalised row is written back.  Left of the pivot the pivot row is
    zero, so the update touches only columns from the pivot on."""
    a = np.asarray(a, dtype=np.int64)
    if F.deg > 1 and a.max(initial=0) < F.p:
        F = F.prime
    if a.size <= SMALL_RREF_CELLS:
        return _rref_ints(F, a)
    r = a.copy()
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        column = r[:, col]
        nz = column.nonzero()[0]
        k = nz.searchsorted(row)
        if k == nz.size:
            continue
        piv = nz[k]
        if piv != row:
            # rows row..piv-1 are zero here, so piv moves to row in nz
            r[[row, piv]] = r[[piv, row]]
            nz[k] = row
        prow = F.div(r[row, col:], column[row])
        if nz.size > 1:
            r[nz, col:] = F.submul(r[nz, col:], column[nz, None], prow)
        r[row, col:] = prow
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def _rref_ints(F: FiniteField, a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """`rref` by Gauss-Jordan on the rows as lists of Python ints, exact as
    they do not overflow.  Only the row ops depend on the field: over GF(p)
    `pow(v, -1, p)` and `(x - c*y) % p`, over GF(p^m) y / v = g^(log y -
    log v + n) and `_zech_add`.  Every code written back is reduced."""
    p, ext = F.p, F.deg > 1
    if ext:
        n, log, exp, _, neg = tables = F._zech_tables
    nrows, ncols = a.shape
    rows = a.tolist()
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        for piv in range(row, nrows):
            if rows[piv][col]:
                break
        else:
            continue
        prow = rows[piv]
        rows[piv] = rows[row]
        v = prow[col]
        if v != 1 and ext:
            lv = n - log[v]                 # exp index below 2n
            prow = [exp[log[y] + lv] if y else 0 for y in prow]
        elif v != 1:
            inv = pow(v, -1, p)
            prow = [x * inv % p for x in prow]
        rows[row] = prow
        ly = _zech_logs(log, enumerate(prow)) if ext else None
        for i, r in enumerate(rows):
            c = r[col]
            if c and i != row and ext:          # r += (-c) prow
                _zech_add(r, (log[c] + neg) % n, ly, tables)
            elif c and i != row:
                rows[i] = [(x - c * y) % p for x, y in zip(r, prow)]
        pivots.append(col)
        row += 1
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), tuple(pivots)


def _zech_logs(log, y) -> list:
    """The (index, code) pairs y as (index, log code) pairs, zero codes
    left out: log 0 reads 0, the log of 1."""
    return [(j, log[v]) for j, v in y if v]


def _zech_add(r, t: int, ly, tables) -> None:
    """r += g^t y in place over GF(p^m), y as its `_zech_logs` ly, r a list
    or dict of codes (a defaultdict if ly has new keys), g the generator,
    t < n = q - 1, `tables` from `F._zech_tables`.  With w = t + log y < 2n,
    x + g^w = g^(log x + zech[(w - log x) mod n]), 0 where zech is -1; 0 + g^w = g^w."""
    n, log, exp, zech, _ = tables
    for j, l in ly:
        x, w = r[j], t + l
        if x:
            lx = log[x]
            z = zech[(w - lx) % n]
            r[j] = exp[lx + z] if z >= 0 else 0
        else:
            r[j] = exp[w]


def _mmul_zech(F: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`mmul` over GF(p^m) on Python ints: row i is the sum of a[i, k] b[k],
    one `_zech_add` per nonzero a[i, k], the logs of b taken once."""
    tables = F._zech_tables
    log = tables[1]
    ys = [_zech_logs(log, enumerate(y)) for y in b.tolist()]
    out = [[0] * b.shape[1] for _ in range(a.shape[0])]
    for acc, x in zip(out, a.tolist()):
        for ly, c in zip(ys, x):
            if c:
                _zech_add(acc, log[c], ly, tables)
    return np.array(out, dtype=np.int64) if out else zeros(0, b.shape[1])


def rank(F: FiniteField, a) -> int:
    return len(rref(F, a)[1])


def kernel(F: FiniteField, a) -> np.ndarray:
    """Basis of the right kernel of `a`, as columns (canonical form)."""
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    if a.shape[0] == 0 or a.size == 0:
        return identity(ncols)
    r, pivots = rref(F, a)
    free = np.array([c for c in range(ncols) if c not in pivots], dtype=np.intp)
    out = zeros(ncols, free.size)
    out[free, np.arange(free.size)] = 1
    out[list(pivots)] = F.neg(r[:len(pivots), free])
    return out


def solve_full(F: FiniteField, a, b):
    """Solve a @ X = b in one reduction.

    Returns (X, unique) with free variables zeroed, or (None, False) when
    inconsistent; `unique` reports whether the solution was forced."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    vec_in = b.ndim == 1
    b2 = b.reshape(b.shape[0], 1) if vec_in else b
    if a.shape[0] != b2.shape[0]:
        raise ValueError("solve: row mismatch")
    aug = np.concatenate([a, b2], axis=1)
    r, pivots = rref(F, aug)
    if pivots and pivots[-1] >= a.shape[1]:
        return None, False
    x = zeros(a.shape[1], b2.shape[1])
    x[list(pivots)] = r[:len(pivots), a.shape[1]:]
    return (x[:, 0] if vec_in else x), len(pivots) == a.shape[1]


def solve(F: FiniteField, a, b):
    """One solution X of a @ X = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic; when
    the columns of `a` are independent the solution is the unique one.
    """
    return solve_full(F, a, b)[0]


def is_invertible(F: FiniteField, a) -> bool:
    """Whether `a` is square of full rank; one reduction of `a` alone,
    where `inverse` reduces [a | I]."""
    a = np.asarray(a, dtype=np.int64)
    return a.shape[0] == a.shape[1] and rank(F, a) == a.shape[0]


def inverse(F: FiniteField, a):
    """Inverse matrix, or None when a @ X = I has no unique solution."""
    x, unique = solve_full(F, a, identity(len(a)))
    return x if unique else None


def block_diag(blocks) -> np.ndarray:
    """The matrices `blocks` down the diagonal of one zero matrix."""
    out = zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def unvec(v, r: int, c: int) -> np.ndarray:
    return np.asarray(v, dtype=np.int64).reshape(r, c, order="F")


def column_space(F: FiniteField, a) -> np.ndarray:
    """Canonical basis (columns) of the column space of `a`."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return zeros(a.shape[0], 0)
    r, pivots = rref(F, a.T)
    return r[: len(pivots)].T
