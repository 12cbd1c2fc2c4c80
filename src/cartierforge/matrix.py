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


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def dot_chunk(p: int) -> int:
    """Longest inner dimension k whose int64 dot products of codes in
    [0, p) are exact: k * (p - 1)**2 <= 2**63 - 1.  Under MAX_ORDER = 2**22
    this is at least 2**19."""
    return (2 ** 63 - 1) // (p - 1) ** 2


def mmul(F: FiniteField, a, b) -> np.ndarray:
    """Matrix product over F; exact.  1-D operands act as in numpy's @.

    Over GF(p) this is delayed modular reduction: (a @ b) % p on int64,
    with the inner dimension split into chunks of dot_chunk(p) so that
    every partial sum stays below 2**63.  Over GF(p^m) the codes below p
    are the prime field GF(p), and the product descends to it as far as
    the operands allow: two GF(p) operands take the GF(p) product of their
    codes; a GF(p) operand a needs only digits(b), as a scalar in GF(p)
    scales each digit; a GF(p) operand b takes that on (ab)^T = b^T a^T.
    Otherwise a becomes its digits, shape (rows, k*m), and b the regular
    representations of its entries, shape (k*m, cols*m), whose entry
    ((k, i), (c, l)) is digit l of b[k, c] * t^i; this temporary holds
    k*cols*m**2 codes.  In each case every factor is below p and
    dot_chunk(p) splits the inner dimension, k or k*m, so the bound holds
    unchanged.  The digit products hold the digits of the result, shape
    (rows, cols, m), recombined into codes.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    p, m, flip = F.p, F.deg, False
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
    out = (a @ b if k <= step else a[..., :step] @ b[:step]) % p
    for s in range(step, k, step):
        out = (out + (a[..., s:s + step] @ b[s:s + step]) % p) % p
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
        if not out.any():
            break
        out = mmul(F, out, out)
        if bit == "1" and out.any():
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
    while acc.any():
        if n >= a.shape[0]:
            return math.inf
        acc, n = mmul(F, a, acc), n + 1
    return n


# A GF(p) matrix of at most this many cells is reduced on Python ints
# (`_rref_ints`), a larger one by the numpy pivot step in `rref`.  A numpy
# pivot pays a fixed dispatch cost (a nonzero scan, `div`, a `submul`
# gather and scatter) that outweighs the arithmetic of a small matrix; the
# Python step pays per entry updated, so large dense systems keep numpy.
# The bound is read off the replay table of `python3 tools/kernel_bench.py`:
# the `rref` calls of one round of each benchmark workload, timed at each
# bound.  Milliseconds per replay, median of 15, 2-CPU Linux host,
# Python 3.11, numpy 2.4 ("np": all on numpy, "int": all GF(p) on ints):
#                      np     36    144    256    400    576    int
#   artinian-prime   86.2   57.4   44.4   40.5   38.2   36.0   34.7
#   pid-duality      11.4    9.9    8.4    7.5    7.4    7.3    7.9
#   extension-field  41.6   34.7   30.9   30.0   31.8   32.8   34.1
# The sum is flat within noise from 256 cells on; above that numpy still
# wins on the dense systems, such as pid-duality's 25 x 25 over GF(3)
# (about 350 against 550 us).  On uniformly random codes at large p the
# Python path is slower from about 64 cells (GF(4194301), 28 x 14: 694
# against 185 us in the tool's random table); no workload has such
# systems.  Both paths return the unique RREF, so the choice changes no
# output.
SMALL_RREF_CELLS = 400


def rref(F: FiniteField, a) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Over GF(p^m) a matrix whose codes are all below p lies in GF(p), which
    the pivot steps keep, so it is reduced by the ops of `F.prime`.  A
    GF(p) matrix of at most SMALL_RREF_CELLS cells is reduced on Python
    ints (`_rref_ints`).  Otherwise each pivot takes two field ops: one
    `div` normalises the pivot row, and one fused rank-1 `submul` clears
    the pivot column in every row nonzero there, the pivot row too, before
    the normalised row is written back.  Left of the pivot the pivot row is
    zero, so the update touches only columns from the pivot on."""
    a = np.asarray(a, dtype=np.int64)
    if F.deg > 1 and a.max(initial=0) < F.p:
        F = F.prime
    if F.deg == 1 and a.size <= SMALL_RREF_CELLS:
        return _rref_ints(F.p, a)
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


def _rref_ints(p: int, a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """`rref` over GF(p) by Gauss-Jordan on the rows as lists of Python
    ints: exact at any p, as Python ints do not overflow, and every code
    written back is reduced mod p."""
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
        if prow[col] != 1:
            inv = pow(prow[col], -1, p)
            prow = [x * inv % p for x in prow]
        rows[row] = prow
        for i, r in enumerate(rows):
            c = r[col]
            if c and i != row:
                rows[i] = [(x - c * y) % p for x, y in zip(r, prow)]
        pivots.append(col)
        row += 1
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols), tuple(pivots)


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
    aug = np.hstack([a, b2])
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


def kron(F: FiniteField, a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = F.mul(a[:, np.newaxis, :, np.newaxis], b[np.newaxis, :, np.newaxis, :])
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def vec(a) -> np.ndarray:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(a, dtype=np.int64).reshape(-1, order="F")


def unvec(v, r: int, c: int) -> np.ndarray:
    return np.asarray(v, dtype=np.int64).reshape(r, c, order="F")


def column_space(F: FiniteField, a) -> np.ndarray:
    """Canonical basis (columns) of the column space of `a`."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return zeros(a.shape[0], 0)
    r, pivots = rref(F, a.T)
    return r[: len(pivots)].T
