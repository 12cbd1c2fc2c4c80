"""Dense exact linear algebra over a FiniteField.

Matrices are 2-D numpy int64 arrays of element codes; vectors are 1-D.
Row reduction is full Gauss-Jordan so kernels and solutions come out in
a canonical (deterministic) form.
"""

from __future__ import annotations

import math

import numpy as np

from .field import FiniteField


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


# Largest digit-array temporary (elements) of one GF(p^m) product chunk.
_EXT_CHUNK_ELEMS = 1 << 20


def dot_chunk(p: int) -> int:
    """Longest inner dimension k whose int64 dot products of codes in
    [0, p) are exact: k * (p - 1)**2 <= 2**63 - 1.  Under MAX_ORDER = 2**22
    this is at least 2**19."""
    return (2 ** 63 - 1) // (p - 1) ** 2


def mmul(F: FiniteField, a, b) -> np.ndarray:
    """Matrix product over F; exact.

    Over GF(p) this is delayed modular reduction: (a @ b) % p on int64,
    with the inner dimension split into chunks of dot_chunk(p) so that
    every partial sum stays below 2**63.  Over GF(p^m) the products of
    the whole (rows, k, cols) outer product are taken at once, their
    digit vectors summed over k and reduced mod p; k is split so that the
    digit temporary holds at most _EXT_CHUNK_ELEMS elements.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    a2 = a if a.ndim == 2 else a.reshape(1, a.shape[0])
    vec_in = b.ndim == 1
    b2 = b.reshape(b.shape[0], 1) if vec_in else b
    if a2.shape[1] != b2.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    rows, inner = a2.shape
    cols = b2.shape[1]
    if F.deg == 1:
        step = dot_chunk(F.p)
        out = (a2[:, :step] @ b2[:step]) % F.p
        for s in range(step, inner, step):
            out = (out + (a2[:, s:s + step] @ b2[s:s + step]) % F.p) % F.p
    else:
        step = max(1, _EXT_CHUNK_ELEMS // max(1, rows * cols * F.deg))
        acc = np.zeros((rows, cols, F.deg), dtype=np.int64)
        for s in range(0, inner, step):
            prod = F.mul(a2[:, s:s + step, np.newaxis], b2[np.newaxis, s:s + step])
            acc += F.digits(prod).sum(axis=1)
        out = F.from_digits(acc)
    if a.ndim == 1 and vec_in:
        return out[0, 0]
    if a.ndim == 1:
        return out[0]
    if vec_in:
        return out[:, 0]
    return out


def mat_pow(F: FiniteField, a: np.ndarray, n: int) -> np.ndarray:
    """a**n by left-to-right squaring from the leading bit of n: at most
    2*floor(log2 n) products, and always a fresh array."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix power needs a square matrix")
    if n == 0:
        return identity(a.shape[0])
    out = np.array(a, dtype=np.int64)
    for bit in bin(n)[3:]:
        out = mmul(F, out, out)
        if bit == "1":
            out = mmul(F, out, a)
    return out


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


def rref(F: FiniteField, a) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Each pivot takes two field ops: one `div` normalises the pivot row, and
    one fused rank-1 `submul` clears the pivot column in every row nonzero
    there, the pivot row too, before the normalised row is written back.
    Left of the pivot the pivot row is zero, so the update touches only
    columns from the pivot on."""
    r = np.array(a, dtype=np.int64)
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


def in_span(F: FiniteField, basis: np.ndarray, v) -> bool:
    return solve(F, basis, v) is not None
