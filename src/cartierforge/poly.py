"""Univariate polynomials over GF(q) and Smith normal form over GF(q)[x].

Coefficients are int codes, low-degree first with no trailing zeros, as
serialized.  Each operation is one call on int64 coefficient arrays: `+`,
`-`, negation, `scale` and `derivative` one `FiniteField` vector op, `*`
one `matrix.mmul` of a Toeplitz matrix by a vector, `divmod` one `submul`
per quotient coefficient.  `tests/oracles.py` holds the per-coefficient
reference of each and checks the Smith diagonal by the gcds of the minors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .field import FiniteField


@dataclass(frozen=True)
class Poly:
    field: FiniteField
    coeffs: tuple   # low-first, no trailing zeros

    @staticmethod
    def make(field: FiniteField, coeffs) -> "Poly":
        return Poly._trim(field, [int(x) % field.order for x in coeffs])

    @staticmethod
    def _trim(field: FiniteField, c: list) -> "Poly":
        """The Poly of a low-first list of reduced codes."""
        while c and c[-1] == 0:
            c.pop()
        return Poly(field, tuple(c))

    @staticmethod
    def zero(field):
        return Poly(field, ())

    @staticmethod
    def one(field):
        return Poly(field, (1,))

    @staticmethod
    def x(field, k: int = 1):
        return Poly(field, (0,) * k + (1,))

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1   # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    def lead(self):
        return self.coeffs[-1] if self.coeffs else 0

    def _vec(self, n: int = 0) -> np.ndarray:
        """The coefficients as a fresh int64 array, zero-padded to length n."""
        out = np.zeros(max(n, len(self.coeffs)), dtype=np.int64)
        out[:len(self.coeffs)] = self.coeffs
        return out

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly._trim(self.field, self.field.add(self._vec(n), other._vec(n)).tolist())

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly._trim(self.field, self.field.sub(self._vec(n), other._vec(n)).tolist())

    def __neg__(self):
        return Poly(self.field, tuple(self.field.neg(self._vec()).tolist()))

    def __mul__(self, other):
        """One `mmul`: the Toeplitz matrix of the longer factor, one column
        per coefficient of the shorter, times the shorter's coefficients."""
        a, b = (self, other) if len(self.coeffs) >= len(other.coeffs) else (other, self)
        if b.is_zero():
            return b
        col, k = a._vec(), len(b.coeffs)
        t = mx.zeros(len(col) + k - 1, k)
        for j in range(k):
            t[j:j + len(col), j] = col
        return Poly._trim(self.field, mx.mmul(self.field, t, b._vec()[:, None])[:, 0].tolist())

    def __pow__(self, n: int):
        """self**n (n >= 0) by square-and-multiply."""
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = Poly.one(self.field), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c):
        return Poly._trim(self.field, self.field.mul(self._vec(), c).tolist())

    def divmod(self, other):
        """Long division by the monic d = other / lead: one `submul` of d
        times the top coefficient per quotient coefficient, the quotient
        scaled back by 1 / lead at the end."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F, k = self.field, other.deg
        inv = F.inv(other.lead())
        d, rem = F.mul(other._vec(), inv), self._vec()
        q = np.zeros(max(0, len(rem) - k), dtype=np.int64)
        for s in range(len(q) - 1, -1, -1):
            q[s] = c = rem[s + k]
            if c:
                rem[s:s + k + 1] = F.submul(rem[s:s + k + 1], c, d)
        return Poly._trim(F, F.mul(q, inv).tolist()), Poly._trim(F, rem[:k].tolist())

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lead()))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        """The coefficients i c_i, i the prime-field code i % p."""
        F, c = self.field, self._vec()[1:]
        return Poly._trim(F, F.mul(c, np.arange(1, len(c) + 1) % F.p).tolist())

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}" if i == 0 else (f"x^{i}" if c == 1 else f"{c}x^{i}"))
        return "+".join(parts)


def smith_normal_form(field: FiniteField, pres) -> list[Poly]:
    """The Smith diagonal of a matrix of Polys: min(n, m) entries, monic,
    each dividing the next, reached by unimodular row and column moves."""
    a = [list(row) for row in pres]
    n = len(a)
    m = len(a[0]) if n else 0

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    def row_add(dst, src, f: Poly):
        # row_dst += f * row_src
        for c in range(m):
            a[dst][c] = a[dst][c] + f * a[src][c]

    def col_add(dst, src, f: Poly):
        for r in range(n):
            a[r][dst] = a[r][dst] + f * a[r][src]

    for t in range(min(n, m)):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    if not a[i][j].is_zero():
                        if best is None or a[i][j].deg < a[best[0]][best[1]].deg:
                            best = (i, j)
            if best is None:
                break
            if best != (t, t):
                if best[0] != t:
                    a[t], a[best[0]] = a[best[0]], a[t]
                if best[1] != t:
                    col_swap(t, best[1])
            dirty = False
            for i in range(t + 1, n):
                if not a[i][t].is_zero():
                    q, _ = a[i][t].divmod(a[t][t])
                    row_add(i, t, -q)
                    if not a[i][t].is_zero():
                        dirty = True
            for j in range(t + 1, m):
                if not a[t][j].is_zero():
                    q, _ = a[t][j].divmod(a[t][t])
                    col_add(j, t, -q)
                    if not a[t][j].is_zero():
                        dirty = True
            if dirty:
                continue
            fix = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if not (a[i][j] % a[t][t]).is_zero():
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_add(t, fix, Poly.one(field))
    return [a[t][t].monic() for t in range(min(n, m))]
