"""Univariate polynomials over GF(q) and Smith normal form over GF(q)[x].

Coefficients are stored low-degree first; serialization uses the same
order.  Smith reduction tracks the row and column transforms together
with their inverses, so unimodularity is certified rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FiniteField


@dataclass(frozen=True)
class Poly:
    field: FiniteField
    coeffs: tuple   # low-first, no trailing zeros

    @staticmethod
    def make(field: FiniteField, coeffs) -> "Poly":
        c = [int(x) % field.order for x in coeffs]
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

    def __add__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly.make(F, [int(F.add(x, y)) for x, y in zip(a, b)])

    def __neg__(self):
        F = self.field
        return Poly(F, tuple(int(F.neg(c)) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = int(F.add(out[i + j], F.mul(a, b)))
        return Poly.make(F, out)

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
        F = self.field
        return Poly.make(F, [int(F.mul(x, c)) for x in self.coeffs])

    def shift(self, k: int):
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = int(F.inv(other.lead()))
        while len(rem) >= len(other.coeffs) and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            c = int(F.mul(rem[-1], inv_lead))
            shift = len(rem) - len(other.coeffs)
            q[shift] = c
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] = int(F.submul(rem[shift + i], c, oc))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly.make(F, q), Poly.make(F, rem)

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

    def eval(self, v):
        F = self.field
        out = np.int64(0)
        for c in reversed(self.coeffs):
            out = F.add(F.mul(out, v), np.int64(c))
        return out

    def derivative(self):
        F = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            k = i % F.p
            out.append(int(F.mul(c, np.int64(k))))
        return Poly.make(F, out)

    def q_decompose(self, q: int) -> list["Poly"]:
        """The unique g_0..g_{q-1} with self = sum_k g_k(x)^q * x^k.

        Valid because every coefficient of GF(q) is its own q-th root.
        """
        if q != self.field.order:
            raise ValueError("q-decomposition requires coefficients in GF(q)")
        out = []
        for k in range(q):
            out.append(Poly.make(self.field, list(self.coeffs[k::q])))
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}" if i == 0 else (f"x^{i}" if c == 1 else f"{c}x^{i}"))
        return "+".join(parts)


def poly_mat(field, rows) -> list[list[Poly]]:
    return [[e if isinstance(e, Poly) else Poly.make(field, e) for e in row]
            for row in rows]


def _pm_id(field, n):
    return [[Poly.one(field) if i == j else Poly.zero(field) for j in range(n)]
            for i in range(n)]


def smith_normal_form(field: FiniteField, pres) -> tuple:
    """Smith normal form over GF(q)[x].

    Returns (diag, U, V, U_inv, V_inv) with U @ pres @ V diagonal, the
    diagonal monic with each entry dividing the next, and U, V unimodular
    (their tracked inverses certify this).
    """
    a = [row[:] for row in poly_mat(field, pres)]
    n = len(a)
    m = len(a[0]) if n else 0
    U, Ui = _pm_id(field, n), _pm_id(field, n)
    V, Vi = _pm_id(field, m), _pm_id(field, m)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        Ui_cols(i, j)

    def Ui_cols(i, j):
        for r in range(n):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def row_add(dst, src, f: Poly):
        # row_dst += f * row_src
        for c in range(m):
            a[dst][c] = a[dst][c] + f * a[src][c]
        for c in range(n):
            U[dst][c] = U[dst][c] + f * U[src][c]
        for r in range(n):
            Ui[r][src] = Ui[r][src] - f * Ui[r][dst]

    def col_add(dst, src, f: Poly):
        for r in range(n):
            a[r][dst] = a[r][dst] + f * a[r][src]
        for r in range(m):
            V[r][dst] = V[r][dst] + f * V[r][src]
        for c in range(m):
            Vi[src][c] = Vi[src][c] - f * Vi[dst][c]

    def row_scale(i, c):
        inv = field.inv(np.int64(c))
        for col in range(m):
            a[i][col] = a[i][col].scale(np.int64(c))
        for col in range(n):
            U[i][col] = U[i][col].scale(np.int64(c))
        for r in range(n):
            Ui[r][i] = Ui[r][i].scale(inv)

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
                    row_swap(t, best[0])
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
    diag = []
    for t in range(min(n, m)):
        d = a[t][t]
        if not d.is_zero() and d.lead() != 1:
            row_scale(t, int(field.inv(d.lead())))
            d = a[t][t]
        diag.append(a[t][t])
    return diag, U, V, Ui, Vi
