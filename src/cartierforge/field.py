"""Exact arithmetic in finite fields GF(p^m).

Elements are encoded as integers in [0, p^m): the code sum(d_i * p^i)
stands for sum(d_i * t^i) in GF(p)[t]/(f), where f is the canonical
modulus for (p, m) -- the lexicographically smallest monic irreducible
polynomial of degree m over GF(p).  The modulus is deterministic, so a
code means the same element in every run; reports serialize it.

All operations accept plain ints or numpy arrays of codes and are exact.
"""

from __future__ import annotations

import functools

import numpy as np

# Tables are O(field order); desk-scale guard.
MAX_ORDER = 1 << 22


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- dense polynomial helpers over GF(p), coefficient lists low-first --

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a = _ptrim(a)
    return a


def _ppowmod(a, e, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _ptrim(out)


def _is_irreducible(f, p):
    # Rabin's test: x^(p^m) == x mod f, and gcd(x^(p^(m/l)) - x, f) = 1
    # for every prime l dividing m.
    m = len(f) - 1
    x = [0, 1]
    if _psub(_ppowmod(x, p ** m, f, p), _pmod(x, f, p), p):
        return False
    for ell in range(2, m + 1):
        if m % ell == 0 and is_prime(ell):
            diff = _psub(_ppowmod(x, p ** (m // ell), f, p), _pmod(x, f, p), p)
            if not diff or len(_pgcd(f, diff, p)) > 1:
                return False
    return True


@functools.lru_cache(maxsize=None)
def canonical_modulus(p: int, m: int) -> tuple:
    """Smallest monic irreducible of degree m over GF(p), low-first coeffs."""
    if m == 1:
        return (0, 1)
    for code in range(p ** m):
        f = []
        c = code
        for _ in range(m):
            f.append(c % p)
            c //= p
        f.append(1)
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found")


class FiniteField:
    """GF(p^deg) with integer-coded elements and vectorized numpy ops."""

    def __init__(self, p: int, deg: int = 1):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if deg < 1:
            raise ValueError("deg must be >= 1")
        order = p ** deg
        if order > MAX_ORDER:
            raise ValueError(f"field order {order} exceeds desk-scale cap {MAX_ORDER}")
        self.p = p
        self.deg = deg
        self.order = order
        self.modulus = canonical_modulus(p, deg)
        self._pw = p ** np.arange(deg, dtype=np.int64)
        if deg > 1:
            digits = np.zeros((order, deg), dtype=np.int64)
            codes = np.arange(order, dtype=np.int64)
            for i in range(deg):
                digits[:, i] = (codes // self._pw[i]) % p
            self._dig = digits
            self._build_log_tables()
        else:
            self._dig = None
            self._build_prime_inverse()

    # -- table construction --

    def _build_log_tables(self):
        n, p, m, f = self.order - 1, self.p, self.deg, list(self.modulus)

        def poly(c):
            return _ptrim([int(d) for d in self._dig[c]])

        # the least g >= 2 of order q - 1: g**((q-1)/l) != 1 for each prime
        # l | q - 1, with the powers taken as polynomials mod f
        ells = _prime_factors(n)
        g = next((c for c in range(2, self.order)
                  if all(_ppowmod(poly(c), n // ell, f, p) != [1] for ell in ells)),
                 None)
        if g is None:
            raise RuntimeError("no multiplicative generator found")
        # mul is multiplication by g^k on digit vectors (column i: the
        # digits of g^k t^i), so exp[k:2k] = exp[:k] * g^k is one product
        # per doubling; its sums stay below deg * p**2 <= 2**27 under MAX_ORDER
        mul = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            col = _pmod([0] * i + poly(g), f, p)
            mul[:len(col), i] = col
        exp = np.ones(n, dtype=np.int64)
        k = 1
        while k < n:
            step = min(k, n - k)
            exp[k:k + step] = ((self._dig[exp[:step]] @ mul.T) % p) @ self._pw
            mul = (mul @ mul) % p
            k += step
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n, dtype=np.int64)
        self._exp, self._log, self.generator = exp, log, g

    def _build_prime_inverse(self):
        p = self.p
        inv = self.power(np.arange(p, dtype=np.int64), p - 2)
        inv[0] = 0
        self._inv_table = inv
        # the least g >= 2 of order p - 1: g**((p-1)/l) != 1 for each prime l | p - 1
        n = p - 1
        ells = _prime_factors(n)
        self.generator = next((g for g in range(2, p)
                               if all(pow(g, n // ell, p) != 1 for ell in ells)), 1)

    # -- element ops (ints or numpy arrays of codes) --

    def add(self, a, b):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.deg == 1:
            return (a + b) % self.p
        return ((self._dig[a] + self._dig[b]) % self.p) @ self._pw

    def neg(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.deg == 1:
            return (-a) % self.p
        return (-self._dig[a] % self.p) @ self._pw

    def sub(self, a, b):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.deg == 1:
            return (a - b) % self.p
        return ((self._dig[a] - self._dig[b]) % self.p) @ self._pw

    def submul(self, a, b, c):
        """Elementwise a - b*c.  Over GF(p) this is one (a - b*c) % p on
        int64, where |a - b*c| < p**2 <= 2**44 under MAX_ORDER."""
        a = np.asarray(a, dtype=np.int64)
        if self.deg == 1:
            return (a - np.asarray(b, dtype=np.int64) * c) % self.p
        return self.sub(a, self.mul(b, c))

    def mul(self, a, b):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.deg == 1:
            return (a * b) % self.p
        out = self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        """Elementwise a / b; raises ZeroDivisionError if any b is 0."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if np.count_nonzero(b) < b.size:
            raise ZeroDivisionError("division by 0 in finite field")
        if self.deg == 1:
            return (a * self._inv_table[b]) % self.p
        out = self._exp[(self._log[a] - self._log[b]) % (self.order - 1)]
        return np.where(a == 0, 0, out)

    def power(self, a, t: int):
        """Elementwise a**t (t >= 0); vectorized, exact."""
        a = np.asarray(a, dtype=np.int64)
        if t == 0:
            return np.ones_like(a)
        if self.deg == 1:
            # a**t = a**t' with t' = (t - 1) % (p - 1) + 1 in [1, p - 1], also
            # for a = 0; square-and-multiply keeps products below p**2 <= 2**44.
            t = (t - 1) % (self.p - 1) + 1
            out, base = np.ones_like(a), a % self.p
            while t:
                if t & 1:
                    out = (out * base) % self.p
                t >>= 1
                if t:
                    base = (base * base) % self.p
            return out
        out = self._exp[(self._log[a] * (t % (self.order - 1))) % (self.order - 1)]
        return np.where(a == 0, 0, out)

    def frobenius(self, a, k: int = 1):
        """Elementwise a**(p^k); the absolute Frobenius iterated k times."""
        return self.power(a, self.p ** k)

    def digits(self, a):
        """Coefficient vector(s) of codes, low-degree first, shape (..., deg)."""
        a = np.asarray(a, dtype=np.int64)
        if self.deg == 1:
            return a[..., np.newaxis]
        return self._dig[a]

    def from_digits(self, d):
        d = np.asarray(d, dtype=np.int64) % self.p
        return d @ self._pw

    def elements(self):
        return np.arange(self.order, dtype=np.int64)

    def embedding(self, target: "FiniteField") -> np.ndarray:
        """Lookup table embedding this field into `target` (same p, deg | deg).

        The embedding sends the canonical generator t to the smallest root of
        this field's modulus in `target`; deterministic across runs.
        """
        if target.p != self.p or target.deg % self.deg != 0:
            raise ValueError("no embedding: degree does not divide target degree")
        if target.deg == self.deg:
            return np.arange(self.order, dtype=np.int64)
        mod = np.array(self.modulus, dtype=np.int64) % self.p
        cand = target.elements()
        vals = np.zeros(target.order, dtype=np.int64)
        for c in mod[::-1]:
            vals = target.add(target.mul(vals, cand), np.full(target.order, c))
        roots = np.nonzero(vals == 0)[0]
        if len(roots) == 0:
            raise RuntimeError("modulus has no root in target field")
        root = np.int64(roots[0])
        table = np.zeros(self.order, dtype=np.int64)
        powers = np.zeros(self.deg, dtype=np.int64)
        acc = np.int64(1)
        for i in range(self.deg):
            powers[i] = acc
            acc = target.mul(acc, root)
        dig = self.digits(self.elements())
        for i in range(self.deg):
            table = target.add(table, target.mul(dig[:, i], powers[i]))
        return table

    def __repr__(self):
        return f"GF({self.p}^{self.deg})" if self.deg > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.deg == other.deg)

    def __hash__(self):
        return hash((self.p, self.deg))


@functools.lru_cache(maxsize=None)
def GF(p: int, deg: int = 1) -> FiniteField:
    """Cached constructor for the canonical GF(p^deg)."""
    return FiniteField(p, deg)
