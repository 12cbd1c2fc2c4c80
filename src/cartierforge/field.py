"""Exact arithmetic in finite fields GF(p^m).

Elements are encoded as integers in [0, p^m): the code sum(d_i * p^i)
stands for sum(d_i * t^i) in GF(p)[t]/(f), where f is the canonical
modulus for (p, m) -- the lexicographically smallest monic irreducible
polynomial of degree m over GF(p).  The modulus is deterministic, so a
code means the same element in every run; reports serialize it.

GF(p^m) is built from the companion matrix C of f with the GF(p) kernels
of `matrix`: the modulus search is Rabin's test on powers of C, the
regular-representation table `_reg` holds the digits of C^s e_0 = t^s,
and the generator test and the log-table doubling take powers of the
multiplication matrices that `matrix.mmul` reads off `_reg`.

The codes below p are the prime field GF(p), with GF(p) arithmetic; the
kernels of `matrix` reach it through the handle `prime`.  `mul` and `div`
are one gather from zero-sentinel log/exp tables, 5q int64 beside the
q*m digit table, plus q for Zech logarithms once a small kernel runs.

All operations accept plain ints or numpy arrays of codes and are exact.
"""

from __future__ import annotations

import functools

import numpy as np

from . import matrix as mx

# Tables are O(field order); desk-scale guard.
MAX_ORDER = 1 << 22
# Standard monomials of a ring (its box below the pure powers): a dim x dim
# int64 matrix over the ring takes at most 128 MiB.
MAX_RING_DIM = 1 << 12


def order_fits(p: int, deg: int) -> bool:
    """Whether p**deg <= MAX_ORDER; p**deg is formed only when deg is below
    the bit length of MAX_ORDER, where it is small."""
    return deg < MAX_ORDER.bit_length() and p ** deg <= MAX_ORDER


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """The distinct prime divisors of n, ascending; none for n < 2."""
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


def _companion(p: int, low) -> np.ndarray:
    """The companion matrix C of f = t^m + sum(low[i] t^i) over GF(p):
    column i holds the digits of t * t^i mod f, so C^s e_0 holds the
    digits of t^s mod f."""
    m = len(low)
    c = mx.zeros(m, m)
    c[1:, :-1] = mx.identity(m - 1)
    c[:, -1] = (-np.asarray(low, dtype=np.int64)) % p
    return c


def _has_root(powers: np.ndarray, p: int, low) -> bool:
    """Whether f = t^m + sum(low[i] t^i) vanishes at one of x = 1 .. p - 1
    in GF(p), `powers` the x^i for i <= m: one product, exact as x^i is
    below p^m <= MAX_ORDER."""
    return np.count_nonzero(powers @ (*low, 1) % p) < len(powers)


@functools.lru_cache(maxsize=None)
def canonical_modulus(p: int, m: int) -> tuple:
    """Smallest monic irreducible of degree m over GF(p), low-first coeffs.

    The codes 0, 1, ... give the low coefficients, digit i of the code
    being the coefficient of t^i.  f is accepted by Rabin's test on its
    companion matrix C: C^(p^m) = C, and C^(p^(m/l)) - C is invertible for
    each prime l | m.  The minimal polynomial of C is f, so g(C) = 0 iff
    f | g, and g(C) is invertible iff gcd(g, f) = 1: these are Rabin's
    conditions f | t^(p^m) - t and gcd(t^(p^(m/l)) - t, f) = 1.  A
    candidate with a root in GF(p) has a linear factor and is passed over
    before any matrix power.  Degree 1 returns t before any matrix work, so
    GF(p) never needs itself.
    """
    if m == 1:
        return (0, 1)
    fp = GF(p)
    powers = np.vander(np.arange(1, p, dtype=np.int64), m + 1, increasing=True)
    for code in (c for c in range(p ** m) if c % p):    # f(0) = 0 means t | f
        low = [(code // p ** i) % p for i in range(m)]
        if _has_root(powers, p, low):
            continue
        c = _companion(p, low)
        if (mx.equal(mx.mat_pow(fp, c, p ** m), c)
                and all(mx.is_invertible(fp, fp.sub(mx.mat_pow(fp, c, p ** (m // ell)), c))
                        for ell in _prime_factors(m))):
            return (*low, 1)
    raise RuntimeError("no irreducible polynomial found")


class FiniteField:
    """GF(p^deg) with integer-coded elements and vectorized numpy ops."""

    def __init__(self, p: int, deg: int = 1):
        # the cap first: trial division costs sqrt(p)
        if deg < 1:
            raise ValueError("deg must be >= 1")
        if not order_fits(p, deg):
            raise ValueError(f"GF({p}^{deg}) exceeds the desk-scale cap {MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.deg = deg
        self.order = p ** deg
        self.prime = GF(p) if deg > 1 else self
        self.modulus = canonical_modulus(p, deg)
        self._pw = p ** np.arange(deg, dtype=np.int64)
        if deg > 1:
            # _dig[c, i] is digit i of code c: np.indices counts with the
            # last axis fastest, so reversing the axes puts digit 0 first
            self._dig = np.ascontiguousarray(
                np.indices((p,) * deg, dtype=np.int64).reshape(deg, -1)[::-1].T)
            # _reg[j, (i, l)] is digit l of t^(i+j) mod f, so that
            # (digits(b) @ _reg) % p holds the digits of b * t^i for each
            # i < deg: the regular representation of b over GF(p), by which
            # matrix.mmul multiplies over GF(p^m).  Row s of tpow is C^s e_0,
            # the digits of t^s mod f: e_s for s < deg, and column s - deg
            # of C^deg, since C^deg e_i = C^(deg+i) e_0
            c = _companion(p, self.modulus[:-1])
            tpow = np.concatenate([mx.identity(deg), mx.mat_pow(GF(p), c, deg).T[:deg - 1]])
            ij = np.add.outer(np.arange(deg), np.arange(deg))
            self._reg = tpow[ij].reshape(deg, deg * deg)
            self._build_log_tables()
        else:
            self._dig = None
            self._build_prime_inverse()

    # -- table construction --

    def _build_log_tables(self):
        n, p, m, fp = self.order - 1, self.p, self.deg, GF(self.p)

        def times(c):
            # multiplication by c on digit vectors, column i the digits of
            # c t^i: the regular representation that matrix.mmul uses
            return ((self._dig[c] @ self._reg) % p).reshape(m, m).T

        # the least g >= 2 of order q - 1: times(g)**((q-1)/l) != I for
        # each prime l | q - 1, as times(g)**k = times(g**k).  The search
        # starts at p: the codes below p are GF(p), of order dividing p - 1
        ells, one = _prime_factors(n), mx.identity(m)
        g = next(c for c in range(p, self.order)
                 if not any(mx.equal(mx.mat_pow(fp, times(c), n // ell), one)
                            for ell in ells))
        # mul is multiplication by g^k, so exp[k:2k] = exp[:k] * g^k is one
        # product per doubling
        mul = times(g)
        exp = np.ones(n, dtype=np.int64)
        k = 1
        while k < n:
            step = min(k, n - k)
            exp[k:k + step] = mx.mmul(fp, self._dig[exp[:step]], mul.T) @ self._pw
            mul = mx.mmul(fp, mul, mul)
            k += step
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n, dtype=np.int64)
        self._exp, self._log, self.generator = exp, log, g
        # zero sentinels: a sum of two logs is below 2n exactly when neither
        # factor is 0, and the zeros reach index 4n, where both are
        self._logz = np.where(np.arange(self.order) == 0, 2 * n, log)
        self._expz = np.concatenate([exp, exp, np.zeros(2 * n + 1, dtype=np.int64)])

    @functools.cached_property
    def _zech_tables(self) -> tuple:
        """(n = q - 1, log, exp, zech, log(-1)) for the Python-int kernels of
        `matrix`, as memoryviews over `_log`, `_expz` and zech[k] = log(1 +
        g^k), -1 where 1 + g^k = 0; adding 1 changes only digit 0."""
        e, p = self._exp, self.p
        s = e - e % p + (e % p + 1) % p
        zech = np.where(s == 0, -1, self._log[s])
        return (self.order - 1, memoryview(self._log), memoryview(self._expz),
                memoryview(zech), int(self._log[p - 1]))

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
        int64, where |a - b*c| < p**2 <= 2**44 under MAX_ORDER; over
        GF(p^m) one digit-table expression, b*c by the Zech tables."""
        if self.deg == 1:
            return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64) * c) % self.p
        bc = self._expz[self._logz[b] + self._logz[c]]
        return ((self._dig[a] - self._dig[bc]) % self.p) @ self._pw

    def mul(self, a, b):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.deg == 1:
            return (a * b) % self.p
        return self._expz[self._logz[a] + self._logz[b]]

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        """Elementwise a / b; raises ZeroDivisionError if any b is 0."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if np.count_nonzero(b) < b.size:
            raise ZeroDivisionError("division by 0 in finite field")
        if self.deg == 1:
            return (a * self._inv_table[b]) % self.p
        # b != 0, so the index is below 2(q-1) exactly when a != 0
        return self._expz[self._logz[a] - self._logz[b] + (self.order - 1)]

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
        this field's modulus in `target`; deterministic across runs.  The
        table is built once per field pair and is read-only.
        """
        if target.p != self.p or target.deg % self.deg != 0:
            raise ValueError("no embedding: degree does not divide target degree")
        return _embedding_table(self.p, self.deg, target.deg)

    def __repr__(self):
        return f"GF({self.p}^{self.deg})" if self.deg > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.deg == other.deg)

    def __hash__(self):
        return hash((self.p, self.deg))


@functools.lru_cache(maxsize=None)
def _embedding_table(p: int, deg: int, target_deg: int) -> np.ndarray:
    """The table of GF(p^deg).embedding(GF(p^target_deg)): the code of
    digits d_i goes to sum d_i r^i, r the smallest root of the modulus in
    the target, so the table is one GF(p) product of the digit table with
    the digits of r^i.  For deg = 1 (root 0) or deg = target_deg (root t:
    codes below p are the prime field) it is the identity.  Otherwise the
    roots lie in the target's one subfield of order p^deg, whose nonzero
    elements are the powers g^(k (p^target_deg - 1) / (p^deg - 1)) of its
    generator (f(0) != 0); each, sorted, is evaluated as the digits of
    x^0 .. x^deg weighted by the modulus."""
    src, target = GF(p, deg), GF(p, target_deg)
    if deg in (1, target_deg):
        table = np.arange(src.order, dtype=np.int64)
    else:
        n = target.order - 1
        cand = np.sort(target._exp[::n // (src.order - 1)])
        powers = target._dig[target._exp[np.outer(target._log[cand], np.arange(deg + 1)) % n]]
        roots = np.flatnonzero(~((np.array(src.modulus) @ powers) % p).any(axis=1))
        if roots.size == 0:
            raise RuntimeError("modulus has no root in target field")
        table = mx.mmul(GF(p), src._dig, powers[roots[0], :deg]) @ target._pw
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def GF(p: int, deg: int = 1) -> FiniteField:
    """Cached constructor for the canonical GF(p^deg)."""
    return FiniteField(p, deg)
