"""Field arithmetic: axioms, canonical moduli, embeddings, Frobenius."""

import hashlib

import numpy as np
import pytest

from cartierforge.field import (GF, FiniteField, _embedding_table,
                                canonical_modulus, is_prime)
from oracles import RefField, embedding_table_full_search, poly_mod, poly_mul


@pytest.mark.parametrize("p,deg", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_field_axioms_exhaustive(p, deg):
    F = GF(p, deg)
    els = F.elements()
    a = els[:, None] * np.ones_like(els)[None, :]
    b = np.ones_like(els)[:, None] * els[None, :]
    assert np.array_equal(F.add(a, b), F.add(b, a))
    assert np.array_equal(F.mul(a, b), F.mul(b, a))
    # distributivity on a sample grid
    for c in range(min(F.order, 6)):
        cc = np.full_like(a, c)
        assert np.array_equal(F.mul(cc, F.add(a, b)),
                              F.add(F.mul(cc, a), F.mul(cc, b)))
    nz = els[1:]
    assert np.array_equal(F.mul(nz, F.inv(nz)), np.ones_like(nz))


def test_canonical_modulus_deterministic():
    assert canonical_modulus(2, 2) == (1, 1, 1)
    assert canonical_modulus(2, 3) == (1, 1, 0, 1)
    assert canonical_modulus(3, 1) == (0, 1)
    # irreducibility spot check: no roots in the prime field
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        f = canonical_modulus(p, m)
        for x in range(p):
            acc = 0
            for c in reversed(f):
                acc = (acc * x + c) % p
            assert acc != 0


def test_frobenius_is_field_automorphism():
    F = GF(3, 2)
    els = F.elements()
    fa = F.frobenius(els)
    assert np.array_equal(F.frobenius(F.add(els[:, None], els[None, :])),
                          F.add(fa[:, None], fa[None, :]))
    assert np.array_equal(F.frobenius(F.mul(els[:, None], els[None, :])),
                          F.mul(fa[:, None], fa[None, :]))
    # order of Frobenius = deg
    assert np.array_equal(F.frobenius(F.frobenius(els)), els)


def test_embedding_is_a_ring_map():
    sub, sup = GF(2, 2), GF(2, 4)
    emb = sub.embedding(sup)
    els = sub.elements()
    assert emb[0] == 0 and emb[1] == 1
    for a in els:
        for b in els:
            assert emb[sub.add(a, b)] == sup.add(emb[a], emb[b])
            assert emb[sub.mul(a, b)] == sup.mul(emb[a], emb[b])
    # injectivity
    assert len(set(int(v) for v in emb)) == sub.order


def test_prime_field_embedding_is_identity_on_codes():
    sub, sup = GF(5), GF(5, 2)
    emb = sub.embedding(sup)
    assert np.array_equal(emb, np.arange(5))


def test_embedding_table_is_built_once_per_field_pair():
    # one read-only table per (p, deg, target deg), whichever constructor
    # made the fields; the cache holds exactly what the root search gives
    for (p, deg), tdeg in [((2, 2), 4), ((3, 1), 2), ((2, 3), 6), ((5, 2), 2)]:
        sub, sup = GF(p, deg), GF(p, tdeg)
        emb = sub.embedding(sup)
        assert not emb.flags.writeable
        with pytest.raises(ValueError):
            emb[0] = 1
        hits = _embedding_table.cache_info().hits
        assert FiniteField(p, deg).embedding(FiniteField(p, tdeg)) is emb
        assert sub.embedding(sup) is emb
        assert _embedding_table.cache_info().hits == hits + 2
        assert np.array_equal(_embedding_table.__wrapped__(p, deg, tdeg), emb)


# every (p, deg, target deg) with deg | target deg and target order <= 3^9
SUBFIELD_PAIRS = [(p, d, t) for p in (2, 3, 5, 7) for t in range(1, 15)
                  if p ** t <= 3 ** 9 for d in range(1, t + 1) if t % d == 0]


def test_embedding_root_search_in_the_subfield_matches_the_full_search():
    # the roots of the source modulus lie in the subfield of order p^deg,
    # so searching only there finds the same smallest root
    assert len(SUBFIELD_PAIRS) == 88
    for p, deg, tdeg in SUBFIELD_PAIRS:
        table = _embedding_table(p, deg, tdeg)
        assert np.array_equal(table, embedding_table_full_search(p, deg, tdeg)), (p, deg, tdeg)


@pytest.mark.parametrize("p,deg", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_embedding_into_itself_is_identity(p, deg):
    F = GF(p, deg)
    assert np.array_equal(F.embedding(F), F.elements())


def walk_log_tables(F):
    """The earlier table builder: walk the powers of each candidate g,
    one list-polynomial product at a time, until one has order q - 1."""
    p, n = F.p, F.order - 1

    def mul_code(a, b):
        da = [(a // p ** i) % p for i in range(F.deg)]
        db = [(b // p ** i) % p for i in range(F.deg)]
        prod = poly_mod(poly_mul(da, db, p), list(F.modulus), p)
        return sum(c * p ** i for i, c in enumerate(prod))

    for g in range(2, F.order):
        exp, e = [], 1
        for _ in range(n):
            exp.append(e)
            e = mul_code(e, g)
            if e == 1:
                break
        if len(exp) == n:
            log = np.zeros(F.order, dtype=np.int64)
            log[exp] = np.arange(n)
            return g, np.array(exp, dtype=np.int64), log
    raise AssertionError("no generator")


EXTENSIONS_UP_TO_3_7 = [(p, m) for p in range(2, 47) if is_prime(p)
                        for m in range(2, 12) if p ** m <= 3 ** 7]


@pytest.mark.parametrize("p,deg", EXTENSIONS_UP_TO_3_7)
def test_log_tables_match_power_walk(p, deg):
    F = GF(p, deg)
    g, exp, log = walk_log_tables(F)
    assert F.generator == g
    assert np.array_equal(F._exp, exp)
    assert np.array_equal(F._log, log)


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_regular_representation_table(p, deg):
    """Row i of (digits(x) @ _reg) % p, as a deg x deg block, is the digit
    vector of x * t^i for every element x; t^i has code p**i."""
    F, ref = GF(p, deg), RefField(GF(p, deg))
    els = F.elements()
    reg = ((F.digits(els) @ F._reg) % p).reshape(F.order, deg, deg)
    want = [[ref.poly(ref.mul(x, p ** i)) for i in range(deg)] for x in els]
    assert reg.tolist() == want


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (3, 3), (2039, 2)])
def test_digit_table_is_base_p_expansion(p, deg):
    F = GF(p, deg)
    codes = np.arange(F.order, dtype=np.int64)
    want = np.stack([(codes // p ** i) % p for i in range(deg)], axis=1)
    assert F._dig.flags.c_contiguous
    assert np.array_equal(F._dig, want)


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_mul_div_exhaustive_against_reference(p, deg):
    """Every pair of codes, 0 in either slot, through the zero-sentinel
    log tables; scalars as well as arrays."""
    F, ref = GF(p, deg), RefField(GF(p, deg))
    a, b = np.divmod(np.arange(F.order ** 2, dtype=np.int64), F.order)
    assert F.mul(a, b).tolist() == [ref.mul(x, y) for x, y in zip(a, b)]
    nz = b != 0
    assert F.div(a[nz], b[nz]).tolist() == [ref.div(x, y) for x, y in zip(a[nz], b[nz])]
    top = F.order - 1
    assert [int(F.mul(0, top)), int(F.mul(top, 0)), int(F.div(0, top))] == [0, 0, 0]
    assert int(F.mul(top, top)) == ref.mul(top, top)


def test_order_cap_names_the_field():
    with pytest.raises(ValueError, match=r"GF\(2\^23\) exceeds"):
        FiniteField(2, 23)
    with pytest.raises(ValueError, match=r"GF\(2039\^3\) exceeds"):
        FiniteField(2039, 3)
    # the order of GF(2^(10^6)) has 301,030 digits; it is never formed
    with pytest.raises(ValueError, match=r"GF\(2\^1000000\) exceeds"):
        FiniteField(2, 10 ** 6)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    sympy = pytest.importorskip("sympy")
    assert [is_prime(n) for n in range(-5, 5000)] == [
        bool(sympy.isprime(n)) for n in range(-5, 5000)]


def test_power_zero_and_negative_guard():
    F = GF(2, 2)
    els = F.elements()
    assert np.array_equal(F.power(els, 0), np.ones_like(els))
    with pytest.raises(ZeroDivisionError):
        F.inv(np.int64(0))


# -- the field tables, pinned --

EXTENSIONS_UP_TO_3_9 = [(p, m) for p in range(2, 140) if is_prime(p)
                        for m in range(2, 15) if p ** m <= 3 ** 9]


def field_tables_digest(fields):
    """SHA-256 over (p, m, modulus, generator, _reg, _exp, _log) of each
    field, the arrays as little-endian int64 bytes."""
    digest = hashlib.sha256()
    for p, m in fields:
        F = FiniteField(p, m)
        digest.update(repr((p, m, F.modulus, F.generator)).encode())
        for table in (F._reg, F._exp, F._log):
            digest.update(repr(table.shape).encode())
            digest.update(np.ascontiguousarray(table, dtype="<i8").tobytes())
    return digest.hexdigest()


def test_field_tables_are_pinned():
    # every extension of order at most 3**9: the modulus, the generator and
    # the product tables are bit for bit those of the list-polynomial build
    assert len(EXTENSIONS_UP_TO_3_9) == 66
    assert field_tables_digest(EXTENSIONS_UP_TO_3_9) == (
        "a95465fe0a37c9b9db10746084aaba937031e4a8c31dac48cbeec81621a53b33")


def test_canonical_modulus_is_least_irreducible():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def irreducible(coeffs, p):
        return sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible

    for p, m in EXTENSIONS_UP_TO_3_9:
        f = canonical_modulus(p, m)
        assert len(f) == m + 1 and f[-1] == 1
        assert irreducible(f, p)
        code = sum(c * p ** i for i, c in enumerate(f[:-1]))
        for smaller in range(code):
            digits = [(smaller // p ** i) % p for i in range(m)]
            assert not irreducible(digits + [1], p)
