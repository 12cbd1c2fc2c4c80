"""Field arithmetic: axioms, canonical moduli, embeddings, Frobenius."""

import numpy as np
import pytest

from cartierforge.field import (GF, _pmod, _pmul, canonical_modulus,
                                is_prime)


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


def walk_log_tables(F):
    """The earlier table builder: walk the powers of each candidate g,
    one list-polynomial product at a time, until one has order q - 1."""
    p, n = F.p, F.order - 1

    def mul_code(a, b):
        da = [(a // p ** i) % p for i in range(F.deg)]
        db = [(b // p ** i) % p for i in range(F.deg)]
        prod = _pmod(_pmul(da, db, p), list(F.modulus), p)
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


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_power_zero_and_negative_guard():
    F = GF(2, 2)
    els = F.elements()
    assert np.array_equal(F.power(els, 0), np.ones_like(els))
    with pytest.raises(ZeroDivisionError):
        F.inv(np.int64(0))
