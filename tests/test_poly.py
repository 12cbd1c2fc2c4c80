"""Polynomial arithmetic and Smith normal form over GF(q)[x]."""

import random

from cartierforge.field import GF
from cartierforge.poly import Poly, poly_mat, smith_normal_form
from oracles import determinantal_divisors


def test_poly_ring_ops():
    F = GF(3)
    a = Poly.make(F, [1, 2, 1])
    b = Poly.make(F, [2, 1])
    q, r = (a * b).divmod(b)
    assert q.coeffs == a.coeffs and r.is_zero()
    assert (a + (-a)).is_zero()
    assert a.gcd(b).is_unit() or a.gcd(b).lead() == 1


def test_divmod_random():
    rng = random.Random(0)
    F = GF(5)
    for _ in range(40):
        a = Poly.make(F, [rng.randrange(5) for _ in range(6)])
        b = Poly.make(F, [rng.randrange(5) for _ in range(4)])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert (q * b + r).coeffs == a.coeffs
        assert r.is_zero() or r.deg < b.deg


def test_smith_diagonal_examples():
    F = GF(2)
    x = Poly.x(F)
    d = smith_normal_form(F, [[x]])
    assert [p.coeffs for p in d] == [(0, 1)]
    d2 = smith_normal_form(
        F, [[x, Poly.zero(F)], [Poly.zero(F), x * x]])
    assert [p.coeffs for p in d2] == [(0, 1), (0, 0, 1)]
    # companion-style blow-up of (x): invariant factors (1, x)
    d3 = smith_normal_form(
        F, [[Poly.zero(F), x], [Poly.one(F), Poly.zero(F)]])
    assert [p.coeffs for p in d3] == [(1,), (0, 1)]


def test_smith_random_certified():
    rng = random.Random(6)
    for p in (2, 3):
        F = GF(p)
        for _ in range(40):
            n, m = rng.randrange(1, 4), rng.randrange(1, 4)
            rows = [[Poly.make(F, [rng.randrange(p) for _ in range(rng.randrange(4))])
                     for _ in range(m)] for _ in range(n)]
            d = smith_normal_form(F, rows)
            # d_1 ... d_k is the monic gcd of the k x k minors, for each k
            assert len(d) == min(n, m)
            prod = Poly.one(F)
            for dk, want in zip(d, determinantal_divisors(F, poly_mat(F, rows))):
                prod = prod * dk
                assert prod.coeffs == want.coeffs
            # monic with a divisibility chain
            for i in range(len(d) - 1):
                if d[i].is_zero():
                    assert d[i + 1].is_zero()
                elif not d[i + 1].is_zero():
                    assert (d[i + 1] % d[i]).is_zero()
            for di in d:
                assert di.is_zero() or di.lead() == 1


def test_smith_diag_unique_under_row_col_scrambles():
    # the diagonal is an invariant: scrambling by unimodular moves keeps it
    rng = random.Random(4)
    F = GF(3)
    x = Poly.x(F)
    base = [[x, Poly.zero(F)], [Poly.one(F), x * x]]
    d0 = smith_normal_form(F, base)
    for _ in range(10):
        rows = [row[:] for row in poly_mat(F, base)]
        # random row/col additions
        for _ in range(4):
            i, j = rng.sample(range(2), 2)
            f = Poly.make(F, [rng.randrange(3) for _ in range(2)])
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        d1 = smith_normal_form(F, rows)
        assert [p.coeffs for p in d0] == [p.coeffs for p in d1]
