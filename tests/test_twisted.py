"""Semilinear operator calculus: composition, fixed points, stable rank."""

import itertools
import random

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge import twisted
from cartierforge.field import GF
from cartierforge.twisted import (TwistedOperator, change_basis,
                                  fixed_point_attainment, identity_operator,
                                  semilinear_fixed_points, stable_rank,
                                  twisted_compose)
from oracles import (apply_operator, attainment_search, operator_power,
                     rank_chain)


def test_identity_is_neutral():
    F = GF(3)
    rng = random.Random(0)
    a = TwistedOperator(F, 3, np.array([[1, 2], [0, 1]], dtype=np.int64), 1)
    e = identity_operator(F, 3, 2)
    assert np.array_equal(twisted_compose(a, e).mat, a.mat)
    assert np.array_equal(twisted_compose(e, a).mat, a.mat)


def test_compose_f4_example_against_evaluation():
    # (A, +1) o (B, +1) over F_4 = (A . B^(q), +2), checked on all of F_4^2
    F4 = GF(2, 2)
    A = mx.mat([[2, 1], [0, 3]])
    B = mx.mat([[1, 2], [3, 1]])
    a = TwistedOperator(F4, 2, A, 1)
    b = TwistedOperator(F4, 2, B, 1)
    c = twisted_compose(a, b)
    assert c.twist == 2
    assert np.array_equal(c.mat, mx.mmul(F4, A, F4.power(B, 2)))
    for v0, v1 in itertools.product(range(4), repeat=2):
        v = np.array([v0, v1], dtype=np.int64)
        assert np.array_equal(apply_operator(a, apply_operator(b, v)),
                              apply_operator(c, v))


def test_compose_associative():
    F4 = GF(2, 2)
    rng = random.Random(1)
    ops = [TwistedOperator(F4, 2,
                           np.array([[rng.randrange(4) for _ in range(2)]
                                     for _ in range(2)], dtype=np.int64),
                           rng.choice([-1, 0, 1]))
           for _ in range(3)]
    a, b, c = ops
    lhs = twisted_compose(twisted_compose(a, b), c)
    rhs = twisted_compose(a, twisted_compose(b, c))
    assert np.array_equal(lhs.mat, rhs.mat) and lhs.twist == rhs.twist


def test_nilpotent_composite_is_zero():
    # Fixture A kappa: K^2 = 0 under twisted composition
    F = GF(2)
    k = TwistedOperator(F, 2, mx.mat([[0, 0], [1, 0]]), -1)
    sq = twisted_compose(k, k)
    assert not sq.mat.any() and sq.twist == -2


def test_fixed_points_identity_is_fq():
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        F = GF(p, r)
        q = p ** r
        one = TwistedOperator(F, q, mx.identity(1), 1)
        for s in (1, 2, 3):
            rep = semilinear_fixed_points(one, s)
            assert rep.dim_fq == 1
            # the fixed set is exactly the embedded F_q
            emb = F.embedding(rep.ext_field)
            v = rep.basis[:, 0]
            fixed_set = {int(rep.ext_field.mul(v[0], emb[c])) for c in range(q)}
            assert fixed_set == {int(e) for e in emb}


def test_fixed_points_zero_operator():
    F = GF(2)
    z = TwistedOperator(F, 2, mx.zeros(2, 2), 1)
    assert semilinear_fixed_points(z, 2).dim_fq == 0


def test_fixed_points_f4_generator():
    # q=2, s=2, t=(g) with g generating F_4: solve g x^2 = x, dim_F2 = 1
    F4 = GF(2, 2)
    g = 2
    t = TwistedOperator(F4, 2, mx.mat([[g]]), 1)
    rep = semilinear_fixed_points(t, 2)
    assert rep.dim_fq == 1
    sols = [x for x in range(4) if int(F4.mul(np.int64(g), F4.power(np.int64(x), 2))) == x]
    assert len(sols) == 2   # {0, g^2}: a 1-dim F_2-space


def test_stable_rank_examples():
    F = GF(2)
    assert stable_rank(TwistedOperator(F, 2, mx.identity(3), 1)) == 3
    assert stable_rank(TwistedOperator(F, 2, mx.mat([[0, 0], [1, 0]]), -1)) == 0
    assert stable_rank(TwistedOperator(F, 2, mx.mat([[1, 0], [0, 0]]), 1)) == 1


def test_stable_rank_change_basis_invariant():
    rng = random.Random(3)
    F = GF(3)
    for _ in range(20):
        m = np.array([[rng.randrange(3) for _ in range(3)] for _ in range(3)],
                     dtype=np.int64)
        t = TwistedOperator(F, 3, m, 1)
        while True:
            pm = np.array([[rng.randrange(3) for _ in range(3)] for _ in range(3)],
                          dtype=np.int64)
            if mx.inverse(F, pm) is not None:
                break
        assert stable_rank(t) == stable_rank(change_basis(t, pm))


def test_change_basis_preserves_evaluation():
    F4 = GF(2, 2)
    rng = random.Random(7)
    m = np.array([[rng.randrange(4) for _ in range(2)] for _ in range(2)],
                 dtype=np.int64)
    t = TwistedOperator(F4, 2, m, 1)
    pm = mx.mat([[1, 1], [0, 1]])
    tb = change_basis(t, pm)
    for v0, v1 in itertools.product(range(4), repeat=2):
        v = np.array([v0, v1], dtype=np.int64)
        lhs = apply_operator(t, mx.mmul(F4, pm, v))
        rhs = mx.mmul(F4, pm, apply_operator(tb, v))
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2)])
def test_stable_rank_is_last_of_rank_chain(p, r):
    # one rank of the dim-fold composite, against every rank on the way
    F = GF(p, r)
    rng = random.Random(p * 10 + r)
    for q in (p, F.order):
        for twist in (-1, 0, 1):
            for d in range(5):
                for _ in range(4):
                    m = np.array([[rng.randrange(F.order) if rng.random() < 0.5 else 0
                                   for _ in range(d)] for _ in range(d)],
                                 dtype=np.int64).reshape(d, d)
                    t = TwistedOperator(F, q, m, twist)
                    assert stable_rank(t) == (rank_chain(t)[-1] if d else 0)


def test_rank_chain_monotone_and_stabilizes():
    rng = random.Random(9)
    F = GF(2)
    for _ in range(25):
        m = np.array([[rng.randrange(2) for _ in range(4)] for _ in range(4)],
                     dtype=np.int64)
        chain = rank_chain(TwistedOperator(F, 2, m, -1), 8)
        assert all(a >= b for a, b in zip(chain, chain[1:]))
        # constant after the first repeat
        for i in range(len(chain) - 1):
            if chain[i] == chain[i + 1]:
                assert all(c == chain[i] for c in chain[i + 1:])
                break


def test_fixed_point_dims_monotone_and_bounded_exhaustive_f2():
    # every 2x2 operator over F_2, twist +1: dims at s | s' are monotone,
    # bounded by the stable rank, and attained at the order of the core
    F = GF(2)
    for bits in range(16):
        m = np.array([[bits & 1, (bits >> 1) & 1],
                      [(bits >> 2) & 1, (bits >> 3) & 1]], dtype=np.int64)
        t = TwistedOperator(F, 2, m, 1)
        target = stable_rank(t)
        dims = {s: semilinear_fixed_points(t, s).dim_fq for s in (1, 2, 3, 4, 6)}
        for s, s2 in [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6)]:
            assert dims[s] <= dims[s2]
        assert all(d <= target for d in dims.values())
        attained = fixed_point_attainment(t)
        assert attained == attainment_search(t, 6) and dims[attained] == target


def test_attainment_of_a_fixed_line():
    F = GF(2)
    t = TwistedOperator(F, 2, mx.mat([[1]]), 1)
    assert fixed_point_attainment(t) == 1 == attainment_search(t, 1)
    # defined for twist +1 operators over F_q itself
    with pytest.raises(ValueError, match="twist \\+1 operators over F_q"):
        fixed_point_attainment(TwistedOperator(F, 2, mx.mat([[1]]), -1))
    with pytest.raises(ValueError, match="twist \\+1 operators over F_q"):
        fixed_point_attainment(TwistedOperator(GF(2, 2), 2, mx.mat([[1]]), 1))


def test_attainment_is_the_search_exhaustive_f3():
    # every 2x2 operator over F_3: the order of the bijective part is the
    # first degree at which the search over GF(3^s) reaches the stable rank
    F = GF(3)
    for entries in itertools.product(range(3), repeat=4):
        t = TwistedOperator(F, 3, mx.mat([entries[:2], entries[2:]]), 1)
        assert fixed_point_attainment(t) == attainment_search(t, 8)


@pytest.mark.parametrize("p,r,n,degree", [
    # g in GF(2^16), g a generator: the search would need GF(2^(16 s))
    (2, 16, 1, 2 ** 16 - 1),
    # the Jordan block J_3(g) over GF(27): lcm(26, 3)
    (3, 3, 3, 78),
])
def test_attainment_cost_guard(monkeypatch, p, r, n, degree):
    # the degree comes from powers of B over F_q alone: no extension field
    # is built, and the products stay within 2 log2(N) per power taken
    F = GF(p, r)
    b = F.generator * mx.identity(n) + np.eye(n, k=1, dtype=np.int64)
    calls = []
    real = mx.mmul
    monkeypatch.setattr(mx, "mmul", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(twisted, "GF", None)
    assert fixed_point_attainment(TwistedOperator(F, F.order, b, 1)) == degree
    assert len(calls) <= 200
    assert len(calls) <= 400


def test_change_basis_trivial_cases():
    F = GF(3)
    m = mx.mat([[1, 2], [0, 1]])
    t = TwistedOperator(F, 3, m, 1)
    # identity change of basis leaves the matrix alone
    assert np.array_equal(change_basis(t, mx.identity(2)).mat, m)
    # twist 0 is ordinary conjugation
    t0 = TwistedOperator(F, 3, m, 0)
    pm = mx.mat([[1, 1], [0, 1]])
    got = change_basis(t0, pm).mat
    pinv = mx.inverse(F, pm)
    want = mx.mmul(F, pinv, mx.mmul(F, m, pm))
    assert np.array_equal(got, want)
    import pytest
    with pytest.raises(ValueError):
        change_basis(t, mx.mat([[1, 1], [1, 1]]))   # singular over F_3? det=0
    with pytest.raises(ValueError):
        twisted_compose(t, TwistedOperator(F, 3, mx.zeros(3, 3), 1))
    with pytest.raises(ValueError):
        twisted_compose(t, TwistedOperator(GF(2), 2, mx.zeros(2, 2), 1))


def test_operator_power_matches_repeated_compose():
    F4 = GF(2, 2)
    t = TwistedOperator(F4, 2, mx.mat([[2, 1], [1, 0]]), 1)
    p3 = operator_power(t, 3)
    manual = twisted_compose(t, twisted_compose(t, t))
    assert np.array_equal(p3.mat, manual.mat) and p3.twist == manual.twist
