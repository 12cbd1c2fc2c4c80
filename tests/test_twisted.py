"""Sol at the point: the semilinear action of a matrix, its fixed points,
stable rank and attainment."""

import itertools
import random

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge import twisted
from cartierforge.artinian import fin_module, ring_make
from cartierforge.duality import sol_point
from cartierforge.field import GF
from cartierforge.structures import FROBENIUS, structured
from cartierforge.twisted import fixed_point_attainment, semilinear_fixed_points
from oracles import attainment_search, operator_power, rank_chain


def point_f_module(F, t):
    """The Frobenius module over the point GF(q) with structure matrix t."""
    return structured(FROBENIUS, fin_module(ring_make(F, [], []), [], len(t)), t)


def random_matrix(rng, F, d):
    return np.array([[rng.randrange(F.order) for _ in range(d)] for _ in range(d)],
                    dtype=np.int64).reshape(d, d)


def random_invertible(rng, F, d):
    while True:
        pm = random_matrix(rng, F, d)
        if mx.inverse(F, pm) is not None:
            return pm


def test_compose_f4_example_against_evaluation():
    # v -> A v^q after v -> B v^q over F_4 (q = 4) is v -> (A B) v^(q^2):
    # the q-power map fixes the entries of B.  Checked on all of GF(16)^2
    F4, ext = GF(2, 2), GF(2, 4)
    A = mx.mat([[2, 1], [0, 3]])
    B = mx.mat([[1, 2], [3, 1]])
    emb = F4.embedding(ext)
    v = np.array(list(itertools.product(range(16), repeat=2)), dtype=np.int64).T

    def act(t, w):
        return mx.mmul(ext, emb[t], ext.power(w, 4))
    assert np.array_equal(act(A, act(B, v)),
                          mx.mmul(ext, emb[mx.mmul(F4, A, B)], ext.power(v, 16)))


def test_operator_power_matches_repeated_compose():
    # the k-fold composite has matrix T^k: the oracle's power, one factor
    # at a time, against the `mx.mat_pow` that `sol_point` takes
    F4 = GF(2, 2)
    t = mx.mat([[2, 1], [1, 0]])
    for n in range(6):
        assert np.array_equal(operator_power(F4, t, n), mx.mat_pow(F4, t, n))


def test_stable_rank_change_basis_invariant():
    # a change of basis P (entries in F_q, so P^q = P) turns T into
    # P^-1 T P; Sol and the stable rank stay the same
    rng = random.Random(3)
    F = GF(3)
    for _ in range(20):
        t, pm = random_matrix(rng, F, 3), random_invertible(rng, F, 3)
        tb = mx.mmul(F, mx.inverse(F, pm), mx.mmul(F, t, pm))
        a, b = (sol_point(point_f_module(F, m), 2) for m in (t, tb))
        assert (a.dim_fq, a.geometric_dim) == (b.dim_fq, b.geometric_dim)


def test_change_basis_preserves_evaluation():
    # P maps each fixed vector of P^-1 T P to a fixed vector of T
    F4 = GF(2, 2)
    rng = random.Random(7)
    checked = 0
    for _ in range(6):
        t, pm = random_matrix(rng, F4, 2), random_invertible(rng, F4, 2)
        tb = mx.mmul(F4, mx.inverse(F4, pm), mx.mmul(F4, t, pm))
        for s in (1, 2, 3):
            new = semilinear_fixed_points(F4, tb, s)
            assert new.dim_fq == semilinear_fixed_points(F4, t, s).dim_fq
            ext = new.ext_field
            emb = F4.embedding(ext)
            pv = mx.mmul(ext, emb[pm], new.basis)
            assert np.array_equal(mx.mmul(ext, emb[t], ext.power(pv, 4)), pv)
            checked += new.dim_fq
    assert checked > 0


def test_fixed_points_identity_is_fq():
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        F = GF(p, r)
        q = p ** r
        for s in (1, 2, 3):
            rep = semilinear_fixed_points(F, mx.identity(1), s)
            assert rep.dim_fq == 1
            # the fixed set is exactly the embedded F_q
            emb = F.embedding(rep.ext_field)
            v = rep.basis[:, 0]
            fixed_set = {int(rep.ext_field.mul(v[0], emb[c])) for c in range(q)}
            assert fixed_set == {int(e) for e in emb}


@pytest.mark.parametrize("p,r,s", [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 1), (3, 3, 1),
                                   (2, 2, 2), (3, 2, 3), (2, 3, 2)])
def test_frame_basis_inverse(p, r, s):
    # for s = 1 or r = 1 the basis t^j c_k is the digit basis, so tc is I
    # and serves as its own inverse; otherwise tc_inv inverts it over GF(p)
    _, _, tc, tc_inv = twisted._frame(p, r, s)
    fp = GF(p)
    assert np.array_equal(mx.mmul(fp, tc_inv, tc), mx.identity(r * s))
    assert (tc_inv is tc) == (s == 1 or r == 1)
    if tc_inv is tc:
        assert np.array_equal(tc, mx.identity(r * s))


def test_fixed_points_zero_operator():
    assert semilinear_fixed_points(GF(2), mx.zeros(2, 2), 2).dim_fq == 0


def test_fixed_points_f4_generator():
    # q = 4, t = (g) with g generating F_4: the solutions of g x^4 = x in
    # GF(4^s) are q^dim many, and each basis vector is one
    F4 = GF(2, 2)
    g = F4.generator
    for s, dim in [(1, 0), (2, 0), (3, 1)]:
        rep = semilinear_fixed_points(F4, mx.mat([[g]]), s)
        ext = rep.ext_field
        x = np.arange(ext.order, dtype=np.int64)
        gx = ext.mul(F4.embedding(ext)[g], ext.power(x, 4))
        assert rep.dim_fq == dim and int((gx == x).sum()) == 4 ** dim
        for v in rep.basis.T:
            assert np.array_equal(ext.mul(F4.embedding(ext)[g], ext.power(v, 4)), v)


def test_stable_rank_examples():
    F = GF(2)
    for t, rank in [(mx.identity(3), 3), (mx.mat([[0, 0], [1, 0]]), 0),
                    (mx.mat([[1, 0], [0, 0]]), 1)]:
        assert sol_point(point_f_module(F, t)).geometric_dim == rank


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2)])
def test_stable_rank_is_last_of_rank_chain(p, r):
    # one rank of the dim-th power, against every rank on the way
    F = GF(p, r)
    rng = random.Random(p * 10 + r)
    for d in range(5):
        for _ in range(4):
            t = np.array([[rng.randrange(F.order) if rng.random() < 0.5 else 0
                           for _ in range(d)] for _ in range(d)],
                         dtype=np.int64).reshape(d, d)
            geometric = sol_point(point_f_module(F, t)).geometric_dim
            assert geometric == (rank_chain(F, t)[-1] if d else 0)


def test_rank_chain_monotone_and_stabilizes():
    rng = random.Random(9)
    F = GF(2)
    for _ in range(25):
        t = np.array([[rng.randrange(2) for _ in range(4)] for _ in range(4)],
                     dtype=np.int64)
        chain = rank_chain(F, t, 8)
        assert all(a >= b for a, b in zip(chain, chain[1:]))
        # constant after the first repeat
        for i in range(len(chain) - 1):
            if chain[i] == chain[i + 1]:
                assert all(c == chain[i] for c in chain[i + 1:])
                break


def test_fixed_point_dims_monotone_and_bounded_exhaustive_f2():
    # every 2x2 matrix over F_2: dims at s | s' are monotone, bounded by
    # the stable rank, and attained at the order of the bijective part
    F = GF(2)
    for bits in range(16):
        t = np.array([[bits & 1, (bits >> 1) & 1],
                      [(bits >> 2) & 1, (bits >> 3) & 1]], dtype=np.int64)
        target = rank_chain(F, t)[-1]
        dims = {s: semilinear_fixed_points(F, t, s).dim_fq for s in (1, 2, 3, 4, 6)}
        for s, s2 in [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6)]:
            assert dims[s] <= dims[s2]
        assert all(d <= target for d in dims.values())
        attained = fixed_point_attainment(F, t)
        assert attained == attainment_search(F, t, 6) and dims[attained] == target


def test_attainment_of_a_fixed_line():
    F, t = GF(2), mx.mat([[1]])
    assert fixed_point_attainment(F, t) == 1 == attainment_search(F, t, 1)


def test_attainment_is_the_search_exhaustive_f3():
    # every 2x2 matrix over F_3: the order of the bijective part is the
    # first degree at which the search over GF(3^s) reaches the stable rank
    F = GF(3)
    for entries in itertools.product(range(3), repeat=4):
        t = mx.mat([entries[:2], entries[2:]])
        assert fixed_point_attainment(F, t) == attainment_search(F, t, 8)


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
    assert fixed_point_attainment(F, b) == degree
    assert len(calls) <= 200
    assert len(calls) <= 400
