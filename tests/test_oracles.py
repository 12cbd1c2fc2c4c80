"""Definitional oracles: re-verify solved structures by direct evaluation.

These tests check the *defining rules* of the pairings and adjoints by
brute evaluation on every basis triple, independently of the linear
solves that produced them.
"""

import random

import numpy as np

from cartierforge import matrix as mx
from cartierforge.artinian import fin_module, regular_module, ring_make
from cartierforge.duality import dualizing_module, pair_C_to_F, pair_F_to_C
from cartierforge.field import GF
from cartierforge.generate import artinian_corpus, pid_torsion_corpus
from cartierforge.complexes import matlis_dual
from cartierforge.pid import FROBENIUS
from cartierforge.poly import Poly
from cartierforge.structures import (f_module, flat_cartier, is_morphism,
                                     structured_i_torsion, unitalize,
                                     validate)
from oracles import hom_list, kappa_s


def eval_hom(F, basis, coords):
    """The matrix of the hom with the given coordinates in `basis`."""
    out = mx.zeros(*basis[0].shape) if basis else mx.zeros(0, 0)
    for c, H in zip(np.asarray(coords), basis):
        if c:
            out = F.add(out, F.mul(np.int64(c), H))
    return out


def test_pair_c_to_f_defining_rule_on_corpus():
    # tau_H(f)(m) is the unique e with kappa_E(F(lambda e)) = f(kappa_M(F(lambda m)))
    for m in artinian_corpus(51, 12, max_ring_dim=4, max_dim=3):
        E = dualizing_module(m.ring)
        F = m.ring.field
        h, ker = pair_C_to_F(m, E)
        basis = hom_list(ker, E.dim, m.dim)
        for j, Hj in enumerate(basis):
            img = eval_hom(F, basis, h.mat[:, j])
            for l, mono in enumerate(m.ring.basis):
                lhs = mx.mmul(F, E.mat,
                              mx.mmul(F, E.module.action_of(mono), img))
                rhs = mx.mmul(F, Hj, mx.mmul(F, m.mat,
                                             m.module.action_of(mono)))
                assert np.array_equal(lhs, rhs)


def test_pair_f_to_c_is_the_composite_formula():
    for m in artinian_corpus(52, 8, max_ring_dim=4, max_dim=3):
        # reuse the carrier with a random Frobenius structure
        from cartierforge.generate import random_structure
        rng = random.Random(99)
        fm = random_structure(rng, m.module, FROBENIUS)
        E = dualizing_module(m.ring)
        F = m.ring.field
        h, ker = pair_F_to_C(fm, E)
        basis = hom_list(ker, E.dim, fm.dim)
        for j, Hj in enumerate(basis):
            img = eval_hom(F, basis, h.mat[:, j])
            direct = mx.mmul(F, E.mat, mx.mmul(F, Hj, fm.mat))
            assert np.array_equal(img, direct)


def test_matlis_dual_defining_rule():
    # the same uniqueness rule, through the truncated hull
    for m in pid_torsion_corpus(53, 10, max_dim=3):
        t = m.torsion
        F = t.ring.field
        d = matlis_dual(t)
        E = dualizing_module(d.ring)   # hull at the dual's truncation
        from cartierforge.pid import retruncate
        big = retruncate(t, d.ring.relations[0][0])
        from cartierforge.duality import pair_C_to_F as pc
        again, basis = pc(big, E)
        assert np.array_equal(again.mat, d.mat)


def test_adjoint_eval_rule_on_corpus():
    # kappa_flat(m)(F_* lambda) = kappa(F_*(lambda m)), entry by entry
    from cartierforge.structures import adjoint_structural
    for m in artinian_corpus(54, 10, max_ring_dim=4, max_dim=3):
        F = m.ring.field
        a, flat, ker = adjoint_structural(m)
        basis = hom_list(ker, m.dim, m.ring.dim)
        for i in range(m.dim):
            e = mx.identity(m.dim)[:, i]
            img = eval_hom(F, basis, a[:, i])
            for l, mono in enumerate(m.ring.basis):
                want = mx.mmul(F, m.mat,
                               mx.mmul(F, m.module.action_of(mono), e))
                assert np.array_equal(img[:, l], want)


def test_flat_cartier_structure_is_eval_at_one():
    for m in artinian_corpus(55, 8, max_ring_dim=4, max_dim=3):
        F = m.ring.field
        nxt, adj, ker = flat_cartier(m)
        basis = hom_list(ker, m.dim, m.ring.dim)
        assert validate(nxt).ok
        one = m.ring.one()
        for j, Hj in enumerate(basis):
            lhs = eval_hom(F, basis, nxt.mat[:, j])
            # kappa_flat(Phi) = the hom lambda -> kappa(F(lambda Phi(F_* 1)))
            v = mx.mmul(F, Hj, one)
            for l, mono in enumerate(m.ring.basis):
                want = mx.mmul(F, m.mat, mx.mmul(F, m.module.action_of(mono), v))
                assert np.array_equal(lhs[:, l], want)


def test_unitalize_canonical_map_is_a_morphism():
    for m in artinian_corpus(56, 15, max_ring_dim=5, max_dim=4):
        res = unitalize(m)
        assert res.status in ("unit", "zero")
        assert is_morphism(res.canonical_map, m, res.module)


def test_hull_hom_dims_fixture():
    # Hom(k, E_R) is the socle (dim 1); Hom(F_* R, E_R) has dim 2
    R = ring_make(2, ["x"], [[2]])
    from cartierforge.artinian import frobenius_pushforward, hom_module
    E = dualizing_module(R)
    k = fin_module(R, [mx.zeros(1, 1)])
    h1, _ = hom_module(k, E.module)
    assert h1.dim == 1
    h2, _ = hom_module(frobenius_pushforward(regular_module(R)), E.module)
    assert h2.dim == 2


def test_frobenius_torsion_restriction_error_path():
    # an F-structure need not restrict to the J-torsion part; the failure
    # is reported as an error rather than a wrong module
    R = ring_make(2, ["x"], [[4]])
    mod = regular_module(R)
    # tau = Frobenius: g -> g^2 restricted to the monomial basis
    tau = mx.zeros(4, 4)
    for j, b in enumerate(R.basis):
        sq = (2 * b[0],)
        if sq in R.basis:
            tau[R.basis.index(sq), j] = 1
    fm = f_module(mod, tau)
    try:
        structured_i_torsion(fm, [[1]])
    except ValueError:
        pass
    else:
        # if it restricted, it must be genuinely stable
        tors, cols = structured_i_torsion(fm, [[1]])
        assert validate(tors).ok


def test_hull_twist_against_laurent_oracle():
    # kappa_E o mult(u) column-by-column against exponent bookkeeping on
    # Laurent monomials: kappa_S(u x^-a) read off in the cokernel of R -> R_x
    from cartierforge.poly import Poly
    from oracles import hull_twist
    for p in (2, 3):
        F = GF(p)
        for u_coeffs in ([1], [0, 1], [1, 1], [0, 0, 1], []):
            u = Poly.make(F, u_coeffs)
            level = 9
            tw = hull_twist(F, level, u)
            want = mx.zeros(level, level)
            for j in range(level):
                a = j + 1
                for k, c in enumerate(u.coeffs):
                    if not c:
                        continue
                    e = k - a                    # exponent of u_k x^k * x^-a
                    m_, r_ = divmod(e, p)
                    if r_ == p - 1 and m_ <= -1 and -m_ <= level:
                        row = -m_ - 1
                        want[row, j] = int(F.add(np.int64(want[row, j]), np.int64(c)))
            assert np.array_equal(tw.mat, want), (p, u_coeffs)


def test_hull_twist_iterate_matches_matrix_powers():
    # q is the field order, so kappa_E o u is GF(q)-linear and its e-th
    # iterate is the e-th power of the hull_twist matrix
    from cartierforge.poly import Poly
    from oracles import hull_twist, hull_twist_iterate
    level = 12
    for F in (GF(2), GF(3), GF(2, 2)):
        for u_coeffs in ([1], [0, 1], [1, 1, 1], [0, 0, 1, 1]):
            u = Poly.make(F, u_coeffs)
            step, power = hull_twist(F, level, u).mat, np.eye(level, dtype=np.int64)
            for e in (1, 2, 3):
                power = mx.mmul(F, step, power)
                for j in range(level):
                    want = {i + 1: int(c) for i, c in enumerate(power[:, j]) if c}
                    assert hull_twist_iterate(u, F.order, j + 1, e) == want


def test_kappa_s_values():
    F2, F3 = GF(2), GF(3)
    # q = 2: kappa(1) = 0, kappa(x) = 1, kappa(x^3) = x
    assert kappa_s(Poly.one(F2), 2).is_zero()
    assert kappa_s(Poly.x(F2, 1), 2).coeffs == (1,)
    assert kappa_s(Poly.x(F2, 3), 2).coeffs == (0, 1)
    # q = 3: kappa(x^2) = 1, kappa(x) = 0
    assert kappa_s(Poly.x(F3, 2), 3).coeffs == (1,)
    assert kappa_s(Poly.x(F3, 1), 3).is_zero()


def test_kappa_s_semilinearity_random():
    rng = random.Random(0)
    for F, q in ((GF(2), 2), (GF(3), 3), (GF(5), 5)):
        for _ in range(15):
            g = Poly.make(F, [rng.randrange(q) for _ in range(9)])
            lhs = kappa_s(Poly.x(F, q) * g, q)
            rhs = Poly.x(F, 1) * kappa_s(g, q)
            assert lhs.coeffs == rhs.coeffs


def test_free_multiplier_exchange_rule():
    # the dual of (R, kappa_u) is (R, tau_u): kappa_S(F(lambda e)) must equal
    # h kappa_u(F(lambda)) with e = tau_u-image of h, for all lambda, h
    from oracles import kappa_multiplier, tau_multiplier
    rng = random.Random(77)
    for p in (2, 3):
        F = GF(p)
        for _ in range(15):
            u = Poly.make(F, [rng.randrange(p) for _ in range(3)])
            h = Poly.make(F, [rng.randrange(p) for _ in range(4)])
            lam = Poly.make(F, [rng.randrange(p) for _ in range(5)])
            e = tau_multiplier(u, h, p)      # u * h^q
            lhs = kappa_s(lam * e, p)
            rhs = h * kappa_multiplier(u, lam, p)
            assert lhs.coeffs == rhs.coeffs


def test_sol_dims_stabilize_to_stable_rank_on_random_operators():
    from cartierforge.twisted import semilinear_fixed_points
    rng = random.Random(57)
    F = GF(3)
    for _ in range(10):
        mat = np.array([[rng.randrange(3) for _ in range(3)] for _ in range(3)],
                       dtype=np.int64)
        target = mx.rank(F, mx.mat_pow(F, mat, 3))
        dims = [semilinear_fixed_points(F, mat, s).dim_fq for s in range(1, 7)]
        assert all(d <= target for d in dims)
        assert max(dims) <= target
        # once attained at s, attained at multiples of s
        for s in range(1, 7):
            if dims[s - 1] == target:
                for k in range(2, 6 // s + 1):
                    assert dims[s * k - 1] == target
                break
