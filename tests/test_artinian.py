"""Monomial Artinian rings, modules, and the linear-algebra functors."""

import itertools
import random

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge.artinian import (_variable_power, f_flat, fin_module,
                                   frobenius_pushforward, hom_module,
                                   i_torsion, module_violations,
                                   quotient_ring, regular_module,
                                   restrict_scalars, ring_make, zero_module)
from cartierforge.field import GF, MAX_RING_DIM
from cartierforge.generate import (artinian_corpus, random_invertible, random_module,
                                   random_structure)
from cartierforge.structures import CARTIER, validate
from oracles import hom_list, vec


@pytest.fixture
def fixture_ring():
    return ring_make(2, ["x"], [[2]])


def test_ring_examples(fixture_ring):
    assert fixture_ring.dim == 2 and fixture_ring.basis == ((0,), (1,))
    r2 = ring_make(3, ["x", "y"], [[3, 0], [0, 2], [1, 1]])
    # oracle: direct enumeration of standard monomials
    std = [(a, b) for a in range(3) for b in range(2)
           if not (a >= 3 or b >= 2 or (a >= 1 and b >= 1))]
    assert r2.dim == len(std) == 4
    rf = ring_make(2, ["x"], [[1]])
    assert rf.dim == 1


def test_ring_rejects_infinite_dimension():
    with pytest.raises(ValueError):
        ring_make(2, ["x", "y"], [[1, 1]])
    with pytest.raises(ValueError):
        ring_make(4, ["x"], [[2]])


def test_mult_ops_realize_multiplication():
    r = ring_make(3, ["x", "y"], [[3, 0], [0, 2], [1, 1]])
    # x * x = x^2; x * x^2 = 0; y * y = 0
    ix = r.basis_index((1, 0))
    ix2 = r.basis_index((2, 0))
    col = r.mult_ops[0][:, ix]
    assert col[ix2] == 1 and col.sum() == 1
    assert not r.mult_ops[0][:, ix2].any()
    iy = r.basis_index((0, 1))
    assert not r.mult_ops[1][:, iy].any()


def test_variable_power_is_the_power_of_the_action():
    # corpus rings over GF(2), GF(3), and rings over GF(4) and GF(9)
    rings = [m.ring for m in artinian_corpus(5, 30)]
    rings += [ring_make(GF(p, 2), ["x", "y"], [[4, 0], [0, 3], [2, 1]]) for p in (2, 3)]
    for ring in rings:
        F, q = ring.field, ring.q
        # 1, x_i, .., x_i^(b-1) are standard for the pure power x_i^b, so
        # b <= dim and the exponent dim + 1 is past every pure power
        for t in (1, q, q ** 2, q ** 3, ring.dim + 1):
            for i, mu in enumerate(ring.mult_ops):
                assert np.array_equal(_variable_power(ring.basis, i, t), mx.mat_pow(F, mu, t))
        assert not any(_variable_power(ring.basis, i, ring.dim + 1).any()
                       for i in range(ring.nvars))


def test_frobenius_pushforward_examples(fixture_ring):
    m = regular_module(fixture_ring)
    fm = frobenius_pushforward(m)
    assert not fm.actions[0].any()           # x acts through x^2 = 0
    k = fin_module(fixture_ring, [mx.zeros(1, 1)])
    assert np.array_equal(frobenius_pushforward(k).actions[0], mx.zeros(1, 1))
    # iterating twice = the q^2-structure
    twice = frobenius_pushforward(frobenius_pushforward(m))
    assert np.array_equal(twice.actions[0],
                          frobenius_pushforward(m, power=2).actions[0])


def test_pushforward_preserves_dimension_and_exactness(fixture_ring):
    F = fixture_ring.field
    m = regular_module(fixture_ring)
    fm = frobenius_pushforward(m)
    assert fm.dim == m.dim
    # an equivariant map and its kernel/image commute with pushforward:
    # multiplication by x on R is R-linear; its kernel is span{x} either way
    xmat = m.actions[0]
    assert np.array_equal(mx.kernel(F, xmat), mx.kernel(F, xmat))
    # (pushforward leaves the matrix of the map unchanged, so exactness data
    # literally coincides)


def test_hom_module_fixture_dims(fixture_ring):
    F = fixture_ring.field
    m = regular_module(fixture_ring)
    k = fin_module(fixture_ring, [mx.zeros(1, 1)])
    h, _ = hom_module(m, m)
    assert h.dim == 2
    hk, _ = hom_module(m, k)
    assert hk.dim == 1                       # Hom(R, k) = k
    # brute-force oracle over F_2: enumerate all candidate matrices
    def brute(src, dst):
        cnt = 0
        for bits in itertools.product(range(2), repeat=src.dim * dst.dim):
            hm = np.array(bits, dtype=np.int64).reshape(dst.dim, src.dim)
            if all(np.array_equal(mx.mmul(F, hm, a), mx.mmul(F, b, hm))
                   for a, b in zip(src.actions, dst.actions)):
                cnt += 1
        return cnt
    assert brute(m, k) == 2 ** hk.dim
    assert brute(m, m) == 2 ** h.dim


def test_hom_module_structure_is_target_action(fixture_ring):
    F = fixture_ring.field
    m = regular_module(fixture_ring)
    h, ker = hom_module(m, m)
    basis = hom_list(ker, m.dim, m.dim)
    for j, hm in enumerate(basis):
        img = mx.mmul(F, m.actions[0], hm)
        coords = mx.solve(F, np.stack([vec(b) for b in basis], axis=1),
                          vec(img))
        assert np.array_equal(coords, h.actions[0][:, j])


def test_f_flat_dims_and_insert_action(fixture_ring):
    # f_flat(k) over F_2[x]/(x^2): dim 2 with a nontrivial nilpotent x-action
    k = fin_module(fixture_ring, [mx.zeros(1, 1)])
    n, _ = f_flat(k)
    assert n.dim == 2
    x = n.actions[0]
    assert x.any() and not mx.mat_pow(fixture_ring.field, x, 2).any()
    # iterated flat has the dimension of Hom(F^2_* R, k) = 2, certifying
    # the adjunction F^(2 flat) = F^flat o F^flat
    n2, _ = f_flat(n)
    assert n2.dim == 2


def test_f_flat_zero_module(fixture_ring):
    z = zero_module(fixture_ring)
    n, ker = f_flat(z)
    assert n.dim == 0 and hom_list(ker, 0, fixture_ring.dim) == []


def test_i_torsion_examples(fixture_ring):
    m = regular_module(fixture_ring)
    t, b = i_torsion(m, [[1]])
    assert t.dim == 1 and b[1, 0] == 1       # socle span{x}
    t0, _ = i_torsion(m, [])
    assert t0.dim == 2                       # J = 0 keeps everything
    # J = (1): zero module
    t1, _ = i_torsion(m, [[0]])
    assert t1.dim == 0


def test_kashiwara_unit_exact(fixture_ring):
    # i_torsion(restrict_scalars(M), J) is literally M for every M over R/J
    q = quotient_ring(fixture_ring, [[1]])
    m = regular_module(q)
    pushed = restrict_scalars(m, fixture_ring)
    back, cols = i_torsion(pushed, [[1]])
    assert back.dim == m.dim
    assert np.array_equal(cols, mx.identity(m.dim))
    assert all(np.array_equal(a, b) for a, b in zip(back.actions, m.actions))


def test_validation_rejects_bad_modules(fixture_ring):
    # constructors build; module_violations names what is wrong
    bad = module_violations(fin_module(fixture_ring, [mx.identity(2)]))
    assert bad == ["relation monomial (2,) does not annihilate"]   # x^2 != 0
    r2 = ring_make(2, ["x", "y"], [[2, 0], [0, 2]])
    a = mx.mat([[0, 0], [1, 0]])
    b = mx.mat([[0, 1], [0, 0]])
    bad = module_violations(fin_module(r2, [a, b]))
    assert bad == ["actions of x and y do not commute"]


def test_element_action_is_a_ring_hom(fixture_ring):
    rng = random.Random(0)
    F = fixture_ring.field
    m = regular_module(fixture_ring)
    for _ in range(10):
        a = np.array([rng.randrange(2) for _ in range(2)], dtype=np.int64)
        b = np.array([rng.randrange(2) for _ in range(2)], dtype=np.int64)
        prod_coords = mx.mmul(F, m.element_action(a), b)   # a*b in R
        lhs = m.element_action(prod_coords)
        rhs = mx.mmul(F, m.element_action(a), m.element_action(b))
        assert np.array_equal(lhs, rhs)


def test_ring_size_cap_counts_standard_monomials():
    """MAX_RING_DIM bounds the standard monomials, not the box below the
    pure powers, and the walk stops past it."""
    axes = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]    # only the axes stay standard
    assert MAX_RING_DIM == 16 ** 3
    assert ring_make(2, "xyz", [[16, 0, 0], [0, 16, 0], [0, 0, 16]] + axes).dim == 46
    # a box of 17 * 16 * 16 > MAX_RING_DIM holding 47 standard monomials
    assert ring_make(3, "xyz", [[17, 0, 0], [0, 16, 0], [0, 0, 16]] + axes).dim == 47
    assert ring_make(2, ["x"], [[MAX_RING_DIM]]).dim == MAX_RING_DIM
    for vars_, rels in ((["x"], [[MAX_RING_DIM + 1]]),
                        (["x"], [[1000000]]),
                        (["x", "y"], [[70, 0], [0, 70]]),
                        (["x", "y"], [[100000, 0], [0, 100000]])):
        with pytest.raises(ValueError, match="ring-size cap"):
            ring_make(3, vars_, rels)


def box_basis(relations, n):
    """The standard monomials by filtering the box below the pure powers."""
    box = [min(r[i] for r in relations if not any(r[:i] + r[i + 1:])) for i in range(n)]
    return tuple(sorted((e for e in itertools.product(*(range(b) for b in box))
                         if not any(all(x <= y for x, y in zip(r, e)) for r in relations)),
                        key=lambda e: (sum(e), e)))


def test_the_standard_monomial_walk_matches_the_box():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(0, 3)
        rels = [[rng.randint(0, 6) * (i == j) for j in range(n)] for i in range(n)]
        rels += [[rng.randint(0, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        ring = ring_make(2, "xyz"[:n], rels)
        assert ring.basis == box_basis(ring.relations, n)


def test_random_modules_over_the_zero_ring():
    # the relation x^0 = 1 cuts the whole ring
    ring = ring_make(2, ["x"], [[0]])
    rng = random.Random(3)
    assert ring.dim == 0 and random_invertible(rng, ring.field, 0).shape == (0, 0)
    m = random_module(rng, ring, 3)
    assert m.dim == 0 and m.actions[0].shape == (0, 0)
    assert validate(random_structure(rng, m, CARTIER)).ok
