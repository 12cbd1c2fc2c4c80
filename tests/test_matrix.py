"""Dense exact linear algebra against independent mod-p oracles."""

import random

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge.field import GF


def rand_mat(rng, F, r, c):
    return np.array([[rng.randrange(F.order) for _ in range(c)] for _ in range(r)],
                    dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mmul_matches_numpy_mod_p(p):
    F = GF(p)
    rng = random.Random(p)
    for _ in range(20):
        a = rand_mat(rng, F, rng.randrange(1, 5), rng.randrange(1, 5))
        b = rand_mat(rng, F, a.shape[1], rng.randrange(1, 5))
        assert np.array_equal(mx.mmul(F, a, b), (a @ b) % p)


def test_kernel_and_solve_random():
    rng = random.Random(11)
    for p in (2, 3):
        F = GF(p)
        for _ in range(30):
            a = rand_mat(rng, F, rng.randrange(1, 5), rng.randrange(1, 5))
            k = mx.kernel(F, a)
            assert not mx.mmul(F, a, k).any()
            assert mx.rank(F, k) == k.shape[1]
            assert mx.rank(F, a) + k.shape[1] == a.shape[1]
            x = rand_mat(rng, F, a.shape[1], 1)
            b = mx.mmul(F, a, x)
            sol = mx.solve(F, a, b)
            assert sol is not None
            assert np.array_equal(mx.mmul(F, a, sol), b)


def test_inverse_random():
    rng = random.Random(5)
    F = GF(3)
    n_inv = 0
    for _ in range(40):
        a = rand_mat(rng, F, 3, 3)
        inv = mx.inverse(F, a)
        if inv is not None:
            n_inv += 1
            assert np.array_equal(mx.mmul(F, a, inv), mx.identity(3))
            assert np.array_equal(mx.mmul(F, inv, a), mx.identity(3))
    assert n_inv > 5


def test_solve_inconsistent_returns_none():
    F = GF(2)
    a = mx.mat([[1, 0], [1, 0]])
    b = np.array([1, 0], dtype=np.int64)
    assert mx.solve(F, a, b) is None


def test_extension_field_matrices():
    F = GF(2, 2)
    a = mx.mat([[2, 1], [0, 3]])
    inv = mx.inverse(F, a)
    assert inv is not None
    assert np.array_equal(mx.mmul(F, a, inv), mx.identity(2))


def test_empty_shapes():
    F = GF(2)
    z = mx.zeros(0, 0)
    assert mx.rank(F, z) == 0
    assert mx.kernel(F, mx.zeros(0, 3)).shape == (3, 3)
    assert mx.mmul(F, mx.zeros(2, 0), mx.zeros(0, 2)).shape == (2, 2)


def test_column_space_canonical():
    F = GF(2)
    a = mx.mat([[1, 1, 0], [0, 0, 1], [1, 1, 1]])
    c = mx.column_space(F, a)
    assert c.shape[1] == mx.rank(F, a)
    for j in range(a.shape[1]):
        assert mx.solve(F, c, a[:, j]) is not None


def test_kron_vec_consistency():
    rng = random.Random(2)
    F = GF(3)
    for _ in range(10):
        a = rand_mat(rng, F, 2, 3)
        h = rand_mat(rng, F, 3, 2)
        b = rand_mat(rng, F, 2, 2)
        lhs = mx.vec(mx.mmul(F, a, mx.mmul(F, h, b)))
        rhs = mx.mmul(F, mx.kron(F, b.T, a), mx.vec(h))
        assert np.array_equal(lhs, rhs)
