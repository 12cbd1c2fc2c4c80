"""The one hom-basis format: a hom space is its RREF kernel matrix.

`intertwiners` returns the kernel matrix, whose column j is vec(H_j), and
`hom_module`, `f_flat`, the pairings and the flat functor pass it on as
their basis.  `hom_images` gives vec(left H_j right) for every basis hom
with one product per side.  These tests check the image helper against a
per-hom loop, run zero-dimensional modules and empty hom spaces through
every functor, check that the number of products does not grow with the
hom dimension, and check that data breaking equivariance gets a message
that points at `validate`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartierforge import matrix as mx
from cartierforge.artinian import (f_flat, fin_module, hom_images, hom_module,
                                   regular_module, ring_make, zero_module)
from cartierforge.duality import (double_dual_check, dualize_artinian,
                                  dualizing_module, pair_C_to_F, pair_F_to_C)
from cartierforge.field import GF
from cartierforge.structures import (_kappa_stack, adjoint_structural,
                                     cartier_module, direct_sum_structured,
                                     f_module, flat_cartier, is_unit,
                                     unitalize, validate)
from oracles import hom_list, vec

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]     # GF(2), GF(3), GF(4), GF(9)


def ref_images(F, ker, shape, left, right):
    """vec(left H right) one basis hom at a time."""
    rows = shape[0] if left is None else left.shape[0]
    cols = shape[1] if right is None else right.shape[1]
    out = mx.zeros(rows * cols, ker.shape[1])
    for j, H in enumerate(hom_list(ker, *shape)):
        if left is not None:
            H = mx.mmul(F, left, H)
        if right is not None:
            H = mx.mmul(F, H, right)
        out[:, j] = vec(H)
    return out


@st.composite
def image_problem(draw, sides):
    """A random basis of k homs of shape r x c (k, r, c from 0 to 3) with
    the requested sides, whose outer sizes may be 0 as well."""
    F = GF(*draw(st.sampled_from(FIELDS)))
    code = st.integers(0, F.order - 1)
    size = st.integers(0, 3)

    def mat(rows, cols):
        return np.array(draw(st.lists(code, min_size=rows * cols, max_size=rows * cols)),
                        dtype=np.int64).reshape(rows, cols)

    r, c, k = draw(size), draw(size), draw(size)
    left = mat(draw(size), r) if "left" in sides else None
    right = mat(c, draw(size)) if "right" in sides else None
    return F, mat(r * c, k), (r, c), left, right


@pytest.mark.parametrize("sides", [("left",), ("right",), ("left", "right")])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hom_images_equals_per_hom_loop(sides, data):
    F, ker, shape, left, right = data.draw(image_problem(sides))
    got = hom_images(F, ker, shape, left=left, right=right)
    want = ref_images(F, ker, shape, left, right)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("p,d", FIELDS)
def test_hom_images_empty_cases(p, d):
    F = GF(p, d)
    a, b = mx.mat([[1, 2], [0, 1], [1, 1]]) % F.order, mx.mat([[1], [1]])
    # k = 0: no homs, so no columns, with the rows of the image shape
    assert hom_images(F, mx.zeros(4, 0), (2, 2), left=a, right=b).shape == (3, 0)
    # a side of size 0 maps every hom to the empty matrix
    ker = mx.identity(4)
    assert hom_images(F, ker, (2, 2), left=mx.zeros(0, 2)).shape == (0, 4)
    assert hom_images(F, ker, (2, 2), right=mx.zeros(2, 0)).shape == (0, 4)
    # homs out of or into the zero space: the only kernel is (0, 0)
    assert hom_images(F, mx.zeros(0, 0), (0, 2), right=b).shape == (0, 0)
    assert hom_images(F, mx.zeros(0, 0), (2, 0), left=a).shape == (0, 0)
    # from the zero space, a nonzero left side still gives zero images
    got = hom_images(F, mx.zeros(0, 3), (2, 0), left=a, right=mx.zeros(0, 1))
    assert np.array_equal(got, mx.zeros(3, 3))


# -- zero-dimensional modules and empty hom spaces --

RINGS = [
    ring_make(3, ["x"], [[2]]),
    ring_make(GF(2, 2), ["x", "y"], [[2, 0], [0, 2]]),
    ring_make(2, [], []),                               # the field itself
    ring_make(2, ["x", "y"], [[0, 0], [1, 0], [0, 1]]),  # the zero ring
]


def assert_empty(mod, ker, nvars):
    assert mod.dim == 0 and ker.shape == (0, 0)
    assert len(mod.actions) == nvars
    assert all(X.shape == (0, 0) for X in mod.actions)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_zero_modules_through_every_functor(ring):
    Z, R = zero_module(ring), regular_module(ring)
    for a, b in ((Z, R), (R, Z), (Z, Z)):
        assert_empty(*hom_module(a, b), ring.nvars)
    assert_empty(*f_flat(Z), ring.nvars)
    zc, zf = cartier_module(Z, mx.zeros(0, 0)), f_module(Z, mx.zeros(0, 0))
    rf = f_module(R, mx.zeros(ring.dim, ring.dim))
    E = dualizing_module(ring)
    for pair, m, n in ((pair_C_to_F, zc, E), (pair_C_to_F, zc, zc),
                       (pair_F_to_C, zf, E), (pair_F_to_C, rf, zc)):
        h, ker = pair(m, n)
        assert_empty(h.module, ker, ring.nvars)
        assert h.mat.shape == (0, 0)
    nxt, adj, ker = flat_cartier(zc)
    assert_empty(nxt.module, ker, ring.nvars)
    assert nxt.mat.shape == (0, 0) and adj.shape == (0, 0)
    for m in (zc, zf):
        ok, ev = double_dual_check(m)
        assert ok and ev.shape == (0, 0)
    res = unitalize(zc)
    assert res.status == "zero" and res.module.dim == 0
    assert res.canonical_map.shape == (0, 0)


# -- one product per functor image, whatever the hom dimension --


def counting_mmul(monkeypatch):
    calls = []
    mmul = mx.mmul

    def counting(F, a, b):
        calls.append(None)
        return mmul(F, a, b)

    monkeypatch.setattr(mx, "mmul", counting)
    return calls


@pytest.mark.parametrize("ring", RINGS[:2], ids=repr)
def test_product_count_does_not_grow_with_hom_dimension(monkeypatch, ring):
    """Two pairs with one ring and one source, into E_R and E_R + E_R:
    every functor makes as many products for the larger hom space."""
    E = dualizing_module(ring)
    targets = (E, direct_sum_structured(E, E))
    src_f = f_module(regular_module(ring), mx.zeros(ring.dim, ring.dim))
    calls = counting_mmul(monkeypatch)

    def count(fn, *args):
        _kappa_stack.cache_clear()      # each pairing reduces its target anew
        del calls[:]
        out = fn(*args)
        return len(calls), out[0].dim

    runs = {
        "hom_module": [count(hom_module, src_f.module, n.module) for n in targets],
        "f_flat": [count(f_flat, n.module) for n in targets],
        "pair_F_to_C": [count(pair_F_to_C, src_f, n) for n in targets],
        "pair_C_to_F": [count(pair_C_to_F, E, n) for n in targets],
    }
    for name, ((c1, k1), (c2, k2)) in runs.items():
        assert 1 <= k1 < k2, name
        assert c1 == c2, name


# -- data that breaks equivariance: a validation message --


def test_dualizing_a_non_equivariant_f_module_names_validate():
    # over GF(2)[x]/(x^2), T x = x^2 T = 0 forces T e_1 = 0; this T breaks it
    ring = ring_make(2, ["x"], [[2]])
    m = f_module(regular_module(ring), mx.mat([[0, 1], [0, 0]]))
    assert not validate(m).ok
    with pytest.raises(ValueError, match="validate"):
        dualize_artinian(m)


def test_non_equivariant_cartier_adjoint_names_validate():
    ring = ring_make(2, ["x"], [[2]])
    m = cartier_module(regular_module(ring), mx.mat([[1, 1], [0, 1]]))
    assert not validate(m).ok
    with pytest.raises(ValueError, match="validate"):
        adjoint_structural(m)
    with pytest.raises(ValueError, match="validate"):
        is_unit(m)


def test_non_commuting_actions_hom_module_names_validate():
    # the identity is an endomorphism, but x times it, X, commutes with Y
    # only if the actions commute
    ring = ring_make(2, ["x", "y"], [[2, 0], [0, 2]])
    X = mx.mat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    Y = mx.mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    bad = fin_module(ring, [X, Y])
    with pytest.raises(ValueError, match="validate"):
        hom_module(bad, bad)


def test_dualizing_module_of_the_field():
    # a ring without variables: E_R is the field itself, with kappa = 1
    E = dualizing_module(ring_make(3, [], []))
    assert E.dim == 1 and np.array_equal(E.mat, mx.identity(1))
