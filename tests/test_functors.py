"""The Hom functors, the C-to-F pairing, `nil_index` and `mat_pow` against
the forms they replaced.

`hom_module` and `f_flat` build their systems with `intertwiners` and read
the action coordinates off the free rows of the RREF kernel basis;
`pair_C_to_F` solves one block system vstack_lambda(kappa_N x^lambda)
against every basis hom side by side; `nil_index` is the one "least n with
a^n = 0" loop; `mat_pow` squares from the leading bit, and
`FinModule.action_of` takes one such power per variable.  The references
below are the earlier forms: explicit Kronecker systems, a second solve
for the actions, the Kronecker pairing system, and plain product loops.  The
new routines must agree with them bit for bit.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartierforge import matrix as mx
from cartierforge.artinian import (FinModule, f_flat, hom_module,
                                   regular_module, ring_make)
from cartierforge.duality import dualizing_module, pair_C_to_F
from cartierforge.field import GF
from cartierforge.generate import (random_invertible, random_module,
                                   random_structure)
from cartierforge.structures import CARTIER, cartier_module, f_module
from oracles import hom_list, kron, vec

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]     # GF(2), GF(3), GF(4), GF(9)
SETTINGS = settings(max_examples=40, deadline=None)


# -- references: the Kronecker systems and the second solve --


def ref_hom_module(m, n):
    F = m.ring.field
    rows = []
    eye_m, eye_n = mx.identity(m.dim), mx.identity(n.dim)
    for Xm, Xn in zip(m.actions, n.actions):
        rows.append(F.sub(kron(F, Xm.T, eye_n), kron(F, eye_m, Xn)))
    sys = np.vstack(rows) if rows else mx.zeros(0, m.dim * n.dim)
    ker = mx.kernel(F, sys)
    basis = [mx.unvec(ker[:, k], n.dim, m.dim) for k in range(ker.shape[1])]
    acts = []
    for Xn in n.actions:
        imgs = [vec(mx.mmul(F, Xn, H)) for H in basis]
        coords = mx.solve(F, ker, np.stack(imgs, axis=1)) if basis else mx.zeros(0, 0)
        acts.append(coords if basis else mx.zeros(0, 0))
    return FinModule(m.ring, len(basis), tuple(acts)), basis


def ref_f_flat(m, power=1):
    F = m.ring.field
    R = m.ring
    t = R.q ** power
    rows = []
    eye_r, eye_m = mx.identity(R.dim), mx.identity(m.dim)
    for mu, X in zip(R.mult_ops, m.actions):
        mu_q = mx.mat_pow(F, mu, t)
        rows.append(F.sub(kron(F, mu_q.T, eye_m), kron(F, eye_r, X)))
    sys = np.vstack(rows) if rows else mx.zeros(0, R.dim * m.dim)
    ker = mx.kernel(F, sys)
    basis = [mx.unvec(ker[:, k], m.dim, R.dim) for k in range(ker.shape[1])]
    acts = []
    for mu in R.mult_ops:
        imgs = [vec(mx.mmul(F, H, mu)) for H in basis]
        coords = mx.solve(F, ker, np.stack(imgs, axis=1)) if basis else mx.zeros(0, 0)
        acts.append(coords)
    return FinModule(R, len(basis), tuple(acts)), basis


def ref_pair_C_to_F(m, n):
    F = m.ring.field
    R = m.ring
    hom, basis = ref_hom_module(m.module, n.module)
    if not basis:
        return f_module(hom, mx.zeros(0, 0), m.power), basis
    dn, dm = n.dim, m.dim
    units = [mx.identity(R.dim)[l] for l in range(R.dim)]
    acts_n = [n.module.element_action(u) for u in units]
    acts_m = [m.module.element_action(u) for u in units]
    lhs_blocks, rhs_rows = [], []
    for l in range(R.dim):
        ka = mx.mmul(F, n.kappa, acts_n[l])
        lhs_blocks.append(kron(F, mx.identity(dm), ka))
        rhs_rows.append(mx.mmul(F, m.kappa, acts_m[l]))
    lhs = np.vstack(lhs_blocks)
    rhs = np.stack([np.concatenate([vec(mx.mmul(F, H, r)) for r in rhs_rows])
                    for H in basis], axis=1)
    # a non-unit target is named before the system is solved
    if mx.rank(F, lhs) < dn * dm:
        raise ValueError("pairing solution not unique; target is not unit")
    sol = mx.solve(F, lhs, rhs)
    if sol is None:
        raise ValueError("pairing is unsolvable: the source structure is not "
                         "equivariant or the target is not unit (check both "
                         "modules with validate)")
    stacked = np.stack([vec(b) for b in basis], axis=1)
    coords = mx.solve(F, stacked, np.stack(
        [vec(mx.unvec(sol[:, j], dn, dm)) for j in range(len(basis))], axis=1))
    if coords is None:
        raise RuntimeError("pairing image left the hom space")
    return f_module(hom, coords, m.power), basis


def ref_nil_index(F, a):
    acc = mx.identity(a.shape[0])
    for n in range(1, 2 * a.shape[0] + 2):
        acc = mx.mmul(F, a, acc)
        if not acc.any():
            return n
    return math.inf


def ref_mat_pow(F, a, n):
    out = mx.identity(a.shape[0])
    for _ in range(n):
        out = mx.mmul(F, a, out)
    return out


def ref_action_of(m, expvec):
    F = m.ring.field
    out = mx.identity(m.dim)
    for X, e in zip(m.actions, expvec):
        for _ in range(int(e)):
            out = mx.mmul(F, X, out)
    return out


# -- strategies --


@st.composite
def random_ring(draw):
    """A one- or two-variable monomial ring over GF(2), GF(3), GF(4), GF(9)."""
    p, d = draw(st.sampled_from(FIELDS))
    nvars = draw(st.sampled_from([1, 2]))
    rels = [[draw(st.integers(1, 3)) if j == i else 0 for j in range(nvars)]
            for i in range(nvars)]
    if nvars == 2 and draw(st.booleans()):
        rels.append([1, 1])
    return ring_make(GF(p, d), ["x", "y"][:nvars], rels)


@st.composite
def module_pair(draw):
    ring = draw(random_ring())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return rng, random_module(rng, ring, 4), random_module(rng, ring, 4)


def assert_same(got, want, shape):
    (mod, ker), (ref_mod, ref_basis) = got, want
    basis = hom_list(ker, *shape)
    assert mod.dim == ref_mod.dim
    assert len(basis) == len(ref_basis)
    assert all(np.array_equal(a, b) for a, b in zip(basis, ref_basis))
    assert all(np.array_equal(a, b) for a, b in zip(mod.actions, ref_mod.actions))


# -- actions read from the free rows --


@SETTINGS
@given(module_pair())
def test_hom_module_matches_second_solve(case):
    _, m, n = case
    assert_same(hom_module(m, n), ref_hom_module(m, n), (n.dim, m.dim))
    assert_same(hom_module(m, m), ref_hom_module(m, m), (m.dim, m.dim))


@SETTINGS
@given(module_pair(), st.integers(1, 2))
def test_f_flat_matches_second_solve(case, power):
    _, m, _ = case
    assert_same(f_flat(m, power), ref_f_flat(m, power), (m.dim, m.ring.dim))


def test_hom_module_empty_basis():
    ring = ring_make(GF(3), ["x"], [[2]])
    zero = FinModule(ring, 0, (mx.zeros(0, 0),))
    reg = regular_module(ring)
    for m, n in ((zero, reg), (reg, zero)):
        assert_same(hom_module(m, n), ref_hom_module(m, n), (n.dim, m.dim))


# -- the block pairing against the Kronecker pairing --


def _outcome(fn, m, n):
    try:
        out, basis = fn(m, n)
    except ValueError as exc:
        return str(exc)
    return out.mat, out.module.actions, basis


def assert_same_pairing(m, n):
    got, want = _outcome(pair_C_to_F, m, n), _outcome(ref_pair_C_to_F, m, n)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got[0], want[0])
    assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
    assert all(np.array_equal(a, b)
               for a, b in zip(hom_list(got[2], n.dim, m.dim), want[2]))


@SETTINGS
@given(module_pair())
def test_pair_C_to_F_matches_kron_form_into_dualizing_module(case):
    rng, mod, _ = case
    m = random_structure(rng, mod, CARTIER)
    assert_same_pairing(m, dualizing_module(m.ring))


@SETTINGS
@given(module_pair())
def test_pair_C_to_F_matches_kron_form_on_any_target(case):
    # most random targets are not unit: both forms must raise the same error
    rng, a, b = case
    assert_same_pairing(random_structure(rng, a, CARTIER),
                        random_structure(rng, b, CARTIER))


def test_pair_C_to_F_non_unit_target_raises():
    ring = ring_make(GF(2), ["x"], [[2]])
    zero = cartier_module(regular_module(ring), mx.zeros(2, 2))
    with pytest.raises(ValueError, match="solution not unique; target is not unit"):
        pair_C_to_F(zero, zero)
    assert_same_pairing(zero, zero)


# -- nil_index and mat_pow against power loops --


@st.composite
def square_matrix(draw):
    p, d = draw(st.sampled_from(FIELDS))
    F = GF(p, d)
    n = draw(st.integers(0, 6))
    code = st.integers(0, F.order - 1)
    a = np.array(draw(st.lists(code, min_size=n * n, max_size=n * n)),
                 dtype=np.int64).reshape(n, n)
    if n and draw(st.booleans()):
        # strictly lower triangular, conjugated: nilpotent of any index
        a = np.tril(a, -1)
        P = random_invertible(random.Random(draw(st.integers(0, 999))), F, n)
        a = mx.mmul(F, mx.inverse(F, P), mx.mmul(F, a, P))
    return F, a


@SETTINGS
@given(square_matrix())
def test_nil_index_matches_power_loop(case):
    F, a = case
    assert mx.nil_index(F, a) == ref_nil_index(F, a)


def test_nil_index_edge_cases():
    F = GF(3)
    assert mx.nil_index(F, mx.zeros(0, 0)) == 1
    assert mx.nil_index(F, mx.zeros(3, 3)) == 1
    assert mx.nil_index(F, mx.identity(3)) == math.inf
    assert mx.nil_index(F, np.eye(4, k=-1, dtype=np.int64)) == 4


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (3, 2)])
def test_mat_pow_products_and_values(p, d, monkeypatch):
    F = GF(p, d)
    rng = random.Random(p * 10 + d)
    a = np.array([[rng.randrange(F.order) for _ in range(4)] for _ in range(4)],
                 dtype=np.int64)
    mmul, calls = mx.mmul, []

    def counting(*args):
        calls.append(1)
        return mmul(*args)

    for n in range(18):
        want = ref_mat_pow(F, a, n)
        calls.clear()
        monkeypatch.setattr(mx, "mmul", counting)
        got = mx.mat_pow(F, a, n)
        monkeypatch.setattr(mx, "mmul", mmul)
        assert np.array_equal(got, want)
        assert got is not a
        assert len(calls) <= max(0, 2 * (n.bit_length() - 1))   # 2*floor(log2 n)


@SETTINGS
@given(square_matrix(), st.integers(0, 40))
def test_mat_pow_matches_product_loop(case, n):
    """Nilpotent and general matrices; the powers of a nilpotent one reach
    0, where `mat_pow` stops."""
    F, a = case
    assert np.array_equal(mx.mat_pow(F, a, n), ref_mat_pow(F, a, n))


@pytest.mark.parametrize("p,d", [(2, 1), (3, 2)])
def test_mat_pow_stops_at_zero(p, d, monkeypatch):
    """The shift N on F^4 has N^4 = 0: two products reach it, whatever n;
    at n = 5 the second is the squaring to N^4, and no product by N follows."""
    F, shift = GF(p, d), np.eye(4, k=-1, dtype=np.int64)
    mmul, calls = mx.mmul, []

    def counting(*args):
        calls.append(1)
        return mmul(*args)

    monkeypatch.setattr(mx, "mmul", counting)
    for n in (4, 5, 8, 1024, 1025, 2 ** 40 + 3):
        calls.clear()
        got = mx.mat_pow(F, shift, n)
        assert not got.any() and got is not shift
        assert len(calls) == 2
    assert np.array_equal(mx.mat_pow(F, shift, 3), np.eye(4, k=-3, dtype=np.int64))


# -- action_of: one power per variable against the product loop --


@st.composite
def monomial_action(draw):
    """Two arbitrary matrices as the actions of x and y (they need not
    commute, so the order of the factors is checked too) and an exponent
    vector with entries in 0..70."""
    p, d = draw(st.sampled_from([(2, 1), (3, 1), (3, 2)]))   # GF(2), GF(3), GF(9)
    F = GF(p, d)
    n = draw(st.integers(0, 4))
    code = st.integers(0, F.order - 1)
    acts = tuple(np.array(draw(st.lists(code, min_size=n * n, max_size=n * n)),
                          dtype=np.int64).reshape(n, n) for _ in range(2))
    ring = ring_make(F, ["x", "y"], [[2, 0], [0, 2]])
    exps = (draw(st.integers(0, 70)), draw(st.integers(0, 70)))
    return FinModule(ring, n, acts), exps


@SETTINGS
@given(monomial_action())
def test_action_of_matches_product_loop(case):
    m, exps = case
    assert np.array_equal(m.action_of(exps), ref_action_of(m, exps))


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (3, 2)])
def test_action_of_products_and_edges(p, d, monkeypatch):
    F = GF(p, d)
    rng = random.Random(p * 10 + d)
    ring = ring_make(F, ["x", "y"], [[2, 0], [0, 2]])
    acts = tuple(np.array([[rng.randrange(F.order) for _ in range(3)]
                           for _ in range(3)], dtype=np.int64) for _ in range(2))
    m = FinModule(ring, 3, acts)
    mmul, calls = mx.mmul, []

    def counting(*args):
        calls.append(1)
        return mmul(*args)

    for exps in [(0, 0), (1, 0), (0, 1), (1, 1), (70, 0), (0, 70), (64, 63),
                 (70, 70)]:
        want = ref_action_of(m, exps)
        calls.clear()
        monkeypatch.setattr(mx, "mmul", counting)
        got = m.action_of(exps)
        monkeypatch.setattr(mx, "mmul", mmul)
        assert np.array_equal(got, want)
        assert all(got is not X for X in acts)
        # 2*floor(log2 e) products per power, one more to join two powers
        bound = sum(2 * (e.bit_length() - 1) for e in exps if e) + (min(exps) > 0)
        assert len(calls) <= bound
