"""PID tier: kappa_S, presentations, the hull model, Matlis duality,
local cohomology, localization models."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartierforge import matrix as mx
from cartierforge.artinian import fin_module
from cartierforge.complexes import (coherent_model_of_localization,
                                    matlis_dual)
from cartierforge.field import GF
from cartierforge.generate import (pid_torsion_corpus, random_nilpotent,
                                   random_structure)
from cartierforge.pid import (CARTIER, FROBENIUS, Unsupported,
                              cech_local_cohomology,
                              frobenius_pushforward_presentation,
                              h1_entry_crystal_zero, inverse_module, kappa_s,
                              pid_free, pid_sum, pid_torsion, pres_module,
                              truncation_ring, validate_pid)
from cartierforge.poly import Poly
from cartierforge.structures import nilpotency_index, validate
from oracles import dual_basis_matrix, free_presentation, kappa_e_oracle


F2 = GF(2)
F3 = GF(3)


def test_kappa_s_values():
    # q = 2: kappa(1) = 0, kappa(x) = 1, kappa(x^3) = x
    assert kappa_s(Poly.one(F2), 2).is_zero()
    assert kappa_s(Poly.x(F2, 1), 2).coeffs == (1,)
    assert kappa_s(Poly.x(F2, 3), 2).coeffs == (0, 1)
    # q = 3: kappa(x^2) = 1, kappa(x) = 0
    assert kappa_s(Poly.x(F3, 2), 3).coeffs == (1,)
    assert kappa_s(Poly.x(F3, 1), 3).is_zero()


def test_kappa_s_semilinearity_random():
    rng = random.Random(0)
    for F, q in ((F2, 2), (F3, 3), (GF(5), 5)):
        for _ in range(15):
            g = Poly.make(F, [rng.randrange(q) for _ in range(9)])
            lhs = kappa_s(Poly.x(F, q) * g, q)
            rhs = Poly.x(F, 1) * kappa_s(g, q)
            assert lhs.coeffs == rhs.coeffs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dual_basis_law(p):
    want = np.fliplr(np.eye(p, dtype=np.int64))
    assert np.array_equal(dual_basis_matrix(GF(p)), want)


def test_presentation_invariants():
    pm = pres_module(F2, [[Poly.x(F2)]])
    assert pm.torsion_dim == 1 and pm.free_rank == 0
    f = free_presentation(F2, 2)
    assert f.free_rank == 2 and f.torsion_dim == 0


def test_pushforward_presentation_examples():
    pm = pres_module(F2, [[Poly.x(F2)]])
    push = frobenius_pushforward_presentation(pm)
    assert [d.coeffs for d in push.diag] == [(1,), (0, 1)]
    assert push.torsion_dim == 1
    fr = frobenius_pushforward_presentation(free_presentation(F2, 1))
    assert fr.free_rank == 2


def test_pushforward_preserves_dimension_and_sums():
    rng = random.Random(2)
    for p in (2, 3):
        F = GF(p)
        for _ in range(12):
            rows = [[Poly.make(F, [rng.randrange(p) for _ in range(4)])
                     for _ in range(2)] for _ in range(2)]
            pm = pres_module(F, rows)
            push = frobenius_pushforward_presentation(pm)
            assert push.torsion_dim == pm.torsion_dim
            assert push.free_rank == p * pm.free_rank
            # direct sums: block-diagonal presentation pushes to the sum
            two = [[rows[i % 2][j % 2] if (i < 2) == (j < 2) else Poly.zero(F)
                    for j in range(4)] for i in range(4)]
            pm2 = pres_module(F, two)
            push2 = frobenius_pushforward_presentation(pm2)
            assert push2.torsion_dim == pm2.torsion_dim


def test_inverse_module_matches_cech_oracle():
    for F, q in ((F2, 2), (F3, 3), (GF(5), 5)):
        for level in (4, 7, 12):
            inv = inverse_module(F, level)
            assert np.array_equal(inv.kappa, kappa_e_oracle(F, level, q))
            # the truncation is stable and the structure is equivariant
            assert validate(
                __import__("cartierforge.structures", fromlist=["cartier_module"])
                .cartier_module(inv.module, inv.kappa)).ok


def test_inverse_module_unit_on_truncations():
    # the adjoint map is bijective on the x^N-torsion model (N = 2 fixture)
    from cartierforge.structures import cartier_module, is_unit
    for F in (F2, F3):
        for level in (2, 4, 6):
            inv = inverse_module(F, level)
            assert is_unit(cartier_module(inv.module, inv.kappa))


def test_matlis_dual_fixtures():
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    md = matlis_dual(sky.torsion)
    assert md.kind == FROBENIUS and md.dim == 1 and md.mat[0, 0] == 1
    sky0 = pid_torsion(F2, [[0]], [[0]], CARTIER)
    assert not matlis_dual(sky0.torsion).mat.any()
    x3 = mx.mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    m3 = pid_torsion(F2, x3, mx.zeros(3, 3), CARTIER)
    assert matlis_dual(m3.torsion).dim == 3


def test_matlis_dual_truncation_stable_and_dimension():
    for m in pid_torsion_corpus(31, 15):
        d1 = matlis_dual(m.torsion)
        d2 = matlis_dual(m.torsion, trunc=25)
        assert d1.dim == m.torsion.dim == d2.dim
        assert (nilpotency_index(d1) == math.inf) == (nilpotency_index(d2) == math.inf)


def test_matlis_double_dual_is_isomorphism():
    # dim preserved twice and the double dual matches the original verdicts
    for m in pid_torsion_corpus(37, 10):
        d = matlis_dual(m.torsion)
        dd = matlis_dual(d)
        assert dd.dim == m.torsion.dim
        assert (nilpotency_index(dd) == math.inf) == \
               (nilpotency_index(m.torsion) == math.inf)


# GF(2), GF(3), GF(5), GF(4), GF(8), GF(9)
MATLIS_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]


def x_index(F, x_act):
    """Least n >= 1 with x^n = 0."""
    n = 1
    while mx.mat_pow(F, x_act, n).any():
        n += 1
    return n


@st.composite
def torsion_over_a_larger_ring(draw):
    """A random valid torsion module over GF(q)[x]/(x^N), N = index + 0..3,
    with its x-nilpotency index."""
    F = GF(*draw(st.sampled_from(MATLIS_FIELDS)))
    kind = draw(st.sampled_from([CARTIER, FROBENIUS]))
    power = draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    x_act = random_nilpotent(rng, F, draw(st.integers(1, 4)))
    index = x_index(F, x_act)
    ring = truncation_ring(F, index + draw(st.integers(0, 3)))
    return random_structure(rng, fin_module(ring, [x_act]), kind, power), index


def assert_same_structure(a, b):
    assert a.kind == b.kind
    assert np.array_equal(a.mat, b.mat)
    assert len(a.module.actions) == len(b.module.actions)
    for x, y in zip(a.module.actions, b.module.actions):
        assert np.array_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(torsion_over_a_larger_ring())
def test_matlis_dual_at_index_level_matches_wide_truncation(case):
    # The dual is taken at the x-nilpotency index; a level four times
    # larger must give the same structure matrix and x-action, bit for bit.
    t, index = case
    dual, wide = matlis_dual(t), matlis_dual(t, trunc=4 * index)
    assert_same_structure(dual, wide)
    assert dual.ring.relations[0][0] == index
    double = matlis_dual(dual)
    assert_same_structure(double, matlis_dual(wide, trunc=4 * index))
    assert double.ring.relations[0][0] == index


def test_cech_torsion_and_free():
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    rep = cech_local_cohomology(sky)
    assert rep.h0 is sky.torsion and rep.h1 is None
    free1 = pid_free(F2, [Poly.one(F2)], CARTIER)
    rep1 = cech_local_cohomology(free1)
    h1 = rep1.h1[0]
    assert np.array_equal(h1.kappa, inverse_module(F2, h1.dim).kappa)
    free0 = pid_free(F2, [Poly.zero(F2)], CARTIER)
    assert not cech_local_cohomology(free0).h1[0].kappa.any()


def test_cech_unsupported_shapes():
    nd = pid_free(F2, [[Poly.zero(F2), Poly.one(F2)],
                       [Poly.zero(F2), Poly.zero(F2)]], CARTIER)
    assert isinstance(cech_local_cohomology(nd).h1, Unsupported)
    ok, notes = validate_pid(nd)
    assert any("diagonal" in n for n in notes)


def test_h1_verdicts():
    free = pid_free(F2, [Poly.one(F2)], CARTIER)
    assert h1_entry_crystal_zero(free, Poly.zero(F2))
    assert not h1_entry_crystal_zero(free, Poly.one(F2))
    # contraction with unbounded index: locally nilpotent but not bounded
    assert not h1_entry_crystal_zero(free, Poly.x(F2))
    freef = pid_free(F2, [Poly.one(F2)], FROBENIUS)
    assert h1_entry_crystal_zero(freef, Poly.zero(F2))
    assert not h1_entry_crystal_zero(freef, Poly.x(F2))


def test_pid_torsion_requires_nilpotent_action():
    with pytest.raises(ValueError):
        pid_torsion(F2, [[1]], [[0]], CARTIER)


def test_pid_sum_merges_parts():
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    free1 = pid_free(F2, [Poly.one(F2)], CARTIER)
    s = pid_sum(sky, free1)
    assert s.torsion_dim == 1 and s.free_rank == 1
    s2 = pid_sum(s, s)
    assert s2.torsion_dim == 2 and s2.free_rank == 2


def test_localization_models():
    free1 = pid_free(F2, [Poly.one(F2)], CARTIER)
    unit_case = coherent_model_of_localization(free1, Poly.make(F2, [1]))
    assert unit_case.model is free1
    locx = coherent_model_of_localization(free1, Poly.x(F2), depth=3)
    assert locx.ok and len(locx.layer_indices) == 3
    assert locx.model.free_diagonal()[0].coeffs == Poly.x(F2, 2).coeffs  # x^(q(q-1)) = x^2
    zero_struct = coherent_model_of_localization(
        pid_free(F2, [Poly.zero(F2)], CARTIER), Poly.x(F2))
    assert zero_struct.ok and zero_struct.model.free_diagonal()[0].is_zero()
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    mix = pid_sum(sky, free1)
    at_x = coherent_model_of_localization(mix, Poly.x(F2))
    assert at_x.model.torsion is None            # x-torsion dies
    away = coherent_model_of_localization(mix, Poly.make(F2, [1, 1]))
    assert away.model.torsion_dim == 1           # f(0) != 0 keeps it
    with pytest.raises(ValueError):
        coherent_model_of_localization(free1, Poly.zero(F2))
