"""PID tier: the dual-basis law of kappa_S, the hull model, Matlis duality,
local cohomology, localization models."""

import math
import random
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartierforge import complexes
from cartierforge import matrix as mx
from cartierforge.artinian import fin_module
from cartierforge.complexes import (StructuredComplex,
                                    coherent_model_of_localization,
                                    local_duality_check, matlis_dual)
from cartierforge.duality import dualize_artinian
from cartierforge.field import GF
from cartierforge.generate import (pid_torsion_corpus, random_nilpotent,
                                   random_structure)
from cartierforge.pid import (CARTIER, FROBENIUS, Unsupported,
                              free_crystal_zero, inverse_module, pid_free,
                              pid_sum, pid_torsion, retruncate,
                              truncation_ring, validate_pid)
from cartierforge.poly import Poly
from cartierforge.structures import nilpotency_index, validate
from oracles import (default_truncation, dual_basis_matrix, hull_twist,
                     hull_twist_iterate, kappa_e_oracle, two_depth_h1_zero)


F2 = GF(2)
F3 = GF(3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dual_basis_law(p):
    want = np.fliplr(np.eye(p, dtype=np.int64))
    assert np.array_equal(dual_basis_matrix(GF(p)), want)


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
        d2 = dualize_artinian(retruncate(m.torsion, 25))[0]
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


def test_retruncate_to_the_level_it_has_is_the_module_itself():
    x3 = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    t = pid_torsion(F2, x3, mx.zeros(3, 3), CARTIER).torsion
    assert t.ring.relations == ((3,),)
    assert retruncate(t, 3) is t
    wide = retruncate(t, 5)
    assert wide.ring.relations == ((5,),) and np.array_equal(wide.mat, t.mat)
    assert np.array_equal(wide.module.actions[0], t.module.actions[0])


@settings(max_examples=60, deadline=None)
@given(torsion_over_a_larger_ring())
def test_matlis_dual_at_index_level_matches_wide_truncation(case):
    # The dual is taken at the x-nilpotency index; a level four times
    # larger must give the same structure matrix and x-action, bit for bit.
    t, index = case
    dual = matlis_dual(t)
    wide = dualize_artinian(retruncate(t, 4 * index))[0]
    assert_same_structure(dual, wide)
    assert dual.ring.relations[0][0] == index
    double = matlis_dual(dual)
    assert_same_structure(double, dualize_artinian(retruncate(wide, 4 * index))[0])
    assert double.ring.relations[0][0] == index


def test_hull_twist_unit_and_zero_multiplier():
    # u = 1 leaves the hull's kappa_E; u = 0 gives the zero structure
    for F, power, level in product((F2, F3, GF(2, 2)), (1, 2), (1, 4, 9)):
        hull = inverse_module(F, level, power)
        one = hull_twist(F, level, Poly.one(F), power)
        assert np.array_equal(one.kappa, hull.kappa)
        assert all(np.array_equal(a, b)
                   for a, b in zip(one.module.actions, hull.module.actions))
        zero = hull_twist(F, level, Poly.zero(F), power)
        assert zero.dim == level and not zero.kappa.any()


def test_pid_free_keeps_its_polys_in_diagonal_or_matrix_form():
    """A list of Polys is the diagonal of the multiplier matrix, a list of
    rows of Polys the matrix itself; anything else is refused."""
    u, v, z = Poly.x(F2), Poly.make(F2, [1, 1]), Poly.zero(F2)
    diag = pid_free(F2, [u, v], CARTIER)
    assert diag.free == ((u, z), (z, v)) and diag.free_diagonal() == [u, v]
    assert pid_free(F2, [[u, v], [z, u]], CARTIER).free == ((u, v), (z, u))
    assert pid_free(F2, [], CARTIER).free == ()
    with pytest.raises(TypeError, match="Polys"):      # coefficient lists are not Polys
        pid_free(F2, [[0, 1], [1]], CARTIER)


def test_non_diagonal_free_part_is_unsupported():
    nd = pid_free(F2, [[Poly.zero(F2), Poly.one(F2)],
                       [Poly.zero(F2), Poly.zero(F2)]], CARTIER)
    with pytest.raises(Unsupported, match="^non-diagonal free multiplier matrix$"):
        complexes.dualize(nd)
    # outside the scope of local cohomology, yet a valid module
    assert validate_pid(nd) == (True, [])


def test_h1_verdicts():
    def h1_zero(u, kind):
        return free_crystal_zero(pid_free(F2, [u], kind))

    assert h1_zero(Poly.zero(F2), CARTIER)
    assert not h1_zero(Poly.one(F2), CARTIER)
    # contraction with unbounded index: locally nilpotent but not bounded
    assert not h1_zero(Poly.x(F2), CARTIER)
    assert h1_zero(Poly.zero(F2), FROBENIUS)
    assert not h1_zero(Poly.x(F2), FROBENIUS)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_h1_rule_matches_the_hull_at_level_deg_u_plus_one(data):
    """At any level above ord(u), entry (0, ord u) of kappa_E o u is
    u_(ord u), so the hull twist at level deg u + 1 is zero exactly when
    u = 0: the rule `free_crystal_zero` decides by."""
    F = data.draw(st.sampled_from([F2, F3, GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]))
    power = data.draw(st.integers(1, 2))
    u = Poly.make(F, data.draw(st.lists(st.integers(0, F.order - 1), max_size=41)))
    hull = hull_twist(F, u.deg + 1, u, power)
    assert free_crystal_zero(pid_free(F, [u], CARTIER, power)) == (not hull.kappa.any())


def _two_depth_fits(F, power, deg):
    # the reference's deeper hull has side q*lvl + q; keep it at most 130
    q = F.order ** power
    return q * default_truncation([deg], q) + q <= 130


H1_FIELDS = [(F, power) for F in (F2, F3, GF(2, 2), GF(5)) for power in (1, 2)
             if _two_depth_fits(F, power, 0)]


def _check_h1_rule(F, power, u):
    """The exact rule is u = 0.  The two-depth reference must agree, unless
    its own index e at the shallow level is refuted: (kappa_E o u)^e keeps
    x^-(a+1) alive, a = ord(u^((q^e - 1)/(q - 1)))."""
    m = pid_free(F, [u], CARTIER, power)
    exact = free_crystal_zero(m)
    assert exact == u.is_zero()
    if two_depth_h1_zero(m, u) == exact:
        return False
    q = F.order ** power
    e = nilpotency_index(hull_twist(F, default_truncation([u.deg], q), u, power))
    order = next(k for k, c in enumerate(u.coeffs) if c)
    a = (q ** e - 1) // (q - 1) * order
    assert hull_twist_iterate(u, q, a + 1, e)
    return True


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_h1_rule_matches_two_depth_reference(data):
    F, power = data.draw(st.sampled_from(H1_FIELDS))
    top = max(d for d in range(64) if _two_depth_fits(F, power, d))
    u = Poly.make(F, data.draw(st.lists(st.integers(0, F.order - 1),
                                        max_size=top + 1)))
    _check_h1_rule(F, power, u)


def test_two_depth_reference_misses_a_high_order_multiplier():
    # u = x^6 + x^7 + x^9 + x^10 over GF(2): indices 4 and 4 at levels 44
    # and 90, yet the fourth iterate keeps x^-91 alive
    assert _check_h1_rule(F2, 1, Poly.make(F2, [0] * 6 + [1, 1, 0, 1, 1]))


def _zero_free_multipliers(c):
    return StructuredComplex({
        d: t if t.free is None else replace(
            t, free=pid_free(t.field, [Poly.zero(t.field)] * t.free_rank,
                             t.kind, t.power).free)
        for d, t in c.terms.items()})


@pytest.mark.parametrize("F", [F2, GF(5, 2)])
def test_local_duality_catches_planted_faults(monkeypatch, F):
    one = pid_free(F, [Poly.one(F)], CARTIER)
    assert local_duality_check(one).ok
    free_zero, dualize = complexes.free_crystal_zero, complexes.dualize
    with monkeypatch.context() as mp:
        # local side: an H^1 verdict that is wrong for Cartier free parts
        mp.setattr(complexes, "free_crystal_zero",
                   lambda m: free_zero(m) != (m.kind == CARTIER))
        assert not local_duality_check(one).ok
    with monkeypatch.context() as mp:
        # Ext side: a dual whose free multipliers are zeroed
        mp.setattr(complexes, "dualize", lambda obj: _zero_free_multipliers(dualize(obj)))
        assert not local_duality_check(one).ok


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
    assert unit_case is free1
    locx = coherent_model_of_localization(free1, Poly.x(F2))
    assert locx.free_diagonal()[0].coeffs == Poly.x(F2, 2).coeffs  # x^(q(q-1)) = x^2
    zero_struct = coherent_model_of_localization(
        pid_free(F2, [Poly.zero(F2)], CARTIER), Poly.x(F2))
    assert zero_struct.free_diagonal()[0].is_zero()
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    mix = pid_sum(sky, free1)
    at_x = coherent_model_of_localization(mix, Poly.x(F2))
    assert at_x.torsion is None                  # x-torsion dies
    away = coherent_model_of_localization(mix, Poly.make(F2, [1, 1]))
    assert away.torsion_dim == 1                 # f(0) != 0 keeps it
    with pytest.raises(ValueError):
        coherent_model_of_localization(free1, Poly.zero(F2))
