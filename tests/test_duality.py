"""The Hom pairings, double duality, Sol, base change, perversity, local
duality, ordinarity."""

import math
import random

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge.artinian import fin_module, regular_module, ring_make
from cartierforge.complexes import (dualize, is_perverse, local_duality_check,
                                    shift_module)
from cartierforge.duality import (double_dual_check, dual_base_change_check,
                                  dualizing_module, elliptic_ap, extend_scalars,
                                  hasse_invariant, nilpotence_exchange_check,
                                  nonsingular_short_weierstrass, ordinarity,
                                  pair_C_to_F, pair_F_to_C,
                                  sol_base_change_check, sol_point)
from cartierforge.field import GF
from cartierforge.generate import (artinian_corpus, pid_torsion_corpus,
                                   random_f_module)
from cartierforge.pid import CARTIER, FROBENIUS, pid_free, pid_torsion
from cartierforge.poly import Poly
from cartierforge.structures import (cartier_module, f_module, is_unit,
                                     nilpotency_index, stable_image, validate)
from oracles import hom_tensor_twist_check


@pytest.fixture
def ring():
    return ring_make(2, ["x"], [[2]])


@pytest.fixture
def e_mod(ring):
    return dualizing_module(ring).module


@pytest.fixture
def frobenius_r(ring):
    # tau = Frobenius g -> g^2 on R = F_2[x]/(x^2): 1 -> 1, x -> x^2 = 0
    tau = mx.zeros(2, 2)
    tau[0, 0] = 1
    return f_module(regular_module(ring), tau)


def test_dualizing_module_fixture(ring, e_mod):
    # E = span{x^-1, x^-2}; kappa_E(x^-1) = x^-1, kappa_E(x^-2) = 0; unit
    assert e_mod.dim == 2
    assert e_mod.kappa[0, 0] == 1 and not e_mod.kappa[:, 1].any()
    x = e_mod.module.actions[0]
    assert x[0, 1] == 1 and not x[:, 0].any()
    assert is_unit(e_mod)


def test_dualizing_module_dims():
    r2 = ring_make(3, ["x", "y"], [[3, 0], [0, 2], [1, 1]])
    d = dualizing_module(r2)
    assert d.module.dim == 4 and d.unit
    rf = ring_make(2, ["x"], [[1]])
    df = dualizing_module(rf)
    assert df.module.dim == 1 and df.module.kappa[0, 0] == 1


def test_dualizing_module_unit_on_corpus_rings():
    from cartierforge.generate import random_artin_ring
    rng = random.Random(0)
    for _ in range(10):
        ring = random_artin_ring(rng, rng.choice([2, 3]))
        d = dualizing_module(ring)
        assert d.unit and d.module.dim == ring.dim


def test_pair_f_to_c_fixture(ring, e_mod, frobenius_r):
    F = ring.field
    h, basis = pair_F_to_C(frobenius_r, e_mod)
    assert h.dim == 2
    # under evaluation at 1, Hom(R, E) is E with its own structure
    one = ring.one()
    ev = np.stack([mx.mmul(F, b, one) for b in basis], axis=1)
    evi = mx.inverse(F, ev)
    assert evi is not None
    transported = mx.mmul(F, ev, mx.mmul(F, h.kappa, evi))
    assert np.array_equal(transported, e_mod.kappa)


def test_pair_preserves_nilpotence(ring, e_mod):
    nil = cartier_module(regular_module(ring), mx.mat([[0, 0], [1, 0]]))
    d, _ = pair_C_to_F(nil, e_mod)
    assert nilpotency_index(d) != math.inf
    tau0 = f_module(regular_module(ring), mx.zeros(2, 2))
    h, _ = pair_F_to_C(tau0, e_mod)
    assert nilpotency_index(h) == 1


def test_pair_c_to_f_skyscraper(ring, e_mod):
    k_mod = fin_module(ring, [mx.zeros(1, 1)])
    sky = cartier_module(k_mod, mx.mat([[1]]))
    h, _ = pair_C_to_F(sky, e_mod)
    assert h.dim == 1 and h.tau[0, 0] == 1
    sky0 = cartier_module(k_mod, mx.zeros(1, 1))
    h0, _ = pair_C_to_F(sky0, e_mod)
    assert not h0.tau.any()


def test_pair_c_to_f_requires_unit_target(ring):
    nil = cartier_module(regular_module(ring), mx.mat([[0, 0], [1, 0]]))
    with pytest.raises(ValueError):
        pair_C_to_F(nil, nil)


def test_double_dual_fixtures(ring, e_mod, frobenius_r):
    fixA = cartier_module(regular_module(ring), mx.mat([[0, 0], [1, 0]]))
    for m in (fixA, e_mod, frobenius_r):
        ok, ev = double_dual_check(m)
        assert ok and ev.shape == (m.dim, m.dim)
    from cartierforge.artinian import zero_module
    z = cartier_module(zero_module(ring), mx.zeros(0, 0))
    ok, _ = double_dual_check(z)
    assert ok


def test_double_dual_random_f3():
    rng = random.Random(42)
    ring = ring_make(3, ["x"], [[3]])
    from cartierforge.generate import random_module, random_structure
    for _ in range(10):
        mod = random_module(rng, ring, 3)
        m = random_structure(rng, mod, CARTIER)
        ok, _ = double_dual_check(m)
        assert ok


def test_nilpotence_exchange_on_corpus():
    for m in artinian_corpus(5, 30):
        assert nilpotence_exchange_check(m)


def test_sol_constant_sheaf(frobenius_r):
    for s in (1, 2, 3):
        rep = sol_point(frobenius_r, s)
        assert rep.geometric_dim == 1 and rep.dim_fq == 1
        # the fixed space is exactly F_q inside the quotient line
        F = frobenius_r.ring.field
        emb = F.embedding(rep.ext_field)
        v = rep.fixed_basis[:, 0]
        span = {int(rep.ext_field.mul(v[0], emb[c])) for c in range(F.order)}
        assert span == {int(e) for e in emb}


def test_sol_nilpotent_and_skyscraper(ring):
    tau0 = f_module(regular_module(ring), mx.zeros(2, 2))
    assert sol_point(tau0, 2).geometric_dim == 0
    k_mod = fin_module(ring, [mx.zeros(1, 1)])
    sky = f_module(k_mod, mx.mat([[1]]))
    for s in (1, 2, 3):
        assert sol_point(sky, s).dim_fq == 1


def test_sol_additive_and_basis_invariant():
    rng = random.Random(8)
    ring = ring_make(2, ["x"], [[2]])
    from cartierforge.generate import random_module, random_structure
    from cartierforge.structures import direct_sum_structured
    for _ in range(8):
        a = random_structure(rng, random_module(rng, ring, 3), FROBENIUS)
        b = random_structure(rng, random_module(rng, ring, 2), FROBENIUS)
        s = direct_sum_structured(a, b)
        assert (sol_point(s, 1).geometric_dim
                == sol_point(a, 1).geometric_dim + sol_point(b, 1).geometric_dim)


def test_extend_scalars_identity_and_sol(frobenius_r):
    same = extend_scalars(frobenius_r, 1)
    assert np.array_equal(same.mat, frobenius_r.mat)
    m2 = extend_scalars(frobenius_r, 2)
    assert m2.ring.field.order == 4
    assert validate(m2).ok


def test_sol_base_change_fixture_and_random(frobenius_r):
    for s in (2, 3):
        assert sol_base_change_check(frobenius_r, s)["ok"]
    rng = random.Random(12)
    for _ in range(15):
        m = random_f_module(rng, rng.choice([2, 3]), 2, 5, 4)
        for s in (2, 3):
            assert sol_base_change_check(m, s)["ok"]


def test_dual_base_change_on_corpus():
    for m in artinian_corpus(9, 20):
        for s in (2, 3):
            assert dual_base_change_check(m, s)


def test_hom_tensor_twist_compat(ring):
    fixA = cartier_module(regular_module(ring), mx.mat([[0, 0], [1, 0]]))
    assert hom_tensor_twist_check(fixA, [1, 1])
    assert hom_tensor_twist_check(fixA, [1, 0])
    for m in artinian_corpus(15, 10):
        coords = np.zeros(m.ring.dim, dtype=np.int64)
        coords[0] = 1
        if m.ring.dim > 1:
            coords[1] = 1
        assert hom_tensor_twist_check(m, coords)


def test_dual_of_skyscraper_has_sol_dimension_one():
    # D(k, kappa = id) is the skyscraper F-module with tau = id: Sol dim 1
    F2 = GF(2)
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    d = matlis_dual_of(sky)
    for s in (1, 2, 3):
        assert sol_point(d, s).dim_fq == 1
        assert sol_point(d, s).geometric_dim == 1


def matlis_dual_of(m):
    from cartierforge.complexes import matlis_dual
    return matlis_dual(m.torsion)


def test_adjoint_of_zero_structure_is_zero():
    from cartierforge.structures import adjoint_structural
    ring = ring_make(2, ["x"], [[2]])
    z = cartier_module(regular_module(ring), mx.zeros(2, 2))
    a, flat, _ = adjoint_structural(z)
    assert not a.any()


def test_local_duality_fixtures():
    F2 = GF(2)
    # torsion with any structure: verdicts agree (H^1 = 0 both sides)
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    rep = local_duality_check(sky)
    assert rep.ok and rep.verdicts[1].local_zero and rep.verdicts[1].ext_zero
    # fixture A transported to x-torsion over F_2[x]: both sides nilpotent
    fixA_t = pid_torsion(F2, [[0, 0], [1, 0]], [[0, 0], [1, 0]], CARTIER)
    rep2 = local_duality_check(fixA_t)
    assert rep2.ok and rep2.verdicts[0].local_zero
    # skyscraper with identity: both sides non-nilpotent in degree 0
    assert not local_duality_check(sky).verdicts[0].local_zero
    # free parts, both kinds
    for kind in (CARTIER, FROBENIUS):
        for u in ([1], [0], [0, 1], [1, 1]):
            m = pid_free(F2, [Poly.make(F2, u)], kind)
            assert local_duality_check(m).ok


def test_local_duality_on_corpus():
    for kind in (CARTIER, FROBENIUS):
        for m in pid_torsion_corpus(23, 25, kind=kind):
            assert local_duality_check(m).ok


def test_perversity_fixtures():
    F2 = GF(2)
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    assert is_perverse(sky).ok                       # skyscraper in degree 0
    d = dualize(sky)
    assert is_perverse(d).ok                         # D of torsion in degree 0
    free1 = pid_free(F2, [Poly.one(F2)], CARTIER)
    assert not is_perverse(shift_module(free1, 0)).ok
    assert is_perverse(shift_module(free1, -1)).ok   # omega itself


def test_perversity_of_duals_on_corpus():
    for m in pid_torsion_corpus(29, 20):
        assert is_perverse(dualize(m)).ok


def test_perversity_deep_shift_boundaries():
    F2 = GF(2)
    sky = pid_torsion(F2, [[0]], [[1]], CARTIER)
    free1 = pid_free(F2, [Poly.one(F2)], CARTIER)
    free0 = pid_free(F2, [Poly.zero(F2)], CARTIER)
    # torsion placed below degree 0 violates the local-side conditions
    assert not is_perverse(shift_module(sky, -1)).ok
    # free parts may sit at -1 but not deeper (unless crystal-zero)
    assert not is_perverse(shift_module(free1, -2)).ok
    assert is_perverse(shift_module(free0, -2)).ok
    # and not above the allowed stalk degrees
    assert not is_perverse(shift_module(sky, 1)).ok


def test_pid_double_dual_degrees_and_data():
    # D o D restores degrees, dimensions, kinds, and free multipliers
    F2 = GF(2)
    from cartierforge.pid import pid_sum
    m = pid_sum(pid_torsion(F2, [[0, 0], [1, 0]], [[0, 0], [1, 0]], CARTIER),
                pid_free(F2, [Poly.make(F2, [1, 1])], CARTIER))
    dd = dualize(dualize(m))
    assert sorted(dd.terms) == [0]
    back = dd.terms[0]
    assert back.kind == CARTIER
    assert back.torsion_dim == m.torsion_dim
    assert back.free_rank == m.free_rank
    assert [u.coeffs for u in back.free_diagonal()] == \
           [u.coeffs for u in m.free_diagonal()]
    assert (nilpotency_index(back.torsion) == math.inf) == \
           (nilpotency_index(m.torsion) == math.inf)


def test_stable_image_agrees_with_duality_route():
    # crystal triviality via the stable part matches the dual verdict
    for m in artinian_corpus(33, 25):
        s, _ = stable_image(m)
        from cartierforge.duality import dualize_artinian
        d, _ = dualize_artinian(m)
        assert (s.dim == 0) == (nilpotency_index(d) != math.inf)


@pytest.mark.parametrize("p,cubic,expected", [
    (5, [0, 1, 0, 1], 2),    # x^3 + x: ordinary
    (5, [1, 0, 0, 1], 0),    # x^3 + 1: supersingular
    (7, [1, 0, 0, 1], 3),    # x^3 + 1: ordinary over F_7
])
def test_hasse_invariant_values(p, cubic, expected):
    assert hasse_invariant(p, cubic) == expected
    assert ordinarity(p, cubic) == (expected != 0)
    assert (elliptic_ap(p, cubic) % p != 0) == (expected != 0)


def test_hasse_rejects_singular_and_even():
    with pytest.raises(ValueError):
        hasse_invariant(5, [0, 0, 0, 1])       # x^3: triple root
    with pytest.raises(ValueError):
        hasse_invariant(2, [1, 1, 0, 1])


def test_nonsingular_scan_count():
    assert len(nonsingular_short_weierstrass(5)) == 20


def test_complex_with_differential_cohomology_and_perversity():
    from cartierforge.complexes import StructuredComplex, complex_cohomology
    from cartierforge.pid import Unsupported
    F2 = GF(2)
    m = pid_torsion(F2, [[0]], [[1]], CARTIER)
    # identity differential in degrees (0, 1): acyclic, hence perverse
    c = StructuredComplex({0: m, 1: m}, {0: mx.identity(1)})
    assert not c.validate()
    coh = complex_cohomology(c)
    assert coh.terms[0].torsion_dim == 0 and coh.terms[1].torsion_dim == 0
    assert is_perverse(c).ok
    # a skyscraper stuck in degree 2 via a zero differential is not perverse
    c2 = StructuredComplex({1: m, 2: m}, {1: mx.zeros(1, 1)})
    assert not is_perverse(c2).ok
    # a non-morphism differential is rejected
    m0 = pid_torsion(F2, [[0]], [[0]], CARTIER)
    bad = StructuredComplex({0: m, 1: m0}, {0: mx.identity(1)})
    assert bad.validate()
    rep = is_perverse(bad)
    assert isinstance(rep.unsupported, Unsupported)
    # dualize refuses nonzero differentials
    assert isinstance(dualize(c), Unsupported)


def test_crystal_comparator_heuristic(ring, e_mod):
    from cartierforge.duality import (crystal_possibly_equivalent,
                                      crystal_signature)
    from cartierforge.structures import direct_sum_structured
    fixA = cartier_module(regular_module(ring), mx.mat([[0, 0], [1, 0]]))
    zero_struct = cartier_module(regular_module(ring), mx.zeros(2, 2))
    assert crystal_signature(fixA) == (0, 0, (0, 0, 0))
    # nilpotent modules share the trivial signature
    assert crystal_possibly_equivalent(fixA, zero_struct)
    # a nil-isomorphism preserves the signature: sigma(M) vs M
    from cartierforge.structures import stable_image
    k_mod = fin_module(ring, [mx.zeros(1, 1)])
    sky = cartier_module(k_mod, mx.mat([[1]]))
    both = direct_sum_structured(fixA, sky)
    part, _ = stable_image(both)
    assert crystal_possibly_equivalent(both, part)
    # the hull is not crystal-equivalent to a nilpotent module
    assert not crystal_possibly_equivalent(e_mod, zero_struct)


def test_unit_dualizing_complex_is_perverse_and_self_consistent():
    from cartierforge.complexes import (cartier_structure_on_ring,
                                        unit_dualizing_complex)
    F2 = GF(2)
    omega = unit_dualizing_complex(F2)
    assert list(omega.terms) == [-1]
    assert is_perverse(omega).ok
    # D(omega) is the constant structure in degree 0
    d = dualize(omega)
    assert list(d.terms) == [0]
    term = d.terms[0]
    assert term.kind == FROBENIUS and term.free_rank == 1
    assert term.free_diagonal()[0].coeffs == (1,)
    # and kappa_S is valid as a structure: the multiplier module checks out
    ks = cartier_structure_on_ring(F2)
    assert local_duality_check(ks).ok
