"""The Hom pairings, double duality, Sol, base change, perversity, local
duality, ordinarity."""

import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cartierforge import duality, matrix as mx
from cartierforge.artinian import MEMOS, fin_module, regular_module, ring_make
from cartierforge.cli import parse_problem
from cartierforge.complexes import (dualize, is_perverse, local_duality_check,
                                    shift_module)
from cartierforge.duality import (crystal_class, crystal_equivalent,
                                  double_dual_check, dual_base_change_check,
                                  dualize_artinian, dualizing_module,
                                  elliptic_ap, extend_scalars,
                                  hasse_invariant, matlis_witness,
                                  nilpotence_exchange_check,
                                  nonsingular_short_weierstrass, ordinarity,
                                  pair_C_to_F, pair_F_to_C, reduced_operator,
                                  sol_base_change_check, sol_certified, sol_point)
from cartierforge.field import GF, is_prime
from cartierforge.generate import (artinian_corpus, pid_torsion_corpus,
                                   random_artin_ring, random_module,
                                   random_structure, random_structured)
from cartierforge.pid import (CARTIER, FROBENIUS, PidModule, pid_free,
                              pid_torsion)
from cartierforge.poly import Poly
from cartierforge.structures import (Unsupported, cartier_module,
                                     direct_sum_structured, f_module, is_unit,
                                     iterate_structure, kashiwara_counit,
                                     nilpotency_index, quotient_structure,
                                     stable_image, stable_kernel, structured,
                                     structured_i_torsion,
                                     structured_restrict_scalars, validate)
from cartierforge.twisted import fixed_point_attainment
from oracles import (attainment_search, conjugacy_classes, hasse_by_power,
                     hom_list, hom_tensor_twist_check)


@pytest.fixture
def ring():
    return ring_make(2, ["x"], [[2]])


@pytest.fixture
def e_mod(ring):
    return dualizing_module(ring)


@pytest.fixture
def frobenius_r(ring):
    # tau = Frobenius g -> g^2 on R = F_2[x]/(x^2): 1 -> 1, x -> x^2 = 0
    tau = mx.zeros(2, 2)
    tau[0, 0] = 1
    return f_module(regular_module(ring), tau)


def test_dualizing_module_fixture(ring, e_mod):
    # E = span{x^-1, x^-2}; kappa_E(x^-1) = x^-1, kappa_E(x^-2) = 0; unit
    assert e_mod.dim == 2
    assert e_mod.mat[0, 0] == 1 and not e_mod.mat[:, 1].any()
    x = e_mod.module.actions[0]
    assert x[0, 1] == 1 and not x[:, 0].any()
    assert is_unit(e_mod)


def test_dualizing_module_dims():
    r2 = ring_make(3, ["x", "y"], [[3, 0], [0, 2], [1, 1]])
    d = dualizing_module(r2)
    assert d.dim == 4 and is_unit(d)
    rf = ring_make(2, ["x"], [[1]])
    df = dualizing_module(rf)
    assert df.dim == 1 and df.mat[0, 0] == 1


def test_dualizing_module_unit_on_corpus_rings():
    from cartierforge.generate import random_artin_ring
    rng = random.Random(0)
    for _ in range(10):
        ring = random_artin_ring(rng, rng.choice([2, 3]))
        d = dualizing_module(ring)
        assert is_unit(d) and d.dim == ring.dim


def test_pair_f_to_c_fixture(ring, e_mod, frobenius_r):
    F = ring.field
    h, ker = pair_F_to_C(frobenius_r, e_mod)
    basis = hom_list(ker, e_mod.dim, frobenius_r.dim)
    assert h.dim == 2
    # under evaluation at 1, Hom(R, E) is E with its own structure
    one = ring.one()
    ev = np.stack([mx.mmul(F, b, one) for b in basis], axis=1)
    evi = mx.inverse(F, ev)
    assert evi is not None
    transported = mx.mmul(F, ev, mx.mmul(F, h.mat, evi))
    assert np.array_equal(transported, e_mod.mat)


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
    assert h.dim == 1 and h.mat[0, 0] == 1
    sky0 = cartier_module(k_mod, mx.zeros(1, 1))
    h0, _ = pair_C_to_F(sky0, e_mod)
    assert not h0.mat.any()


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


# -- the Matlis witness: D(M) against (M^T, X_v^T, S^T), off the Hom route --


def witness_corpus() -> list:
    """Two Cartier corpora, 100 Frobenius modules over GF(2), GF(3) and
    GF(5), and five modules of each kind over GF(4) and GF(9) at power 1
    and at power 2."""
    rng = random.Random(35)
    out = artinian_corpus(2024, 200) + artinian_corpus(7, 100, p_choices=(2, 3, 5))
    out += [random_structured(rng, FROBENIUS, rng.choice([2, 3, 5])) for _ in range(100)]
    for F, power, kind, _ in itertools.product((GF(2, 2), GF(3, 2)), (1, 2),
                                               (CARTIER, FROBENIUS), range(5)):
        module = random_module(rng, random_artin_ring(rng, F), 3)
        out.append(random_structure(rng, module, kind, power))
    return out


def test_matlis_witness_on_the_corpora():
    mods = witness_corpus()
    assert all(matlis_witness(m)[0] for m in mods)
    assert {(m.ring.q, m.power, m.kind) for m in mods[400:]} == set(
        itertools.product((4, 9), (1, 2), (CARTIER, FROBENIUS)))


def test_planted_wrong_pairing_row_fails_the_witness(monkeypatch):
    """Row 0 of the coordinates that either pairing solves for, so of the
    structure of D(M), moved by 1: the witness fails on every module."""
    solve = duality.hom_coords

    def wrong(F, ker, targets, free):
        coords = solve(F, ker, targets, free).copy()
        coords[0] = F.add(coords[0], 1)
        return coords

    monkeypatch.setattr(duality, "hom_coords", wrong)
    assert not any(matlis_witness(m)[0] for m in witness_corpus()[::10])


def test_planted_memo_entry_fails_the_witness():
    """One entry of an action of a memoized D(M) moved by 1 in place: the
    witness, reading that entry, fails on every module."""
    for m in witness_corpus()[::10]:
        for memo in MEMOS:
            memo.cache_clear()
        act = dualize_artinian(m)[0].module.actions[0]
        act.flags.writeable = True
        act[0, 0] = m.ring.field.add(act[0, 0], 1)
        assert not matlis_witness(m)[0]


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
        m = random_structured(rng, FROBENIUS, rng.choice([2, 3]), 2, 5, 4)
        for s in (2, 3):
            assert sol_base_change_check(m, s)["ok"]


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2)])
def test_sol_base_change_over_a_point(p, r):
    # a ring without variables: the scalar extension keeps the dimension
    F = GF(p, r)
    point = ring_make(F, [], [])
    for h in range(F.order):
        m = f_module(regular_module(point), mx.mat([[h]]))
        for s in (1, 2, 3):
            assert extend_scalars(m, s).dim == 1
            assert sol_base_change_check(m, s)["ok"]


def test_unsolvable_pairing_names_both_sides():
    # the source breaks equivariance; the target E_R is unit
    ring = ring_make(2, ["x"], [[2]])
    m = cartier_module(regular_module(ring), mx.mat([[1, 1], [0, 1]]))
    assert not validate(m).ok and is_unit(dualizing_module(ring))
    with pytest.raises(ValueError, match="source structure is not equivariant "
                       r"or the target is not unit \(check both modules with validate\)"):
        pair_C_to_F(m, dualizing_module(ring))


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


def test_hasse_invariant_matches_power_form_and_point_count():
    """The O(p) recurrence against f^((p-1)/2) by full powers, on random
    nonsingular monic cubics with p <= 211, about a third with f(0) = 0;
    and H = a_p mod p, as #E(F_p) = 1 - H mod p."""
    rng = random.Random(275)
    primes = [q for q in range(3, 212) if is_prime(q)]
    seen = set()
    while len(seen) < 60:
        p = rng.choice(primes)
        cubic = [0 if rng.random() < 0.35 else rng.randrange(p),
                 rng.randrange(p), rng.randrange(p), 1]
        f = Poly.make(GF(p), cubic)
        if f.gcd(f.derivative()).deg >= 1:
            continue
        h = hasse_invariant(p, cubic)
        assert h == hasse_by_power(p, cubic) == elliptic_ap(p, cubic) % p
        seen.add((p, tuple(cubic)))
    assert sum(c[0] == 0 for _, c in seen) >= 10


@pytest.mark.parametrize("cubic", [[1, 2, 0, 1], [0, 1, 0, 1], [0, 3, 5, 1]])
def test_hasse_invariant_at_a_large_prime(cubic):
    """p = 10007: far past what a full power of f reaches quickly."""
    p = 10007
    h = hasse_invariant(p, cubic)
    assert h == elliptic_ap(p, cubic) % p
    assert ordinarity(p, cubic) == (h != 0)


def test_hasse_rejects_singular_and_even():
    with pytest.raises(ValueError):
        hasse_invariant(5, [0, 0, 0, 1])       # x^3: triple root
    with pytest.raises(ValueError):
        hasse_invariant(2, [1, 1, 0, 1])


def test_nonsingular_scan_count():
    assert len(nonsingular_short_weierstrass(5)) == 20


def test_crystal_comparator_exact(ring, e_mod):
    fixA = cartier_module(regular_module(ring), mx.mat([[0, 0], [1, 0]]))
    zero_struct = cartier_module(regular_module(ring), mx.zeros(2, 2))
    assert crystal_class(fixA) == ()
    # nilpotent modules share the trivial class
    assert crystal_equivalent(fixA, zero_struct)
    # a nil-isomorphism preserves the class: sigma(M) vs M
    k_mod = fin_module(ring, [mx.zeros(1, 1)])
    sky = cartier_module(k_mod, mx.mat([[1]]))
    both = direct_sum_structured(fixA, sky)
    part, _ = stable_image(both)
    assert crystal_equivalent(both, part)
    # the hull is not crystal-equivalent to a nilpotent module
    assert not crystal_equivalent(e_mod, zero_struct)


def point_module(F, kind, a):
    """The module over the point GF(q) with structure matrix a."""
    a = mx.mat(a)
    return structured(kind, fin_module(ring_make(F, [], []), [], len(a)), a)


def companion(low):
    """The companion matrix of t^n + sum(low[i] t^i) over GF(2)."""
    c = mx.zeros(len(low), len(low))
    c[1:, :-1] = mx.identity(len(low) - 1)
    c[:, -1] = low
    return c


def test_companion_pair_is_told_apart():
    # t^3+t+1 and t^3+t^2+1 over GF(2): equal stable dimension, geometric
    # dimension and Sol dimensions over GF(2), GF(4), GF(8), but their
    # invariant factors differ
    a = point_module(GF(2), CARTIER, companion([1, 1, 0]))
    b = point_module(GF(2), CARTIER, companion([1, 0, 1]))
    assert crystal_class(a) == ((1, 1, 0, 1),) and crystal_class(b) == ((1, 0, 1, 1),)
    assert not crystal_equivalent(a, b) and crystal_equivalent(a, a)
    assert [sol_point(dualize_artinian(m)[0], s).dim_fq for m in (a, b)
            for s in (1, 2, 3)] == [0] * 6
    # Sol of the dual reaches dimension 3 first over GF(2^7): t has order 7
    t = reduced_operator(dualize_artinian(a)[0])
    assert fixed_point_attainment(GF(2), t) == 7 == attainment_search(GF(2), t, 7)


@pytest.mark.parametrize("p,r,n", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2)])
def test_crystal_equivalence_is_conjugacy_at_the_point(p, r, n):
    # an invertible structure over the point is its own crystal: two are
    # equivalent exactly when the matrices are conjugate in GL_n(F_q)
    F = GF(p, r)
    orbits = conjugacy_classes(F, n)
    reps = [point_module(F, CARTIER, next(iter(o))) for o in orbits]
    for orbit, rep in zip(orbits, reps):
        assert all(crystal_equivalent(point_module(F, CARTIER, a), rep) for a in orbit)
    assert not any(crystal_equivalent(a, b) for i, a in enumerate(reps)
                   for b in reps[i + 1:])
    # one code path serves both kinds; kinds are never equivalent
    frob = [point_module(F, FROBENIUS, next(iter(o))) for o in orbits]
    assert [crystal_class(m) for m in frob] == [crystal_class(m) for m in reps]
    assert not crystal_equivalent(frob[0], reps[0])


def test_crystal_class_is_kept_by_duality():
    for m in artinian_corpus(2024, 200):
        assert crystal_class(dualize_artinian(m)[0]) == crystal_class(m)


def test_nil_isomorphic_modules_share_a_class():
    rng = random.Random(41)
    cartier = artinian_corpus(41, 120)
    frobenius = [random_structured(rng, FROBENIUS, rng.choice([2, 3])) for _ in range(120)]
    for m in cartier + frobenius:
        zero = structured(m.kind, m.module, mx.zeros(m.dim, m.dim))
        assert crystal_equivalent(m, direct_sum_structured(m, zero))
    for m in cartier:
        assert crystal_equivalent(m, stable_image(m)[0])
    for m in frobenius:
        assert crystal_equivalent(m, quotient_structure(m, stable_kernel(m)[1])[0])


def test_torsion_at_the_point_is_nil_isomorphic():
    # m = all variables.  Cartier: kappa^e(M) lies in M[m], so M and
    # i_* M[m] are one crystal.  Either kind: when the counit
    # i_* M[m] -> M is a nil-isomorphism, the two classes agree
    rng = random.Random(43)
    cartier = artinian_corpus(43, 120)
    frobenius = [random_structured(rng, FROBENIUS, rng.choice([2, 3])) for _ in range(120)]
    nil_iso = {CARTIER: 0, FROBENIUS: 0}
    for m in cartier + frobenius:
        n = len(m.ring.vars)
        j = [tuple(int(i == v) for i in range(n)) for v in range(n)]
        try:
            pushed = structured_restrict_scalars(structured_i_torsion(m, j)[0], m.ring)
        except Unsupported:
            assert m.kind == FROBENIUS
            continue
        if m.kind == CARTIER:
            assert crystal_equivalent(m, pushed)
        if kashiwara_counit(m, j).ok:
            assert crystal_class(m) == crystal_class(pushed)
            nil_iso[m.kind] += 1
    assert min(nil_iso.values()) > 0


def extension_field_f_modules():
    """The Artinian Frobenius modules of the extension-field benchmark."""
    root = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "extension-field"
    return [m for path in sorted(root.glob("*.json"))
            for m in parse_problem(json.loads(path.read_text()))["modules"].values()
            if m.kind == FROBENIUS and not isinstance(m, PidModule)]


def test_sol_is_the_fixed_space_of_the_bijective_part():
    # dim_Fq Sol over GF(q^s) = dim ker(B^s - I), B the bijective part
    mods = extension_field_f_modules()
    assert len(mods) == 30
    for m in mods:
        F = m.ring.field
        b = mx.bijective_part(F, m.mat)
        for s in (1, 2, 3):
            fixed = F.sub(mx.mat_pow(F, b, s), mx.identity(len(b)))
            assert len(b) - mx.rank(F, fixed) == sol_point(m, s).dim_fq


def test_sol_certificate_holds_on_the_benchmark_modules():
    # the descent dimension, the fixed equation and the rank over GF(q^s),
    # on every module at s = 1, 2, 3; a zero Sol is certified by its dimension
    dims = []
    for m in extension_field_f_modules():
        for s in (1, 2, 3):
            rep = sol_point(m, s)
            assert sol_certified(m, rep)
            dims.append(rep.dim_fq)
    assert 0 in dims and max(dims) > 1


def test_planted_sol_faults_fail_the_certificate():
    # a dimension one off either way; the last basis vector dropped with the
    # dimension (only the descent count sees it) or replaced by the first
    # (only the rank sees it); and t (code p, outside F_q) added to an entry
    planted = [0, 0]
    for m in extension_field_f_modules():
        for s in (1, 2, 3):
            rep = sol_point(m, s)
            assert not sol_certified(m, replace(rep, dim_fq=rep.dim_fq + 1))
            if rep.dim_fq == 0:
                continue
            assert not sol_certified(m, replace(rep, dim_fq=rep.dim_fq - 1))
            assert not sol_certified(m, replace(rep, dim_fq=rep.dim_fq - 1,
                                                fixed_basis=rep.fixed_basis[:, :-1]))
            basis = rep.fixed_basis.copy()
            basis[0, -1] = rep.ext_field.add(basis[0, -1], m.ring.field.p)
            assert not sol_certified(m, replace(rep, fixed_basis=basis))
            planted[0] += 1
            if rep.dim_fq > 1:
                basis = rep.fixed_basis.copy()
                basis[:, -1] = basis[:, 0]
                assert not sol_certified(m, replace(rep, fixed_basis=basis))
                planted[1] += 1
    assert min(planted) > 0


def test_sol_point_refuses_an_iterated_structure(frobenius_r):
    # Sol at the point reads a level-one structure over F_q, q = |F|
    assert sol_point(frobenius_r).dim_fq == 1
    with pytest.raises(ValueError, match="level-one"):
        sol_point(iterate_structure(frobenius_r, 2))


def test_attainment_agrees_with_the_search_below_the_field_cap():
    # the search solves over each GF(q^s) with q^s <= 2^16; the degree
    # must be the one it finds, or lie beyond the largest such s.  Fields
    # up to MAX_ORDER would take seconds and hundreds of MB each to build
    for m in extension_field_f_modules():
        F, t = m.ring.field, reduced_operator(m)
        deg, cap = fixed_point_attainment(F, t), 1
        while F.order ** (cap + 1) <= 1 << 16:
            cap += 1
        if deg <= cap:
            assert attainment_search(F, t, deg) == deg
        else:
            assert attainment_search(F, t, cap) is None


def test_unit_dualizing_complex_is_perverse_and_self_consistent():
    F2 = GF(2)
    # (R, kappa_S), the rank-one free module with multiplier 1, in degree -1
    ks = pid_free(F2, [Poly.one(F2)], CARTIER)
    omega = shift_module(ks, -1)
    assert list(omega.terms) == [-1]
    assert is_perverse(omega).ok
    # D(omega) is the constant structure in degree 0
    d = dualize(omega)
    assert list(d.terms) == [0]
    term = d.terms[0]
    assert term.kind == FROBENIUS and term.free_rank == 1
    assert term.free_diagonal()[0].coeffs == (1,)
    # and kappa_S is valid as a structure: the multiplier module checks out
    assert local_duality_check(ks).ok
