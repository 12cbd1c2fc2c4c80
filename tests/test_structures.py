"""Crystal-level operations: validation, nilpotence, stable parts,
unitalization, nil-isomorphisms, twists, Kashiwara."""

import math
import random

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge.artinian import (fin_module, quotient_ring, regular_module,
                                   ring_make, zero_module)
from cartierforge.duality import (pair_C_to_F, pair_F_to_C, reduced_operator,
                                  sol_point)
from cartierforge.generate import (artinian_corpus, random_artin_ring,
                                   random_module, random_structure)
from cartierforge.structures import (CARTIER, FROBENIUS, Structured,
                                     adjoint_structural, cartier_module,
                                     direct_sum_structured, f_module,
                                     flat_cartier, is_unit, iterate_structure,
                                     kappa_monomials, kashiwara_counit,
                                     nil_isomorphism_check, nilpotency_index,
                                     quotient_structure, stable_image,
                                     stable_kernel, structured_i_torsion,
                                     twist_by_unit_line, unitalize, validate)
from oracles import kashiwara_roundtrip

# x acts on F_2[x]/(x^2) by the shift; C is fixture_a, T its Frobenius twin
# with the zero structure
_R2 = ring_make(2, ["x"], [[2]])
_C = cartier_module(regular_module(_R2), mx.mat([[0, 0], [1, 0]]))
_T = f_module(regular_module(_R2), mx.zeros(2, 2))


@pytest.fixture
def ring():
    return ring_make(2, ["x"], [[2]])


@pytest.fixture
def fixture_a(ring):
    # R = F_2[x]/(x^2), kappa(F_*1) = x, kappa(F_*x) = 0
    return cartier_module(regular_module(ring), mx.mat([[0, 0], [1, 0]]))


@pytest.fixture
def skyscraper(ring):
    return cartier_module(fin_module(ring, [mx.zeros(1, 1)]), mx.mat([[1]]))


def test_validate_fixture_and_identity(ring, fixture_a):
    assert validate(fixture_a).ok
    bad = Structured(CARTIER, regular_module(ring), mx.identity(2))
    rep = validate(bad)
    assert not rep.ok and any("equivariance" in v for v in rep.violations)
    assert validate(cartier_module(regular_module(ring), mx.zeros(2, 2))).ok


def test_nilpotency_examples(ring, fixture_a, skyscraper):
    assert nilpotency_index(fixture_a) == 2
    assert nilpotency_index(cartier_module(regular_module(ring), mx.zeros(2, 2))) == 1
    assert nilpotency_index(skyscraper) == math.inf


def test_nilpotency_bounded_by_dim_on_corpus():
    for m in artinian_corpus(2, 30):
        idx = nilpotency_index(m)
        assert idx == math.inf or idx <= max(m.dim, 1)
        # kappa^dim = 0 iff some power vanishes
        F = m.ring.field
        assert (idx != math.inf) == (not mx.mat_pow(F, m.mat, max(m.dim, 1)).any())


def test_stable_image_examples(ring, fixture_a, skyscraper):
    s, _ = stable_image(fixture_a)
    assert s.dim == 0
    s2, _ = stable_image(skyscraper)
    assert s2.dim == 1
    both = direct_sum_structured(fixture_a, skyscraper)
    s3, cols = stable_image(both)
    assert s3.dim == 1
    assert validate(s3).ok          # genuinely a substructure


def test_stable_kernel(ring):
    tau = mx.mat([[1, 0], [0, 0]])
    mod = fin_module(ring, [mx.zeros(2, 2)])
    m = f_module(mod, tau)
    k, _ = stable_kernel(m)
    assert k.dim == 1 and validate(k).ok


def test_adjoint_structural_fixture(ring, fixture_a):
    a, flat, basis = adjoint_structural(fixture_a)
    F = ring.field
    kern = mx.kernel(F, a)
    assert kern.shape[1] == 1 and kern[1, 0] == 1    # kernel = span{x}
    # R-linearity of the adjoint
    for X_src, X_dst in zip(fixture_a.module.actions, flat.actions):
        assert np.array_equal(mx.mmul(F, a, X_src), mx.mmul(F, X_dst, a))


def test_is_unit_examples(ring, fixture_a):
    assert not is_unit(cartier_module(regular_module(ring), mx.zeros(2, 2)))
    assert is_unit(cartier_module(zero_module(ring), mx.zeros(0, 0)))
    from cartierforge.duality import dualizing_module
    assert is_unit(dualizing_module(ring))
    assert not is_unit(fixture_a)


def test_unitalize_fixture_cases(ring, fixture_a, skyscraper):
    res = unitalize(fixture_a)
    assert res.status == "zero" and res.module.dim == 0 and res.steps <= 2
    rf = ring_make(2, ["x"], [[1]])
    kf = cartier_module(regular_module(rf), mx.mat([[1]]))
    res2 = unitalize(kf)
    assert res2.status == "unit" and res2.module.dim == 1
    from cartierforge.duality import dualizing_module
    e = dualizing_module(ring)
    res3 = unitalize(e)
    assert res3.status == "unit" and res3.module.dim == e.dim
    # the skyscraper unitalizes to a 2-dim unit module (the hull)
    res4 = unitalize(skyscraper)
    assert res4.status == "unit" and res4.module.dim == 2
    assert is_unit(res4.module) and res4.certificate.ok


def test_unitalize_mixed_sum(fixture_a, skyscraper):
    both = direct_sum_structured(fixture_a, skyscraper)
    res = unitalize(both)
    assert res.status == "unit" and res.module.dim == 2
    assert res.certificate.ok and is_unit(res.module)


def test_unitalize_corpus_zero_iff_nilpotent():
    for m in artinian_corpus(13, 40):
        res = unitalize(m)
        assert res.status in ("unit", "zero")
        assert (res.status == "zero") == (nilpotency_index(m) != math.inf)
        if res.status == "unit":
            assert is_unit(res.module) and res.certificate.ok


def test_nil_isomorphism_examples(ring, fixture_a, skyscraper):
    rep = nil_isomorphism_check(mx.identity(2), fixture_a, fixture_a)
    assert rep.ok and rep.kernel_index == 1 and rep.cokernel_index == 1
    zero = cartier_module(zero_module(ring), mx.zeros(0, 0))
    assert nil_isomorphism_check(mx.zeros(2, 0), zero, fixture_a).ok
    both = direct_sum_structured(fixture_a, skyscraper)
    s, cols = stable_image(both)
    rep2 = nil_isomorphism_check(cols, s, both)
    assert rep2.ok and rep2.cokernel_dim == 2
    # a non-morphism raises
    with pytest.raises(ValueError):
        nil_isomorphism_check(mx.mat([[1, 0]]), fixture_a, skyscraper)


def test_iterate_structure(ring, fixture_a, skyscraper):
    one = iterate_structure(fixture_a, 1)
    assert np.array_equal(one.mat, fixture_a.mat) and one.power == 1
    two = iterate_structure(fixture_a, 2)
    assert not two.mat.any() and two.power == 2
    assert np.array_equal(iterate_structure(skyscraper, 5).mat, skyscraper.mat)


def test_iterate_nilpotency_ceiling_relation():
    for m in artinian_corpus(21, 25):
        idx = nilpotency_index(m)
        for s in (2, 3):
            idx_s = nilpotency_index(iterate_structure(m, s))
            if idx == math.inf:
                assert idx_s == math.inf
            else:
                assert idx_s == -(-idx // s)    # ceil division


def test_twist_by_unit_line(ring, fixture_a):
    F = ring.field
    # a = 1: unchanged
    same = twist_by_unit_line(fixture_a, [1, 0])
    assert np.array_equal(same.mat, fixture_a.mat)
    # a = 1 + x: char-2 inverse is itself
    tw = twist_by_unit_line(fixture_a, [1, 1])
    act = fixture_a.module.element_action([1, 1])
    assert np.array_equal(tw.mat, mx.mmul(F, fixture_a.mat, act))
    # double twist is the identity
    assert np.array_equal(twist_by_unit_line(tw, [1, 1]).mat, fixture_a.mat)
    # non-unit rejected
    with pytest.raises(ValueError):
        twist_by_unit_line(fixture_a, [0, 1])


def test_twist_preserves_nilpotency_finiteness():
    rng = random.Random(5)
    for m in artinian_corpus(17, 20):
        # pick a unit section: 1 + (nilpotent part)
        coords = np.zeros(m.ring.dim, dtype=np.int64)
        coords[0] = 1
        for j in range(1, m.ring.dim):
            coords[j] = rng.randrange(m.ring.field.order)
        tw = twist_by_unit_line(m, coords)
        assert (nilpotency_index(m) == math.inf) == (nilpotency_index(tw) == math.inf)


def test_kashiwara_roundtrip_and_counit(ring, fixture_a):
    tors, _ = structured_i_torsion(fixture_a, [[1]])
    assert kashiwara_roundtrip(tors, fixture_a.ring, [[1]])
    rep = kashiwara_counit(fixture_a, [[1]])
    assert rep.ok and rep.supported
    assert rep.counit.kernel_index == 1       # kernel is zero
    # zero module round trip
    z = cartier_module(zero_module(ring), mx.zeros(0, 0))
    tz, _ = structured_i_torsion(z, [[1]])
    assert kashiwara_roundtrip(tz, ring, [[1]])


def test_i_torsion_undoes_restrict_scalars_on_corpus():
    # over R/J, J acts by zero on i_* M, so its J-torsion is all of it and
    # i-flat o i_* is the identity; the oracle compares matrices exactly
    rng = random.Random(77)
    for _ in range(40):
        ring = random_artin_ring(rng, rng.choice([2, 3]))
        var = rng.randrange(ring.nvars)
        jgens = [[rng.choice([1, 2]) if k == var else 0 for k in range(ring.nvars)]]
        q = quotient_ring(ring, jgens)
        for kind in (CARTIER, FROBENIUS):
            m = random_structure(rng, random_module(rng, q, 4), kind)
            assert kashiwara_roundtrip(m, ring, jgens)


def test_only_frobenius_structures_can_miss_the_torsion_part(ring):
    # for a in J and v in M[J], a kappa(v) = kappa(a^q v) = 0, so a Cartier
    # structure always restricts to M[J]; tau(a v) = a^q tau(v) bounds
    # nothing, and random Frobenius structures do leave M[x_1]
    rng = random.Random(5)
    failures = {CARTIER: 0, FROBENIUS: 0}
    for _ in range(150):
        r = random_artin_ring(rng, rng.choice([2, 3]))
        j = [[1] + [0] * (r.nvars - 1)]
        for kind in (CARTIER, FROBENIUS):
            try:
                structured_i_torsion(random_structure(rng, random_module(rng, r), kind), j)
            except ValueError as exc:
                assert str(exc).endswith("(possible only for Frobenius structures)")
                failures[kind] += 1
    assert failures[CARTIER] == 0 and failures[FROBENIUS] > 0
    # M = R + k over F_2[x]/(x^2): tau kills x M and sends the torsion
    # vector f of k to 1 in R, outside M[x] = span(x, f)
    x = mx.zeros(3, 3)
    x[1, 0] = 1
    tau = mx.zeros(3, 3)
    tau[0, 2] = 1
    m = f_module(fin_module(ring, [x]), tau)
    assert validate(m).ok
    with pytest.raises(ValueError, match="possible only for Frobenius"):
        structured_i_torsion(m, [[1]])


def test_kashiwara_counit_unsupported_module_detected(ring, skyscraper):
    # variables always act nilpotently over a monomial Artinian ring, so the
    # only way to leave V(J) is J = (1); the counit then fails on a module
    # with non-nilpotent structure and the report says why
    rep = kashiwara_counit(skyscraper, [[0]])
    assert not rep.supported and not rep.ok


def test_sub_and_quotient_structures_validate(ring, fixture_a, skyscraper):
    both = direct_sum_structured(fixture_a, skyscraper)
    s, cols = stable_image(both)
    q, _, _ = quotient_structure(both, cols)
    assert validate(s).ok and validate(q).ok
    assert s.dim + q.dim == both.dim


@pytest.mark.parametrize("call,kind", [
    pytest.param(lambda: kappa_monomials(_T), CARTIER, id="kappa_monomials"),
    pytest.param(lambda: adjoint_structural(_T), CARTIER, id="adjoint_structural"),
    pytest.param(lambda: flat_cartier(_T), CARTIER, id="flat_cartier"),
    pytest.param(lambda: is_unit(_T), CARTIER, id="is_unit"),
    pytest.param(lambda: unitalize(_T), CARTIER, id="unitalize"),
    pytest.param(lambda: unitalize(_T, max_steps=0), CARTIER, id="unitalize-no-step"),
    pytest.param(lambda: stable_image(_T), CARTIER, id="stable_image"),
    pytest.param(lambda: stable_kernel(_C), FROBENIUS, id="stable_kernel"),
    pytest.param(lambda: reduced_operator(_C), FROBENIUS, id="reduced_operator"),
    pytest.param(lambda: sol_point(_C), FROBENIUS, id="sol_point"),
    pytest.param(lambda: pair_F_to_C(_C, _C), FROBENIUS, id="pair_F_to_C-source"),
    pytest.param(lambda: pair_F_to_C(_T, _T), CARTIER, id="pair_F_to_C-target"),
    pytest.param(lambda: pair_C_to_F(_T, _C), CARTIER, id="pair_C_to_F-source"),
    pytest.param(lambda: pair_C_to_F(_C, _T), CARTIER, id="pair_C_to_F-target"),
])
def test_a_structure_of_the_wrong_kind_is_a_value_error_naming_the_kind(call, kind):
    with pytest.raises(ValueError, match=f"^expects a {kind} structure, got a "):
        call()
