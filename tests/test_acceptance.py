"""Acceptance criteria: ten exact (tolerance-zero) batteries.

Each criterion prints one PASS/FAIL line (run pytest -s to see them all)
and asserts both the mathematical statement and its runtime budget.
"""

import math
import random
import time

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge.artinian import quotient_ring, regular_module, ring_make
from cartierforge.complexes import (dualize, is_perverse, local_duality_check,
                                    shift_module)
from cartierforge.duality import (double_dual_check, dual_base_change_check,
                                  elliptic_ap, hasse_invariant,
                                  nilpotence_exchange_check,
                                  nonsingular_short_weierstrass,
                                  sol_base_change_check, sol_point)
from cartierforge.field import GF
from cartierforge.generate import (artinian_corpus, pid_torsion_corpus,
                                   random_f_module, random_module,
                                   random_structure)
from cartierforge.pid import CARTIER, pid_free
from cartierforge.poly import Poly
from cartierforge.structures import (cartier_module, f_module, is_unit,
                                     kashiwara_counit, nilpotency_index,
                                     unitalize)
from oracles import dual_basis_matrix, kashiwara_roundtrip

SEED = 2024


@pytest.fixture(scope="module")
def corpus():
    # 200 seeded random Cartier modules: dim <= 5, ring dim <= 6, p in {2, 3}
    return artinian_corpus(SEED, 200, p_choices=(2, 3), max_ring_dim=6, max_dim=5)


def report(num, ok, text, elapsed):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text} "
          f"({elapsed:.2f}s)")


def test_criterion_01_dual_basis_law():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 5):
        want = np.fliplr(np.eye(p, dtype=np.int64))
        ok = ok and np.array_equal(dual_basis_matrix(GF(p)), want)
    dt = time.monotonic() - t0
    report(1, ok and dt < 1.0, "kappa_S flat carries the monomial basis to "
                               "the dual basis, p in {2,3,5}", dt)
    assert ok
    assert dt < 1.0


def test_criterion_02_double_duality(corpus):
    t0 = time.monotonic()
    ok = all(double_dual_check(m)[0] for m in corpus)
    dt = time.monotonic() - t0
    report(2, ok and dt < 30.0,
           "double duality exact on 200 random Artinian Cartier modules", dt)
    assert ok
    assert dt < 30.0


def test_criterion_03_nilpotence_exchange(corpus):
    t0 = time.monotonic()
    ok = all(nilpotence_exchange_check(m) for m in corpus)
    dt = time.monotonic() - t0
    report(3, ok, "nilpotency finiteness of M and D(M) agree on the corpus", dt)
    assert ok


def test_criterion_04_local_duality():
    t0 = time.monotonic()
    tors = pid_torsion_corpus(SEED, 100, p_choices=(2, 3), max_dim=5)
    ok = all(local_duality_check(m).ok for m in tors)
    dt = time.monotonic() - t0
    report(4, ok and dt < 60.0,
           "local duality verdicts agree on 100 random torsion modules", dt)
    assert ok
    assert dt < 60.0


def test_criterion_05_sol_normalization():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        ring = ring_make(p, ["x"], [[2]])
        F = ring.field
        tau = mx.zeros(ring.dim, ring.dim)
        for j, b in enumerate(ring.basis):
            sq = tuple(2 * e for e in b)
            if sq in ring.basis:
                tau[ring.basis.index(sq), j] = 1
        frob = f_module(regular_module(ring), tau)
        for s in (1, 2, 3):
            rep = sol_point(frob, s)
            ok = ok and rep.geometric_dim == 1 and rep.dim_fq == 1
            emb = F.embedding(rep.ext_field)
            v = rep.fixed_basis[:, 0]
            span = {int(rep.ext_field.mul(v[0], emb[c])) for c in range(F.order)}
            ok = ok and span == {int(e) for e in emb}
    dt = time.monotonic() - t0
    report(5, ok and dt < 1.0,
           "Sol of the constant structure is exactly F_q, s in {1,2,3}", dt)
    assert ok
    assert dt < 1.0


def test_criterion_06_base_change(corpus):
    t0 = time.monotonic()
    ok = True
    for m in corpus:
        for s in (2, 3):
            ok = ok and dual_base_change_check(m, s)
    rng = random.Random(SEED)
    for _ in range(60):
        fm = random_f_module(rng, rng.choice([2, 3]), 2, 5, 4)
        for s in (2, 3):
            ok = ok and sol_base_change_check(fm, s)["ok"]
    dt = time.monotonic() - t0
    report(6, ok and dt < 30.0,
           "Sol and D commute with base change, s in {2,3}", dt)
    assert ok
    assert dt < 30.0


def test_criterion_07_kashiwara():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(SEED)
    fixtures = []
    r1 = ring_make(2, ["x"], [[2]])
    r2 = ring_make(3, ["x", "y"], [[3, 0], [0, 2], [1, 1]])
    for ring, jgens in [(r1, [[1]]), (r2, [[1, 0]]), (r2, [[1, 0], [0, 1]])]:
        # modules over the quotient: the round trip must be the identity
        q = quotient_ring(ring, jgens)
        for mod in (regular_module(q), random_module(rng, q, 3)):
            m = random_structure(rng, mod, CARTIER)
            ok = ok and kashiwara_roundtrip(m, ring, jgens)
        # supported modules over the ambient ring: counit is a nil-iso
        for _ in range(5):
            n = random_structure(rng, random_module(rng, ring, 4), CARTIER)
            rep = kashiwara_counit(n, jgens)
            ok = ok and rep.supported and rep.ok
    # the worked fixture
    fixA = cartier_module(regular_module(r1), mx.mat([[0, 0], [1, 0]]))
    rep = kashiwara_counit(fixA, [[1]])
    ok = ok and rep.ok and rep.counit.cokernel_index != math.inf
    dt = time.monotonic() - t0
    report(7, ok and dt < 5.0,
           "i-flat o i_* = id exactly; counit a nil-iso on supported modules", dt)
    assert ok
    assert dt < 5.0


def test_criterion_08_perversity_exchange():
    t0 = time.monotonic()
    tors = pid_torsion_corpus(SEED + 1, 50, p_choices=(2, 3), max_dim=5)
    ok = all(is_perverse(dualize(m)).ok for m in tors)
    # the shifted free crystal fails perversity exactly as predicted
    free = pid_free(GF(2), [Poly.one(GF(2))], CARTIER)
    ok = ok and not is_perverse(shift_module(free, 0)).ok
    ok = ok and is_perverse(shift_module(free, -1)).ok
    dt = time.monotonic() - t0
    report(8, ok and dt < 30.0,
           "D(M[0]) perverse for 50 torsion modules; shifted free crystal "
           "fails", dt)
    assert ok
    assert dt < 30.0


def test_criterion_09_ordinarity_scan():
    t0 = time.monotonic()
    ok = True
    total = 0
    for p in (3, 5, 7, 11, 13):
        for (a, b) in nonsingular_short_weierstrass(p):
            cubic = [b, a, 0, 1]
            h = hasse_invariant(p, cubic)
            ap = elliptic_ap(p, cubic)
            ok = ok and ((h != 0) == (ap % p != 0))
            total += 1
    dt = time.monotonic() - t0
    report(9, ok and dt < 60.0,
           f"Hasse invariant vs point count agree on all {total} curves", dt)
    assert ok
    assert dt < 60.0


def test_criterion_10_unitalization(corpus):
    t0 = time.monotonic()
    ok = True
    for m in corpus:
        res = unitalize(m)
        nilp = nilpotency_index(m) != math.inf
        if nilp:
            ok = ok and res.status == "zero" and res.module.dim == 0
        else:
            ok = ok and res.status == "unit" and is_unit(res.module)
            ok = ok and res.certificate is not None and res.certificate.ok
    dt = time.monotonic() - t0
    report(10, ok and dt < 30.0,
           "unitalize: 0 exactly on nilpotents, certified unit otherwise", dt)
    assert ok
    assert dt < 30.0
