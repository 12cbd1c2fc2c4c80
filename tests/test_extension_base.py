"""The same theorems over a non-prime base field GF(4) = GF(2^2).

Base-field arithmetic is code-level identical (a^q = a for a in GF(q)),
so these runs certify that nothing silently assumes r = 1.
"""

import math
import random

import numpy as np

from cartierforge import matrix as mx
from cartierforge.artinian import regular_module, ring_make
from cartierforge.complexes import (dualize, is_perverse, local_duality_check,
                                    matlis_dual)
from cartierforge.duality import (double_dual_check, dual_base_change_check,
                                  dualizing_module, nilpotence_exchange_check,
                                  sol_base_change_check, sol_point)
from cartierforge.field import GF
from cartierforge.generate import random_module, random_structure
from cartierforge.pid import CARTIER, FROBENIUS, pid_free, pid_torsion
from cartierforge.poly import Poly
from cartierforge.structures import (f_module, is_unit, nilpotency_index,
                                     unitalize, validate)
from oracles import dual_basis_matrix

F4 = GF(2, 2)


def test_dualizing_module_over_f4():
    ring = ring_make(F4, ["x"], [[2]])
    d = dualizing_module(ring)
    assert is_unit(d) and d.dim == 2


def test_dual_basis_law_q4():
    want = np.fliplr(np.eye(4, dtype=np.int64))
    assert np.array_equal(dual_basis_matrix(F4), want)


def test_artinian_batteries_over_f4():
    ring = ring_make(F4, ["x"], [[2]])
    rng = random.Random(0)
    for _ in range(12):
        m = random_structure(rng, random_module(rng, ring, 4), CARTIER)
        assert validate(m).ok
        assert double_dual_check(m)[0]
        assert nilpotence_exchange_check(m)
        assert dual_base_change_check(m, 2)
        res = unitalize(m)
        assert res.status in ("unit", "zero")
        assert (res.status == "zero") == (nilpotency_index(m) != math.inf)


def test_sol_over_f4():
    ring = ring_make(F4, ["x"], [[2]])
    tau = mx.zeros(2, 2)
    tau[0, 0] = 1
    frob = f_module(regular_module(ring), tau)
    for s in (1, 2, 3):
        rep = sol_point(frob, s)
        assert rep.geometric_dim == 1 and rep.dim_fq == 1
    rng = random.Random(1)
    for _ in range(6):
        fm = random_structure(rng, random_module(rng, ring, 3), FROBENIUS)
        for s in (2, 3):
            assert sol_base_change_check(fm, s)["ok"]


def test_pid_tier_over_f4():
    sky = pid_torsion(F4, [[0]], [[2]], CARTIER)   # kappa = a generator
    assert local_duality_check(sky).ok
    assert is_perverse(dualize(sky)).ok
    assert matlis_dual(sky.torsion).dim == 1
    for u in ([1], [0], [2], [0, 3]):
        m = pid_free(F4, [Poly.make(F4, u)], CARTIER)
        assert local_duality_check(m).ok
