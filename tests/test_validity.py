"""Everything the package builds from valid data is valid.

Constructors never validate: `validate` is the one check, and `forge run`
applies it once per input module.  So the structures built inside the
package must be valid by construction, and this sweep is where that is
checked: it validates the output of every internal constructor over
random corpora, on GF(2) and GF(3) and on a GF(4)/GF(9) sample.  A planted
wrong pairing coordinate must make the sweep fail.
"""

import dataclasses
import random

import numpy as np

from cartierforge import duality
from cartierforge import matrix as mx
from cartierforge.artinian import fin_module
from cartierforge.complexes import matlis_dual
from cartierforge.duality import dualize_artinian, dualizing_module, extend_scalars
from cartierforge.field import GF
from cartierforge.generate import (artinian_corpus, pid_torsion_corpus,
                                   random_artin_ring, random_module,
                                   random_nilpotent, random_pid_torsion,
                                   random_structure, random_structured)
from cartierforge.pid import (CARTIER, FROBENIUS, pid_sum, pid_torsion,
                              retruncate, truncation_ring)
from cartierforge.poly import Poly
from cartierforge.structures import (direct_sum_structured, flat_cartier,
                                     iterate_structure, quotient_structure,
                                     stable_image, stable_kernel,
                                     structured_i_torsion,
                                     structured_restrict_scalars,
                                     twist_by_unit_line, unitalize, validate)
from oracles import hull_twist


def _record(bad, label, m) -> bool:
    """Validate m; on failure note it under `label`.  Returns the verdict,
    so that only valid structures are built on further."""
    rep = validate(m)
    if not rep.ok:
        bad.append((label, rep.violations))
    return rep.ok


def _artinian_outputs(bad, rng, m):
    """Validate everything built from the valid Artinian structure m."""
    _record(bad, "random_structure", m)
    part, cols = stable_image(m) if m.kind == CARTIER else stable_kernel(m)
    _record(bad, "sub_structure", part)
    _record(bad, "quotient_structure", quotient_structure(m, cols)[0])
    _record(bad, "direct_sum_structured", direct_sum_structured(m, part))
    _record(bad, "iterate_structure", iterate_structure(m, 2))
    unit = np.zeros(m.ring.dim, dtype=np.int64)
    unit[0] = 1 + rng.randrange(m.ring.field.order - 1)
    for j in range(1, m.ring.dim):
        unit[j] = rng.randrange(m.ring.field.order)
    _record(bad, "twist_by_unit_line", twist_by_unit_line(m, unit))
    var = rng.randrange(m.ring.nvars)
    jgens = [[1 if k == var else 0 for k in range(m.ring.nvars)]]
    try:
        tors, _ = structured_i_torsion(m, jgens)
    except ValueError as exc:
        assert "does not restrict" in str(exc)
    else:
        _record(bad, "structured_i_torsion", tors)
        _record(bad, "structured_restrict_scalars", structured_restrict_scalars(tors, m.ring))
    _record(bad, "dualizing_module", dualizing_module(m.ring, m.power))
    d1, _ = dualize_artinian(m)
    if _record(bad, "dualize_artinian", d1):
        _record(bad, "dualize_artinian", dualize_artinian(d1)[0])
    _record(bad, "extend_scalars", extend_scalars(m, 2))
    if m.kind == CARTIER:
        stage = m
        for _ in range(3):
            stage = flat_cartier(stage)[0]
            _record(bad, "flat_cartier", stage)
        res = unitalize(m)
        if res.module is not None:
            _record(bad, "unitalize", res.module)


def _pid_outputs(bad, rng, t):
    """Validate everything built from the valid PID torsion module t."""
    tors = t.torsion
    _record(bad, "random_pid_torsion", tors)
    index = mx.nil_index(tors.ring.field, tors.module.actions[0])
    _record(bad, "retruncate", retruncate(tors, index))
    _record(bad, "retruncate", retruncate(tors, index + 3))
    _record(bad, "pid_sum", pid_sum(t, t).torsion)
    dual = matlis_dual(tors)
    if _record(bad, "matlis_dual", dual):
        _record(bad, "matlis_dual", matlis_dual(dual))
    F = t.field
    u = Poly.make(F, [rng.randrange(F.order) for _ in range(rng.randrange(4))])
    _record(bad, "hull_twist", hull_twist(F, u.deg + 1 + rng.randrange(6), u, t.power))


def _extension_sample(rng):
    """Artinian structures and PID torsion modules over GF(4) and GF(9)."""
    arts, pids = [], []
    for p in (2, 3):
        F = GF(p, 2)
        for kind in (CARTIER, FROBENIUS):
            for _ in range(3):
                ring = random_artin_ring(rng, F, 2, 4)
                arts.append(random_structure(rng, random_module(rng, ring, 3), kind))
            x_act = random_nilpotent(rng, F, rng.randrange(1, 4))
            probe = fin_module(truncation_ring(F, mx.nil_index(F, x_act)), [x_act])
            pids.append(pid_torsion(F, x_act, random_structure(rng, probe, kind).mat,
                                    kind))
    return arts, pids


def _sweep(seed, count):
    rng = random.Random(seed)
    arts = artinian_corpus(seed, count)
    arts += [random_structured(rng, FROBENIUS, rng.choice([2, 3])) for _ in range(count)]
    pids = pid_torsion_corpus(seed, count)
    pids += [random_pid_torsion(rng, rng.choice([2, 3]), 4, FROBENIUS)
             for _ in range(count // 2)]
    ext_arts, ext_pids = _extension_sample(rng)
    bad = []
    for m in arts + ext_arts:
        _artinian_outputs(bad, rng, m)
    for t in pids + ext_pids:
        _pid_outputs(bad, rng, t)
    return bad


def test_every_internal_constructor_builds_valid_structures():
    assert _sweep(11, 40) == []


def test_a_planted_wrong_pairing_coordinate_fails_the_sweep(monkeypatch):
    # add 1 to entry (r, 0) of the paired structure, for r a basis vector
    # that some x moves: with X nilpotent, E_r0 X^q = X E_r0 cannot hold
    def planted(pair):
        def wrong(m, n):
            h, basis = pair(m, n)
            moved = [r for r in range(h.dim)
                     if any(X[:, r].any() for X in h.module.actions)]
            if moved:
                mat = h.mat.copy()
                mat[moved[0], 0] = h.ring.field.add(mat[moved[0], 0], np.int64(1))
                h = dataclasses.replace(h, mat=mat)
            return h, basis
        return wrong

    for name in ("pair_C_to_F", "pair_F_to_C"):
        monkeypatch.setattr(duality, name, planted(getattr(duality, name)))
    bad = _sweep(11, 4)
    assert {"dualize_artinian", "matlis_dual"} <= {label for label, _ in bad}
