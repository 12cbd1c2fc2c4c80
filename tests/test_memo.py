"""The program's memos, all made by `artinian.memo`: the Hom modules of
`hom_module` and the F^flat stages of `flat_cartier`, the truncation
rings, the dualizing modules E_R, D = Hom(-, E_R) in `dualize_artinian`,
the reduced stack of kappa x^lambda behind `is_unit` and `pair_C_to_F`,
the nilpotency index of a structure and the x-index of a module.

Rings, modules and structures are values: every array in them is
read-only from construction, so the memo key a record keeps stays its
content.  The constructors copy a caller's arrays, and no memo takes a
raw array.

A cached Hom module, stage or dual must equal the one solved anew, be
read-only, and be keyed by everything it depends on, not only by the
integer matrices: a module key that drops the ring's relations must fail.
The benchmark empties the program's caches between passes with
`cache_clearers` from `bench/run.py`; every memo must be among what it
empties, and everything else it empties is a field table.
"""

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge.artinian import (MEMO_KEYS, MEMOS, ArtinRing, FinModule, Hom, f_flat,
                                   fin_module, frobenius_pushforward, hom_module,
                                   i_torsion, quotient_ring, regular_module,
                                   restrict_scalars, ring_make, zero_module)
from cartierforge.cli import parse_problem
from cartierforge.complexes import _x_index
from cartierforge.duality import (dualize_artinian, dualizing_module, pair_C_to_F,
                                  pair_F_to_C)
from cartierforge.field import GF, _embedding_table, canonical_modulus
from cartierforge.generate import (artinian_corpus, random_artin_ring, random_module,
                                   random_structure)
from cartierforge.pid import pid_torsion, truncation_ring
from cartierforge.structures import (CARTIER, FROBENIUS, Structured, Unsupported,
                                     _kappa_stack, cartier_module,
                                     direct_sum_structured, flat_cartier, is_unit,
                                     iterate_structure, kappa_monomials,
                                     nilpotency_index, quotient_structure,
                                     stable_image, stable_kernel, structured,
                                     structured_i_torsion,
                                     structured_restrict_scalars, unitalize)
from hypothesis import given, settings, strategies as st
from oracles import kron_intertwiners as solve_anew

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]     # GF(2), GF(3), GF(4), GF(9)
RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def module_pairs(p, r, count):
    """(M, N) over one random monomial ring in one or two variables over
    GF(p^r), dims 1-3; N is M itself a quarter of the time."""
    rng = random.Random(1000 * p + r)
    out = []
    for _ in range(count):
        nv = rng.randint(1, 2)
        ring = ring_make(GF(p, r), ["x", "y"][:nv],
                         [[rng.randint(1, 3) * (i == j) for j in range(nv)] for i in range(nv)])
        m = random_module(rng, ring, 3)
        out.append((m, m if rng.random() < 0.25 else random_module(rng, ring, 3)))
    return out


def copied_module(m):
    """An equal module built from copies of every action."""
    return fin_module(m.ring, [a.copy() for a in m.actions], m.dim)


def same_hom(a, b):
    """Two Hom spaces agree: module (ring, dim, actions), basis, free rows."""
    (h, ker), (g, ker2) = a, b
    return ((h.ring.key(), h.dim) == (g.ring.key(), g.dim)
            and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in
                    zip((ker, a.free, *h.actions), (ker2, b.free, *g.actions))))


@pytest.mark.parametrize("p,r", FIELDS)
def test_cached_kernel_equals_the_kernel_solved_anew(p, r):
    """A `hom_module` hit is the first result, equal to Hom(M, N) solved
    anew with the memo bypassed, and its basis is the Kronecker kernel."""
    F = GF(p, r)
    pairs = module_pairs(p, r, 30)
    firsts = [hom_module(m, n) for m, n in pairs]
    hits = [hom_module(copied_module(m), copied_module(n)) for m, n in pairs]
    info = hom_module.cache_info()
    assert info.hits >= len(pairs) and info.misses <= len(pairs)
    nonzero = 0
    for (m, n), first, hit in zip(pairs, firsts, hits):
        assert hit is first and same_hom(hit, hom_module.__wrapped__(m, n))
        ref = solve_anew(F, m.actions, n.actions, n.dim, m.dim)
        assert hit[1].shape == ref.shape and np.array_equal(hit[1], ref)
        nonzero += hit[0].dim > 0
    assert nonzero > 10


def test_a_hit_returns_a_read_only_kernel():
    m, n = module_pairs(3, 1, 1)[0]
    first = hom_module(m, n)
    hit = hom_module(copied_module(m), copied_module(n))
    assert hom_module.cache_info().hits == 1 and hit is first
    for a in (hit[1], hit.free, *hit[0].actions):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 1
    assert same_hom(hit, hom_module.__wrapped__(m, n))


def test_the_same_integer_matrices_over_two_fields_are_two_entries():
    # H J = 0 for the all-ones J (hom_module solves whatever actions it
    # gets): the rows of H lie in the left kernel of J, spanned by (1, 1)
    # over GF(2) and by (1, 2) over GF(3)
    J, Z = mx.mat([[1, 1], [1, 1]]), mx.zeros(2, 2)
    homs = [hom_module(fin_module(ring, [J]), fin_module(ring, [Z]))
            for ring in (ring_make(GF(p), ["x"], [[2]]) for p in (2, 3))]
    assert hom_module.cache_info().currsize == 2
    (h2, k2), (h3, k3) = homs
    assert (h2.ring.field.p, h3.ring.field.p) == (2, 3)
    assert np.array_equal(k2, solve_anew(GF(2), [J], [Z], 2, 2))
    assert np.array_equal(k3, solve_anew(GF(3), [J], [Z], 2, 2))
    assert not np.array_equal(k2, k3)


def test_the_kernel_cache_is_bounded():
    ring = ring_make(2, [], [])
    zero = fin_module(ring, [], 0)
    for n in range(600):    # 600 distinct pairs, each with an empty space
        hom_module(fin_module(ring, [], n), zero)
    assert hom_module.cache_info().currsize == 512


# -- the memo of the F^flat stages --


def same_stage(a, b):
    """Two `flat_cartier` results agree: structure, adjoint and basis."""
    (s, adj, ker), (t, adj2, ker2) = a, b
    return ((s.kind, s.power, s.dim, s.ring.key()) == (t.kind, t.power, t.dim, t.ring.key())
            and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in
                    zip((s.mat, adj, ker, *s.module.actions),
                        (t.mat, adj2, ker2, *t.module.actions))))


def stage_hits_equal_fresh_builds(mods) -> bool:
    """Every module's stage is built, then asked for again from copies:
    each hit must be the first result and equal a build with the memo
    bypassed."""
    firsts = [flat_cartier(m) for m in mods]
    return all(flat_cartier(copied(m)) is first and same_stage(first, flat_cartier.__wrapped__(m))
               for m, first in zip(mods, firsts))


def test_a_flat_stage_hit_equals_the_stage_built_anew():
    mods = [m for m in artinian_corpus(31, 40) + extension_draws(24) if m.kind == CARTIER]
    assert {m.ring.field.order for m in mods} == {2, 3, 4, 9}
    assert {m.power for m in mods} == {1, 2}
    assert stage_hits_equal_fresh_builds(mods)
    assert flat_cartier.cache_info().hits >= len(mods)


def test_a_flat_stage_hit_returns_read_only_arrays():
    m = next(m for m in artinian_corpus(3, 10) if m.kind == CARTIER)
    first = flat_cartier(m)
    hit = flat_cartier(copied(m))
    assert flat_cartier.cache_info().hits == 1 and hit is first
    stage, adj, ker = hit
    for a in (stage.mat, adj, ker, *stage.module.actions):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 1


def test_the_same_integer_structure_over_two_fields_is_two_stage_entries():
    stages = [flat_cartier(one_dim(GF(p)))[0] for p in (2, 3)]
    assert flat_cartier.cache_info().currsize == 2
    assert [s.ring.field.p for s in stages] == [2, 3]


def test_the_flat_stage_memo_is_bounded():
    # 300 distinct structures on k^2 over GF(17)[] (no variables)
    ring = ring_make(17, [], [])
    for i in range(300):
        # the base-17 digits of i
        flat_cartier(cartier_module(fin_module(ring, [], 2),
                                    [[i % 17, i // 17 % 17], [i // 289, 1]]))
    assert flat_cartier.cache_info().currsize == 256


def residue_fields():
    """k = R/m over GF(2)[x]/(x^2) and GF(2)[x]/(x^3): the same integer
    action and structure over two rings that differ only in a relation."""
    return [one_dim(GF(2), ring=ring_make(GF(2), ["x"], [[e]])) for e in (2, 3)]


def test_the_module_key_holds_the_relations():
    mods = residue_fields()
    assert stage_hits_equal_fresh_builds(mods)
    assert all(same_hom(hom_module(m.module, m.module), hom_module.__wrapped__(m.module, m.module))
               for m in mods)
    assert flat_cartier.cache_info().currsize == hom_module.cache_info().currsize == 2


def test_planted_module_key_without_relations_fails(monkeypatch):
    """A module key that keeps the field and variables of the ring but not
    its relations makes the second ring's stage a hit on the first's."""
    monkeypatch.setitem(MEMO_KEYS, FinModule, lambda m: (
        (m.ring.field.p, m.ring.field.deg, m.ring.vars), m.dim, m._key[2]))
    assert not stage_hits_equal_fresh_builds(residue_fields())


def test_truncation_rings_are_cached_and_read_only():
    F = GF(3)
    truncation_ring.cache_clear()
    ring = truncation_ring(F, 5)
    assert truncation_ring(GF(3), 5) is ring
    assert truncation_ring(F, 6) is not ring and truncation_ring(GF(2), 5) is not ring
    assert ring.dim == 5 and ring.relations == ((5,),)
    (mu,) = ring.mult_ops
    assert not mu.flags.writeable
    with pytest.raises(ValueError):
        mu[0, 0] = 1


# -- the memo of D = Hom(-, E_R) --


def copied(m):
    """An equal module built from copies of every array."""
    mod = fin_module(m.ring, [a.copy() for a in m.module.actions], m.dim)
    return structured(m.kind, mod, m.mat.copy(), m.power)


def extension_draws(count):
    """Cartier and Frobenius structures for q^power, power 1 or 2, over
    monomial rings in two variables over GF(4) and GF(9)."""
    rng = random.Random(49)
    out = []
    for _ in range(count):
        ring = ring_make(GF(rng.choice([2, 3]), 2), ["x", "y"],
                         [[rng.randint(1, 3), 0], [0, rng.randint(1, 2)]])
        out.append(random_structure(rng, random_module(rng, ring, 3),
                                    rng.choice([CARTIER, FROBENIUS]), rng.randint(1, 2)))
    return out


def same_dual(a, b):
    (d, ker), (e, ker2) = a, b
    return ((d.kind, d.power, d.dim) == (e.kind, e.power, e.dim)
            and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in
                    zip((d.mat, ker, *d.module.actions), (e.mat, ker2, *e.module.actions))))


def test_a_dual_hit_equals_the_dual_solved_anew():
    mods = artinian_corpus(31, 40) + extension_draws(24)
    assert {m.ring.field.order for m in mods} == {2, 3, 4, 9}
    assert {(m.kind, m.power) for m in mods} == {(k, p) for k in (CARTIER, FROBENIUS)
                                                 for p in (1, 2)}
    hits = [dualize_artinian(copied(m)) for m in mods + mods]
    assert dualize_artinian.cache_info().hits >= len(mods)
    for m, hit in zip(mods, hits[len(mods):]):
        dualize_artinian.cache_clear()
        hom_module.cache_clear()
        assert same_dual(hit, dualize_artinian(m))


def test_a_dual_hit_returns_the_same_read_only_arrays():
    m = artinian_corpus(3, 1)[0]
    first = dualize_artinian(m)
    hit = dualize_artinian(copied(m))
    assert dualize_artinian.cache_info().hits == 1
    assert hit[0] is first[0] and hit[1] is first[1]
    d, ker = hit
    for a in (d.mat, ker, *d.module.actions):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 1
    # the dual of a shared dual is computed from the read-only arrays
    assert same_dual(dualize_artinian(d), dualize_artinian(copied(d)))


def one_dim(field, kind=CARTIER, power=1, ring=None):
    """k = R/m with the structure 1; valid for every kind and power."""
    ring = ring or ring_make(field, ["x"], [[3]])
    return structured(kind, fin_module(ring, [mx.zeros(1, 1)]), mx.identity(1), power)


@pytest.mark.parametrize("a,b", [
    (one_dim(GF(2)), one_dim(GF(3))),
    (one_dim(GF(3)), one_dim(GF(3), FROBENIUS)),
    (one_dim(GF(2)), one_dim(GF(2), power=2)),
], ids=["GF(2)-GF(3)", "cartier-frobenius", "power-1-2"])
def test_modules_of_equal_integers_are_two_dual_entries(a, b):
    da, db = dualize_artinian(a)[0], dualize_artinian(b)[0]
    assert dualize_artinian.cache_info().currsize == 2
    for m, d in ((a, da), (b, db)):
        opposite = FROBENIUS if m.kind == CARTIER else CARTIER
        assert (d.ring.field, d.kind, d.power) == (m.ring.field, opposite, m.power)


def test_a_quotient_ring_and_the_equal_plain_ring_share_one_dual_entry():
    # a ring is its presentation: the ambient ring is an argument of i_*
    F = GF(2)
    ambient = ring_make(F, ["x"], [[3]])
    quot = quotient_ring(ambient, [[2]])
    plain = ring_make(F, ["x"], [[3], [2]])
    assert quot.key() == plain.key()
    dp = dualize_artinian(one_dim(F, ring=plain))[0]
    dq = dualize_artinian(one_dim(F, ring=quot))[0]
    assert dq is dp
    assert dualize_artinian.cache_info().currsize == 1 and dualize_artinian.cache_info().hits == 1
    for m in (dq.module, dp.module):
        assert restrict_scalars(m, ambient).ring is ambient
    # not an ambient ring: another field, other variables, or a relation
    # (x^1) that no relation (x^2, x^3) of the quotient divides
    for other in (ring_make(GF(3), ["x"], [[3]]), ring_make(F, ["y"], [[3]]),
                  ring_make(F, ["x"], [[1]])):
        with pytest.raises(ValueError, match="is not a quotient of"):
            restrict_scalars(dq.module, other)


def test_the_dual_memo_is_bounded():
    # 300 distinct structures on k^2 over GF(17)[] (no variables)
    ring = ring_make(17, [], [])
    for i in range(300):
        dualize_artinian(cartier_module(fin_module(ring, [], 2), [[i % 17, i // 17], [0, 1]]))
    assert dualize_artinian.cache_info().currsize == 256


def test_the_dualizing_module_memo_is_bounded():
    ring = ring_make(17, [], [])
    for power in range(1, 301):
        dualizing_module(ring, power)
    assert dualizing_module.cache_info().currsize == 256


# -- the reduced kappa stack --


def stack_anew(m):
    """K = kappa_monomials(m), the pivots of K^T (its first independent
    rows) and the inverse of K[rows] when they number dim, else None."""
    F = m.ring.field
    K = kappa_monomials(m)
    rows = mx.rref(F, K.T)[1] if K.size else ()
    return K, rows, mx.inverse(F, K[list(rows)]) if len(rows) == m.dim else None


def cartier_draws():
    mods = [m for m in artinian_corpus(31, 40) + extension_draws(24) if m.kind == CARTIER]
    return mods + [dualizing_module(m.ring, m.power) for m in mods]


def test_a_kappa_stack_hit_equals_the_stack_reduced_anew():
    mods = cartier_draws()
    firsts = [_kappa_stack(m) for m in mods]
    hits = [_kappa_stack(copied(m)) for m in mods]
    assert _kappa_stack.cache_info().hits >= len(mods)
    full = 0
    for m, first, hit in zip(mods, firsts, hits):
        assert all(a is b for a, b in zip(first, hit))
        K, rows, inv = stack_anew(m)
        assert np.array_equal(hit[0], K) and tuple(hit[1]) == tuple(rows)
        assert (hit[2] is None) == (inv is None)
        if inv is not None:
            full += 1
            assert hit[2].dtype == np.int64 and np.array_equal(hit[2], inv)
    assert 0 < full < len(mods)


def test_a_kappa_stack_hit_returns_the_same_read_only_arrays():
    e_mod = dualizing_module(ring_make(GF(3), ["x", "y"], [[2, 0], [0, 3]]))
    first = _kappa_stack(e_mod)          # the unit check of E_R reduced it
    hit = _kappa_stack(copied(e_mod))
    assert _kappa_stack.cache_info()[:2] == (2, 1)      # hits, misses
    for a, b in zip(first, hit):
        assert a is b and not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_e_r_is_reduced_once_for_its_unit_check_and_every_pairing():
    ring = ring_make(GF(2), ["x", "y"], [[2, 0], [0, 2]])
    e_mod = dualizing_module(ring)
    assert _kappa_stack.cache_info().misses == 1
    rng = random.Random(5)
    for _ in range(5):
        pair_C_to_F(random_structure(rng, random_module(rng, ring, 3), CARTIER), e_mod)
    assert is_unit(e_mod)
    assert _kappa_stack.cache_info().misses == 1 and _kappa_stack.cache_info().hits == 6


def test_the_kappa_stack_memo_is_bounded():
    ring = ring_make(17, [], [])
    for i in range(300):
        # the base-17 digits of i
        is_unit(cartier_module(fin_module(ring, [], 2),
                               [[i % 17, i // 17 % 17], [i // 289, 1]]))
    assert _kappa_stack.cache_info().currsize == 256


# -- the nilpotency index --


def test_a_nilpotency_hit_equals_the_index_computed_anew():
    mods = artinian_corpus(31, 40) + extension_draws(24)
    for m in mods + [copied(m) for m in mods]:
        assert nilpotency_index(m) == mx.nil_index(m.ring.field, m.mat)
    info = nilpotency_index.cache_info()
    assert info.hits >= len(mods) and info.misses <= len(mods)
    assert {nilpotency_index(m) == math.inf for m in mods} == {True, False}


def test_the_same_integer_structure_over_two_fields_is_two_nilpotency_entries():
    # J^2 = 2J for the all-ones J: zero over GF(2), not nilpotent over GF(3)
    ring2, ring3 = (ring_make(GF(p), [], []) for p in (2, 3))
    J = [[1, 1], [1, 1]]
    assert nilpotency_index(cartier_module(fin_module(ring2, [], 2), J)) == 2
    assert nilpotency_index(cartier_module(fin_module(ring3, [], 2), J)) == math.inf
    assert nilpotency_index.cache_info().currsize == 2


def test_the_nilpotency_memo_is_bounded():
    ring = ring_make(17, [], [])
    for i in range(600):
        nilpotency_index(cartier_module(fin_module(ring, [], 2),
                                         [[i % 17, i // 17 % 17], [i // 289, 0]]))
    assert nilpotency_index.cache_info().currsize == 512


@pytest.mark.parametrize("path", sorted((RUN.parent / "inputs").glob("*/*_00.json")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parsing_fills_neither_new_memo(path):
    parse_problem(json.loads(path.read_text()))
    assert _kappa_stack.cache_info().currsize == 0
    assert nilpotency_index.cache_info().currsize == _x_index.cache_info().currsize == 0


def bench_cache_clearers():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.cache_clearers([m for n, m in sys.modules.items()
                               if n.startswith("cartierforge")])


def test_bench_cache_clearers_empty_both_caches():
    truncation_ring(GF(2), 3)
    dualize_artinian(one_dim(GF(2)))
    flat_cartier(one_dim(GF(2)))
    nilpotency_index(one_dim(GF(2)))
    _x_index(one_dim(GF(2)).module)
    assert len(MEMOS) == 8
    assert all(memo.cache_info().currsize > 0 for memo in MEMOS)
    for clear in bench_cache_clearers():
        clear()
    assert all(memo.cache_info().currsize == 0 for memo in MEMOS)


def test_every_cache_is_a_registered_memo_but_the_field_tables():
    clearers = bench_cache_clearers()
    registered = [memo.cache_clear for memo in MEMOS]
    assert all(clear in clearers for clear in registered)
    outside = {clear.__self__ for clear in clearers if clear not in registered}
    assert outside == {GF, canonical_modulus, _embedding_table}


# -- records are values --


def record_arrays(obj) -> list:
    """Every array of the rings, modules, structures, Hom spaces and
    tuples of them in `obj`."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, ArtinRing):
        return list(obj.mult_ops)
    if isinstance(obj, FinModule):
        return record_arrays(obj.ring) + list(obj.actions)
    if isinstance(obj, Structured):
        return record_arrays(obj.module) + [obj.mat]
    if isinstance(obj, Hom):
        return [obj.free] + record_arrays(tuple(obj))
    if isinstance(obj, tuple):
        return [a for x in obj for a in record_arrays(x)]
    return []


def reached_records(m) -> list:
    """The records that the constructors, the derived records and the
    memos give from the structure `m`: sub and quotient (on the stable
    span), the direct sum, the iterate, i-flat and i_* (restriction to a
    torsion part and back), the pairing into E_R of m's kind, two F^flat
    stages, and the result of every memo, each asked for twice (a miss,
    then a hit)."""
    ring, F = m.ring, m.ring.field
    sub, cols = (stable_image if m.kind == CARTIER else stable_kernel)(m)
    out = [ring_make(F, ring.vars, ring.relations), m, regular_module(ring),
           zero_module(ring), frobenius_pushforward(m.module, m.power), sub,
           quotient_structure(m, cols)[0], direct_sum_structured(m, sub),
           iterate_structure(m, 2), f_flat(m.module, m.power)]
    gens = [tuple(int(i == 0) for i in range(ring.nvars))]
    out.append(i_torsion(m.module, gens)[0])
    try:
        tors = structured_i_torsion(m, gens)[0]
        out += [tors, structured_restrict_scalars(tors, ring)]
    except Unsupported:      # a Frobenius structure need not restrict
        pass
    e_mod = dualizing_module(ring, m.power)
    out.append(pair_C_to_F(m, e_mod) if m.kind == CARTIER else pair_F_to_C(m, e_mod))
    for _ in range(2):
        out += [hom_module(m.module, m.module), dualize_artinian(m), e_mod,
                truncation_ring(F, 3), _kappa_stack(e_mod), nilpotency_index(m),
                _x_index(m.module)]
        if m.kind == CARTIER:
            stage = flat_cartier(m)
            out += [stage, flat_cartier(stage[0]), _kappa_stack(m)]
    if m.kind == CARTIER:
        out.append(unitalize(m, 3).module)
    return out


@st.composite
def drawn_structures(draw):
    """A random structure of either kind, power 1 or 2, on a module of dim
    at most 3 over a random ring of dim at most 4 over GF(2), GF(3), GF(4)
    or GF(9)."""
    p, r = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    mod = random_module(rng, random_artin_ring(rng, GF(p, r), 2, 4), 3)
    return random_structure(rng, mod, draw(st.sampled_from([CARTIER, FROBENIUS])),
                            draw(st.integers(1, 2)))


@settings(max_examples=60, deadline=None)
@given(drawn_structures())
def test_every_array_reached_is_read_only(m):
    arrays = record_arrays(tuple(reached_records(m)))
    assert len(arrays) > 20
    assert not [a for a in arrays if a.flags.writeable]


def test_the_constructors_copy_the_callers_arrays():
    """`fin_module`, `structured` and `pid_torsion` keep copies: the
    caller's arrays stay writable and unshared, and writing to them
    changes neither the record nor the key it keeps."""
    F = GF(3)
    x = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    k = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=np.int64)
    m = structured(CARTIER, fin_module(ring_make(F, ["x"], [[3]]), [x]), k)
    t = pid_torsion(F, x, k, CARTIER).torsion
    key = m._key
    for rec in (m, t):
        for mine, kept in ((x, rec.module.actions[0]), (k, rec.mat)):
            assert mine.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(mine, kept)
    x[0, 0] = k[1, 1] = 2
    assert m.module.actions[0][0, 0] == m.mat[1, 1] == 0
    assert m._key == key == copied(m)._key


def test_a_memo_takes_no_raw_array():
    """MEMO_KEYS has one entry per record type and none for an array, so a
    memo called with an array raises instead of keying on it."""
    assert set(MEMO_KEYS) == {ArtinRing, FinModule, Structured}
    with pytest.raises(TypeError, match="unhashable"):
        nilpotency_index(mx.identity(2))


def test_planted_content_change_under_a_kept_key_fails():
    """A structure whose matrix is changed in place after it was keyed
    (writeable flipped back on: what freezing forbids) keeps its old key,
    so its stage is a hit on the old content: the hits-equal-fresh-builds
    check fails."""
    mods = [m for m in artinian_corpus(31, 12) if mx.nonzero(m.mat)]
    assert stage_hits_equal_fresh_builds(mods)
    for m in mods:
        m.mat.flags.writeable = True
        m.mat[...] = 0          # the zero structure is valid on any module
    assert not stage_hits_equal_fresh_builds(mods)
