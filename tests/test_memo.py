"""The program's memos, all made by `artinian.memo`: the `intertwiners`
kernels, the truncation rings, the dualizing modules E_R, D = Hom(-, E_R)
in `dualize_artinian`, the reduced stack of kappa x^lambda behind
`is_unit` and `pair_C_to_F`, and the nilpotency index.

A cached kernel or dual must equal the one solved anew, be read-only, and
be keyed by everything it depends on, not only by the integer matrices.
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
from cartierforge.artinian import (MEMOS, fin_module, intertwiners, quotient_ring,
                                   restrict_scalars, ring_make)
from cartierforge.cli import parse_problem
from cartierforge.duality import dualize_artinian, dualizing_module, pair_C_to_F
from cartierforge.field import GF, _embedding_table, canonical_modulus
from cartierforge.generate import artinian_corpus, random_module, random_structure
from cartierforge.pid import truncation_ring
from cartierforge.structures import (CARTIER, FROBENIUS, _kappa_stack,
                                     _nil_index, cartier_module, is_unit,
                                     kappa_monomials, nilpotency_index,
                                     structured)

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]     # GF(2), GF(3), GF(4), GF(9)
RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def solve_anew(F, As, Bs, rows, cols):
    """The kernel of the stacked system A_i^T (x) I - I (x) B_i on vec H."""
    sys_ = [F.sub(mx.kron(F, A.T, mx.identity(rows)), mx.kron(F, mx.identity(cols), B))
            for A, B in zip(As, Bs)]
    return mx.kernel(F, np.vstack(sys_) if sys_ else mx.zeros(0, rows * cols))


def random_system(rng, F):
    """Random A_i (cols x cols) and B_i (rows x rows), up to two pairs,
    sparse enough that the space of H is often nonzero."""
    rows, cols, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2)

    def mat(k):
        return mx.mat([[rng.randrange(F.order) if rng.random() < 0.3 else 0
                        for _ in range(k)] for _ in range(k)]).reshape(k, k)

    return [mat(cols) for _ in range(n)], [mat(rows) for _ in range(n)], rows, cols


@pytest.mark.parametrize("p,r", FIELDS)
def test_cached_kernel_equals_the_kernel_solved_anew(p, r):
    F = GF(p, r)
    rng = random.Random(1000 * p + r)
    systems = [random_system(rng, F) for _ in range(40)]
    intertwiners.cache_clear()
    nonzero = 0
    for As, Bs, rows, cols in systems + systems[::-1]:
        ref = solve_anew(F, As, Bs, rows, cols)
        ker = intertwiners(F, As, Bs, rows, cols)
        assert ker.dtype == np.int64 and ker.shape == ref.shape
        assert np.array_equal(ker, ref)
        # copies of the matrices hit the same entry
        again = intertwiners(F, [a.copy() for a in As], [b.copy() for b in Bs], rows, cols)
        assert again is ker
        nonzero += ker.size > 0
    info = intertwiners.cache_info()
    assert info.misses == len({repr((As, Bs, rows, cols)) for As, Bs, rows, cols in systems})
    assert info.hits == 4 * len(systems) - info.misses
    assert nonzero > 10


def test_a_hit_returns_a_read_only_kernel():
    F = GF(3)
    A = mx.mat([[0, 1], [0, 0]])
    intertwiners.cache_clear()
    first = intertwiners(F, [A], [A], 2, 2)
    hit = intertwiners(F, [A.copy()], [A.copy()], 2, 2)
    assert intertwiners.cache_info().hits == 1
    assert hit is first and not hit.flags.writeable
    with pytest.raises(ValueError):
        hit[0, 0] = 2
    assert np.array_equal(hit, solve_anew(F, [A], [A], 2, 2))


def test_the_same_integer_matrices_over_two_fields_are_two_entries():
    # H J = 0 for the all-ones J: the rows of H lie in the left kernel of
    # J, spanned by (1, 1) over GF(2) and by (1, 2) over GF(3)
    J, Z = mx.mat([[1, 1], [1, 1]]), mx.zeros(2, 2)
    intertwiners.cache_clear()
    k2 = intertwiners(GF(2), [J], [Z], 2, 2)
    k3 = intertwiners(GF(3), [J], [Z], 2, 2)
    assert intertwiners.cache_info().currsize == 2
    assert np.array_equal(k2, solve_anew(GF(2), [J], [Z], 2, 2))
    assert np.array_equal(k3, solve_anew(GF(3), [J], [Z], 2, 2))
    assert not np.array_equal(k2, k3)


def test_the_kernel_cache_is_bounded():
    F = GF(2)
    intertwiners.cache_clear()
    for n in range(600):    # 600 distinct systems, each with an empty space
        intertwiners(F, [], [], 0, n)
    assert intertwiners.cache_info().currsize == 512


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
        intertwiners.cache_clear()
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


def test_a_quotient_ring_and_the_equal_plain_ring_are_two_dual_entries():
    F = GF(2)
    ambient = ring_make(F, ["x"], [[3]])
    quot = quotient_ring(ambient, [[2]])
    plain = ring_make(F, ["x"], [[3], [2]])
    assert quot.key() == plain.key()
    dp = dualize_artinian(one_dim(F, ring=plain))[0]
    dualize_artinian(one_dim(F, ring=quot))
    dq = dualize_artinian(one_dim(F, ring=quot))[0]
    assert dualize_artinian.cache_info().currsize == 2 and dualize_artinian.cache_info().hits == 1
    assert restrict_scalars(dq.module).ring is ambient
    with pytest.raises(ValueError):
        restrict_scalars(dp.module)


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
    info = _nil_index.cache_info()
    assert info.hits >= len(mods) and info.misses <= len(mods)
    assert {nilpotency_index(m) == math.inf for m in mods} == {True, False}


def test_the_same_integer_structure_over_two_fields_is_two_nilpotency_entries():
    # J^2 = 2J for the all-ones J: zero over GF(2), not nilpotent over GF(3)
    ring2, ring3 = (ring_make(GF(p), [], []) for p in (2, 3))
    J = [[1, 1], [1, 1]]
    assert nilpotency_index(cartier_module(fin_module(ring2, [], 2), J)) == 2
    assert nilpotency_index(cartier_module(fin_module(ring3, [], 2), J)) == math.inf
    assert _nil_index.cache_info().currsize == 2


def test_the_nilpotency_memo_is_bounded():
    ring = ring_make(17, [], [])
    for i in range(600):
        nilpotency_index(cartier_module(fin_module(ring, [], 2),
                                         [[i % 17, i // 17 % 17], [i // 289, 0]]))
    assert _nil_index.cache_info().currsize == 512


@pytest.mark.parametrize("path", sorted((RUN.parent / "inputs").glob("*/*_00.json")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parsing_fills_neither_new_memo(path):
    parse_problem(json.loads(path.read_text()))
    assert _kappa_stack.cache_info().currsize == 0
    assert _nil_index.cache_info().currsize == 0


def bench_cache_clearers():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.cache_clearers([m for n, m in sys.modules.items()
                               if n.startswith("cartierforge")])


def test_bench_cache_clearers_empty_both_caches():
    intertwiners(GF(2), [mx.identity(2)], [mx.identity(2)], 2, 2)
    truncation_ring(GF(2), 3)
    dualize_artinian(one_dim(GF(2)))
    nilpotency_index(one_dim(GF(2)))
    assert len(MEMOS) == 6
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
