"""The shared routines of the structured-module layer against the forms
they replaced.

`structured` is the one constructor behind `cartier_module` and
`f_module`; `artinian.restrict` is the one solve of cols Y = X cols behind
`submodule`, `i_torsion`, `sub_structure` and `structured_i_torsion`, the
last two restricting the actions and the structure matrix in one call;
`artinian.induce` gives the quotient's actions and structure in one
product pair, and `matrix.block_diag` every block diagonal;
`duality.inverse_hull` builds the dualizing module E_R of every ring,
truncations included, with the contraction for q^power written directly;
and `semilinear_fixed_points` linearizes over GF(p) in one vectorized
product.  The references below are the earlier forms: two constructors, a
solve per matrix, the explicit truncation index formula, the q-contraction
iterated by `mat_pow`, and the double loop; for the derived modules they
are the two-step forms of `oracles.py`.  The new routines must agree with
them bit for bit.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartierforge import matrix as mx
from cartierforge import structures
from cartierforge.artinian import (FinModule, direct_sum, i_torsion, regular_module,
                                   restrict, ring_make, submodule)
from cartierforge.duality import dualizing_module, inverse_hull
from cartierforge.field import GF
from cartierforge.generate import (random_artin_ring, random_module,
                                   random_structure)
from cartierforge.pid import inverse_module, truncation_ring
from cartierforge.structures import (CARTIER, FROBENIUS, Structured, cartier_module,
                                     direct_sum_structured, f_module,
                                     quotient_structure, structured,
                                     structured_i_torsion, sub_structure, validate)
from cartierforge.twisted import FixedPoints, semilinear_fixed_points
from oracles import (hand_direct_sum, hand_direct_sum_structured, hand_random_module,
                     two_step_quotient_structure, two_step_structured_i_torsion,
                     two_step_sub_structure)


# -- references: the earlier forms --


def ref_cartier_module(module, kappa, power=1):
    return Structured(CARTIER, module, np.asarray(kappa, dtype=np.int64), power)


def ref_f_module(module, tau, power=1):
    return Structured(FROBENIUS, module, np.asarray(tau, dtype=np.int64), power)


def ref_restrict(F, mats, cols):
    out = []
    for X in mats:
        y = mx.solve(F, cols, mx.mmul(F, X, cols)) if cols.shape[1] else mx.zeros(0, 0)
        if y is None:
            return None
        out.append(y)
    return out


def ref_truncation_hull(field, level, power):
    """The x-action and kappa of the truncated hull, by the index formula."""
    q = field.order ** power
    x_act = mx.zeros(level, level)
    for j in range(1, level):
        x_act[j - 1, j] = 1
    kap = mx.zeros(level, level)
    for j in range(level):
        a = j + 1
        if (a + q - 1) % q == 0:
            kap[(a + q - 1) // q - 1, j] = 1
    return x_act, kap


def ref_ring_hull(ring, power):
    """The actions and kappa of E_R: the q-contraction, then its iterate."""
    F = ring.field
    q = F.order
    n = ring.dim
    index = {b: i for i, b in enumerate(ring.basis)}
    acts = []
    for v in range(ring.nvars):
        X = mx.zeros(n, n)
        for j, b in enumerate(ring.basis):
            if b[v] >= 1:
                tgt = tuple(e - (1 if k == v else 0) for k, e in enumerate(b))
                X[index[tgt], j] = 1
        acts.append(X)
    kap = mx.zeros(n, n)
    for j, b in enumerate(ring.basis):
        if all(e % q == 0 for e in b):
            kap[index[tuple(e // q for e in b)], j] = 1
    if power > 1:
        kap = mx.mat_pow(F, kap, power)
    return acts, kap


def ref_semilinear_fixed_points(F, t, s=1):
    p, r = F.p, F.deg
    ext = GF(p, r * s)
    emb = F.embedding(ext)
    m = ext.deg
    mat_e = emb[t]
    d = len(t)
    n = d * m
    fp = GF(p)
    gen_powers = np.zeros(m, dtype=np.int64)
    acc = np.int64(1)
    for i in range(m):
        gen_powers[i] = acc
        if ext.deg > 1:
            acc = ext.mul(acc, np.int64(ext.p))
    big = mx.zeros(n, n)
    for j in range(d):
        for i in range(m):
            ti_q = ext.power(gen_powers[i], F.order)
            col = ext.mul(mat_e[:, j], ti_q)
            big[:, j * m + i] = ext.digits(col).reshape(-1)
    kern = mx.kernel(fp, fp.sub(big, mx.identity(n)))
    dim_fp = kern.shape[1]
    vecs = [ext.from_digits(kern[:, k].reshape(d, m)) for k in range(dim_fp)]
    if r == 1:
        basis = np.stack(vecs, axis=1) if vecs else mx.zeros(d, 0)
        return FixedPoints(ext, basis, dim_fp, dim_fp)
    fq = GF(p, r)
    emb_q = fq.embedding(ext)
    chosen, span = [], None
    for v in vecs:
        flat = ext.digits(v).reshape(-1)
        if span is not None and mx.solve(fp, span, flat) is not None:
            continue
        chosen.append(v)
        cols = [ext.digits(ext.mul(v, emb_q[c])).reshape(-1) for c in range(1, fq.order)]
        new = np.stack(cols, axis=1)
        span = new if span is None else mx.column_space(fp, np.hstack([span, new]))
    basis = np.stack(chosen, axis=1) if chosen else mx.zeros(d, 0)
    return FixedPoints(ext, basis, dim_fp // r, dim_fp)


def _two_variable_rings(count, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ring = random_artin_ring(rng, rng.choice([2, 3]), max_vars=2, max_dim=8)
        if ring.nvars == 2:
            out.append(ring)
    return out


# -- one hull --


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_inverse_module_matches_index_formula(p, r):
    F = GF(p, r)
    for level in range(1, 13):
        for power in (1, 2, 3):
            inv = inverse_module(F, level, power)
            x_act, kap = ref_truncation_hull(F, level, power)
            assert inv.kind == CARTIER and inv.power == power
            assert inv.ring.key() == truncation_ring(F, level).key()
            assert np.array_equal(inv.module.actions[0], x_act)
            assert np.array_equal(inv.mat, kap)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_inverse_hull_is_the_iterated_contraction(power):
    rings = _two_variable_rings(12) + [ring_make(GF(2, 2), ["x", "y"], [[3, 0], [0, 2]])]
    for ring in rings:
        hull = inverse_hull(ring, power)
        acts, kap = ref_ring_hull(ring, power)
        assert hull.power == power
        assert np.array_equal(hull.mat, mx.mat_pow(ring.field, inverse_hull(ring, 1).mat,
                                                     power))
        assert np.array_equal(hull.mat, kap)
        assert all(np.array_equal(a, b) for a, b in zip(hull.module.actions, acts))
        e_mod = dualizing_module(ring, power)
        assert np.array_equal(e_mod.mat, kap) and e_mod.power == power


# -- one restriction --


def _invariant_spans(F, m):
    """Kernels and images of the actions and of the structure's dim-th
    power: spans stable under every action (and, for the last two, under
    the structure)."""
    spans = []
    for X in m.module.actions:
        spans += [mx.kernel(F, X), mx.column_space(F, X)]
    top = mx.mat_pow(F, m.mat, max(m.dim, 1))
    spans += [mx.kernel(F, top), mx.column_space(F, top)]
    return spans


@pytest.mark.parametrize("kind", [CARTIER, FROBENIUS])
def test_restrict_matches_per_matrix_solve(kind):
    rng = random.Random(11)
    checked = 0
    for _ in range(25):
        ring = random_artin_ring(rng, rng.choice([2, 3]))
        m = random_structure(rng, random_module(rng, ring), kind)
        F = ring.field
        for cols in _invariant_spans(F, m):
            for mats in (list(m.module.actions), [m.mat], list(m.module.actions) + [m.mat]):
                got, want = restrict(F, mats, cols), ref_restrict(F, mats, cols)
                if want is None:
                    assert got is None
                    continue
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
                checked += 1
    assert checked > 100


def test_restrict_empty_cols_and_empty_mats():
    F = GF(3)
    X = mx.mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    out = restrict(F, [X, X], mx.zeros(3, 0))
    assert len(out) == 2 and all(y.shape == (0, 0) for y in out)
    assert restrict(F, [], mx.identity(3)[:, :2]) == []
    # the zero-variable ring has no actions to restrict
    R0 = regular_module(ring_make(3, [], []))
    sub = submodule(R0, mx.identity(1))
    assert sub.dim == 1 and sub.actions == ()
    t = f_module(R0, mx.mat([[2]]))
    assert np.array_equal(sub_structure(t, mx.identity(1)).mat, mx.mat([[2]]))


def test_restrict_unstable_span_is_none():
    F = GF(2)
    ring = ring_make(2, ["x"], [[2]])
    m = regular_module(ring)                 # x e0 = e1, x e1 = 0
    e0 = mx.identity(2)[:, :1]
    assert restrict(F, m.actions, e0) is None
    assert ref_restrict(F, m.actions, e0) is None
    with pytest.raises(ValueError, match="^columns do not span a submodule$"):
        submodule(m, e0)
    # span(e1) is a submodule, but kappa = [[0, 1], [0, 0]] moves e1 to e0
    e1 = mx.identity(2)[:, 1:]
    k = cartier_module(m, mx.mat([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="^columns are not stable under the structure$"):
        sub_structure(k, e1)
    # the x-torsion is span(e1); a structure moving it out cannot restrict
    tors, cols = i_torsion(m, [(1,)])
    assert np.array_equal(cols, e1) and tors.dim == 1
    with pytest.raises(ValueError, match="^structure does not restrict to the torsion part"):
        structured_i_torsion(k, [(1,)])


# -- one constructor --


def _outcome(m):
    return (type(m), m.module, m.mat.tobytes(), m.mat.dtype, m.power)


@pytest.mark.parametrize("kind,ref,wrapper", [(CARTIER, ref_cartier_module, cartier_module),
                                              (FROBENIUS, ref_f_module, f_module)])
def test_structured_matches_the_two_constructors(kind, ref, wrapper):
    rng = random.Random(5)
    invalid = 0
    for _ in range(30):
        ring = random_artin_ring(rng, rng.choice([2, 3]))
        mod = random_module(rng, ring)
        F = ring.field
        valid = random_structure(rng, mod, kind).mat
        noise = np.array([[rng.randrange(F.order) for _ in range(mod.dim)]
                          for _ in range(mod.dim)], dtype=np.int64)
        for mat in (valid, noise, noise.tolist(), mx.zeros(mod.dim + 1, mod.dim)):
            for power in (1, 2):
                want = ref(mod, mat, power)
                assert _outcome(structured(kind, mod, mat, power)) == _outcome(want)
                assert _outcome(wrapper(mod, mat, power)) == _outcome(want)
                invalid += not validate(want).ok
    assert invalid > 0


# -- semilinear fixed points without the double loop --


def _same_fixed_points(got, want):
    return (got.ext_field == want.ext_field and got.dim_fq == want.dim_fq
            and got.dim_fp == want.dim_fp and np.array_equal(got.basis, want.basis))


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_semilinear_fixed_points_matches_double_loop(p, r):
    F = GF(p, r)
    rng = random.Random(p * 10 + r)
    for s in (1, 2, 3):
        for d in range(6):
            mat = np.array([[rng.randrange(F.order) for _ in range(d)]
                            for _ in range(d)], dtype=np.int64).reshape(d, d)
            for m in (mat, mx.identity(d), mx.zeros(d, d)):
                assert _same_fixed_points(semilinear_fixed_points(F, m, s),
                                          ref_semilinear_fixed_points(F, m, s))


# -- derived structured modules: one pass against two steps --

FOLD_FIELDS = [GF(2), GF(3), GF(2, 2), GF(3, 2)]


def _bits(x):
    """Everything a module, structure or array holds, as comparable bytes."""
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    if isinstance(x, FinModule):
        return x.ring.key(), x.ring.relations, x.dim, _bits(x.actions)
    if isinstance(x, Structured):
        return x.kind, x.power, _bits(x.mat), _bits(x.module)
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    return x


def _result(fn, *args):
    try:
        return _bits(fn(*args))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def fold_mismatches(F, seed: int, kind: str) -> list[str]:
    """The one-pass constructions that differ from their two-step forms
    (`oracles`) on one seeded module over F: `random_module`, the sub and
    quotient structures on invariant spans (some not stable under the
    structure), both direct sums, and i-flat at each variable and at all."""
    rng = random.Random(seed)
    ring = random_artin_ring(rng, F)
    state = rng.getstate()
    mod = random_module(rng, ring)
    rng.setstate(state)
    bad = [] if _bits(mod) == _bits(hand_random_module(rng, ring)) else ["random_module"]
    m = random_structure(rng, mod, kind)
    other = random_structure(rng, random_module(rng, ring, 3), kind)
    checks = [(direct_sum, hand_direct_sum, (m.module, other.module)),
              (direct_sum_structured, hand_direct_sum_structured, (m, other))]
    for cols in _invariant_spans(F, m):
        checks += [(sub_structure, two_step_sub_structure, (m, cols)),
                   (quotient_structure, two_step_quotient_structure, (m, cols))]
    n = ring.nvars
    for j in [[tuple(int(i == v) for i in range(n))] for v in range(n)] + [
            [tuple(int(i == v) for i in range(n)) for v in range(n)]]:
        checks.append((structured_i_torsion, two_step_structured_i_torsion, (m, j)))
    return bad + [new.__name__ for new, ref, args in checks
                  if _result(new, *args) != _result(ref, *args)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FOLD_FIELDS), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([CARTIER, FROBENIUS]))
def test_derived_modules_equal_their_two_step_references(F, seed, kind):
    assert fold_mismatches(F, seed, kind) == []


def _sweep() -> set:
    return {name for seed in range(12) for F in FOLD_FIELDS for kind in (CARTIER, FROBENIUS)
            for name in fold_mismatches(F, seed, kind)}


def test_an_induce_that_drops_its_last_block_fails_the_sweep(monkeypatch):
    real = structures.induce
    monkeypatch.setattr(structures, "induce", lambda *args: real(*args)[:-1])
    assert "quotient_structure" in _sweep()


def test_a_block_diag_with_its_second_block_a_row_low_fails_the_sweep(monkeypatch):
    def shifted(blocks):
        out = mx.zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
        r = c = 0
        for i, b in enumerate(blocks):
            s = r + (i == 1)
            out[s:s + b.shape[0], c:c + b.shape[1]] = b[:len(out) - s]
            r, c = r + b.shape[0], c + b.shape[1]
        return out
    monkeypatch.setattr(mx, "block_diag", shifted)
    assert {"random_module", "direct_sum", "direct_sum_structured"} <= _sweep()
