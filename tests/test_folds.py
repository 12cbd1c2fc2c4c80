"""The shared routines of the structured-module layer against the forms
they replaced.

`structured` is the one constructor behind `cartier_module` and
`f_module`; `artinian.restrict` is the one solve of cols Y = X cols behind
`submodule`, `i_torsion`, `sub_structure` and `structured_i_torsion`;
`duality.inverse_hull` builds the dualizing module E_R of every ring,
truncations included, with the contraction for q^power written directly;
and `semilinear_fixed_points` linearizes over GF(p) in one vectorized
product.  The references below are the earlier forms: two constructors, a
solve per matrix, the explicit truncation index formula, the q-contraction
iterated by `mat_pow`, and the double loop.  The new routines must agree
with them bit for bit.
"""

import random

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge.artinian import (i_torsion, regular_module, restrict,
                                   ring_make, submodule)
from cartierforge.duality import dualizing_module, inverse_hull
from cartierforge.field import GF
from cartierforge.generate import (random_artin_ring, random_module,
                                   random_structure)
from cartierforge.pid import inverse_module, truncation_ring
from cartierforge.structures import (CARTIER, FROBENIUS, CartierModule,
                                     FModule, cartier_module, f_module,
                                     structured, structured_i_torsion,
                                     sub_structure, validate)
from cartierforge.twisted import (FixedPoints, TwistedOperator,
                                  semilinear_fixed_points)


# -- references: the earlier forms --


def ref_cartier_module(module, kappa, power=1, check=True):
    m = CartierModule(module, np.asarray(kappa, dtype=np.int64), power)
    if check:
        rep = validate(m)
        if not rep.ok:
            raise ValueError("invalid Cartier structure: " + "; ".join(rep.violations))
    return m


def ref_f_module(module, tau, power=1, check=True):
    m = FModule(module, np.asarray(tau, dtype=np.int64), power)
    if check:
        rep = validate(m)
        if not rep.ok:
            raise ValueError("invalid F-module structure: " + "; ".join(rep.violations))
    return m


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


def ref_semilinear_fixed_points(t, s=1):
    F = t.field
    p, r = F.p, t.r
    ext = GF(p, r * s)
    emb = F.embedding(ext)
    m = ext.deg
    mat_e = emb[t.mat]
    d = t.rows
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
            ti_q = ext.power(gen_powers[i], t.q)
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
        if span is not None and mx.in_span(fp, span, flat):
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
            assert isinstance(inv, CartierModule) and inv.power == power
            assert inv.ring.key() == truncation_ring(F, level).key()
            assert np.array_equal(inv.module.actions[0], x_act)
            assert np.array_equal(inv.kappa, kap)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_inverse_hull_is_the_iterated_contraction(power):
    rings = _two_variable_rings(12) + [ring_make(GF(2, 2), ["x", "y"], [[3, 0], [0, 2]])]
    for ring in rings:
        hull = inverse_hull(ring, power)
        acts, kap = ref_ring_hull(ring, power)
        assert hull.power == power
        assert np.array_equal(hull.kappa, mx.mat_pow(ring.field, inverse_hull(ring, 1).kappa,
                                                     power))
        assert np.array_equal(hull.kappa, kap)
        assert all(np.array_equal(a, b) for a, b in zip(hull.module.actions, acts))
        e_mod = dualizing_module(ring, power).module
        assert np.array_equal(e_mod.kappa, kap) and e_mod.power == power


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
    k = cartier_module(m, mx.mat([[0, 1], [0, 0]]), check=False)
    with pytest.raises(ValueError, match="^columns are not stable under the structure$"):
        sub_structure(k, e1)
    # the x-torsion is span(e1); a structure moving it out cannot restrict
    tors, cols = i_torsion(m, [(1,)])
    assert np.array_equal(cols, e1) and tors.dim == 1
    with pytest.raises(ValueError, match="^structure does not restrict to the torsion part"):
        structured_i_torsion(k, [(1,)])


# -- one constructor --


def _outcome(fn, *args, **kwargs):
    try:
        m = fn(*args, **kwargs)
    except ValueError as exc:
        return ("raises", str(exc))
    return (type(m), m.module, m.mat.tobytes(), m.mat.dtype, m.power)


@pytest.mark.parametrize("kind,ref,wrapper", [(CARTIER, ref_cartier_module, cartier_module),
                                              (FROBENIUS, ref_f_module, f_module)])
def test_structured_matches_the_two_constructors(kind, ref, wrapper):
    rng = random.Random(5)
    raised = 0
    for _ in range(30):
        ring = random_artin_ring(rng, rng.choice([2, 3]))
        mod = random_module(rng, ring)
        F = ring.field
        valid = random_structure(rng, mod, kind).mat
        noise = np.array([[rng.randrange(F.order) for _ in range(mod.dim)]
                          for _ in range(mod.dim)], dtype=np.int64)
        for mat in (valid, noise, noise.tolist(), mx.zeros(mod.dim + 1, mod.dim)):
            for power in (1, 2):
                for check in (True, False):
                    want = _outcome(ref, mod, mat, power, check)
                    assert _outcome(structured, kind, mod, mat, power, check) == want
                    assert _outcome(wrapper, mod, mat, power, check=check) == want
                    raised += want[0] == "raises"
    assert raised > 0


# -- semilinear fixed points without the double loop --


def _same_fixed_points(got, want):
    return (got.ext_field == want.ext_field and got.dim_fq == want.dim_fq
            and got.dim_fp == want.dim_fp and np.array_equal(got.basis, want.basis))


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2)])
def test_semilinear_fixed_points_matches_double_loop(p, r):
    F = GF(p, r)
    rng = random.Random(p * 10 + r)
    for s in (1, 2, 3):
        for q in (p, F.order):
            if q == p and s % r:
                continue                       # GF(p^r) must embed in GF(p^s)
            for d in range(4):
                mat = np.array([[rng.randrange(F.order) for _ in range(d)]
                                for _ in range(d)], dtype=np.int64).reshape(d, d)
                for m in (mat, mx.identity(d), mx.zeros(d, d)):
                    t = TwistedOperator(F, q, m, 1)
                    assert _same_fixed_points(semilinear_fixed_points(t, s),
                                              ref_semilinear_fixed_points(t, s))
