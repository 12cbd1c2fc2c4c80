"""The batched unitalize, adjoint and double-dual routines against the
loop forms they replaced.

`hom_coords` reads the coordinates of every target column off the free
rows of an RREF kernel basis in one call, `adjoint_structural` takes
kappa * x^mono once per ring monomial, `unitalize` takes each transition
from the adjoint of its stage and decides the mixed case on the ranks of
one backward pass of composites, and `double_dual_check` finds its
evaluation witness at once.  The references below are the earlier loop
implementations, one basis vector and one solve at a time; the batched
routines must agree with them bit for bit.  `ref_unitalize` builds every
transition functorially, as t_n = F^flat(t_{n-1}), tests two consecutive
induced isomorphisms by solving for the induced maps, and builds all
`max_steps` stages before it scans, so it checks the early stop of
`unitalize` as well.  The two lemmas `unitalize` rests on, the adjoint of
each stage being the functorial transition and every induced map of
quotients by eventual kernels being injective, are checked directly too.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartierforge import artinian, structures
from cartierforge import matrix as mx
from cartierforge.artinian import (f_flat, f_flat_dim, fin_module, hom_coords,
                                   intertwiners, ring_make)
from cartierforge.duality import (double_dual_check, dualize_artinian,
                                  dualizing_module)
from cartierforge.field import GF
from cartierforge.generate import (artinian_corpus, random_module,
                                   random_structure, random_structured)
from cartierforge.structures import (CARTIER, Structured, UnitalizeResult,
                                     _composite, adjoint_structural,
                                     cartier_module, flat_cartier, is_morphism,
                                     iterate_structure, nil_isomorphism_check,
                                     quotient_structure, unitalize, zero_module)
from oracles import hom_list, last_nonzero_rows, vec

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]     # GF(2), GF(3), GF(4), GF(9)
SETTINGS = settings(max_examples=40, deadline=None)
CORPUS = artinian_corpus(2024, 60)


# -- references: the loop forms --


def ref_hom_coords(F, basis, h):
    if not basis:
        return np.zeros(0, dtype=np.int64) if not h.size or not h.any() else None
    stacked = np.stack([vec(b) for b in basis], axis=1)
    return mx.solve(F, stacked, vec(h))


def ref_adjoint_structural(m):
    F, R = m.ring.field, m.ring
    flat, ker = f_flat(m.module, power=m.power)
    basis = hom_list(ker, m.dim, R.dim)
    cols = []
    for i in range(m.dim):
        e = mx.identity(m.dim)[:, i]
        w = mx.zeros(m.dim, R.dim)
        for l, mono in enumerate(R.basis):
            w[:, l] = mx.mmul(F, m.mat, mx.mmul(F, m.module.action_of(mono), e))
        c = ref_hom_coords(F, basis, w)
        if c is None:
            raise RuntimeError("adjoint image not R-linear")
        cols.append(c)
    a = np.stack(cols, axis=1) if cols else mx.zeros(flat.dim, 0)
    return a, flat, basis


def ref_flat_cartier(m):
    F = m.ring.field
    a, flat, basis = ref_adjoint_structural(m)
    one = m.ring.one()
    eval1 = (np.stack([mx.mmul(F, H, one) for H in basis], axis=1)
             if basis else mx.zeros(m.dim, 0))
    return Structured(CARTIER, flat, mx.mmul(F, a, eval1), m.power), a, basis


def ref_is_unit(m):
    a, flat, _ = ref_adjoint_structural(m)
    return flat.dim == m.dim and mx.inverse(m.ring.field, a) is not None


def ref_composite(F, trans, upto):
    out = None
    for t in trans[:upto]:
        out = t if out is None else mx.mmul(F, t, out)
    return out


def ref_eventual_kernels(F, dims, trans):
    """Span of the kernels of every composite out of each stage."""
    out = []
    for n in range(len(trans)):
        kbar = mx.zeros(dims[n], 0)
        acc = None
        for t in trans[n:]:
            acc = t if acc is None else mx.mmul(F, t, acc)
            kbar = mx.column_space(F, np.hstack([kbar, mx.kernel(F, acc)]))
        out.append(kbar)
    return out


def _induced_map(F, t, proj_src, proj_dst):
    # solve proj_dst . t = ind . proj_src  (proj_src is onto)
    sol = mx.solve(F, proj_src.T, mx.mmul(F, proj_dst, t).T)
    if sol is None:
        return None
    return sol.T


def ref_unitalize(m, max_steps=16):
    F = m.ring.field
    stages, trans, bases = [m], [], [None]
    cur, t_prev = m, None
    for step in range(max_steps):
        nxt, adj, basis = ref_flat_cartier(cur)
        if t_prev is None:
            t = adj
        else:
            cols = [ref_hom_coords(F, basis, mx.mmul(F, t_prev, H)) for H in bases[-1]]
            assert all(c is not None for c in cols)
            t = np.stack(cols, axis=1) if cols else mx.zeros(nxt.dim, 0)
        stages.append(nxt)
        bases.append(basis)
        trans.append(t)
        if nxt.dim == cur.dim and mx.inverse(F, t) is not None:
            target = stages[step]
            cmap = mx.identity(m.dim) if step == 0 else ref_composite(F, trans, step)
            cert = nil_isomorphism_check(cmap, m, target)
            status = "zero" if target.dim == 0 else "unit"
            return UnitalizeResult(status if cert.ok else "not_stabilized",
                                   target, cmap, cert, step + 1), "exact"
        if not t.any():
            zero = Structured(CARTIER, zero_module(m.ring), mx.zeros(0, 0), m.power)
            cmap = mx.zeros(0, m.dim)
            cert = nil_isomorphism_check(cmap, m, zero)
            return UnitalizeResult("zero" if cert.ok else "not_stabilized",
                                   zero, cmap, cert, step + 1), "zero"
        cur, t_prev = nxt, t
    quots, projs = [], []
    kbars = ref_eventual_kernels(F, [s.dim for s in stages], trans)
    for n, kbar in enumerate(kbars):
        q, proj, _ = quotient_structure(stages[n], kbar)
        quots.append(q)
        projs.append(proj)
    for n in range(len(quots) - 2):
        a, b, c = quots[n], quots[n + 1], quots[n + 2]
        if a.dim != b.dim or b.dim != c.dim:
            continue
        ind1 = _induced_map(F, trans[n], projs[n], projs[n + 1])
        ind2 = _induced_map(F, trans[n + 1], projs[n + 1], projs[n + 2])
        if ind1 is None or ind2 is None:
            continue
        if mx.inverse(F, ind1) is not None and mx.inverse(F, ind2) is not None:
            comp = ref_composite(F, trans, n) if n else mx.identity(m.dim)
            cmap = mx.mmul(F, projs[n], comp)
            cert = nil_isomorphism_check(cmap, m, a)
            if cert.ok and ref_is_unit(a):
                status = "zero" if a.dim == 0 else "unit"
                return UnitalizeResult(status, a, cmap, cert, n + 1), "quotient"
    return (UnitalizeResult("not_stabilized", stages[-1], None, None, max_steps),
            "quotient")


def ref_double_dual_check(m):
    F = m.ring.field
    d1, ker1 = dualize_artinian(m)
    d2, ker2 = dualize_artinian(d1)
    b1, b2 = hom_list(ker1, m.ring.dim, m.dim), hom_list(ker2, m.ring.dim, d1.dim)
    cols = []
    for i in range(m.dim):
        e = mx.identity(m.dim)[:, i]
        w = (np.stack([mx.mmul(F, H, e) for H in b1], axis=1)
             if b1 else mx.zeros(d1.dim, 0))
        if w.size == 0:
            w = mx.zeros(max(h.shape[0] for h in b1) if b1 else 0, d1.dim)
        c = ref_hom_coords(F, b2, w)
        if c is None:
            return False, mx.zeros(d2.dim, m.dim)
        cols.append(c)
    ev = np.stack(cols, axis=1) if cols else mx.zeros(d2.dim, 0)
    ok = (d2.dim == m.dim and mx.inverse(F, ev) is not None
          and is_morphism(ev, m, d2))
    return ok, ev


# -- hom_coords: coordinates read off the free rows, one membership check --


def per_column(F, basis, targets, shape):
    cols = [ref_hom_coords(F, basis, mx.unvec(targets[:, j], *shape))
            for j in range(targets.shape[1])]
    if any(c is None for c in cols):
        return None
    return (np.stack(cols, axis=1) if cols
            else mx.zeros(len(basis), 0))


def draw_targets(draw, F, ker, n, k):
    """k target columns of length n: combinations of the columns of
    `ker`, random vectors and zeros."""
    code = st.integers(0, F.order - 1)
    targets = mx.zeros(n, k)
    for j in range(k):
        if ker.shape[1] and draw(st.booleans()):
            coeffs = np.array(draw(st.lists(code, min_size=ker.shape[1],
                                            max_size=ker.shape[1])), dtype=np.int64)
            targets[:, j] = mx.mmul(F, ker, coeffs)
        elif draw(st.booleans()):
            targets[:, j] = draw(st.lists(code, min_size=n, max_size=n))
    return targets


def small_matrix(draw, F, rows, cols):
    # small codes make rank deficiency, hence larger kernels, likely
    code = st.one_of(st.integers(0, min(F.order, 3) - 1), st.integers(0, F.order - 1))
    return np.array(draw(st.lists(code, min_size=rows * cols, max_size=rows * cols)),
                    dtype=np.int64).reshape(rows, cols)


@st.composite
def kernel_hom_problem(draw):
    """A canonical RREF kernel basis, from `mx.kernel` of a random system
    on vec H or from `intertwiners` of random square matrices."""
    p, d = draw(st.sampled_from(FIELDS))
    F = GF(p, d)
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        system = small_matrix(draw, F, draw(st.integers(0, r * c)), r * c)
        ker = mx.kernel(F, system)
    else:
        ker, _ = intertwiners(F, [small_matrix(draw, F, c, c)],
                              [small_matrix(draw, F, r, r)], r, c)
    targets = draw_targets(draw, F, ker, r * c, draw(st.integers(0, 4)))
    return F, ker, targets, (r, c)


@st.composite
def arbitrary_hom_problem(draw):
    p, d = draw(st.sampled_from(FIELDS))
    F = GF(p, d)
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    code = st.integers(0, F.order - 1)
    k = draw(st.integers(0, r * c))
    ker = np.array(draw(st.lists(code, min_size=r * c * k, max_size=r * c * k)),
                   dtype=np.int64).reshape(r * c, k)
    targets = draw_targets(draw, F, ker, r * c, draw(st.integers(0, 4)))
    return F, ker, targets, (r, c)


@SETTINGS
@given(kernel_hom_problem())
def test_hom_coords_batched_equals_per_column(problem):
    F, ker, targets, shape = problem
    got = hom_coords(F, ker, targets, last_nonzero_rows(ker))
    want = per_column(F, hom_list(ker, *shape), targets, shape)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)


@SETTINGS
@given(arbitrary_hom_problem())
def test_hom_coords_is_sound_on_any_basis(problem):
    """Off its contract hom_coords may miss coordinates, but never returns
    wrong ones."""
    F, ker, targets, _ = problem
    got = hom_coords(F, ker, targets, last_nonzero_rows(ker))
    if got is not None:
        assert np.array_equal(mx.mmul(F, ker, got), targets)


@SETTINGS
@given(kernel_hom_problem(), st.data())
def test_hom_coords_planted_out_of_span_column_is_none(problem, data):
    F, ker, targets, (r, c) = problem
    n, k = r * c, ker.shape[1]
    if k == n:
        return
    # a unit vector outside the span exists: the kernel basis is the
    # identity on its free rows, so e_j with j a pivot row is not in it
    free = set(last_nonzero_rows(ker))
    j = data.draw(st.sampled_from([i for i in range(n) if i not in free]))
    planted = mx.zeros(n, 1)
    planted[j, 0] = data.draw(st.integers(1, F.order - 1))
    if k and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(0, F.order - 1),
                                    min_size=k, max_size=k))
        planted[:, 0] = F.add(planted[:, 0], mx.mmul(F, ker, mx.mat(coeffs)))
    at = data.draw(st.integers(0, targets.shape[1]))
    assert hom_coords(F, ker, np.hstack([targets[:, :at], planted, targets[:, at:]]),
                      last_nonzero_rows(ker)) is None


@pytest.mark.parametrize("p,d", FIELDS)
def test_hom_coords_edge_cases(p, d):
    F = GF(p, d)
    e00 = mx.mat([[1, 0], [0, 0]])
    e11 = mx.mat([[0, 0], [0, 1]])
    zero_targets = mx.zeros(4, 3)
    empty, none = mx.zeros(4, 0), np.zeros(0, dtype=np.intp)
    # empty basis: zero targets have empty coordinates, others are outside
    assert hom_coords(F, empty, zero_targets, none).shape == (0, 3)
    assert hom_coords(F, empty, mx.zeros(4, 0), none).shape == (0, 0)
    assert hom_coords(F, empty, np.stack([vec(e00)], axis=1), none) is None
    # the hom space of 0-dimensional matrices: no rows and no columns
    assert hom_coords(F, mx.zeros(0, 0), mx.zeros(0, 2), none).shape == (0, 2)
    # zero targets have zero coordinates; vec(e00), vec(e11) are free at 0, 3
    ker, free = np.stack([vec(e00), vec(e11)], axis=1), np.array([0, 3])
    assert np.array_equal(hom_coords(F, ker, zero_targets, free), mx.zeros(2, 3))
    # one out-of-span column sinks the whole solve, as it sinks the loop
    inside = np.stack([vec(e00), vec(e11)], axis=1)
    outside = np.hstack([inside, vec(mx.mat([[0, 1], [0, 0]]))[:, None]])
    assert np.array_equal(hom_coords(F, ker, inside, free), mx.identity(2))
    assert hom_coords(F, ker, outside, free) is None
    assert per_column(F, [e00, e11], outside, (2, 2)) is None


# -- eventual kernels: one kernel of the composite to the last stage --


@st.composite
def map_chain(draw):
    p, d = draw(st.sampled_from(FIELDS))
    F = GF(p, d)
    dims = draw(st.lists(st.integers(0, 4), min_size=2, max_size=6))
    code = st.integers(0, F.order - 1)
    trans = []
    for a, b in zip(dims, dims[1:]):
        # a random matrix of random rank <= min(a, b), so kernels are nontrivial
        k = draw(st.integers(0, min(a, b)))
        left = np.array(draw(st.lists(code, min_size=b * k, max_size=b * k)),
                        dtype=np.int64).reshape(b, k)
        right = np.array(draw(st.lists(code, min_size=k * a, max_size=k * a)),
                         dtype=np.int64).reshape(k, a)
        trans.append(mx.mmul(F, left, right))
    return F, dims, trans


@SETTINGS
@given(map_chain())
def test_eventual_kernel_is_kernel_of_composite_to_end(chain):
    F, dims, trans = chain
    for n, want in enumerate(ref_eventual_kernels(F, dims, trans)):
        tail = _composite(F, trans[n:], dims[n])
        assert tail.shape == (dims[-1], dims[n])
        assert np.array_equal(mx.column_space(F, mx.kernel(F, tail)), want)


# -- the two lemmas behind unitalize --


def stages_with_functorial_transitions(m, steps):
    """`steps` stages from `flat_cartier` with the adjoint of each, and the
    reference transitions: t_0 the first adjoint, then t_n = F^flat(t_{n-1}),
    H -> t_{n-1} H solved for per hom of the previous flat basis."""
    F = m.ring.field
    stages, adjs, refs, bases = [m], [], [], []
    for n in range(steps):
        nxt, adj, ker = flat_cartier(stages[-1])
        basis = hom_list(ker, stages[-1].dim, m.ring.dim)
        if n == 0:
            ref = adj
        else:
            cols = [ref_hom_coords(F, basis, mx.mmul(F, refs[-1], H)) for H in bases[-1]]
            assert all(c is not None for c in cols)
            ref = np.stack(cols, axis=1) if cols else mx.zeros(nxt.dim, 0)
        stages.append(nxt)
        adjs.append(adj)
        refs.append(ref)
        bases.append(basis)
    return stages, adjs, refs


def first_e0(F, dim, trans):
    """The first e with rank T_{0->e+1} = rank T_{0->e}, else None."""
    head, rank = mx.identity(dim), dim
    for e, t in enumerate(trans):
        head = mx.mmul(F, t, head)
        rank, last = mx.rank(F, head), rank
        if rank == last:
            return e
    return None


def induced_map_cases(stages, trans, e0):
    """Quotient each stage k by its eventual kernel K_k = ker T_{k->end},
    end = k + e0 clipped at the last stage (the last stage when e0 is
    None), and check that every induced map stage k / K_k ->
    stage k+1 / K_{k+1} exists and has full column rank.  Returns the
    window case of each k with an induced map out of it."""
    F, last = stages[0].ring.field, len(trans)
    projs, cases = [], []
    for k, s in enumerate(stages):
        end = last if e0 is None else min(k + e0, last)
        tail = _composite(F, trans[k:end], s.dim)
        q, proj, _ = quotient_structure(s, mx.column_space(F, mx.kernel(F, tail)))
        assert q.dim == mx.rank(F, tail)
        projs.append(proj)
        cases.append("none" if e0 is None else "clipped" if k + e0 > last else "known")
    for k in range(last):
        ind = _induced_map(F, trans[k], projs[k], projs[k + 1])
        assert ind is not None and mx.rank(F, ind) == ind.shape[1]
    return set(cases[:last])


@st.composite
def cartier_draw(draw):
    """A Cartier structure for q^power, power 1 or 2, on a module of
    dimension <= 3 over a monomial ring over GF(2), GF(3), GF(4) or GF(9)."""
    p, d = draw(st.sampled_from(FIELDS))
    nvars = draw(st.sampled_from([1, 2]))
    rels = [[draw(st.integers(1, 3)) if j == i else 0 for j in range(nvars)]
            for i in range(nvars)]
    ring = ring_make(GF(p, d), ["x", "y"][:nvars], rels)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return random_structure(rng, random_module(rng, ring, 3), CARTIER,
                            draw(st.integers(1, 2)))


def check_adjoints(m, steps):
    _, adjs, refs = stages_with_functorial_transitions(m, steps)
    assert all(np.array_equal(a, r) for a, r in zip(adjs, refs))


def check_induced_maps(m, steps):
    stages, adjs, _ = stages_with_functorial_transitions(m, steps)
    e0 = first_e0(m.ring.field, m.dim, adjs)
    return induced_map_cases(stages, adjs, e0) | induced_map_cases(stages, adjs, None)


def test_adjoint_is_functorial_transition_on_corpus():
    for m in CORPUS:
        check_adjoints(m, 4)


@SETTINGS
@given(cartier_draw())
def test_adjoint_is_functorial_transition_on_draws(m):
    check_adjoints(m, 3)


def test_induced_maps_are_injective_on_corpus():
    cases = set()
    for m in CORPUS:
        cases |= check_induced_maps(m, 4)
    assert cases == {"known", "clipped", "none"}


@SETTINGS
@given(cartier_draw())
def test_induced_maps_are_injective_on_draws(m):
    check_induced_maps(m, 3)


# -- the routines on the acceptance corpus --


def same_module(a, b):
    return a.dim == b.dim and all(np.array_equal(x, y)
                                  for x, y in zip(a.actions, b.actions))


def same_structured(a, b):
    return (a.kind == b.kind and a.power == b.power
            and np.array_equal(a.mat, b.mat) and same_module(a.module, b.module))


def same_result(got, want):
    assert got.status == want.status and got.steps == want.steps
    assert (got.module is None) == (want.module is None)
    if want.module is not None:
        assert same_structured(got.module, want.module)
    assert (got.canonical_map is None) == (want.canonical_map is None)
    if want.canonical_map is not None:
        assert np.array_equal(got.canonical_map, want.canonical_map)
    assert got.certificate == want.certificate


def test_unitalize_equals_loop_reference_on_corpus():
    paths = []
    for m in CORPUS:
        want, path = ref_unitalize(m)
        paths.append(path)
        same_result(unitalize(m), want)
    # the corpus reaches both the exact exit and quotient stabilization
    assert "exact" in paths and paths.count("quotient") >= 5


@pytest.mark.parametrize("max_steps", [0, 1, 2, 3])
def test_unitalize_equals_loop_reference_with_few_steps(max_steps):
    for m in CORPUS[:20]:
        same_result(unitalize(m, max_steps), ref_unitalize(m, max_steps)[0])


def test_adjoint_structural_equals_loop_reference_on_corpus():
    for m in CORPUS:
        a, flat, ker = adjoint_structural(m)
        ra, rflat, rbasis = ref_adjoint_structural(m)
        basis = hom_list(ker, m.dim, m.ring.dim)
        assert np.array_equal(a, ra) and same_module(flat, rflat)
        assert len(basis) == len(rbasis)
        assert all(np.array_equal(x, y) for x, y in zip(basis, rbasis))


def test_double_dual_check_equals_loop_reference_on_corpus():
    for m in CORPUS:
        ok, ev = double_dual_check(m)
        rok, rev = ref_double_dual_check(m)
        assert ok == rok and ev.shape == rev.shape and np.array_equal(ev, rev)


# -- the early stop: unitalize against the forced full build --


@st.composite
def cartier_case(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        m = random_structured(rng, CARTIER, draw(st.sampled_from([2, 3, 5])), 2, 6, 4)
    else:
        # over GF(2)[x]/(x^n) with n > 8 a transition can turn zero after
        # the quotient scan has found the zero module (a few percent of
        # these structures do)
        ring = ring_make(2, ["x"], [[draw(st.integers(9, 20))]])
        m = random_structure(rng, random_module(rng, ring, 3), CARTIER)
    return m, draw(st.sampled_from([0, 1, 2, 3, 5, 16]))


@settings(max_examples=80, deadline=None)
@given(cartier_case())
def test_unitalize_equals_full_build(case):
    m, max_steps = case
    same_result(unitalize(m, max_steps), ref_unitalize(m, max_steps)[0])


def counting_flat_cartier(monkeypatch):
    calls = []
    flat_cartier = structures.flat_cartier

    def counting(m):
        calls.append(1)
        return flat_cartier(m)

    monkeypatch.setattr(structures, "flat_cartier", counting)
    return calls


def test_unitalize_stage_count_on_acceptance_corpus(monkeypatch):
    corpus = artinian_corpus(2024, 200, p_choices=(2, 3), max_ring_dim=6,
                             max_dim=5)
    calls = counting_flat_cartier(monkeypatch)
    for m in corpus:
        unitalize(m)
    # a full build of every stage makes 1,006 calls here
    assert len(calls) <= 430


def nil_chain_dims(m, upto):
    """dim N_e = dim {v : kappa^e x^lambda v = 0 for every monomial lambda},
    the kernel of T_{0->e}, for e = 0..upto (prime tier, power 1)."""
    F = m.ring.field
    acts = [m.module.action_of(mono) for mono in m.ring.basis]
    return [mx.kernel(F, np.vstack([mx.mmul(F, mx.mat_pow(F, m.mat, e), X)
                                    for X in acts])).shape[1]
            for e in range(upto + 1)]


def test_unitalize_late_kernel_chain(monkeypatch):
    # x acts as 0 on GF(2)^4 over GF(2)[x]/(x^2); kappa is a nilpotent
    # Jordan block of size 3 plus the unit 1, so N_1 < N_2 < N_3 = N_4
    ring = ring_make(2, ["x"], [[2]])
    kappa = mx.mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    m = cartier_module(fin_module(ring, [mx.zeros(4, 4)]), kappa)
    assert nil_chain_dims(m, 4) == [0, 1, 2, 3, 3]
    want, path = ref_unitalize(m)
    assert path == "quotient" and want.status == "unit" and want.steps == 2
    calls = counting_flat_cartier(monkeypatch)
    same_result(unitalize(m), want)
    # e0 = 3: stage 1 is scanned once stage 1 + 2 + 3 exists
    assert len(calls) == 6


def test_unitalize_zero_quotient_waits_for_late_zero_transition(monkeypatch):
    # kappa = x on GF(2)[x]/(x^2), over GF(2)[x]/(x^9): the structure is
    # nilpotent and kills the socle, so the scan finds the zero quotient at
    # stage 0 once stage 4 exists, yet t_4 = 0 is the exit a full build takes
    ring = ring_make(2, ["x"], [[9]])
    x = mx.mat([[0, 1], [0, 0]])
    m = cartier_module(fin_module(ring, [x]), x)
    want, path = ref_unitalize(m)
    assert path == "zero" and want.status == "zero" and want.steps == 5
    calls = counting_flat_cartier(monkeypatch)
    same_result(unitalize(m), want)
    assert len(calls) == 5


# -- is_unit and f_flat_dim without building F^flat M --


def unit_corpus():
    """Both acceptance corpora, their power-2 and power-3 iterates, their
    unitalize results, and E_R at powers 1 to 3 over every ring in them."""
    mods = artinian_corpus(2024, 300) + artinian_corpus(7, 300, p_choices=(2, 3, 5))
    iterates = [iterate_structure(m, s) for m in mods for s in (2, 3)]
    units = [r.module for r in map(unitalize, mods) if r.module is not None]
    rings = {m.ring.key(): m.ring for m in mods}.values()
    return mods + iterates + units + [dualizing_module(r, p) for r in rings for p in (1, 2, 3)]


def unit_mismatches(mods):
    """The modules on which `is_unit` disagrees with the loop reference or
    `f_flat_dim` with the dimension of the F^flat M that `f_flat` builds."""
    return [m for m in mods
            if structures.is_unit(m) != ref_is_unit(m)
            or artinian.f_flat_dim(m.module, m.power) != f_flat(m.module, m.power)[1].shape[1]]


def test_is_unit_and_f_flat_dim_equal_the_built_flat_module_on_corpus():
    mods = unit_corpus()
    assert len(mods) > 2500 and all(m.kind == CARTIER for m in mods)
    assert unit_mismatches(mods) == []
    assert 1000 < sum(map(structures.is_unit, mods)) < len(mods) - 1000


def drop_the_first_summand(mod, power=1):
    """f_flat_dim less dim M[J_0], J_0 = (x^c : x^(Qc) in I): a planted
    fault, which forgets the summand R/J_0 of F_*R at a = 0; M[J_0] holds
    the socle, so it is nonzero whenever M is."""
    Q = mod.ring.q ** power
    j0 = [tuple(-(-e // Q) for e in rel) for rel in mod.ring.relations]
    socle = mx.kernel(mod.ring.field, np.vstack((mx.zeros(0, mod.dim),
                                                 *(mod.action_of(g) for g in j0))))
    return f_flat_dim(mod, power) - socle.shape[1]


def test_a_lost_flat_summand_fails_the_corpus_check(monkeypatch):
    monkeypatch.setattr(artinian, "f_flat_dim", drop_the_first_summand)
    monkeypatch.setattr(structures, "f_flat_dim", drop_the_first_summand)
    mods = artinian_corpus(2024, 30)
    assert len(unit_mismatches(mods)) == len(mods)


@st.composite
def extension_cartier_draw(draw):
    """A Cartier structure for q^power, power 1 or 2, on a module of
    dimension <= 4 over a monomial ring in 1-3 variables over GF(4), GF(8)
    or GF(9), with pure powers past q so that F_*R splits into several
    summands; with it E_R at the same power."""
    F = GF(*draw(st.sampled_from([(2, 2), (2, 3), (3, 2)])))
    nvars = draw(st.integers(1, 3))
    top = {1: 12, 2: 5, 3: 3}[nvars]
    rels = [[draw(st.integers(1, top)) if j == i else 0 for j in range(nvars)]
            for i in range(nvars)]
    if nvars > 1 and draw(st.booleans()):
        rels.append([draw(st.integers(1, 2))] + [draw(st.integers(0, 2))
                                                 for _ in range(nvars - 1)])
    ring = ring_make(F, ["x", "y", "z"][:nvars], rels)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    power = draw(st.integers(1, 2))
    m = random_structure(rng, random_module(rng, ring, 4), CARTIER, power)
    return [m, dualizing_module(ring, power)]


@SETTINGS
@given(extension_cartier_draw())
def test_is_unit_and_f_flat_dim_on_extension_field_draws(mods):
    assert unit_mismatches(mods) == []
    assert structures.is_unit(mods[1])


@SETTINGS
@given(extension_cartier_draw(), st.integers(0, 2 ** 32 - 1))
def test_is_unit_refuses_exactly_the_non_equivariant_structures(mods, seed):
    """Any matrix as a structure on a valid module: is_unit names validate
    exactly when the adjoint does, and agrees with the reference otherwise."""
    m = mods[0]
    rng = random.Random(seed)
    kappa = mx.mat([[rng.randrange(m.ring.q) for _ in range(m.dim)]
                    for _ in range(m.dim)]).reshape(m.dim, m.dim)
    for any_m in (m, cartier_module(m.module, kappa, m.power)):
        if structures.validate(any_m):
            assert structures.is_unit(any_m) == ref_is_unit(any_m)
            continue
        for fn in (structures.adjoint_structural, structures.is_unit):
            with pytest.raises(ValueError, match="validate"):
                fn(any_m)
