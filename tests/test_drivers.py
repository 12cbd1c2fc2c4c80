"""The batched unitalize, adjoint and double-dual routines against the
loop forms they replaced.

`hom_coords` reads the coordinates of every target column off the free
rows of an RREF kernel basis in one call, `adjoint_structural` takes
kappa * x^mono once per ring monomial, `unitalize` builds each functorial
transition with one `hom_coords` call and takes the eventual kernels from
one backward pass of composites, and `double_dual_check` finds its
evaluation witness at once.  The references below are the earlier loop
implementations, one basis vector and one solve at a time; the batched
routines must agree with them bit for bit.  `ref_unitalize` also builds all
`max_steps` stages before it scans, so it checks the early stop of
`unitalize` as well.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartierforge import matrix as mx
from cartierforge import structures
from cartierforge.artinian import (f_flat, fin_module, hom_coords, intertwiners,
                                   ring_make)
from cartierforge.duality import double_dual_check, dualize_artinian
from cartierforge.field import GF
from cartierforge.generate import (artinian_corpus, random_cartier,
                                   random_module, random_structure)
from cartierforge.structures import (CARTIER, CartierModule, UnitalizeResult,
                                     _composites_to_end, _induced_map,
                                     adjoint_structural, cartier_module,
                                     is_morphism, nil_isomorphism_check,
                                     quotient_structure, unitalize,
                                     zero_module)

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]     # GF(2), GF(3), GF(4), GF(9)
SETTINGS = settings(max_examples=40, deadline=None)
CORPUS = artinian_corpus(2024, 60)


# -- references: the loop forms --


def ref_hom_coords(F, basis, h):
    if not basis:
        return np.zeros(0, dtype=np.int64) if not h.size or not h.any() else None
    stacked = np.stack([mx.vec(b) for b in basis], axis=1)
    return mx.solve(F, stacked, mx.vec(h))


def ref_adjoint_structural(m):
    F, R = m.ring.field, m.ring
    flat, basis = f_flat(m.module, power=m.power)
    cols = []
    for i in range(m.dim):
        e = mx.identity(m.dim)[:, i]
        w = mx.zeros(m.dim, R.dim)
        for l, mono in enumerate(R.basis):
            w[:, l] = mx.mmul(F, m.kappa, mx.mmul(F, m.module.action_of(mono), e))
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
    return CartierModule(flat, mx.mmul(F, a, eval1), m.power), a, basis


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
            zero = CartierModule(zero_module(m.ring), mx.zeros(0, 0), m.power)
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
        ind1 = _induced_map(F, trans[n], projs[n], projs[n + 1], a.dim)
        ind2 = _induced_map(F, trans[n + 1], projs[n + 1], projs[n + 2], b.dim)
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
    d1, b1 = dualize_artinian(m)
    d2, b2 = dualize_artinian(d1)
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


def draw_targets(draw, F, basis, n, k):
    """k target columns of length n: basis combinations, random vectors
    and zeros."""
    code = st.integers(0, F.order - 1)
    targets = mx.zeros(n, k)
    for j in range(k):
        if basis and draw(st.booleans()):
            coeffs = np.array(draw(st.lists(code, min_size=len(basis),
                                            max_size=len(basis))), dtype=np.int64)
            targets[:, j] = mx.mmul(F, np.stack([mx.vec(b) for b in basis], axis=1),
                                    coeffs)
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
        basis = [mx.unvec(ker[:, k], r, c) for k in range(ker.shape[1])]
    else:
        _, basis = intertwiners(F, [small_matrix(draw, F, c, c)],
                                [small_matrix(draw, F, r, r)], r, c)
    targets = draw_targets(draw, F, basis, r * c, draw(st.integers(0, 4)))
    return F, basis, targets, (r, c)


@st.composite
def arbitrary_hom_problem(draw):
    p, d = draw(st.sampled_from(FIELDS))
    F = GF(p, d)
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    code = st.integers(0, F.order - 1)
    basis = [np.array(draw(st.lists(code, min_size=r * c, max_size=r * c)),
                      dtype=np.int64).reshape(r, c)
             for _ in range(draw(st.integers(0, r * c)))]
    targets = draw_targets(draw, F, basis, r * c, draw(st.integers(0, 4)))
    return F, basis, targets, (r, c)


@SETTINGS
@given(kernel_hom_problem())
def test_hom_coords_batched_equals_per_column(problem):
    F, basis, targets, shape = problem
    got, want = hom_coords(F, basis, targets), per_column(F, basis, targets, shape)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)


@SETTINGS
@given(arbitrary_hom_problem())
def test_hom_coords_is_sound_on_any_basis(problem):
    """Off its contract hom_coords may miss coordinates, but never returns
    wrong ones."""
    F, basis, targets, _ = problem
    got = hom_coords(F, basis, targets)
    if got is not None and basis:
        stacked = np.stack([mx.vec(b) for b in basis], axis=1)
        assert np.array_equal(mx.mmul(F, stacked, got), targets)


@SETTINGS
@given(kernel_hom_problem(), st.data())
def test_hom_coords_planted_out_of_span_column_is_none(problem, data):
    F, basis, targets, (r, c) = problem
    n = r * c
    stacked = (np.stack([mx.vec(b) for b in basis], axis=1) if basis
               else mx.zeros(n, 0))
    if len(basis) == n:
        return
    # a unit vector outside the span exists: the kernel basis is the
    # identity on its free rows, so e_j with j a pivot row is not in it
    free = set(n - 1 - np.argmax(stacked[::-1] != 0, axis=0)) if basis else set()
    j = data.draw(st.sampled_from([i for i in range(n) if i not in free]))
    planted = mx.zeros(n, 1)
    planted[j, 0] = data.draw(st.integers(1, F.order - 1))
    if basis and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(0, F.order - 1),
                                    min_size=len(basis), max_size=len(basis)))
        planted[:, 0] = F.add(planted[:, 0], mx.mmul(F, stacked, mx.mat(coeffs)))
    at = data.draw(st.integers(0, targets.shape[1]))
    assert hom_coords(F, basis, np.hstack([targets[:, :at], planted,
                                           targets[:, at:]])) is None


@pytest.mark.parametrize("p,d", FIELDS)
def test_hom_coords_edge_cases(p, d):
    F = GF(p, d)
    e00 = mx.mat([[1, 0], [0, 0]])
    e11 = mx.mat([[0, 0], [0, 1]])
    zero_targets = mx.zeros(4, 3)
    # empty basis: zero targets have empty coordinates, others are outside
    assert hom_coords(F, [], zero_targets).shape == (0, 3)
    assert hom_coords(F, [], mx.zeros(4, 0)).shape == (0, 0)
    assert hom_coords(F, [], np.stack([mx.vec(e00)], axis=1)) is None
    # zero targets have zero coordinates
    assert np.array_equal(hom_coords(F, [e00, e11], zero_targets), mx.zeros(2, 3))
    # one out-of-span column sinks the whole solve, as it sinks the loop
    inside = np.stack([mx.vec(e00), mx.vec(e11)], axis=1)
    outside = np.hstack([inside, mx.vec(mx.mat([[0, 1], [0, 0]]))[:, None]])
    assert np.array_equal(hom_coords(F, [e00, e11], inside), mx.identity(2))
    assert hom_coords(F, [e00, e11], outside) is None
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
    tails = _composites_to_end(F, trans)
    for n, want in enumerate(ref_eventual_kernels(F, dims, trans)):
        assert tails[n].shape == (dims[-1], dims[n])
        assert np.array_equal(mx.column_space(F, mx.kernel(F, tails[n])), want)


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
        a, flat, basis = adjoint_structural(m)
        ra, rflat, rbasis = ref_adjoint_structural(m)
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
        m = random_cartier(rng, draw(st.sampled_from([2, 3, 5])), 2, 6, 4)
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
    return [mx.kernel(F, np.vstack([mx.mmul(F, mx.mat_pow(F, m.kappa, e), X)
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
