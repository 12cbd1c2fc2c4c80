"""Monomial Artinian algebras over GF(q) and their finite modules.

A ring is GF(q)[x_1..x_n] / I with I generated by monomials, at least one
pure power per variable (this forces finite dimension).  Modules are given
by commuting action matrices on a GF(q)-space, one per variable; every
functor used downstream (Frobenius pushforward, Hom, torsion) is then an
exact linear-algebra solve.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass

import numpy as np

from . import matrix as mx
from .field import GF, MAX_RING_DIM, FiniteField


class _Value:
    """A record that is a value: equal to a record of its own type with the
    same kept `_key`, and hashed by it, so a memo keys on its content."""

    def __eq__(self, other):
        return type(other) is type(self) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


@dataclass(frozen=True, eq=False)
class ArtinRing(_Value):
    field: FiniteField
    vars: tuple
    relations: tuple            # exponent vectors generating the monomial ideal
    basis: tuple                # standard monomials (exponent vectors), sorted
    mult_ops: tuple             # one matrix per variable

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def q(self) -> int:
        return self.field.order

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def key(self):
        return self._key

    @functools.cached_property
    def _key(self) -> tuple:
        """The presentation, built once: every part is an immutable tuple."""
        return (self.field.p, self.field.deg, self.vars, tuple(sorted(self.relations)))

    def basis_index(self, mono) -> int:
        return self.basis.index(tuple(mono))

    def one(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.basis_index((0,) * self.nvars)] = 1
        return v

    def __repr__(self):
        rels = ",".join("*".join(f"{v}^{e}" for v, e in zip(self.vars, r) if e)
                        for r in self.relations) or "0"
        return f"ArtinRing(GF({self.field.p}^{self.field.deg})[{','.join(self.vars)}]/({rels}))"


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_map(basis, image) -> np.ndarray:
    """The 0/1 matrix on the standard monomials `basis` that sends each b
    to image(b), or to 0 when image(b) is not standard."""
    index = {b: j for j, b in enumerate(basis)}
    op = mx.zeros(len(basis), len(basis))
    for j, b in enumerate(basis):
        if (k := index.get(image(b))) is not None:
            op[k, j] = 1
    return op


def _times(i: int, t: int):
    """x_i^t on exponent vectors, b -> b + t e_i: with `_monomial_map`, its
    action on the standard monomials, which are closed under division."""
    return lambda b: b[:i] + (b[i] + t,) + b[i + 1:]


def ring_make(p_or_field, vars, relations, r: int = 1) -> ArtinRing:
    """Build and validate a monomial Artinian ring.

    `relations` is a list of exponent vectors; each variable must appear in a
    pure power so the quotient is finite dimensional.  Basis monomials are
    sorted by total degree then lexicographically, making all downstream
    matrices deterministic.  They are walked from 1, each monomial reached
    once from the one with its last nonzero exponent lowered by 1 (standard
    monomials are closed under division), and the walk stops past
    MAX_RING_DIM before any matrix is built.
    """
    F = p_or_field if isinstance(p_or_field, FiniteField) else GF(p_or_field, r)
    vars = tuple(vars)
    n = len(vars)
    relations = tuple(tuple(int(e) for e in rel) for rel in relations)
    for rel in relations:
        if len(rel) != n or any(e < 0 for e in rel):
            raise ValueError(f"bad relation exponent vector {rel}")
        # the all-zero vector (the unit monomial) is allowed: it cuts the
        # whole ring, giving the zero ring
    for i in range(n):
        if all(any(rel[:i] + rel[i + 1:]) for rel in relations):
            raise ValueError(f"variable {vars[i]} has no pure power relation; "
                             "the quotient would be infinite dimensional")
    basis, todo = [], [((0,) * n, 0)]     # (monomial, its last nonzero index)
    while todo:
        e, last = todo.pop()
        if any(_divides(rel, e) for rel in relations):
            continue
        if len(basis) == MAX_RING_DIM:
            raise ValueError(f"ring {vars} / {relations} has more than {MAX_RING_DIM} "
                             f"standard monomials, past the ring-size cap {MAX_RING_DIM}")
        basis.append(e)
        todo.extend((e[:i] + (e[i] + 1,) + e[i + 1:], i) for i in range(last, n))
    basis = tuple(sorted(basis, key=lambda e: (sum(e), e)))
    return ArtinRing(F, vars, relations, basis,
                     _freeze(tuple(_monomial_map(basis, _times(i, 1)) for i in range(n))))


def quotient_ring(ring: ArtinRing, extra_relations) -> ArtinRing:
    """The quotient of `ring` by further monomial generators; it is only
    its presentation, so `restrict_scalars` takes `ring` as an argument."""
    return ring_make(ring.field, ring.vars, ring.relations + tuple(map(tuple, extra_relations)))


@dataclass(frozen=True, eq=False)
class FinModule(_Value):
    """A value: its actions are read-only from construction, so its memo
    key, built on first use, stays its content."""
    ring: ArtinRing
    dim: int
    actions: tuple   # one dim x dim matrix per ring variable

    def __post_init__(self):
        for a in self.actions:
            a.setflags(write=False)

    @functools.cached_property
    def _key(self) -> tuple:
        return (self.ring.key(), self.dim, tuple(map(_array_key, self.actions)))

    def action_of(self, expvec) -> np.ndarray:
        """Action matrix of the monomial x^expvec: X_n^e_n ... X_1^e_1, each
        power by repeated squaring, starting from the first nonzero one."""
        F = self.ring.field
        out = None
        for X, e in zip(self.actions, expvec):
            if e:
                power = mx.mat_pow(F, X, int(e))
                out = power if out is None else mx.mmul(F, power, out)
        return mx.identity(self.dim) if out is None else out

    def element_action(self, coeffs) -> np.ndarray:
        """Action matrix of the ring element with the given basis coords:
        one product of the nonzero coords by their monomials' actions, one
        per row; only those actions are built."""
        coeffs, d = np.asarray(coeffs, dtype=np.int64), self.dim
        nz = np.flatnonzero(coeffs)
        acts = mx.mat([self.action_of(self.ring.basis[i]).ravel() for i in nz])
        return mx.mmul(self.ring.field, coeffs[nz], acts.reshape(len(nz), d * d)).reshape(d, d)


# -- memos --

MEMOS: list = []    # every memo, for the tests and tools that empty or count them
MEMO_SIZE = 256     # entries per memo


def _array_key(a: np.ndarray) -> tuple:
    return (a.shape, (a if a.dtype is mx.INT64 else a.astype(np.int64)).tobytes())


def _freeze(out):
    """Make every array of `out`, an array or a tuple, read-only, and
    return `out`; the records in a tuple froze theirs when built."""
    if isinstance(out, np.ndarray):
        out.setflags(write=False)
    elif isinstance(out, tuple):
        for a in out:
            _freeze(a)
    return out


def memo(fn):
    """Memoize `fn` on the content of its positional arguments: a
    `functools.lru_cache` of it, with `cache_clear`, `cache_info` and
    `__wrapped__`, that joins MEMOS.  A ring, module or structure hashes
    and compares by the key it keeps, anything else as itself; an array
    is unhashable, so no memo takes one.

    At most MEMO_SIZE entries, the least recently used dropped first.  A
    hit returns the objects the miss returned, and every array in them is
    read-only; a caller that wants to write copies first."""
    memoized = functools.lru_cache(MEMO_SIZE)(lambda *args: _freeze(fn(*args)))
    MEMOS.append(functools.update_wrapper(memoized, fn))
    return memoized


def module_violations(m: FinModule) -> list[str]:
    """The ring laws `m` breaks: commuting actions, relations acting by 0."""
    ring, actions, n, d = m.ring, m.actions, len(m.actions), m.dim
    if n > 1:   # P[i, :, j] = X_i X_j: every product of two actions from one
        P = mx.mmul(ring.field, np.concatenate(actions), np.concatenate(actions, axis=1))
        P = P.reshape(n, d, n, d)
    out = [f"actions of {ring.vars[i]} and {ring.vars[j]} do not commute"
           for i in range(n) for j in range(i + 1, n) if not mx.equal(P[i, :, j], P[j, :, i])]
    for rel in ring.relations:
        if actions and mx.nonzero(m.action_of(rel)):
            out.append(f"relation monomial {rel} does not annihilate")
    return out


def fin_module(ring: ArtinRing, actions, dim: int | None = None) -> FinModule:
    """One dim x dim action per variable, copied; dim is required without variables."""
    actions = tuple(np.array(a, dtype=np.int64) for a in actions)
    if len(actions) != ring.nvars:
        raise ValueError("one action matrix per ring variable required")
    if dim is None and not actions:
        raise ValueError("a module over a ring without variables needs its dim")
    dim = actions[0].shape[0] if dim is None else dim
    if any(a.shape != (dim, dim) for a in actions):
        raise ValueError(f"action matrices must be {dim} x {dim}, the module dim")
    return FinModule(ring, dim, actions)


def zero_module(ring: ArtinRing) -> FinModule:
    return FinModule(ring, 0, tuple(mx.zeros(0, 0) for _ in range(ring.nvars)))


def regular_module(ring: ArtinRing) -> FinModule:
    """The ring as a module over itself."""
    return FinModule(ring, ring.dim, ring.mult_ops)


def frobenius_pushforward(m: FinModule, power: int = 1) -> FinModule:
    """F^r_* M: same space, each variable now acts through its q-th power
    (q^power for iterated pushforwards)."""
    F = m.ring.field
    t = m.ring.q ** power
    return FinModule(m.ring, m.dim, tuple(mx.mat_pow(F, X, t) for X in m.actions))


def direct_sum(a: FinModule, b: FinModule) -> FinModule:
    if a.ring != b.ring:
        raise ValueError("direct sum over different rings")
    return FinModule(a.ring, a.dim + b.dim, tuple(map(mx.block_diag, zip(a.actions, b.actions))))


def intertwiners(F: FiniteField, As, Bs, rows: int, cols: int):
    """The space { H (rows x cols) : H A_i = B_i H for every i }.

    Every Hom-type functor is such a space, and this is the one format of
    its basis: the RREF kernel of the stacked system A_i^T (x) I - I (x) B_i
    on vec H, whose column j is vec(H_j), in canonical kernel order.
    Equation (i, k, j), sum_l A_i[l, k] H[j, l] - B_i[j, l] H[l, k] with
    H[j, l] the unknown j + rows*l, is built from the nonzeros of column k
    of A_i and row j of B_i and reduced at once by the fully reduced pivot
    rows; if nonzero, it becomes the pivot row of its least column, cleared
    from the others.  Row step r += x y: (r + x y) mod p over GF(p),
    `mx._zech_add` over GF(p^m).  Returns the basis and its free rows, where
    it is the identity; not memoized (its functors are)."""
    p, ext, row = F.p, F.deg > 1, collections.defaultdict
    if ext:
        n, log, exp, _, neg = tables = F._zech_tables
    piv = {}    # pivot column -> minus its row at the free columns
    live = []   # the pivot rows not empty when made; the others stay empty
    for A, B in zip(As, Bs):
        At, B = A.T.tolist(), B.tolist()
        bs = [[(l, exp[log[b] + neg] if ext else p - b) for l, b in enumerate(r) if b]
              for r in B]     # the nonzeros of each row of -B_i
        for k, a in enumerate(At):
            ak, akk, rk = [(rows * l, v) for l, v in enumerate(a) if v], a[k], rows * k
            for j, bj in enumerate(bs):
                if not (ak or bj):
                    continue
                r = {}
                for o, v in ak:
                    r[j + o] = v
                for l, v in bj:
                    r[l + rk] = v
                if akk and B[j][j]:     # r holds -B_i[j, j] at H[j, k]: add A_i[k, k]
                    if ext:
                        mx._zech_add(r, log[akk], ((j + rk, 0),), tables)
                    else:
                        r[j + rk] = (r[j + rk] + akk) % p
                    if not r[j + rk]:
                        del r[j + rk]
                if not piv.keys().isdisjoint(r):
                    r = row(int, r)
                    for c in [c for c in r if c in piv]:
                        x, y = r.pop(c), piv[c]
                        if ext:
                            mx._zech_add(r, log[x], mx._zech_logs(log, y.items()), tables)
                        else:
                            for i, v in y.items():
                                r[i] = (r[i] + x * v) % p
                    r = {i: v for i, v in r.items() if v}
                if not r:
                    continue
                lead = min(r)
                v, y = r.pop(lead), row(int)       # y = -r / v
                s = (neg - log[v]) % n if ext else -pow(v, -1, p)
                for i, u in r.items():
                    y[i] = exp[log[u] + s] if ext else u * s % p
                ly = mx._zech_logs(log, y.items()) if ext else None
                for P in live:
                    if (x := P.pop(lead, 0)) and ext:
                        mx._zech_add(P, log[x], ly, tables)
                    elif x:
                        for i, u in y.items():
                            P[i] = (P[i] + x * u) % p
                piv[lead] = y
                if y:
                    live.append(y)
    ncols = rows * cols
    free = [c for c in range(ncols) if c not in piv]
    at = {c: i for i, c in enumerate(free)}
    out = [0] * (ncols * len(free))
    for c, y in piv.items():
        for j, v in y.items():
            out[c * len(free) + at[j]] = v
    for c, i in at.items():
        out[c * len(free) + i] = 1
    return np.array(out, dtype=np.int64).reshape(ncols, len(free)), np.array(free, dtype=np.intp)


class Hom(tuple):
    """(module or structure, basis) of a Hom space, the basis from
    `intertwiners`; its free rows ride along as `free`, both read-only."""

    def __new__(cls, module, ker: np.ndarray, free: np.ndarray):
        out = super().__new__(cls, (module, _freeze(ker)))
        out.free = _freeze(free)
        return out


def hom_images(F: FiniteField, ker: np.ndarray, shape, left=None, right=None) -> np.ndarray:
    """vec(left H_j right) as column j, for every hom H_j (of the given
    shape) of the basis `ker`; a missing side is the identity.

    The homs side by side, [H_1 .. H_k], are a column-major reshape of
    `ker`, and so is their vertical stack after a transpose: each side
    costs one product, whatever the number of homs."""
    (r, c), k = shape, ker.shape[1]
    if left is not None:
        side = mx.mmul(F, left, ker.reshape(r, c * k, order="F"))
        r = left.shape[0]
        ker = side.reshape(r * c, k, order="F")
    if right is not None:
        stacked = ker.reshape(r, c, k, order="F").transpose(2, 0, 1).reshape(k * r, c)
        prod = mx.mmul(F, stacked, right)
        c = right.shape[1]
        ker = prod.reshape(k, r, c).transpose(1, 2, 0).reshape(r * c, k, order="F")
    return ker


def hom_coords(F: FiniteField, ker: np.ndarray, targets: np.ndarray, free: np.ndarray):
    """Coordinates in the hom basis `ker`, a canonical RREF kernel basis as
    from `intertwiners`, of the matrices whose vecs are the columns of
    `targets`.  They are read off the free rows of `ker`, where the basis
    is the identity (`free`, as `intertwiners` returns them), and checked
    by one product: None unless they give `targets` back."""
    coords = targets[free]
    return coords if mx.equal(mx.mmul(F, ker, coords), targets) else None


def _hom(ring: ArtinRing, a: int, As, Cs, n: FinModule) -> Hom:
    """Hom_R(A, N) over `ring`, A the a-dimensional module with actions
    `As`: the H with H A_i = X^N_i H, x_j acting by H -> H C_j (the `Cs`
    commute with each other and the `As`).  The images vec(H [C_1 .. C_n])
    stack the vec(H C_j), so x_j sends hom k to column j + nvars * k."""
    F, nv = ring.field, ring.nvars
    ker, free = intertwiners(F, As, n.actions, n.dim, a)
    imgs = hom_images(F, ker, (n.dim, a), right=np.concatenate((mx.zeros(a, 0), *Cs), axis=1))
    coords = hom_coords(F, ker, imgs.reshape(n.dim * a, nv * ker.shape[1], order="F"), free)
    if coords is None:
        raise ValueError("hom image left the hom space: the module actions "
                         "do not commute (check the module with validate)")
    return Hom(FinModule(ring, ker.shape[1], tuple(coords[:, i::nv] for i in range(nv))),
               ker, free)


@memo
def hom_module(m: FinModule, n: FinModule) -> Hom:
    """Hom_R(M, N) as a module: solves H X^M_i = X^N_i H.

    Returns the hom module (a: H -> X^N(a) H = H X^M(a)) together with its
    basis, the kernel matrix from `intertwiners`; shared, read-only (`memo`).
    """
    if m.ring != n.ring:
        raise ValueError("hom between modules over different rings")
    return _hom(m.ring, m.dim, m.actions, m.actions, n)


def f_flat(m: FinModule, power: int = 1) -> Hom:
    """F^(r,flat) M = Hom_R(F^r_* R, M) with its twisted R-structure.

    The solution space is { Phi : Phi mu_i^(q^power) = X_i Phi }; the action
    of x_i inserts the variable before the Frobenius restriction, i.e. sends
    Phi to Phi mu_i.  (Using the plain hom structure here would break the
    adjunction F^(2,flat) = F^flat o F^flat on non-regular rings.)  Returns
    the module and its basis, the kernel matrix from `intertwiners`.
    """
    R = m.ring
    mu_q = [_monomial_map(R.basis, _times(i, R.q ** power)) for i in range(R.nvars)]
    return _hom(R, R.dim, mu_q, R.mult_ops, m)


def f_flat_dim(m: FinModule, power: int = 1) -> int:
    """dim F^(r,flat) M, without building it.  With Q = q^power, every
    standard monomial is a + Qc in one way with a < Q, a standard; x^c acts
    on F_*R by x^(Qc), so F_*R is the sum over the standard a < Q of R/J_a,
    J_a = (x^c : x^(a+Qc) in I), generated by the ceil((r - a)/Q)^+ of the
    relations r.  So F^flat M = Hom_R(F_*R, M) is the sum of the M[J_a],
    and dim M[J] is dim M less the rank of the stacked actions of J's
    generators: one rank per distinct set of generators."""
    Q = m.ring.q ** power
    ideals = collections.Counter(
        frozenset(tuple(max(0, -((e - r) // Q)) for r, e in zip(rel, a))
                  for rel in m.ring.relations) for a in m.ring.basis if max(a, default=0) < Q)
    return sum(c * (m.dim - mx.rank(m.ring.field, np.concatenate(
        (mx.zeros(0, m.dim), *map(m.action_of, J))))) for J, c in ideals.items())


def torsion_basis(m: FinModule, j_gens) -> tuple[ArtinRing, np.ndarray]:
    """R/J and the basis columns of the J-torsion { v : J v = 0 } of m."""
    gens = [tuple(int(e) for e in g) for g in j_gens]
    B = mx.kernel(m.ring.field, np.concatenate((mx.zeros(0, m.dim), *map(m.action_of, gens))))
    return quotient_ring(m.ring, gens), B


def i_torsion(m: FinModule, j_gens) -> tuple[FinModule, np.ndarray]:
    """The J-torsion submodule over R/J, and its basis columns inside m."""
    ring, B = torsion_basis(m, j_gens)
    return FinModule(ring, B.shape[1], submodule(m, B).actions), B


def restrict_scalars(m: FinModule, ambient: ArtinRing) -> FinModule:
    """i_* : view a module over R/J as a module over R = `ambient`.

    The variables are shared, so the action matrices are unchanged.  Raises
    unless m's ring is a quotient of `ambient`: same field and variables,
    and every relation of `ambient` divisible by one of m's ring."""
    S = m.ring
    if (ambient.field, ambient.vars) != (S.field, S.vars) or not all(
            any(_divides(s, r) for s in S.relations) for r in ambient.relations):
        raise ValueError(f"{S!r} is not a quotient of {ambient!r}")
    return FinModule(ambient, m.dim, m.actions)


def restrict(F: FiniteField, mats, cols: np.ndarray):
    """For every X in `mats`, the Y with cols Y = X cols: X restricted to
    span(cols), whose columns must be independent.

    The products X cols come from one product with the X stacked, and every
    Y from one solve with the right-hand sides side by side.  Returns None
    when span(cols) is not stable under some X."""
    k = cols.shape[1]
    if not k or not mats:
        return [mx.zeros(k, k) for _ in mats]
    n = cols.shape[0]
    prod = mx.mmul(F, np.concatenate(mats), cols)
    sol = mx.solve(F, cols, prod.reshape(len(mats), n, k).transpose(1, 0, 2)
                   .reshape(n, len(mats) * k))
    if sol is None:
        return None
    return [sol[:, i * k:(i + 1) * k] for i in range(len(mats))]


def submodule(m: FinModule, cols: np.ndarray) -> FinModule:
    """Restrict to the span of the given (independent) columns."""
    acts = restrict(m.ring.field, m.actions, cols)
    if acts is None:
        raise ValueError("columns do not span a submodule")
    return FinModule(m.ring, cols.shape[1], tuple(acts))


def quotient_data(F: FiniteField, dim: int, cols: np.ndarray):
    """Projection/section pair for the quotient by the span of `cols`.

    Returns (proj, sect): proj maps the big space onto quotient coordinates,
    sect picks representative vectors; proj @ sect = identity.
    """
    if cols.size == 0:
        return mx.identity(dim), mx.identity(dim)
    pivots = mx.rref(F, cols.T)[1]
    sect = mx.identity(dim)[:, [i for i in range(dim) if i not in pivots]]
    big_inv = mx.inverse(F, np.concatenate([cols, sect], axis=1))
    if big_inv is None:
        raise ValueError("quotient basis completion failed")
    return big_inv[cols.shape[1]:, :], sect


def induce(F: FiniteField, mats, proj: np.ndarray, sect: np.ndarray):
    """proj X sect for every X in `mats` (at least one): X induced on the
    quotient of `quotient_data`.  One product with the X stacked, and one
    with proj on the products side by side."""
    n, k = sect.shape
    prod = mx.mmul(F, np.concatenate(mats), sect)
    out = mx.mmul(F, proj, prod.reshape(len(mats), n, k).transpose(1, 0, 2)
                  .reshape(n, len(mats) * k))
    return [out[:, i * k:(i + 1) * k] for i in range(len(mats))]
