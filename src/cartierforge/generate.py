"""Seeded random instances for the property suites.

Random modules over a monomial ring are built as direct sums of cyclic
quotients R/J conjugated by a random change of basis (commutation and the
relation identities then hold by construction); structures are random
elements of the exact equivariance solution space, so every generated
structure is valid and the corpora mix nilpotent and non-nilpotent cases.
"""

from __future__ import annotations

import random

import numpy as np

from . import matrix as mx
from .artinian import (ArtinRing, FinModule, fin_module, intertwiners,
                       ring_make)
from .field import GF, FiniteField
from .pid import CARTIER, FROBENIUS, PidModule, pid_torsion
from .structures import CartierModule, FModule, structured


def _rand_mat(rng: random.Random, F: FiniteField, r: int, c: int) -> np.ndarray:
    return np.array([[rng.randrange(F.order) for _ in range(c)] for _ in range(r)],
                    dtype=np.int64)


def random_invertible(rng: random.Random, F: FiniteField, n: int) -> np.ndarray:
    while True:
        m = _rand_mat(rng, F, n, n)
        if mx.inverse(F, m) is not None:
            return m


def random_artin_ring(rng: random.Random, p: int, max_vars: int = 2,
                      max_dim: int = 6) -> ArtinRing:
    while True:
        nvars = rng.randrange(1, max_vars + 1)
        names = ["x", "y", "z"][:nvars]
        rels = []
        for i in range(nvars):
            e = [0] * nvars
            e[i] = rng.randrange(1, 4)
            rels.append(e)
        for _ in range(rng.randrange(0, 2)):
            e = [rng.randrange(0, 3) for _ in range(nvars)]
            if sum(e) >= 2:
                rels.append(e)
        ring = ring_make(p, names, rels)
        if 1 <= ring.dim <= max_dim:
            return ring


def random_module(rng: random.Random, ring: ArtinRing, max_dim: int = 5) -> FinModule:
    """Direct sum of cyclic quotients R/J, conjugated; dim <= max_dim."""
    F = ring.field
    summands = []
    total = 0
    target = rng.randrange(1, max_dim + 1)
    guard = 0
    while total < target and guard < 30:
        guard += 1
        extra = []
        for _ in range(rng.randrange(0, 3)):
            e = [rng.randrange(0, 3) for _ in range(ring.nvars)]
            if sum(e) >= 1:
                extra.append(e)
        sub = ring_make(F, ring.vars, tuple(ring.relations) + tuple(tuple(e) for e in extra))
        if total + sub.dim > target and summands:
            break
        if total + sub.dim > target:
            continue
        summands.append(sub)
        total += sub.dim
    if not summands:
        kill = [tuple(1 if j == i else 0 for j in range(ring.nvars))
                for i in range(ring.nvars)]
        sub = ring_make(F, ring.vars, tuple(ring.relations) + tuple(kill))
        summands = [sub]
        total = sub.dim
    acts = []
    for v in range(ring.nvars):
        blocks = [s.mult_ops[v] for s in summands]
        X = mx.zeros(total, total)
        at = 0
        for b in blocks:
            X[at:at + b.shape[0], at:at + b.shape[0]] = b
            at += b.shape[0]
        acts.append(X)
    P = random_invertible(rng, F, total)
    Pi = mx.inverse(F, P)
    acts = [mx.mmul(F, Pi, mx.mmul(F, X, P)) for X in acts]
    return fin_module(ring, acts)


def equivariant_solutions(module: FinModule, kind: str, power: int = 1) -> np.ndarray:
    """Kernel basis of the structure equivariance system (columns are
    vectorized structure matrices)."""
    F = module.ring.field
    d = module.dim
    t = module.ring.q ** power
    Xs = module.actions
    Xqs = [mx.mat_pow(F, X, t) for X in Xs]
    # Cartier: K X^q = X K;  Frobenius: T X = X^q T
    As, Bs = (Xqs, Xs) if kind == CARTIER else (Xs, Xqs)
    return intertwiners(F, As, Bs, d, d)[0]


def random_structure(rng: random.Random, module: FinModule, kind: str,
                     power: int = 1):
    F = module.ring.field
    ker = equivariant_solutions(module, kind, power)
    d = module.dim
    v = np.zeros(d * d, dtype=np.int64)
    for k in range(ker.shape[1]):
        c = rng.randrange(F.order)
        if c:
            v = F.add(v, F.mul(np.int64(c), ker[:, k]))
    return structured(kind, module, mx.unvec(v, d, d), power)


def random_cartier(rng: random.Random, p: int, max_vars: int = 2,
                   max_ring_dim: int = 6, max_dim: int = 5) -> CartierModule:
    ring = random_artin_ring(rng, p, max_vars, max_ring_dim)
    mod = random_module(rng, ring, max_dim)
    return random_structure(rng, mod, CARTIER)


def random_f_module(rng: random.Random, p: int, max_vars: int = 2,
                    max_ring_dim: int = 6, max_dim: int = 5) -> FModule:
    ring = random_artin_ring(rng, p, max_vars, max_ring_dim)
    mod = random_module(rng, ring, max_dim)
    return random_structure(rng, mod, FROBENIUS)


def artinian_corpus(seed: int, count: int, p_choices=(2, 3),
                    max_ring_dim: int = 6, max_dim: int = 5):
    """The seeded random Cartier-module corpus used by the suites."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice(list(p_choices))
        out.append(random_cartier(rng, p, 2, max_ring_dim, max_dim))
    return out


def random_nilpotent(rng: random.Random, F: FiniteField, d: int) -> np.ndarray:
    m = mx.zeros(d, d)
    for i in range(d):
        for j in range(i):
            m[i, j] = rng.randrange(F.order)
    P = random_invertible(rng, F, d)
    return mx.mmul(F, mx.inverse(F, P), mx.mmul(F, m, P))


def random_pid_torsion(rng: random.Random, p: int, max_dim: int = 5,
                       kind: str = CARTIER) -> PidModule:
    """x-power-torsion module over GF(p)[x] with a random valid structure."""
    F = GF(p)
    d = rng.randrange(1, max_dim + 1)
    x_act = random_nilpotent(rng, F, d)
    probe = fin_module(ring_make(F, ["x"], [[mx.nil_index(F, x_act)]]), [x_act])
    return pid_torsion(F, x_act, random_structure(rng, probe, kind).mat, kind)


def pid_torsion_corpus(seed: int, count: int, p_choices=(2, 3),
                       max_dim: int = 5, kind: str = CARTIER):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice(list(p_choices))
        out.append(random_pid_torsion(rng, p, max_dim, kind))
    return out
