"""The two program caches: the `intertwiners` kernel memo and the
truncation ring.

A cached kernel must equal the kernel solved anew, be read-only, and be
keyed by the field as well as by the integer matrices.  The benchmark
empties the program's caches between passes with `cache_clearers` from
`bench/run.py`; both caches must be among what it empties.
"""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from cartierforge import matrix as mx
from cartierforge.artinian import _intertwiner_kernel, intertwiners
from cartierforge.field import GF
from cartierforge.pid import truncation_ring

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
    _intertwiner_kernel.cache_clear()
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
    info = _intertwiner_kernel.cache_info()
    assert info.misses == len({repr((As, Bs, rows, cols)) for As, Bs, rows, cols in systems})
    assert info.hits == 4 * len(systems) - info.misses
    assert nonzero > 10


def test_a_hit_returns_a_read_only_kernel():
    F = GF(3)
    A = mx.mat([[0, 1], [0, 0]])
    _intertwiner_kernel.cache_clear()
    first = intertwiners(F, [A], [A], 2, 2)
    hit = intertwiners(F, [A.copy()], [A.copy()], 2, 2)
    assert _intertwiner_kernel.cache_info().hits == 1
    assert hit is first and not hit.flags.writeable
    with pytest.raises(ValueError):
        hit[0, 0] = 2
    assert np.array_equal(hit, solve_anew(F, [A], [A], 2, 2))


def test_the_same_integer_matrices_over_two_fields_are_two_entries():
    # H J = 0 for the all-ones J: the rows of H lie in the left kernel of
    # J, spanned by (1, 1) over GF(2) and by (1, 2) over GF(3)
    J, Z = mx.mat([[1, 1], [1, 1]]), mx.zeros(2, 2)
    _intertwiner_kernel.cache_clear()
    k2 = intertwiners(GF(2), [J], [Z], 2, 2)
    k3 = intertwiners(GF(3), [J], [Z], 2, 2)
    assert _intertwiner_kernel.cache_info().currsize == 2
    assert np.array_equal(k2, solve_anew(GF(2), [J], [Z], 2, 2))
    assert np.array_equal(k3, solve_anew(GF(3), [J], [Z], 2, 2))
    assert not np.array_equal(k2, k3)


def test_the_kernel_cache_is_bounded():
    F = GF(2)
    _intertwiner_kernel.cache_clear()
    for n in range(600):    # 600 distinct systems, each with an empty space
        intertwiners(F, [], [], 0, n)
    assert _intertwiner_kernel.cache_info().currsize == 512


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


def test_bench_cache_clearers_empty_both_caches():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    intertwiners(GF(2), [mx.identity(2)], [mx.identity(2)], 2, 2)
    truncation_ring(GF(2), 3)
    assert _intertwiner_kernel.cache_info().currsize > 0
    assert truncation_ring.cache_info().currsize > 0
    clearers = run.cache_clearers([m for n, m in sys.modules.items()
                                   if n.startswith("cartierforge")])
    for clear in clearers:
        clear()
    assert _intertwiner_kernel.cache_info().currsize == 0
    assert truncation_ring.cache_info().currsize == 0
