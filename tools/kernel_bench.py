"""Time `matrix.mmul` on random n x n operands, per field and size, and
the construction of a field; count the hits of the program's memos.

    python3 tools/kernel_bench.py [--repeats R]

Fields GF(2), GF(3), GF(4), GF(9), GF(27) and GF(2039^2), n from 2 to
136, with entries anywhere in the field; then GF(4), GF(9) and GF(27)
with both operands in the prime field GF(p), the codes below p ("p@p"),
and with only the left one there ("p@q"): the products that `mmul`
descends to GF(p).  Each cell is the median over R repeats (default 7)
of the mean time per call, in microseconds, over a batch of calls
lasting at least 20 ms.
The second table gives the time in milliseconds to build GF(4), GF(27),
GF(2^8), GF(3^6), GF(2^16) and GF(2039^2): the median over R builds, each
with the `GF` and `canonical_modulus` caches cleared, so that it finds
the modulus and the generator and fills the tables anew.
The third table gives the calls, hits and misses of every memo in
`artinian.MEMOS` (a miss is one result computed), per benchmark workload,
first over one unsharded pass: every command of every file under
`bench/inputs/<workload>/`, run as `result_digest.py` runs them, after the
benchmark's `cache_clearers` have emptied every program cache.  Then over
one round as `bench/run.py` runs it: the files split into its SHARDS
shards (file index mod SHARDS), every program cache emptied before each
shard, so a hit is a repeat within one shard.
BLAS runs in one thread.  The package is imported from the `src/` next
to this file, so a checkout of another commit times that commit.
"""

import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "bench"))

import argparse
import json
import statistics
import time

import numpy as np

import cartierforge.cli as cli
from cartierforge import matrix as mx
from cartierforge.artinian import MEMOS
from cartierforge.field import GF, canonical_modulus
from result_digest import INPUTS, WORKLOADS, result_lines
from run import SHARDS, cache_clearers

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (3, 3), (2039, 2)]
# (field, operand ranges): "p@p" both below p, "p@q" only the left one
ROWS = ([(p, d, "") for p, d in FIELDS]
        + [(p, d, kind) for p, d in [(2, 2), (3, 2), (3, 3)] for kind in ("p@p", "p@q")])
SIZES = [2, 4, 8, 16, 32, 64, 136]
BUILDS = [(2, 2), (3, 3), (2, 8), (3, 6), (2, 16), (2039, 2)]


def per_call_us(F, a, b, repeats: int) -> float:
    def batch(calls):
        t0 = time.perf_counter()
        for _ in range(calls):
            mx.mmul(F, a, b)
        return (time.perf_counter() - t0) / calls

    calls = 1
    while batch(calls) * calls < 0.02:
        calls *= 2
    return 1e6 * statistics.median(batch(calls) for _ in range(repeats))


def build_ms(p: int, d: int, repeats: int) -> float:
    def once():
        GF.cache_clear()
        canonical_modulus.cache_clear()
        t0 = time.perf_counter()
        GF(p, d)
        return time.perf_counter() - t0

    return 1e3 * statistics.median(once() for _ in range(repeats))


def clear_caches() -> None:
    for clear in cache_clearers([m for n, m in sys.modules.items()
                                 if n.startswith("cartierforge")]):
        clear()


def memo_counts() -> list:
    """(calls, hits, misses) of every memo, in MEMOS order, flattened."""
    out = []
    for memo in MEMOS:
        info = memo.cache_info()
        out += [info.hits + info.misses, info.hits, info.misses]
    return out


def pass_counts(workload: str) -> list:
    """memo_counts over one unsharded pass of the workload."""
    clear_caches()
    for _ in result_lines(cli, workload):
        pass
    return memo_counts()


def sharded_counts(workload: str) -> list:
    """memo_counts summed over the shards of one round, each shard run on
    emptied caches after the parse of every file, as `bench/run.py` does."""
    docs = [json.loads(p.read_text()) for p in sorted((INPUTS / workload).glob("*.json"))]
    total = np.zeros(3 * len(MEMOS), dtype=np.int64)
    for shard in range(SHARDS):
        clear_caches()
        problems = [cli.parse_problem(doc) for doc in docs]
        for problem in problems[shard::SHARDS]:
            for cmd in problem["commands"]:
                try:
                    cli.run_command(problem, cmd, 0)
                except Exception:
                    pass
        total += memo_counts()
    return [int(n) for n in total]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    repeats = ap.parse_args().repeats
    rng = np.random.default_rng(0)
    print("field".ljust(12) + "".join(f"n={n}".rjust(10) for n in SIZES) + "   (us/call)")
    for p, d, kind in ROWS:
        F = GF(p, d)
        hi_a, hi_b = (p if kind else F.order), (p if kind == "p@p" else F.order)
        row = [per_call_us(F, rng.integers(0, hi_a, (n, n)), rng.integers(0, hi_b, (n, n)),
                           repeats) for n in SIZES]
        print(f"{F!r} {kind}".ljust(12) + "".join(f"{t:10.1f}" for t in row))
    print()
    print("field".ljust(12) + "build".rjust(10) + "   (ms)")
    for p, d in BUILDS:
        print(f"GF({p}^{d})".ljust(12) + f"{build_ms(p, d, repeats):10.2f}")
    print()
    heads = ["calls", "hits", "misses"] * 2
    print("workload".ljust(16) + "memo".ljust(26) + "".join(h.rjust(8) for h in heads)
          + "   (one pass, then one round of shards)")
    for workload in WORKLOADS:
        one, round_ = pass_counts(workload), sharded_counts(workload)
        for i, memo in enumerate(MEMOS):
            name = f"{memo.__module__.rsplit('.', 1)[1]}.{memo.__name__}"
            counts = one[3 * i:3 * i + 3] + round_[3 * i:3 * i + 3]
            print(workload.ljust(16) + name.ljust(26) + "".join(f"{n:8d}" for n in counts))


if __name__ == "__main__":
    main()
