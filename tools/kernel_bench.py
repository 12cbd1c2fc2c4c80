"""Time `matrix.mmul` on random n x n operands, per field and size,
`matrix.rref` on each of its two paths, replays of the workloads' own
`rref`, GF(p^m) `mmul`, `intertwiners` and `semilinear_fixed_points`
calls, the construction of a field, and `Poly` products, divisions and
`crystal_class`; count the hits of the program's memos and time their
bookkeeping.

    python3 tools/kernel_bench.py [--repeats R]

Fields GF(2), GF(3), GF(4), GF(9), GF(27) and GF(2039^2), n from 2 to
136, with entries anywhere in the field; then GF(4), GF(9) and GF(27)
with both operands in the prime field GF(p), the codes below p ("p@p"),
and with only the left one there ("p@q"): the products that `mmul`
descends to GF(p).  Each cell is the median over R repeats (default 7)
of the mean time per call, in microseconds, over a batch of calls
lasting at least 20 ms; where a cell compares callables, their batches
alternate.  Every time in every table is scaled to the reference host
speed of `bench/run.py`, as the benchmark scales its commands: after
each repeat the tool times the benchmark's `Probe` once and multiplies
that repeat's times by PROBE_REF_S over the probe's time.
The first rref table gives the time per call of `matrix.rref` on
matrices of uniformly random codes, square (k x k), tall (2k x k) and
wide (k x 2k), 4 to 578 cells; 2 is the median aspect of the tall and of
the wide matrices that `rref` gets in the artinian-prime and
extension-field workloads.  The fields are GF(2), GF(3), GF(5),
GF(4194301), GF(9) with entries in its prime field GF(3) and GF(27) with
entries anywhere, each path forced through `matrix.SMALL_RREF_CELLS`:
"int" for the Python-int Gauss-Jordan, "np" for the numpy pivot step.
Dense random codes are the Python path's worst case.
The second rref table replays the `rref` calls of one round of each
benchmark workload (see the memo table for the round), one row for the
matrices over GF(p) (a GF(p^m) matrix of codes below p descends there)
and one for those with a code outside GF(p), with SMALL_RREF_CELLS set
to each column's bound ("np": every matrix on numpy, "int": every matrix
on Python ints): the median over R repeats of the milliseconds one
replay takes, the bounds alternating.  Its last line names the bound of
the least total.  The mmul replay table does the same for the GF(p^m)
products of one round (only `extension-field` has them), with
SMALL_MMUL_MACS set to each column's bound ("int": every 2-D product
through the Zech path).
The intertwiners replay solves the `artinian.intertwiners` systems of
one round of each workload, those of the misses of the functor memos
`hom_module` and `flat_cartier` (the kernel itself is not memoized):
"sparse" is `intertwiners` itself, which reduces each equation where it
builds it, "kron" the stacked Kronecker system A_i^T (x) I - I (x) B_i
with `matrix.kernel`, the reference `kron_intertwiners` of
`tests/oracles.py`; the median over R repeats of the milliseconds one
replay takes, the two alternating.  Its "dense" row solves the
centralisers of one matrix of random codes, 20 x 20, over GF(3) and
over GF(2) (DENSE): 400 unknowns each, where the pivot rows fill in.
The Sol replay solves the `twisted.semilinear_fixed_points` calls of one
round of each workload that has them (only `extension-field`: 90 calls,
all from `duality.sol_point`): "F_q" is the solver itself, in d*s
unknowns over F_q, "GF(p)" the restriction of scalars to GF(p) in d*r*s
unknowns, `restricted_fixed_points` of `tests/oracles.py`; the median
over R repeats of the milliseconds one replay takes, the two
alternating.  The field tables and the Sol frames are warm, so neither
column counts a field build.
The build table gives the time in milliseconds to build GF(4), GF(27),
GF(2^6), GF(3^4), GF(5^4), GF(2^8), GF(3^6), GF(2^16) and GF(2039^2):
the median over R builds, each with the `GF` and `canonical_modulus`
caches cleared, so that it finds the modulus and the generator and fills
the tables anew.  GF(2^6), GF(3^4), GF(5^4), GF(2^8) and GF(3^6) are the
fields that `extension-field` builds inside its timed commands, as the
benchmark empties every cache before each shard.
The poly table gives the time per call, in microseconds, of a `Poly`
product of two random polynomials of degree 1, 10 and 100 and of the
division of one by a random polynomial of half its degree (rounded
down), over GF(5), GF(8) and GF(9), the two ops' batches alternating;
then the milliseconds one `crystal_class` pass takes over the modules of
the crystal digest of `result_digest.py`, every Artinian module and PID
torsion part of the three workloads' files.
The memo table gives the calls, hits and misses of every memo in
`artinian.MEMOS` (a miss is one result computed), among them the Hom
functors `artinian.hom_module` and `structures.flat_cartier`, per
benchmark workload,
first over one unsharded pass: every command of every file under
`bench/inputs/<workload>/`, run as `result_digest.py` runs them, after the
benchmark's `cache_clearers` have emptied every program cache.  Then over
one round as `bench/run.py` runs it: the files split into its SHARDS
shards (file index mod SHARDS), every program cache emptied before each
shard, so a hit is a repeat within one shard.
The memo-cost table gives, per workload and memo, over one round of
shards (as in the memo table): the calls and the misses, then the
microseconds per hit, the median over R repeats of the mean time per
call of the memo called again on the arguments of every recorded call,
with those arguments' entries already in the memo; then the bookkeeping
per miss, the microseconds to hash the arguments of each miss (copies of
its records, so a key a record keeps is built anew) and to freeze each
miss's result (`artinian._freeze`).  A hit costs the hash of its
arguments and the lookup; the memo's own work is not in these columns.
The command table gives, per workload and op, the warm microseconds per
`cli.run_command` call on the workload's first input file: the file parsed
and every command run once, so the memos and the module validations are
filled; then per op the median over R repeats of the mean time per
command over batches of all the file's commands of that op, the ops'
batches alternating.  What it times is the fixed cost of a command: the
op table lookup, the module checks, the handler, the result records and
the report fields around a few memo hits.
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
sys.path.insert(2, str(ROOT / "tests"))

import argparse
import dataclasses
import functools
import json
import statistics
import time

import numpy as np

import cartierforge.cli as cli
from cartierforge import artinian, duality, matrix as mx
from cartierforge.artinian import MEMOS
from cartierforge.duality import crystal_class
from cartierforge.field import GF, canonical_modulus
from cartierforge.pid import PidModule
from cartierforge.poly import Poly
from cartierforge.structures import Structured
from cartierforge.twisted import semilinear_fixed_points
from oracles import kron_intertwiners, restricted_fixed_points
from result_digest import INPUTS, WORKLOADS, _problems, result_lines
from run import PROBE_REF_S, SHARDS, Probe, cache_clearers

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (3, 3), (2039, 2)]
# (field, operand ranges): "p@p" both below p, "p@q" only the left one
ROWS = ([(p, d, "") for p, d in FIELDS]
        + [(p, d, kind) for p, d in [(2, 2), (3, 2), (3, 3)] for kind in ("p@p", "p@q")])
SIZES = [2, 4, 8, 16, 32, 64, 136]
RREF_FIELDS = [(2, 1, 2), (3, 1, 3), (5, 1, 5), (4194301, 1, 4194301), (3, 2, 3),
               (3, 3, 27)]
RREF_K = [2, 3, 4, 6, 8, 10, 12, 14, 17]
RREF_SHAPES = {"square": lambda k: (k, k), "tall": lambda k: (2 * k, k),
               "wide": lambda k: (k, 2 * k)}
RREF_PATHS = {"int": 1 << 62, "np": -1}           # SMALL_RREF_CELLS forcing each
RREF_BOUNDS = [-1, 16, 36, 64, 144, 256, 400, 576, 1024, 1 << 62]
MMUL_BOUNDS = [-1, 8, 27, 64, 128, 256, 512, 1 << 62]
BUILDS = [(2, 2), (3, 3), (2, 6), (3, 4), (5, 4), (2, 8), (3, 6), (2, 16), (2039, 2)]
POLY_FIELDS = [(5, 1), (2, 3), (3, 2)]
POLY_DEGREES = [1, 10, 100]
# the dense Hom systems of the intertwiners replay: the centraliser of one
# matrix of random codes, n x n, over GF(p), with n^2 unknowns
DENSE = [(3, 20), (2, 20)]


@functools.cache
def probe() -> Probe:
    return Probe()


def host_scale() -> float:
    """PROBE_REF_S over the time of one probe of `bench/run.py`: a time
    taken just before, multiplied by this, reads at the benchmark's
    reference host speed, as the benchmark scales its commands."""
    return PROBE_REF_S / probe()()


def per_call_us(calls: dict, repeats: int) -> dict:
    """Per callable in `calls`, the median over R repeats of the mean time
    per call, in microseconds, over a batch lasting at least 20 ms, each
    repeat scaled by one probe (`host_scale`).  The batches of the
    callables alternate, so a slow stretch of the host falls on all of
    them."""
    def batch(call, n):
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        return (time.perf_counter() - t0) / n

    sizes = {}
    for key, call in calls.items():
        n = 1
        while batch(call, n) * n < 0.02:
            n *= 2
        sizes[key] = n
    samples = {key: [] for key in calls}
    for _ in range(repeats):
        times = {key: batch(call, sizes[key]) for key, call in calls.items()}
        scale = host_scale()
        for key, t in times.items():
            samples[key].append(t * scale)
    return {key: 1e6 * statistics.median(t) for key, t in samples.items()}


def forced_rref(F, a, cells: int):
    """A call of `matrix.rref(F, a)` with SMALL_RREF_CELLS set to `cells`."""
    def call():
        mx.SMALL_RREF_CELLS = cells
        mx.rref(F, a)
    return call


def build_ms(p: int, d: int, repeats: int) -> float:
    def once():
        GF.cache_clear()
        canonical_modulus.cache_clear()
        t0 = time.perf_counter()
        GF(p, d)
        return (time.perf_counter() - t0) * host_scale()

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


def round_shards(workload: str):
    """Run one round as `bench/run.py` does, yielding after each shard:
    every program cache emptied, then every file parsed and the commands
    of the shard's files run.  No command of the pinned inputs raises, so
    a raise means this tool is broken, and it is let through."""
    docs = [json.loads(p.read_text()) for p in sorted((INPUTS / workload).glob("*.json"))]
    for shard in range(SHARDS):
        clear_caches()
        problems = [cli.parse_problem(doc) for doc in docs]
        for problem in problems[shard::SHARDS]:
            for cmd in problem["commands"]:
                cli.run_command(problem, cmd, 0)
        yield


def sharded_counts(workload: str) -> list:
    """memo_counts summed over the shards of one round."""
    total = np.zeros(3 * len(MEMOS), dtype=np.int64)
    for _ in round_shards(workload):
        total += memo_counts()
    return [int(n) for n in total]


def round_calls(workload: str, kernel: str) -> list:
    """(field, *arrays) of every `matrix.<kernel>` call in one round."""
    seen, fn = [], getattr(mx, kernel)

    def record(F, *args):
        seen.append((F, *(np.array(x, dtype=np.int64) for x in args)))
        return fn(F, *args)

    setattr(mx, kernel, record)
    try:
        for _ in round_shards(workload):
            pass
    finally:
        setattr(mx, kernel, fn)
    return seen


def round_args(workload: str, module, name: str) -> list:
    """The arguments of every call of `module.<name>` in one round, the name
    rebound to a recorder while the round runs."""
    seen, fn = [], getattr(module, name)

    def record(*args):
        seen.append(args)
        return fn(*args)

    setattr(module, name, record)
    try:
        for _ in round_shards(workload):
            pass
    finally:
        setattr(module, name, fn)
    return seen


def mmul_table(rng, repeats: int) -> None:
    print("field".ljust(12) + "".join(f"n={n}".rjust(10) for n in SIZES) + "   (us/call)")
    for p, d, kind in ROWS:
        F = GF(p, d)
        hi_a, hi_b = (p if kind else F.order), (p if kind == "p@p" else F.order)
        row = []
        for n in SIZES:
            a, b = rng.integers(0, hi_a, (n, n)), rng.integers(0, hi_b, (n, n))
            row.append(per_call_us({"": lambda: mx.mmul(F, a, b)}, repeats)[""])
        print(f"{F!r} {kind}".ljust(12) + "".join(f"{t:10.1f}" for t in row))


def rref_table(rng, repeats: int) -> None:
    print("field".ljust(11) + "shape".ljust(8) + "path".ljust(6)
          + "".join(f"k={k}".rjust(8) for k in RREF_K) + "   (us/call)")
    saved = mx.SMALL_RREF_CELLS
    try:
        for p, d, hi in RREF_FIELDS:
            F = GF(p, d)
            for shape, dims in RREF_SHAPES.items():
                times = {path: [] for path in RREF_PATHS}
                for k in RREF_K:
                    a = rng.integers(0, hi, dims(k))
                    us = per_call_us({path: forced_rref(F, a, cells)
                                      for path, cells in RREF_PATHS.items()}, repeats)
                    for path in RREF_PATHS:
                        times[path].append(us[path])
                for path in RREF_PATHS:
                    print(f"{F!r}".ljust(11) + shape.ljust(8) + path.ljust(6)
                          + "".join(f"{t:8.1f}" for t in times[path]))
    finally:
        mx.SMALL_RREF_CELLS = saved


def replay_table(rows: dict, kernel: str, bound: str, values: list, repeats: int) -> None:
    """Per row of `rows` (label -> recorded calls), the median over R
    repeats of the milliseconds one replay of the calls through
    `matrix.<kernel>` takes with `matrix.<bound>` set to each of `values`,
    the values alternating; then the sum and the value of the least sum."""
    names = ["np" if v < 0 else "int" if v > 1 << 30 else str(v) for v in values]
    print("calls".ljust(24) + "".join(n.rjust(8) for n in names)
          + f"   (ms per replay, by {bound})")

    def replay(calls, value):
        setattr(mx, bound, value)
        fn = getattr(mx, kernel)
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        return time.perf_counter() - t0

    total = np.zeros(len(values))
    saved = getattr(mx, bound)
    try:
        for label, calls in rows.items():
            samples = [np.array([replay(calls, v) for v in values]) * host_scale()
                       for _ in range(repeats)]
            ms = 1e3 * np.median(samples, axis=0)
            total += ms
            print(label.ljust(24) + "".join(f"{t:8.1f}" for t in ms))
    finally:
        setattr(mx, bound, saved)
    print("all".ljust(24) + "".join(f"{t:8.1f}" for t in total))
    print(f"least total at {names[int(total.argmin())]}")


def workload_replays(repeats: int) -> None:
    """The rref replay, by workload and by the field the matrix lies in
    (GF(p), which a GF(p^m) matrix of codes below p descends to, or
    GF(p^m)), then the replay of the GF(p^m) products."""
    rrefs, mmuls = {}, {}
    for workload in WORKLOADS:
        calls = round_calls(workload, "rref")
        for kind, ext in (("GF(p)", False), ("GF(p^m)", True)):
            mine = [(F, a) for F, a in calls if (a.max(initial=0) >= F.p) == ext]
            if mine:
                rrefs[f"{workload} {kind}"] = mine
        ext = [call for call in round_calls(workload, "mmul") if call[0].deg > 1]
        if ext:
            mmuls[workload] = ext
    replay_table(rrefs, "rref", "SMALL_RREF_CELLS", RREF_BOUNDS, repeats)
    print()
    replay_table(mmuls, "mmul", "SMALL_MMUL_MACS", MMUL_BOUNDS, repeats)


def dense_systems() -> list:
    """The arguments (F, As, Bs, rows, cols) of the DENSE centralisers."""
    rng = np.random.default_rng(400)
    out = []
    for p, n in DENSE:
        a = rng.integers(0, p, (n, n))
        out.append((GF(p), [a], [a], n, n))
    return out


def solver_replays(solvers: dict, rows: dict, what: str, repeats: int) -> None:
    """Per row of `rows` (label -> argument tuples), the number of calls and
    the median over R repeats of the milliseconds one replay of them takes
    with each of `solvers`, the solvers alternating."""
    print("workload".ljust(18) + what.rjust(8) + "".join(k.rjust(8) for k in solvers)
          + "   (ms per replay)")

    def replay(solve, calls):
        t0 = time.perf_counter()
        for args in calls:
            solve(*args)
        return time.perf_counter() - t0

    for label, calls in rows.items():
        samples = [np.array([replay(solve, calls) for solve in solvers.values()]) * host_scale()
                   for _ in range(repeats)]
        ms = 1e3 * np.median(samples, axis=0)
        print(label.ljust(18) + f"{len(calls):8d}" + "".join(f"{t:8.1f}" for t in ms))


def intertwiners_table(repeats: int) -> None:
    """Per workload, one round's intertwiner systems (F, As, Bs, rows, cols)
    solved as they are (`intertwiners`) and by the Kronecker reference;
    then the DENSE centralisers.  Only a miss of `hom_module` or of
    `flat_cartier` (through `f_flat`) calls `intertwiners`, so these are the
    systems of the functor memos' misses."""
    rows = {w: round_args(w, artinian, "intertwiners") for w in WORKLOADS}
    rows["dense"] = dense_systems()
    solver_replays({"sparse": artinian.intertwiners, "kron": kron_intertwiners}, rows,
                   "systems", repeats)


def sol_table(repeats: int) -> None:
    """Per workload with Sol, one round's `semilinear_fixed_points` calls
    (F, T, s), all made by `duality.sol_point`, solved over F_q and by the
    restriction of scalars to GF(p)."""
    rows = {w: calls for w in WORKLOADS
            if (calls := round_args(w, duality, "semilinear_fixed_points"))}
    solver_replays({"F_q": semilinear_fixed_points, "GF(p)": restricted_fixed_points}, rows,
                   "calls", repeats)


def build_table(repeats: int) -> None:
    print("field".ljust(12) + "build".rjust(10) + "   (ms)")
    for p, d in BUILDS:
        print(f"GF({p}^{d})".ljust(12) + f"{build_ms(p, d, repeats):10.2f}")


def poly_table(rng, repeats: int) -> None:
    """`Poly` product and division of random polynomials of each degree
    (the divisor of half the degree), then one `crystal_class` pass over
    the modules of the crystal digest."""
    print("field".ljust(12) + "op".ljust(8) + "".join(f"deg={d}".rjust(10) for d in POLY_DEGREES)
          + "   (us/call)")

    def draw(F, deg):
        return Poly.make(F, [*rng.integers(0, F.order, deg), rng.integers(1, F.order)])

    for p, d in POLY_FIELDS:
        F = GF(p, d)
        times = {"*": [], "divmod": []}
        for deg in POLY_DEGREES:
            a, b, c = draw(F, deg), draw(F, deg), draw(F, deg // 2)
            us = per_call_us({"*": lambda: a * b, "divmod": lambda: a.divmod(c)}, repeats)
            for op in times:
                times[op].append(us[op])
        for op, row in times.items():
            print(f"{F!r}".ljust(12) + op.ljust(8) + "".join(f"{t:10.1f}" for t in row))
    parts = [m.torsion if isinstance(m, PidModule) else m
             for w in WORKLOADS for _, problem in _problems(cli, w)
             for m in problem["modules"].values()]
    parts = [m for m in parts if m is not None]

    def crystal_pass():
        for m in parts:
            crystal_class(m)
    ms = per_call_us({"": crystal_pass}, repeats)[""] / 1e3
    print(f"crystal_class over {len(parts)} digest modules: {ms:.1f} ms per pass")


def memo_table() -> None:
    heads = ["calls", "hits", "misses"] * 2
    print("workload".ljust(16) + "memo".ljust(26) + "".join(h.rjust(8) for h in heads)
          + "   (one pass, then one round of shards)")
    for workload in WORKLOADS:
        one, round_ = pass_counts(workload), sharded_counts(workload)
        for i, memo in enumerate(MEMOS):
            name = f"{memo.__module__.rsplit('.', 1)[1]}.{memo.__name__}"
            counts = one[3 * i:3 * i + 3] + round_[3 * i:3 * i + 3]
            print(workload.ljust(16) + name.ljust(26) + "".join(f"{n:8d}" for n in counts))


def round_memo_calls(workload: str):
    """Per memo of MEMOS, the argument tuples of its calls in one round
    (`round_shards`), and (arguments, result) of its misses: every name
    the memo is bound to in the package is rebound to a recorder, which
    keeps the memo's `cache_clear` for the shards' `clear_caches`, while
    the round runs."""
    calls, misses = {id(m): [] for m in MEMOS}, {id(m): [] for m in MEMOS}

    def recorder(memo):
        def record(*args):
            before = memo.cache_info().misses
            out = memo(*args)
            calls[id(memo)].append(args)
            if memo.cache_info().misses > before:
                misses[id(memo)].append((args, out))
            return out
        record.cache_clear = memo.cache_clear
        return record

    memos, saved = {id(m): m for m in MEMOS}, []
    for mod in [m for n, m in sys.modules.items() if n.startswith("cartierforge")]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in memos:
                saved.append((mod, attr, obj))
                setattr(mod, attr, recorder(obj))
    try:
        for _ in round_shards(workload):
            pass
    finally:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)
    return calls, misses


def fresh(a):
    """An equal copy of a module or structure (its own module copied too),
    so a key it keeps is not built yet; anything else as it is."""
    if isinstance(a, artinian.FinModule):
        return dataclasses.replace(a)
    if isinstance(a, Structured):
        return dataclasses.replace(a, module=dataclasses.replace(a.module))
    return a


def memo_costs(memo, calls: list, misses: list, repeats: int) -> list:
    """Microseconds per hit, and the key and the freeze per miss, of one
    memo over one round's calls; medians over R repeats, each scaled by
    one probe (`host_scale`).  A hit is a call of the memo on the
    arguments of a recorded call, in chunks of at most the memo's size,
    each chunk called once before it is timed, so every timed call hits.
    The key is the hash of the arguments of each miss, copied by `fresh`
    beforehand; the freeze is `artinian._freeze` of each miss's result."""
    size = memo.cache_info().maxsize
    hit, key, freeze = [], [], []
    for _ in range(repeats):
        t = 0.0
        for i in range(0, len(calls), size):
            chunk = calls[i:i + size]
            for args in chunk:
                memo(*args)
            t0 = time.perf_counter()
            for args in chunk:
                memo(*args)
            t += time.perf_counter() - t0
        copies = [tuple(map(fresh, args)) for args, _ in misses]
        t0 = time.perf_counter()
        for args in copies:
            hash(args)
        t1 = time.perf_counter()
        for _, out in misses:
            artinian._freeze(out)
        t2 = time.perf_counter()
        scale = 1e6 * host_scale()
        hit.append(t * scale / len(calls))
        key.append((t1 - t0) * scale / len(misses))
        freeze.append((t2 - t1) * scale / len(misses))
    return [statistics.median(x) for x in (hit, key, freeze)]


def memo_cost_table(repeats: int) -> None:
    heads = ["calls", "misses", "hit", "key", "freeze"]
    print("workload".ljust(16) + "memo".ljust(26) + "".join(h.rjust(8) for h in heads)
          + "   (one round; us per hit, us per miss)")
    for workload in WORKLOADS:
        calls, misses = round_memo_calls(workload)
        for memo in MEMOS:
            mine, missed = calls[id(memo)], misses[id(memo)]
            if not mine:
                continue
            clear_caches()
            costs = memo_costs(memo, mine, missed, repeats)
            name = f"{memo.__module__.rsplit('.', 1)[1]}.{memo.__name__}"
            print(workload.ljust(16) + name.ljust(26) + f"{len(mine):8d}{len(missed):8d}"
                  + "".join(f"{t:8.2f}" for t in costs))


def command_table(repeats: int) -> None:
    """Warm microseconds per command, per workload and op, on the first
    input file of each workload."""
    print("workload".ljust(16) + "op".ljust(16) + "commands".rjust(9) + "us".rjust(9)
          + "   (us per command, warm)")
    for workload in WORKLOADS:
        clear_caches()
        path = sorted((INPUTS / workload).glob("*.json"))[0]
        problem = cli.parse_problem(json.loads(path.read_text()))
        by_op = {}
        for cmd in problem["commands"]:
            cli.run_command(problem, cmd, 0)
            by_op.setdefault(cmd["op"], []).append(cmd)

        def batch(cmds):
            return lambda: [cli.run_command(problem, cmd, 0) for cmd in cmds]

        us = per_call_us({op: batch(cmds) for op, cmds in by_op.items()}, repeats)
        for op, cmds in by_op.items():
            print(workload.ljust(16) + op.ljust(16) + f"{len(cmds):9d}"
                  + f"{us[op] / len(cmds):9.2f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    repeats = ap.parse_args().repeats
    rng = np.random.default_rng(0)
    mmul_table(rng, repeats)
    print()
    rref_table(rng, repeats)
    print()
    workload_replays(repeats)
    print()
    intertwiners_table(repeats)
    print()
    sol_table(repeats)
    print()
    build_table(repeats)
    print()
    poly_table(rng, repeats)
    print()
    memo_table()
    print()
    memo_cost_table(repeats)
    print()
    command_table(repeats)


if __name__ == "__main__":
    main()
