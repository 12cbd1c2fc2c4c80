"""The cartierforge benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload artinian-prime --seed 1 --seconds 20 --trace 0

Drives the program the way `forge run` does: a fresh process imports the
program, reads and parses (`cli.parse_problem`) every pinned problem file of
the workload, then calls `cli.run_command` for each command of its files in
order, timing one command (one verdict) at a time.  The files are split
into SHARDS fixed shards; one round runs one such process per shard, one
after another, so a round covers every command once.  A run does whole
rounds until `--seconds` have passed, so every run executes the same mix of
commands.  The seed shuffles the order of the shards in a round and of the
files in a shard.  Spreading a run over many short processes averages out
how fast each process happens to run on the host.

Times are scaled to a fixed host speed.  Between stretches of about
PROBE_EVERY_S of command time a worker times a fixed piece of the
benchmark's own work (the probe); each command's latency is multiplied by
PROBE_REF_S over the median of the probes nearest to it, and a worker's
set-up time by PROBE_REF_S over the probes it times just after set-up.
The host this was built on ran the same code up to 1.8 times slower from
one minute to the next; the probe slows down with it, so the ratio stays.

Every result is checked against answers computed by `oracle.py`, which
never uses `cartierforge`; a command that raises, or whose result fails a
check or differs between two executions, counts as failed.  The last line
of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for `--trace 0`.  With `--trace 1` a single
process does one untraced pass over all files and then traced passes (see
`tracing.py`); it reports the per-layer metrics per pass, and prints the
tracing overhead (in unscaled time) on the line before the JSON.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy is imported; workers
# inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
INPUTS = BENCH / "inputs"
OUT = BENCH / "out"
WORKLOADS = ("artinian-prime", "pid-duality", "extension-field")
SHARDS = 8
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 6
PROBE_REF_S = 0.0035


def require_sources():
    if not (SRC / "cartierforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no cartierforge sources under {SRC}")


def import_program():
    """Import cartierforge from the source tree next to the benchmark."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import cartierforge.cli as cli
    return cli


def workload_files(workload: str) -> list[Path]:
    return sorted((INPUTS / workload).glob("*.json"))


def load_inputs(workload: str) -> list[dict]:
    """The workload's problem files, refused unless they match the manifest."""
    manifest = json.loads((INPUTS / "manifest.json").read_text())
    digests = manifest[workload]["sha256"]
    names = [p.name for p in workload_files(workload)]
    if names != sorted(digests):
        raise SystemExit(f"error: {workload} files {names} differ from the manifest")
    docs = []
    for name in names:
        raw = (INPUTS / workload / name).read_bytes()
        if hashlib.sha256(raw).hexdigest() != digests[name]:
            raise SystemExit(f"error: {workload}/{name} does not match its digest")
        docs.append(json.loads(raw))
    return docs


def cache_clearers(modules) -> list:
    """Callables that empty the program's caches: every functools cache
    and every module-level dict named *_CACHE."""
    out = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear"):
                out.append(obj.cache_clear)
            elif name.endswith("_CACHE") and isinstance(obj, dict):
                out.append(obj.clear)
    return out


class Probe:
    """A fixed piece of the benchmark's own work, in the program's style
    (row reductions of small matrices through numpy tables, then a
    pure-Python loop); calling it returns how long it took."""

    def __init__(self):
        import oracle
        rng = random.Random(20240)
        self.field = oracle.Field(3)
        self.mats = [self.field.arr([[rng.randrange(3) for _ in range(14)]
                                     for _ in range(12)]) for _ in range(6)]
        self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for m in self.mats:
            self.field.rank(m)
        acc = 0
        for k in range(15000):
            acc += k * k % 7
        return time.perf_counter() - t0


class Pass:
    """One pass over some problem files: per-command latencies (scaled to
    the probe's reference speed when the pass was probed), their unscaled
    sum, and the results."""

    def __init__(self):
        self.latencies_s = []
        self.raw_s = 0.0
        self.results = {}
        self.wall_s = 0.0


def run_pass(cli, problems, order, tracer=None, probe=None) -> Pass:
    """Run and time every command of the files in `order`.  With a probe,
    the commands fall into stretches of about PROBE_EVERY_S, with a probe
    before, between and after them, and the host speed for a stretch is
    the median of the PROBE_WINDOW probes nearest to it."""
    out = Pass()
    clock = time.perf_counter
    start = clock()
    stretches, pending = [], []
    probes = [probe()] if probe is not None else []

    def flush():
        stretches.append(list(pending))
        pending.clear()
        if probe is not None:
            probes.append(probe())

    for i in order:
        problem = problems[i]
        for j, cmd in enumerate(problem["commands"]):
            if tracer is not None:
                tracer.cmd_id = i * 10000 + j
            t0 = clock()
            try:
                res = cli.run_command(problem, cmd, 0)
            except Exception as exc:  # a command that raises is a failed verdict
                res = {"raised": f"{type(exc).__name__}: {exc}"}
            dt = clock() - t0
            out.raw_s += dt
            out.results[(i, j)] = res
            pending.append(dt)
            if sum(pending) >= PROBE_EVERY_S:
                flush()
    if pending:
        flush()
    out.wall_s = clock() - start
    for k, stretch in enumerate(stretches):
        scale = 1.0
        if probe is not None:
            lo = max(0, min(k + 1 - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
            scale = PROBE_REF_S / statistics.median(probes[lo:lo + PROBE_WINDOW])
        out.latencies_s.extend(dt * scale for dt in stretch)
    return out


def payload(passes: list[Pass]) -> dict:
    """What a worker reports: every latency, the first pass's results, and
    each later execution whose result differs from the first."""
    ref = passes[0].results
    ref_text = {k: json.dumps(v, sort_keys=True) for k, v in ref.items()}
    repeats = [[i, j, "raised" in res] for p in passes[1:]
               for (i, j), res in p.results.items()
               if json.dumps(res, sort_keys=True) != ref_text[(i, j)]]
    return {"passes": [{"wall_s": p.wall_s, "raw_s": p.raw_s, "latencies_s": p.latencies_s}
                       for p in passes],
            "reference": [[i, j, res] for (i, j), res in ref.items()],
            "repeats": repeats}


def worker(workload: str, shard: int, seed: int, round_: int, seconds: float,
           trace: bool) -> dict:
    """Body of one worker process: set up as `forge run` does, then run
    whole passes over the shard's files (all files for shard -1) until
    `seconds` have passed; a traced worker traces every pass but the first.
    An untraced worker probes the host speed (see `Probe`)."""
    cli = import_program()
    paths = workload_files(workload)
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    problems = [cli.parse_problem(doc) for doc in docs]
    ready = time.monotonic()
    probe = None if trace else Probe()
    setup_probe_s = statistics.median(probe() for _ in range(3)) if probe else PROBE_REF_S
    files = [i for i in range(len(docs)) if shard < 0 or i % SHARDS == shard]
    rng = random.Random(f"{seed}/{shard}/{round_}")
    clearers = cache_clearers([m for n, m in sys.modules.items()
                               if n.startswith("cartierforge")])
    tracer = None
    passes = []
    begin = time.perf_counter()
    # Whole passes only; stop at the pass count that lands nearest to `seconds`.
    while (not passes or (trace and len(passes) < 2)
           or (time.perf_counter() - begin) * (1 + 0.5 / len(passes)) < seconds):
        if passes:
            if trace and tracer is None:
                from tracing import Tracer
                tracer = Tracer()
                tracer.install()
            for clear in clearers:
                clear()
            if tracer is not None:
                tracer.new_pass()
            problems = [cli.parse_problem(doc) for doc in docs]
        order = list(files)
        rng.shuffle(order)
        passes.append(run_pass(cli, problems, order, tracer, probe))
    out = payload(passes)
    out.update(ready=ready, setup_probe_s=setup_probe_s,
               peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = trace_report(tracer, passes, f"{workload}-seed{seed}")
    return out


def trace_report(tracer, passes: list[Pass], stem: str) -> dict:
    import oracle
    from tracing import unit_of
    fields, x_levels = {}, []
    for p, r, x in tracer.matlis_x_actions:
        x_levels.append(fields.setdefault((p, r), oracle.Field(p, r)).nil_index(x))
    per_layer = tracer.metrics(len(passes) - 1, x_levels)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{stem}.spans.npz")
    traced_s = statistics.mean(p.wall_s for p in passes[1:])
    return {"metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in per_layer.items()},
            "overhead": f"{100.0 * (traced_s / passes[0].wall_s - 1):+.1f}% "
                        f"(traced pass {traced_s:.3f} s, untraced pass "
                        f"{passes[0].wall_s:.3f} s, {len(tracer.span_t0)} spans kept)"}


def spawn(workload: str, shard: int, seed: int, round_: int, seconds: float,
          trace: bool, deadline: float) -> dict:
    """Run one worker process; its set-up time runs from spawning it to
    the moment it is ready to time its first command, scaled like the
    command latencies.  A worker still running at `deadline` ends the run."""
    start = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(shard),
           "--workload", workload, "--seed", str(seed), "--round", str(round_),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: worker {shard} of {workload} did not finish within "
                         f"the run's deadline; no result") from None
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {shard} failed:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["raw_setup_s"] = out["ready"] - start
    out["setup_s"] = out["raw_setup_s"] * PROBE_REF_S / out["setup_probe_s"]
    return out


def verify(docs: list[dict], workers: list[dict]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, wrong, notes).  Each worker's first-pass results
    are checked against the oracle, and must repeat the first result any
    earlier worker gave for the same command; each worker's later passes
    must repeat its first.  `wrong` counts the failed executions that
    returned a wrong answer rather than raising."""
    import oracle
    fields, facts, checked, first = {}, {}, {}, {}
    attempted = failed = wrong = 0
    notes = []
    for w in workers:
        n = len(w["passes"])
        bad = set()
        for i, j, res in w["reference"]:
            doc = docs[i]
            cmd = doc["commands"][j]
            text = json.dumps(res, sort_keys=True)
            if (i, j, text) not in checked:
                if "raised" in res:
                    why = res["raised"]
                else:
                    pr = (doc["field"]["p"], doc["field"]["r"])
                    if pr not in fields:
                        fields[pr] = oracle.Field(*pr)
                    name = cmd.get("module")
                    if (i, name) not in facts:
                        facts[(i, name)] = oracle.facts(fields[pr], doc["modules"][name])
                    why = oracle.check(fields[pr], cmd, res, facts[(i, name)])
                checked[(i, j, text)] = why
                if why is not None:
                    notes.append(f"file {i} command {j} {cmd['op']}: {why}")
            if checked[(i, j, text)] is not None:
                bad.add((i, j))
                failed += n
                wrong += 0 if "raised" in res else n
            elif first.setdefault((i, j), text) != text:
                bad.add((i, j))
                failed += n
                wrong += n
                notes.append(f"file {i} command {j}: result differs from another process's")
        attempted += n * len(w["reference"])
        for i, j, raised in w["repeats"]:
            if (i, j) not in bad:
                failed += 1
                wrong += 0 if raised else 1
                notes.append(f"file {i} command {j}: result changed between passes")
    return attempted, failed, wrong, notes


def end_to_end(workers: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics: scaled to the probe's reference speed, or
    (`scaled=False`) as the clock read them.  `verdicts_per_s` divides the
    commands by the summed time of the commands."""
    passes = [p for w in workers for p in w["passes"]]
    if scaled:
        lat_ms = [1000.0 * v for p in passes for v in p["latencies_s"]]
        busy_s = sum(lat_ms) / 1000.0
        setup = [w["setup_s"] for w in workers]
    else:
        lat_ms = None
        busy_s = sum(p["raw_s"] for p in passes)
        setup = [w["raw_setup_s"] for w in workers]
    count = sum(len(p["latencies_s"]) for p in passes)
    out = {"verdicts_per_s": {"value": count / busy_s, "unit": "1/s"}}
    if lat_ms is not None:
        out["verdict_ms.p50"] = {"value": statistics.median(lat_ms), "unit": "ms"}
        out["verdict_ms.p90"] = {"value": statistics.quantiles(lat_ms, n=10)[-1], "unit": "ms"}
    out["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    out["peak_rss_mb"] = {"value": max(w["peak_rss_kb"] for w in workers) / 1024.0, "unit": "MB"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.worker is not None:
        out = worker(args.workload, args.worker, args.seed, args.round,
                     args.seconds, bool(args.trace))
        print(json.dumps(out))
        return 0

    require_sources()
    docs = load_inputs(args.workload)
    deadline = time.monotonic() + max(170.0, 3 * args.seconds + 60)
    workers = []
    if args.trace:
        workers.append(spawn(args.workload, -1, args.seed, 0, args.seconds, True, deadline))
    else:
        rng = random.Random(args.seed)
        begin = time.monotonic()
        rounds = 0
        # Whole rounds only; stop at the round count nearest to --seconds.
        while not rounds or (time.monotonic() - begin) * (1 + 0.5 / rounds) < args.seconds:
            shards = list(range(SHARDS))
            rng.shuffle(shards)
            for shard in shards:
                workers.append(spawn(args.workload, shard, args.seed, rounds, 0.0,
                                     False, deadline))
            rounds += 1

    attempted, failed, wrong, notes = verify(docs, workers)
    for line in notes[:20]:
        print(f"check: {line}", file=sys.stderr)
    if args.trace:
        metrics = workers[0]["trace"]["metrics"]
        print(f"trace overhead: {workers[0]['trace']['overhead']}")
    else:
        metrics = end_to_end(workers)
        unscaled = end_to_end(workers, scaled=False)
        print("unscaled: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in unscaled.items()),
              file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed, check_notes=notes,
             unscaled=None if args.trace else unscaled,
             processes=[{"setup_s": w["setup_s"], "raw_setup_s": w["raw_setup_s"],
                         "peak_rss_kb": w["peak_rss_kb"],
                         "pass_wall_s": [p["wall_s"] for p in w["passes"]],
                         "pass_command_s": [p["raw_s"] for p in w["passes"]]}
                        for w in workers]), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
