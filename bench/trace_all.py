"""Traced run of every workload: per-layer metrics and tracing overhead.

    python3 bench/trace_all.py [--seed N] [--seconds S]

Runs `run.py --trace 1` once per workload, each in a fresh process, and
prints one table: every per-layer metric (per pass over the workload) in
one column per workload, then the tracing overhead of each workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="run length; 1 gives one untraced and one traced pass")
    args = ap.parse_args(argv)
    columns, overhead = {}, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        columns[workload] = result["metrics"]
        overhead[workload] = lines[-2].removeprefix("trace overhead: ")
        if result["failed"]:
            print(f"{workload}: {result['failed']} of {result['attempted']} commands failed",
                  file=sys.stderr)
    names = list(columns[WORKLOADS[0]])
    print(f"{'metric':<42} {'unit':<6} " + " ".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = columns[WORKLOADS[0]][name]["unit"]
        cells = " ".join(f"{columns[w][name]['value']:>16.10g}" for w in WORKLOADS)
        print(f"{name:<42} {unit:<6} {cells}")
    for workload in WORKLOADS:
        print(f"tracing overhead, {workload}: {overhead[workload]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
