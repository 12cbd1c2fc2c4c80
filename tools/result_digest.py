"""Digest of every benchmark command result, to check that a change keeps
the program's outputs bit-identical.

    python3 tools/result_digest.py [--workload W ...]

For each workload (all three by default) it parses the problem files under
`bench/inputs/<workload>/` in sorted order, runs every command of each file
in order through `cli.run_command(problem, cmd, 0)`, and hashes
the texts `json.dumps(result, sort_keys=True)` of the results, concatenated
with no separator.
A command that raises is hashed as {"raised": "<type>: <message>"}.  It
prints the result count and SHA-256 per workload, then the count and
SHA-256 over all workloads taken together, in the order given.  It only
reads `bench/`; nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "bench" / "inputs"
WORKLOADS = ("artinian-prime", "pid-duality", "extension-field")


def result_lines(cli, workload: str):
    """The JSON text of every command result of one workload, in order."""
    for path in sorted((INPUTS / workload).glob("*.json")):
        problem = cli.parse_problem(json.loads(path.read_text()))
        for cmd in problem["commands"]:
            try:
                res = cli.run_command(problem, cmd, 0)
            except Exception as exc:
                res = {"raised": f"{type(exc).__name__}: {exc}"}
            yield json.dumps(res, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to digest (repeatable; default all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import cartierforge.cli as cli
    total, total_n = hashlib.sha256(), 0
    for workload in args.workload or WORKLOADS:
        digest, n = hashlib.sha256(), 0
        for line in result_lines(cli, workload):
            data = line.encode()
            digest.update(data)
            total.update(data)
            n += 1
        total_n += n
        print(f"{workload:<16} {n:>5}  {digest.hexdigest()}")
    print(f"{'combined':<16} {total_n:>5}  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
