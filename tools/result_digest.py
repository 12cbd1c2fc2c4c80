"""Digest of every benchmark command result and of every Matlis dual, to
check that a change keeps the program's outputs bit-identical.

    python3 tools/result_digest.py [--workload W ...]

For each workload (all three by default) it parses the problem files under
`bench/inputs/<workload>/` in sorted order, runs every command of each file
in order through `cli.run_command(problem, cmd, 0)`, and hashes
the texts `json.dumps(result, sort_keys=True)` of the results, concatenated
with no separator.
A command that raises is hashed as {"raised": "<type>: <message>"}.  It
prints the result count and SHA-256 per workload, then the count and
SHA-256 over all workloads taken together, in the order given.

The `matlis` lines do the same for the structure matrices: for every PID
module with a torsion part, in file and then declaration order, the kind,
structure matrix and x-action of its Matlis dual and of its double dual.
Verdicts can stay equal while a structure matrix changes; these lines
cannot.  It only reads `bench/`; nothing is written.
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


def _problems(cli, workload: str):
    for path in sorted((INPUTS / workload).glob("*.json")):
        yield path.name, cli.parse_problem(json.loads(path.read_text()))


def result_lines(cli, workload: str):
    """The JSON text of every command result of one workload, in order."""
    for _, problem in _problems(cli, workload):
        for cmd in problem["commands"]:
            try:
                res = cli.run_command(problem, cmd, 0)
            except Exception as exc:
                res = {"raised": f"{type(exc).__name__}: {exc}"}
            yield json.dumps(res, sort_keys=True)


def _structure(s) -> dict:
    return {"kind": s.kind, "mat": s.mat.tolist(),
            "x_action": s.module.actions[0].tolist()}


def matlis_lines(cli, workload: str):
    """The JSON text of the Matlis dual and double dual of every torsion
    module of one workload, in order."""
    from cartierforge.complexes import matlis_dual
    from cartierforge.pid import PidModule
    for fname, problem in _problems(cli, workload):
        for name, mod in problem["modules"].items():
            if not isinstance(mod, PidModule) or mod.torsion is None:
                continue
            res = {"module": f"{fname}:{name}"}
            try:
                dual = matlis_dual(mod.torsion)
                res.update(dual=_structure(dual),
                           double=_structure(matlis_dual(dual)))
            except Exception as exc:
                res["raised"] = f"{type(exc).__name__}: {exc}"
            yield json.dumps(res, sort_keys=True)


def report(label: str, lines_of, workloads) -> None:
    """Print count and SHA-256 per workload and over all of them."""
    total, total_n = hashlib.sha256(), 0
    for workload in workloads:
        digest, n = hashlib.sha256(), 0
        for line in lines_of(workload):
            data = line.encode()
            digest.update(data)
            total.update(data)
            n += 1
        total_n += n
        print(f"{label}{workload:<16} {n:>5}  {digest.hexdigest()}")
    print(f"{label}{'combined':<16} {total_n:>5}  {total.hexdigest()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to digest (repeatable; default all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import cartierforge.cli as cli
    workloads = args.workload or WORKLOADS
    report("", lambda w: result_lines(cli, w), workloads)
    report("matlis ", lambda w: matlis_lines(cli, w), workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
