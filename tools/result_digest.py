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
cannot.

The `sol` lines do the same for Sol at the closed point: for every Artinian
Frobenius module, in file and then declaration order, the fixed-basis
codes, `dim_fq` and `geometric_dim` of `sol_point(m, s)` for s = 1, 2, 3.

The `crystal` lines do the same for the crystal at the point: for every
Artinian module and every PID torsion part, in file and then declaration
order, its `crystal_class`, and for Frobenius ones the Sol attainment
degree `fixed_point_attainment(F, reduced_operator(m))`, F the module's
field and `reduced_operator(m)` the matrix of its structure at the point.
It only reads `bench/`; nothing is written.
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


def sol_lines(cli, workload: str):
    """The JSON text of the Sol report over GF(q^s), s = 1, 2, 3, of every
    Artinian Frobenius module of one workload, in order."""
    from cartierforge.duality import sol_point
    from cartierforge.pid import FROBENIUS, PidModule
    for fname, problem in _problems(cli, workload):
        for name, mod in problem["modules"].items():
            if isinstance(mod, PidModule) or mod.kind != FROBENIUS:
                continue
            for s in (1, 2, 3):
                res = {"module": f"{fname}:{name}", "s": s}
                try:
                    sol = sol_point(mod, s)
                    res.update(basis=sol.fixed_basis.tolist(), dim_fq=sol.dim_fq,
                               geometric_dim=sol.geometric_dim)
                except Exception as exc:
                    res["raised"] = f"{type(exc).__name__}: {exc}"
                yield json.dumps(res, sort_keys=True)


def crystal_lines(cli, workload: str):
    """The JSON text of the crystal class of every Artinian module and
    torsion part of one workload, in order, with the attainment degree of
    the Frobenius ones."""
    from cartierforge.duality import crystal_class, reduced_operator
    from cartierforge.pid import FROBENIUS, PidModule
    from cartierforge.twisted import fixed_point_attainment
    for fname, problem in _problems(cli, workload):
        for name, mod in problem["modules"].items():
            part = mod.torsion if isinstance(mod, PidModule) else mod
            if part is None:
                continue
            res = {"module": f"{fname}:{name}"}
            try:
                res["class"] = crystal_class(part)
                if part.kind == FROBENIUS:
                    res["attainment"] = fixed_point_attainment(part.ring.field,
                                                               reduced_operator(part))
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
    report("sol ", lambda w: sol_lines(cli, w), workloads)
    report("crystal ", lambda w: crystal_lines(cli, w), workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
