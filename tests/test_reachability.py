"""Every function in `src/cartierforge` is reached by an op, or it is on
ALLOWLIST with its reason.

The harness runs, under `sys.setprofile` in a fresh interpreter (so that
import-time code and empty memos count as they do for a user):
`sample_problems/fixture_a.json` through `forge run`, the first input file
of each benchmark workload and the first with free parts through
`cli.run_command`, one `suite` op with count 3, and the three
`forge generate` kinds.  A function counts as
reached when one of its frames starts.  Functions are named by module and
`__qualname__`.

An allowlisted function that the harness reaches fails the test too, so
the list can only shrink.  Run this file directly to print what the
harness reaches.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cartierforge"

# The first file of each workload, and the first with free parts
BENCH_INPUTS = ("artinian-prime/gf2_00.json", "pid-duality/gf2_00.json",
                "pid-duality/gf2_12.json", "extension-field/gf2_2_00.json")

API = "documented Python API, exported by cartierforge"
OUTSIDE = "error path for outside input"

# Each unreached function with the one-line reason it stays.
ALLOWLIST = {
    "artinian.ArtinRing.__repr__": f"{API}: how a ring prints, as in restrict_scalars' error",
    "artinian.ArtinRing.one": "test-only, pending ROADMAP item 8: twist_by_unit_line reads it",
    "artinian.FinModule.element_action": "test-only, pending ROADMAP item 8: twist_by_unit_line",
    "artinian.direct_sum": "no input sums two torsion parts, pending ROADMAP item 11",
    "artinian.i_torsion": f"{API}: i-flat of a bare module, pending ROADMAP item 9",
    "artinian.submodule": f"{OUTSIDE}: names the actions when a span is not a submodule",
    "cli.InvalidModule.__init__": f"{OUTSIDE}: a module that fails validate",
    "cli._canonical_int": f"{OUTSIDE}: a complex's degree keys; no harness input has a complex",
    "duality.crystal_class": f"{API}; test- and tool-only, pending ROADMAP item 6",
    "duality.crystal_equivalent": f"{API}; test-only, pending ROADMAP item 6",
    "duality.ordinarity": f"{API}; test-only, pending ROADMAP item 10",
    "field.FiniteField.__repr__": f"{API}: how a field prints",
    "field.FiniteField.add": f"{API}: the field-arithmetic contract",
    "field.FiniteField.elements": "test- and tool-only (bench tracer), pending ROADMAP item 12",
    "field.FiniteField.frobenius": "test- and tool-only (bench tracer), pending ROADMAP item 12",
    "matrix.bijective_part": "test- and tool-only through crystal_class, pending ROADMAP item 6",
    "pid.inverse_module": f"{API}: the truncated injective hull",
    "poly.Poly.__add__": f"{API}; no harness input reaches it, pending ROADMAP item 11",
    "poly.Poly.__mul__": f"{API}; no harness input reaches it, pending ROADMAP item 11",
    "poly.Poly.__neg__": f"{API}; no harness input reaches it, pending ROADMAP item 11",
    "poly.Poly.__pow__": f"{API}; no harness input reaches it, pending ROADMAP item 11",
    "poly.Poly.__repr__": f"{API}: how a polynomial prints",
    "poly.Poly.__sub__": f"{API}; no harness input reaches it, pending ROADMAP item 11",
    "poly.Poly.one": f"{API}; no harness input reaches it, pending ROADMAP item 11",
    "poly.Poly.x": f"{API}; no harness input reaches it, pending ROADMAP item 11",
    "poly.smith_normal_form": f"{API}; test- and tool-only through crystal_class, item 6",
    "poly.smith_normal_form.<locals>.col_add": "part of smith_normal_form (item 6)",
    "poly.smith_normal_form.<locals>.col_swap": "part of smith_normal_form (item 6)",
    "poly.smith_normal_form.<locals>.row_add": "part of smith_normal_form (item 6)",
    "structures.ValidationReport.__bool__": f"{API}: a report is true when valid",
    "structures.direct_sum_structured": "no input sums two torsion parts, pending ROADMAP item 11",
    "structures.stable_kernel": f"{API}; `stable` on a Frobenius module, pending ROADMAP item 11",
    "structures.twist_by_unit_line": f"{API}; test-only, pending ROADMAP item 8",
    "twisted.fixed_point_attainment": f"{API}; test- and tool-only, pending ROADMAP item 6",
}


def defined_functions() -> set[str]:
    """module.qualname of every def in the package, methods and nested
    functions included."""
    out = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.stem, "")
    return out


def harness() -> list[str]:
    """Run the inputs under a profile hook; module.qualname of every
    package function whose frame started."""
    import contextlib
    import io
    import tempfile

    import numpy  # noqa: F401  (imported before the hook: not ours to trace)

    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from cartierforge import cli
        with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
            cli.main(["run", str(ROOT / "sample_problems" / "fixture_a.json")])
            for name in BENCH_INPUTS:
                problem = cli.parse_problem(json.loads((ROOT / "bench" / "inputs" / name)
                                                       .read_text()))
                for cmd in problem["commands"]:
                    cli.run_command(problem, cmd, 0)
            cli.run_command(problem, {"op": "suite", "count": 3}, 0)
            for kind, p in (("random-artinian", "2"), ("random-pid-torsion", "3"),
                            ("elliptic-scan", "5")):
                cli.main(["generate", kind, "--count", "2", "--p", p,
                          "--out", os.path.join(tmp, f"{kind}.json")])
    finally:
        sys.setprofile(None)
    return sorted(f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
                  if Path(c.co_filename).parent == PACKAGE)


def test_every_function_is_reached_or_allowlisted():
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    reached = set(json.loads(proc.stdout))
    defined = defined_functions()
    unreached = sorted(defined - reached - ALLOWLIST.keys())
    assert not unreached, "reached by no op and not allowlisted: " + ", ".join(unreached)
    stale = sorted(ALLOWLIST.keys() & reached)
    assert not stale, "allowlisted but reached (drop from ALLOWLIST): " + ", ".join(stale)
    assert ALLOWLIST.keys() <= defined, f"allowlisted but gone: {ALLOWLIST.keys() - defined}"


if __name__ == "__main__":
    print(json.dumps(harness()))
