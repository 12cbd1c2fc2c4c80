"""Sol on inputs the benchmark does not pin, against its independent oracle.

`bench/make_inputs.extension_field(seed)` draws the extension-field
workload's problem files; the pinned ones use seed 303.  At two other seeds
every `sol` and `base-change` command runs through `cli.run_command`, its
result passes through JSON as the benchmark's workers send it, and
`bench/oracle.check`, which never imports the package, must accept it.
The bench modules are loaded from their files and only read.  A planted
`semilinear_fixed_points` whose F_q-dimension is one too large must fail,
and `sol` must report it as not certified.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cartierforge import cli, duality

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (11, 12)


def bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return bench_module("make_inputs"), bench_module("oracle")


def oracle_failures(bench, seed: int) -> tuple[int, list]:
    """(commands checked, why each failed) over the `sol` and `base-change`
    commands of the extension-field files drawn at `seed`."""
    make_inputs, oracle = bench
    checked, failures, fields = 0, [], {}
    for name, doc in sorted(make_inputs.extension_field(seed).items()):
        problem = cli.parse_problem(doc)
        pr = (doc["field"]["p"], doc["field"]["r"])
        F = fields.setdefault(pr, oracle.Field(*pr))
        for cmd in doc["commands"]:
            if cmd["op"] not in ("sol", "base-change"):
                continue
            res = json.loads(json.dumps(cli.run_command(problem, cmd, 0)))
            why = oracle.check(F, cmd, res, oracle.facts(F, doc["modules"][cmd["module"]]))
            checked += 1
            if why is not None:
                failures.append(f"{name} {cmd}: {why}")
    return checked, failures


@pytest.mark.parametrize("seed", SEEDS)
def test_sol_and_base_change_pass_the_oracle_at_a_fresh_seed(bench, seed):
    # per field 6 Cartier modules with a base-change, 5 Frobenius with both
    checked, failures = oracle_failures(bench, seed)
    assert checked == 96 and failures == []


def test_planted_wrong_dimension_fails_the_oracle(bench, monkeypatch):
    real = duality.semilinear_fixed_points
    monkeypatch.setattr(duality, "semilinear_fixed_points",
                        lambda *a: (lambda fp: fp._replace(dim_fq=fp.dim_fq + 1))(real(*a)))
    # every command on a Frobenius module fails, each of the 30 `sol` on its
    # own certificate (`ok` false); a Cartier base-change has no Sol
    checked, failures = oracle_failures(bench, SEEDS[0])
    assert (checked, len(failures)) == (96, 60)
    assert sum(why.endswith("ok is False") for why in failures) == 30
