"""The op table `cli.OPS` is the list of `forge run` commands.

Every op in it has a handler in `cli`, a known tier, kind and check label,
a row in README's commands table with the same label and the same
optional fields (`Op.fields`), a row in the golden report of
`sample_problems/fixture_a.json`, and a check in the benchmark's
independent oracle `bench/oracle.py`, or a named reason for having none.
The oracle is loaded from its file and only read, as in
`test_fresh_inputs.py`.  Planted faults: an op added to the table without
a README row, and one added without a golden row, must each be found.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from cartierforge import cli
from cartierforge.pid import CARTIER, FROBENIUS

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ("certificate", "computed", "model", "self-test")
READS = ("module", "left", "right", "complex")

# The ops `bench/oracle.py` has no check for, each with the reason.
NO_ORACLE = {
    "stable": "pending ROADMAP item 16: the stable dimension by a rank count",
    "pair": "pending ROADMAP item 16: the Hom dimension by a rank count",
    "kashiwara": "pending ROADMAP item 16: no benchmark workload runs it",
    "localize-model": "a model, not a verdict: its `ok` is null",
    "hasse": "pending ROADMAP item 16: the verdict from a point count of its own",
    "suite": "a self-test: its report holds only the pass counts of the batteries",
}
# The ops with no row in the golden report, each with the reason.
NO_GOLDEN = {
    "suite": "a self-test whose report holds only pass counts, so a golden row could not "
             "see a change in the corpora it draws; test_cli pins one seeded report",
}


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_cells(text: str) -> dict:
    """op -> the cells of its row in README's commands table."""
    lines = text.splitlines()
    start = lines.index("| op | reads | fields | check | behind `ok` |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("| `"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells
    return rows


def readme_rows(text: str) -> dict:
    """op -> check label, from the rows of README's commands table."""
    return {op: cells[3] for op, cells in readme_cells(text).items()}


def golden_ops() -> set:
    golden = json.loads((ROOT / "tests" / "golden" / "fixture_a.json").read_text())
    return {r["op"] for r in golden["results"]}


def has_oracle_check(oracle, op: str) -> bool:
    """Whether `oracle.check` knows `op`: with no facts at hand a known op
    returns or fails on a missing fact, an unknown one reaches the raise
    "no check for command"."""
    try:
        oracle.check(oracle.Field(2), {"op": op}, {"ok": True}, {"valid": True})
    except ValueError as exc:
        return "no check for command" not in str(exc)
    except KeyError:
        pass
    return True


def table_faults(ops: dict, readme: dict, golden: set, oracle, no_oracle=NO_ORACLE,
                 no_golden=NO_GOLDEN) -> list:
    """Each way an op of `ops` falls short, as "<op>: <what>"."""
    faults = []
    for op, spec in ops.items():
        if vars(cli).get(spec.handler.__name__) is not spec.handler:
            faults.append(f"{op}: handler is not a function of cli")
        if spec.tier not in (None, "artinian", "pid") or spec.kind not in (None, CARTIER,
                                                                          FROBENIUS):
            faults.append(f"{op}: unknown tier or kind")
        if not set(spec.reads) <= set(READS):
            faults.append(f"{op}: reads an unknown field")
        if spec.check not in CHECKS:
            faults.append(f"{op}: unknown check label {spec.check!r}")
        if op not in readme:
            faults.append(f"{op}: no README row")
        elif readme[op] != spec.check:
            faults.append(f"{op}: README says {readme[op]!r}, the table {spec.check!r}")
        if (op in golden) == (op in no_golden):
            faults.append(f"{op}: a golden row and a reason for none" if op in golden
                          else f"{op}: no golden row")
        if has_oracle_check(oracle, op) == (op in no_oracle):
            faults.append(f"{op}: an oracle check and a reason for none" if op in no_oracle
                          else f"{op}: no oracle check")
    faults += [f"{op}: README row for no op" for op in readme if op not in ops]
    return faults


def test_every_op_has_its_rows_label_and_oracle_check(oracle):
    readme = readme_rows((ROOT / "README.md").read_text())
    assert table_faults(cli.OPS, readme, golden_ops(), oracle) == []
    assert list(readme) == list(cli.OPS)
    assert all(reason for reason in {**NO_ORACLE, **NO_GOLDEN}.values())


def test_readme_names_the_fields_each_op_reads():
    # the "fields" column lists `Op.fields`, the command fields beyond the
    # reads that the handler reads; `run_command` refuses any other
    for op, cells in readme_cells((ROOT / "README.md").read_text()).items():
        assert re.findall(r"`([^`]+)`", cells[2]) == list(cli.OPS[op].fields), op


def test_suite_is_the_self_test():
    assert [op for op, spec in cli.OPS.items() if spec.check == "self-test"] == ["suite"]
    assert set(NO_GOLDEN) == {"suite"}


def test_planted_op_without_a_readme_row_is_found(oracle):
    ops = {**cli.OPS, "planted": cli.OPS["stable"]}
    readme = readme_rows((ROOT / "README.md").read_text())
    faults = table_faults(ops, readme, golden_ops() | {"planted"}, oracle,
                          no_oracle={**NO_ORACLE, "planted": "planted"})
    assert faults == ["planted: no README row"]


def test_planted_op_without_a_golden_row_is_found(oracle):
    ops = {**cli.OPS, "planted": cli.OPS["stable"]}
    readme = {**readme_rows((ROOT / "README.md").read_text()), "planted": "computed"}
    faults = table_faults(ops, readme, golden_ops(), oracle,
                          no_oracle={**NO_ORACLE, "planted": "planted"})
    assert faults == ["planted: no golden row"]


def test_planted_op_without_an_oracle_check_or_reason_is_found(oracle):
    ops = {**cli.OPS, "planted": cli.OPS["stable"]}
    readme = {**readme_rows((ROOT / "README.md").read_text()), "planted": "computed"}
    faults = table_faults(ops, readme, golden_ops() | {"planted"}, oracle)
    assert faults == ["planted: no oracle check"]


def test_unknown_op_is_a_schema_error_whatever_its_type():
    problem = cli.parse_problem({"schema": 1, "commands": []})
    for op in ("no-such-op", None, ["validate"], {"op": "validate"}, 3):
        with pytest.raises(cli.SchemaError, match="unknown command"):
            cli.run_command(problem, {"op": op}, 0)
