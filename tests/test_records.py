"""The result records are NamedTuples with fixed field names, and no memo
returns one.

A result record only carries a result out of a function, so it is a tuple,
cheaper to build than a frozen dataclass.  Each reads its fields by name,
in a fixed order, and keeps its properties; `ValidationReport` is true
exactly when valid, and a copy of it without `__bool__` fails that
contract.  `artinian._freeze` walks the tuples a memo returns, so a memo
that returned a record would freeze the record's arrays too: with the
memos emptied, the golden fixture and the first input of each benchmark
workload run through `cli.run_command`, and no result of a memo may hold
a record.
"""

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from cartierforge import artinian, cli
from cartierforge.complexes import (DegreeVerdict, LocalDualityReport, PerverseReport,
                                    PointCondition, StructuredComplex)
from cartierforge.duality import SolReport
from cartierforge.structures import (KashiwaraReport, NilIsoReport, UnitalizeResult,
                                     ValidationReport)
from cartierforge.twisted import FixedPoints

ROOT = Path(__file__).resolve().parent.parent

# Each record with its field names, in order.
FIELDS = {
    ValidationReport: ("ok", "violations"),
    NilIsoReport: ("ok", "kernel_index", "cokernel_index", "kernel_dim", "cokernel_dim"),
    UnitalizeResult: ("status", "module", "canonical_map", "certificate", "steps"),
    KashiwaraReport: ("ok", "counit", "supported"),
    SolReport: ("fixed_basis", "dim_fq", "geometric_dim", "ext_field", "operator"),
    FixedPoints: ("ext_field", "basis", "dim_fq", "dim_fp"),
    DegreeVerdict: ("degree", "local_zero", "ext_zero"),
    LocalDualityReport: ("verdicts",),
    PointCondition: ("point", "side", "degree", "ok"),
    PerverseReport: ("ok", "conditions"),
    StructuredComplex: ("terms",),
}
RECORDS = tuple(FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_field_names_read_the_values_given(cls):
    values = [object() for _ in FIELDS[cls]]
    by_position, by_name = cls(*values), cls(**dict(zip(FIELDS[cls], values)))
    assert isinstance(by_position, tuple) and cls._fields == FIELDS[cls]
    for name, value in zip(FIELDS[cls], values):
        assert getattr(by_position, name) is value and getattr(by_name, name) is value


def bool_contract_faults(cls) -> list:
    """How a validation report class breaks "true exactly when valid"."""
    faults = []
    if bool(cls(False, ("a violation",))) is not False:
        faults.append("an invalid report is true")
    if bool(cls(True, ())) is not True:
        faults.append("a valid report is false")
    return faults


def test_validation_report_is_true_exactly_when_valid():
    assert bool_contract_faults(ValidationReport) == []
    assert not ValidationReport(False, ())


def test_planted_report_without_bool_fails_the_contract():
    class Planted(NamedTuple):      # ValidationReport with __bool__ planted away
        ok: bool
        violations: tuple

    assert bool_contract_faults(Planted) == ["an invalid report is true"]


def test_verdict_properties_compute():
    agree, differ = DegreeVerdict(0, True, True), DegreeVerdict(1, True, False)
    assert agree.agree and not differ.agree
    assert LocalDualityReport((agree, agree)).ok
    assert not LocalDualityReport((agree, differ)).ok
    assert LocalDualityReport(()).ok


def records_in(obj) -> list:
    """The result records in `obj`, a memo's result, through its tuples."""
    if isinstance(obj, RECORDS):
        return [obj]
    if isinstance(obj, tuple):
        return [r for x in obj for r in records_in(x)]
    return []


def test_records_in_finds_a_nested_record():
    rep = ValidationReport(True, ())
    assert records_in((np.zeros(1), (1, rep))) == [rep]
    assert records_in((np.zeros(1), (1, 2))) == []


def test_no_memo_returns_a_record(monkeypatch):
    frozen = []
    real = artinian._freeze
    monkeypatch.setattr(artinian, "_freeze", lambda out: frozen.append(out) or real(out))
    for memo in artinian.MEMOS:
        memo.cache_clear()
    paths = [ROOT / "sample_problems" / "fixture_a.json"] + [
        sorted((ROOT / "bench" / "inputs" / w).glob("*.json"))[0]
        for w in ("artinian-prime", "pid-duality", "extension-field")]
    for path in paths:
        problem = cli.parse_problem(json.loads(path.read_text()))
        for cmd in problem["commands"]:
            cli.run_command(problem, cmd, 0)
    assert sum(m.cache_info().misses for m in artinian.MEMOS) > 0 and frozen
    assert [r for out in frozen for r in records_in(out)] == []
