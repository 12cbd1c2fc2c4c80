"""End-to-end CLI: schemas, exit codes, determinism, strict mode."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cartierforge.cli import main


FIXTURE_A = {
    "schema": 1,
    "field": {"p": 2, "r": 1},
    "ring": {"tier": "artinian", "vars": ["x"], "relations": [[2]]},
    "modules": {
        "A": {"kind": "cartier",
              "carrier": {"actions": [[[0, 0], [1, 0]]]},
              "structure": [[0, 0], [1, 0]]},
        "sky": {"tier": "pid", "kind": "cartier",
                "torsion": {"x_action": [[0]], "structure": [[1]]}},
        "bad_free": {"tier": "pid", "kind": "cartier",
                     "free": [[[0], [1]], [[0], [0]]]},
    },
    "commands": [
        {"op": "validate", "module": "A"},
        {"op": "nilpotent", "module": "A"},
        {"op": "double-dual", "module": "A"},
        {"op": "unitalize", "module": "A"},
        {"op": "kashiwara", "module": "A", "j_gens": [[1]]},
        {"op": "local-duality", "module": "sky"},
        {"op": "perverse", "module": "sky"},
        {"op": "dualize", "module": "sky"},
    ],
}


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_fixture_file(tmp_path, capsys):
    path = write(tmp_path, FIXTURE_A)
    out = str(tmp_path / "report.json")
    code = main(["run", path, "--json", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["ok"] and report["schema"] == 1
    by_op = {r["op"]: r for r in report["results"]}
    assert by_op["nilpotent"]["index"] == 2
    assert by_op["unitalize"]["status"] == "zero"
    assert by_op["double-dual"]["ok"]
    assert by_op["kashiwara"]["ok"]
    assert report["field"]["polynomial"] == [0, 1]
    assert report["timing_ms"] == 0


def test_reports_byte_stable(tmp_path):
    path = write(tmp_path, FIXTURE_A)
    o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["run", path, "--json", o1]) == 0
    assert main(["run", path, "--json", o2]) == 0
    assert open(o1, "rb").read() == open(o2, "rb").read()


def test_fixture_report_matches_golden(tmp_path, capsys):
    """The report for sample_problems/fixture_a.json is byte-identical to
    the committed golden file; a speedup must not change a single byte."""
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "report.json"
    code = main(["run", str(root / "sample_problems" / "fixture_a.json"),
                 "--json", str(out)])
    assert code == 0
    golden = root / "tests" / "golden" / "fixture_a.json"
    assert out.read_bytes() == golden.read_bytes()


def test_schema_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, {"schema": 99})
    assert main(["run", path]) == 2
    bad = dict(FIXTURE_A)
    bad = json.loads(json.dumps(FIXTURE_A))
    bad["commands"] = [{"op": "frobnicate"}]
    path2 = write(tmp_path, bad, "bad.json")
    assert main(["run", path2]) == 2
    capsys.readouterr()


def test_unsupported_nonfatal_unless_strict(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "local-duality", "module": "bad_free"}]
    path = write(tmp_path, doc)
    assert main(["run", path]) == 0
    assert main(["run", path, "--strict"]) == 1
    capsys.readouterr()


def test_failed_assertion_exit_1(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    # an invalid structure: identity kappa on fixture A's ring; validate
    # reports the violation list and the run fails
    doc["modules"]["bad"] = {"kind": "cartier",
                             "carrier": {"actions": [[[0, 0], [1, 0]]]},
                             "structure": [[1, 0], [0, 1]]}
    doc["commands"] = [{"op": "validate", "module": "bad"},
                       {"op": "nilpotent", "module": "bad"}]
    path = write(tmp_path, doc)
    out = str(tmp_path / "rep.json")
    assert main(["run", path, "--json", out]) == 1
    rep = json.loads(open(out).read())
    assert rep["results"][0]["ok"] is False
    assert any("equivariance" in v for v in rep["results"][0]["violations"])
    assert rep["results"][1]["ok"] is False   # other ops refuse invalid data
    # a failing mathematical check: perverse on a degree-0 free crystal
    doc2 = json.loads(json.dumps(FIXTURE_A))
    doc2["modules"]["free"] = {"tier": "pid", "kind": "cartier", "free": [[1]]}
    doc2["commands"] = [{"op": "perverse", "module": "free", "degree": 0}]
    path2 = write(tmp_path, doc2, "fail.json")
    assert main(["run", path2]) == 1
    capsys.readouterr()


def test_each_module_validated_once_per_problem(monkeypatch):
    import cartierforge.cli as cli
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["bad"] = {"kind": "cartier",
                             "carrier": {"actions": [[[0, 0], [1, 0]]]},
                             "structure": [[1, 0], [0, 1]]}
    problem = cli.parse_problem(doc)
    seen = []
    real = cli.validate
    monkeypatch.setattr(cli, "validate", lambda m: seen.append(m) or real(m))
    for op in ("validate", "nilpotent", "stable", "unitalize"):
        res = cli.run_command(problem, {"op": op, "module": "A"}, 0)
        assert res["ok"] is True
    assert len(seen) == 1
    # an invalid module is refused by every command that names it
    for op in ("nilpotent", "unitalize"):
        with pytest.raises(cli.InvalidModule) as exc:
            cli.run_command(problem, {"op": op, "module": "bad"}, 0)
        assert any("equivariance" in v for v in exc.value.violations)
    res = cli.run_command(problem, {"op": "validate", "module": "bad"}, 0)
    assert res["ok"] is False and res["violations"] == exc.value.violations
    assert len(seen) == 2


def test_empty_command_list(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = []
    path = write(tmp_path, doc)
    assert main(["run", path]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("kind,count", [("random-artinian", 3),
                                        ("random-pid-torsion", 3)])
def test_generate_roundtrip(tmp_path, capsys, kind, count):
    out = str(tmp_path / "gen.json")
    assert main(["generate", kind, "--seed", "0", "--count", str(count),
                 "--out", out]) == 0
    assert main(["run", out]) == 0
    capsys.readouterr()


def test_generate_size_zero_gives_empty_run(tmp_path, capsys):
    out = str(tmp_path / "empty.json")
    assert main(["generate", "random-artinian", "--seed", "0",
                 "--count", "0", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["modules"] == {} and doc["commands"] == []
    assert main(["run", out]) == 0
    capsys.readouterr()


def test_generate_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for o in (a, b):
        assert main(["generate", "random-artinian", "--seed", "7",
                     "--count", "2", "--out", o]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    capsys.readouterr()


def test_generate_elliptic_scan(tmp_path, capsys):
    out = str(tmp_path / "ell.json")
    assert main(["generate", "elliptic-scan", "--p", "5", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert len(doc["commands"]) == 20
    assert main(["run", out]) == 0
    capsys.readouterr()


def test_sol_and_base_change_commands(tmp_path, capsys):
    doc = {
        "schema": 1,
        "field": {"p": 2, "r": 1},
        "ring": {"tier": "artinian", "vars": ["x"], "relations": [[2]]},
        "modules": {"frob": {"kind": "frobenius",
                             "carrier": {"actions": [[[0, 0], [1, 0]]]},
                             "structure": [[1, 0], [0, 0]]}},
        "commands": [{"op": "sol", "module": "frob", "s": 2},
                     {"op": "base-change", "module": "frob", "s": 2},
                     {"op": "stable", "module": "frob"}],
    }
    path = write(tmp_path, doc)
    out = str(tmp_path / "rep.json")
    assert main(["run", path, "--json", out]) == 0
    rep = json.loads(open(out).read())
    by_op = {r["op"]: r for r in rep["results"]}
    assert by_op["sol"]["dim_fq"] == 1 and by_op["sol"]["geometric_dim"] == 1
    assert by_op["base-change"]["ok"]
    capsys.readouterr()


def test_suite_command(tmp_path, capsys):
    doc = {"schema": 1, "field": {"p": 2, "r": 1},
           "commands": [{"op": "suite", "seed": 3, "count": 4}]}
    path = write(tmp_path, doc)
    out = str(tmp_path / "rep.json")
    assert main(["run", path, "--json", out]) == 0
    rep = json.loads(open(out).read())
    r = rep["results"][0]
    assert r["ok"] and r["double_dual"] == 4 and r["local_duality"] == 4
    capsys.readouterr()


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "cartierforge.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "forge" in proc.stdout


def test_sol_on_cartier_module_is_schema_error(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "sol", "module": "A"}]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "sol expects" in capsys.readouterr().err


def test_hasse_at_p2_is_schema_error(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "hasse", "p": 2, "cubic": [0, 1, 0, 1]}]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "odd prime" in capsys.readouterr().err


def test_command_exception_becomes_error_result(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    # A is nilpotent, not unit: the pairing has no unique solution
    doc["commands"] = [{"op": "pair", "left": "A", "right": "A"},
                       {"op": "nilpotent", "module": "A"}]
    out = str(tmp_path / "rep.json")
    assert main(["run", write(tmp_path, doc), "--json", out]) == 1
    rep = json.loads(open(out).read())
    assert not rep["ok"]
    err, nil = rep["results"]
    assert err == {"op": "pair", "ok": False, "unsupported": False,
                   "error": "ValueError: pairing solution not unique; "
                            "target is not unit"}
    assert nil["ok"] and nil["index"] == 2
    assert "FAIL" in capsys.readouterr().out


def test_perverse_on_complex_refuses_invalid_terms(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    # kappa = [[0, 1], [0, 0]] breaks K*x^q = x*K for x = [[0, 0], [1, 0]]
    doc["modules"]["T"] = {"tier": "pid", "kind": "cartier",
                           "torsion": {"x_action": [[0, 0], [1, 0]],
                                       "structure": [[0, 1], [0, 0]]}}
    doc["complexes"] = {"C": {"terms": {"0": "T"}}}
    doc["commands"] = [{"op": "perverse", "complex": "C"},
                       {"op": "perverse", "module": "T"}]
    out = str(tmp_path / "rep.json")
    assert main(["run", write(tmp_path, doc), "--json", out]) == 1
    via_complex, via_module = json.loads(open(out).read())["results"]
    assert via_complex == via_module
    assert via_complex["ok"] is False and via_complex["module"] == "T"
    assert "equivariance fails: K*x^q = x*K" in via_complex["violations"]
    capsys.readouterr()


FROB = {"kind": "frobenius", "carrier": {"actions": [[[0, 0], [1, 0]]]},
        "structure": [[1, 0], [0, 0]]}


@pytest.mark.parametrize("cmd", [
    {"op": "unitalize", "module": "A", "max_steps": -3},
    {"op": "unitalize", "module": "A", "max_steps": "abc"},
    {"op": "unitalize", "module": "A", "max_steps": 2.7},
    {"op": "unitalize", "module": "A", "max_steps": True},
    {"op": "unitalize", "module": "A", "max_steps": None},
    {"op": "sol", "module": "frob", "s": 0},
    {"op": "sol", "module": "frob", "s": "2"},
    {"op": "base-change", "module": "frob", "s": 0},
    {"op": "base-change", "module": "frob", "s": False},
    {"op": "localize-model", "module": "sky", "f": [1, 1], "depth": 0},
    {"op": "localize-model", "module": "sky", "f": [1, 1], "depth": 1.0},
    {"op": "perverse", "module": "sky", "degree": "1"},
    {"op": "suite", "count": -1},
])
def test_bad_integer_field_is_schema_error(tmp_path, capsys, cmd):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["frob"] = FROB
    doc["commands"] = [cmd]
    assert main(["run", write(tmp_path, doc)]) == 2
    key = next(k for k in cmd if k not in ("op", "module", "f"))
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_integer_fields_at_their_bounds(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["frob"] = FROB
    doc["commands"] = [
        {"op": "unitalize", "module": "A", "max_steps": 0},
        {"op": "sol", "module": "frob", "s": 1},
        {"op": "base-change", "module": "frob", "s": 1},
        {"op": "localize-model", "module": "sky", "f": [1, 1], "depth": 1},
        {"op": "perverse", "module": "sky", "degree": -1}]
    out = str(tmp_path / "rep.json")
    # max_steps = 0 builds no stage, so the run reports not_stabilized
    assert main(["run", write(tmp_path, doc), "--json", out]) == 1
    uni, sol, bc, loc, perv = json.loads(open(out).read())["results"]
    assert uni["status"] == "not_stabilized" and uni["steps"] == 0
    assert sol["s"] == 1 and bc["s"] == 1
    assert "error" not in loc and "error" not in perv
    capsys.readouterr()


def set_path(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("path,value", [
    (("commands",), [{"op": "kashiwara", "module": "A", "j_gens": [[1.7]]}]),
    (("commands",), [{"op": "kashiwara", "module": "A", "j_gens": [[True]]}]),
    (("modules", "A", "structure"), [[0.4, 0], [1.9, 0]]),
    (("modules", "sky", "torsion", "x_action"), [[[True]]]),      # digit list
    (("modules", "A", "carrier", "dim"), 2.0),
    (("modules", "A", "carrier", "dim"), "2"),
    (("field", "p"), 2.0),
    (("field", "r"), True),
    (("ring", "relations"), [[2.5]]),
    (("modules", "A", "ring"), {"vars": ["x"], "relations": [[False]]}),
    (("commands",), [{"op": "hasse", "p": 5.0, "cubic": [0, 1, 0, 1]}]),
    (("commands",), [{"op": "hasse", "p": 5, "cubic": [0, 1.5, 0, 1]}]),
])
def test_non_integer_input_is_schema_error(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(FIXTURE_A))
    set_path(doc, path, value)
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("path,value", [
    (("ring", "relations"), [2]),
    (("modules", "A", "structure"), 5),
])
def test_wrongly_nested_input_is_schema_error(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(FIXTURE_A))
    set_path(doc, path, value)
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_integer_input_in_every_numeric_field(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["A"]["carrier"]["dim"] = 2
    doc["modules"]["A"]["ring"] = {"vars": ["x"], "relations": [[2]]}
    doc["modules"]["sky"]["torsion"]["x_action"] = [[[0]]]
    doc["commands"] = [{"op": "kashiwara", "module": "A", "j_gens": [[1]]},
                       {"op": "hasse", "p": 5, "cubic": [0, 1, 0, 1]},
                       {"op": "dualize", "module": "sky"}]
    out = str(tmp_path / "rep.json")
    assert main(["run", write(tmp_path, doc), "--json", out]) == 0
    assert all(r["ok"] for r in json.loads(open(out).read())["results"])
    capsys.readouterr()
