"""End-to-end CLI: schemas, exit codes, determinism, strict mode."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cartierforge
import cartierforge.cli as cli
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


def test_rank_one_free_over_gf25(tmp_path, capsys):
    """(R, kappa_S o u) over GF(25) for u = 0 and u = 1: local duality
    agrees in both degrees, and at degree -2 the H^1 hull contribution
    decides perversity."""
    doc = {"schema": 1, "field": {"p": 5, "r": 2},
           "modules": {"u0": {"tier": "pid", "kind": "cartier", "free": [[0]]},
                       "u1": {"tier": "pid", "kind": "cartier", "free": [[1]]}},
           "commands": [{"op": op, "module": name, "degree": -2}
                        for name in ("u0", "u1")
                        for op in ("local-duality", "perverse")]}
    out = tmp_path / "report.json"
    assert main(["run", write(tmp_path, doc), "--json", str(out)]) == 1
    ld0, pv0, ld1, pv1 = json.loads(out.read_text())["results"]
    assert ld0["ok"] and ld1["ok"]
    assert [(v["local_zero"], v["ext_zero"]) for v in ld0["verdicts"]] == [(True, True)] * 2
    assert [(v["local_zero"], v["ext_zero"]) for v in ld1["verdicts"]] == \
        [(True, True), (False, False)]
    assert pv0["ok"] and not pv1["ok"]
    assert [(c["degree"], c["ok"]) for c in pv1["conditions"]] == [(-2, True), (-1, False)]
    capsys.readouterr()


# -- scope boundaries: one Unsupported, caught once in run_command --

NON_DIAGONAL = {"tier": "pid", "kind": "cartier", "free": [[[1], [1]], [[0], [1]]]}
# tau kills x M and sends the torsion vector f of k to 1 in R, outside
# M[x] = span(x, f): i-flat of M = R + k over F_2[x]/(x^2) does not exist
LEAVES_TORSION = {"kind": "frobenius",
                  "carrier": {"actions": [[[0, 0, 0], [1, 0, 0], [0, 0, 0]]]},
                  "structure": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]}
FROBENIUS_X2 = {"kind": "frobenius", "carrier": {"actions": [[[0, 0], [1, 0]]]},
                "structure": [[1, 0], [0, 0]]}
NON_DIAGONAL_FREE = "non-diagonal free multiplier matrix"


@pytest.mark.parametrize("module,cmd,reason", [
    pytest.param(NON_DIAGONAL, {"op": "dualize", "module": "M"}, NON_DIAGONAL_FREE,
                 id="dualize"),
    pytest.param(NON_DIAGONAL, {"op": "local-duality", "module": "M"}, NON_DIAGONAL_FREE,
                 id="local-duality"),
    pytest.param(NON_DIAGONAL, {"op": "perverse", "module": "M"}, NON_DIAGONAL_FREE,
                 id="perverse"),
    pytest.param(NON_DIAGONAL, {"op": "localize-model", "module": "M", "f": [0, 1]},
                 NON_DIAGONAL_FREE, id="localize-model-at-x"),
    pytest.param(NON_DIAGONAL, {"op": "localize-model", "module": "M", "f": [1, 1]},
                 NON_DIAGONAL_FREE, id="localize-model-at-1+x"),
    pytest.param(NON_DIAGONAL, {"op": "nilpotent", "module": "M"}, NON_DIAGONAL_FREE,
                 id="nilpotent"),
    # A is nilpotent, so the pairing into it has no unique solution
    pytest.param(FIXTURE_A["modules"]["A"], {"op": "pair", "left": "M", "right": "M"},
                 "pairing solution not unique; target is not unit", id="pair"),
    pytest.param(LEAVES_TORSION, {"op": "kashiwara", "module": "M", "j_gens": [[1]]},
                 "structure does not restrict to the torsion part "
                 "(possible only for Frobenius structures)", id="kashiwara"),
    pytest.param(FROBENIUS_X2, {"op": "sol", "module": "M", "s": 23},
                 "sol needs GF(2^23), past the field-order cap 4194304", id="sol"),
    pytest.param(FROBENIUS_X2, {"op": "base-change", "module": "M", "s": 23},
                 "base-change needs GF(2^23), past the field-order cap 4194304",
                 id="base-change"),
])
def test_every_scope_boundary_reports_unsupported(tmp_path, capsys, module, cmd, reason):
    """Each documented boundary ends in an unsupported result with its
    reason, no verdict and no error: exit 0, or 1 under --strict."""
    doc = {"schema": 1, "field": {"p": 2, "r": 1},
           "ring": {"tier": "artinian", "vars": ["x"], "relations": [[2]]},
           "modules": {"M": module}, "commands": [cmd]}
    path, out = write(tmp_path, doc), tmp_path / "report.json"
    assert main(["run", path, "--json", str(out)]) == 0
    [res] = json.loads(out.read_text())["results"]
    want = {key: cmd[key] for key in ("module", "left", "right", "s") if key in cmd}
    assert res == {"op": cmd["op"], "ok": None, "unsupported": True, "reason": reason, **want}
    assert "UNSUPPORTED" in capsys.readouterr().out
    assert main(["run", path, "--strict"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("exc,verdict", [
    (cartierforge.Unsupported,
     {"module": "sky", "ok": None, "unsupported": True, "reason": "planted"}),
    (ValueError, {"ok": None, "unsupported": False, "error": "ValueError: planted"}),
])
def test_only_unsupported_is_caught_as_a_boundary(tmp_path, capsys, monkeypatch, exc, verdict):
    """A planted raise inside an op: Unsupported is reported as a boundary,
    and a plain ValueError from the same place is still an error, a fault
    of the program (exit 3)."""
    def planted(m):
        raise exc("planted")

    monkeypatch.setattr(cli, "dualize", planted)
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "dualize", "module": "sky"}]
    out = tmp_path / "report.json"
    code = main(["run", write(tmp_path, doc), "--json", str(out)])
    assert code == (0 if exc is cartierforge.Unsupported else 3)
    assert json.loads(out.read_text())["results"] == [{"op": "dualize", **verdict}]
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


@pytest.mark.parametrize("path", ["artinian-prime/gf3_00.json",
                                  "pid-duality/gf2_12.json",
                                  "extension-field/gf2_2_02.json"])
def test_bench_input_validates_each_module_once(monkeypatch, path):
    # every structures.validate call of the package, wherever it is bound,
    # must be forge run's own check: one per module that carries a structure
    import cartierforge.cli as cli
    from cartierforge import structures
    from cartierforge.pid import PidModule
    root = Path(__file__).resolve().parent.parent
    problem = cli.parse_problem(json.loads((root / "bench" / "inputs" / path).read_text()))
    seen = []
    real = structures.validate

    def counted(m):
        seen.append(m)
        return real(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cartierforge") and getattr(mod, "validate", None) is real:
            monkeypatch.setattr(mod, "validate", counted)
    named = set()
    for cmd in problem["commands"]:
        cli.run_command(problem, cmd, 0)
        named.update(cmd[k] for k in ("module", "left", "right") if k in cmd)
        named.update(problem["complex_terms"].get(cmd.get("complex"), []))
    mods = problem["modules"]
    structured = [n for n in named
                  if not isinstance(mods[n], PidModule) or mods[n].torsion is not None]
    assert structured and len(seen) == len(structured)


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


def test_seeded_generate_and_suite_outputs_are_pinned(tmp_path, capsys):
    """One seeded `forge generate` file, by its sha256, and one `suite`
    report, byte for byte: the random structure builder draws as it did
    when they were pinned."""
    out = str(tmp_path / "gen.json")
    assert main(["generate", "random-artinian", "--seed", "7", "--count", "3",
                 "--p", "3", "--out", out]) == 0
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == (
        "f4eb0c4323036a65a4cd1d739ab31829cbf561f0ec46f5441288de54ced1410f")
    assert json.dumps(cli.run_suites(5, 3)) == (
        '{"seed": 5, "count": 3, "double_dual": 3, "nilpotence_exchange": 3, '
        '"dual_base_change": 3, "unitalize": 3, "local_duality": 3, "perverse_dual": 3, '
        '"sol_base_change": 3, "ok": true}')
    capsys.readouterr()


def test_generate_elliptic_scan(tmp_path, capsys):
    out = str(tmp_path / "ell.json")
    assert main(["generate", "elliptic-scan", "--p", "5", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert len(doc["commands"]) == 20
    assert main(["run", out]) == 0
    capsys.readouterr()


def forge(*argv):
    """`python -m cartierforge.cli *argv` in a child process, cut after 30 s,
    with this package first on its path."""
    src = str(Path(cartierforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cartierforge.cli", *argv],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("argv,message", [
    (["random-artinian", "--p", "4"], "--p must be a prime"),
    (["random-artinian", "--p", "1"], "--p must be a prime"),
    (["random-pid-torsion", "--p", "9"], "--p must be a prime"),
    (["elliptic-scan", "--p", "2"], "odd for elliptic-scan"),
    (["elliptic-scan", "--p", "4"], "odd for elliptic-scan"),
    (["random-artinian", "--dim", "0"], "must be >= 1"),
    (["random-pid-torsion", "--dim", "0"], "must be >= 1"),
    # random_artin_ring redraws forever when no ring is small enough
    (["random-artinian", "--ring-dim", "0"], "must be >= 1"),
])
def test_generate_rejects_a_bad_prime_or_size(argv, message):
    proc = forge("generate", *argv)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr


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


# modules over the point GF(2): kappa and tau are the companion matrix of
# t^3 + t + 1, whose Sol reaches dimension 3 over GF(2^7)
COMPANION = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
POINT = {
    "schema": 1,
    "field": {"p": 2, "r": 1},
    "ring": {"vars": [], "relations": []},
    "modules": {"C": {"kind": "cartier", "carrier": {"dim": 3, "actions": []},
                      "structure": COMPANION},
                "F": {"kind": "frobenius", "carrier": {"dim": 3, "actions": []},
                      "structure": COMPANION}},
    "commands": [{"op": "validate", "module": "C"},
                 {"op": "validate", "module": "F"},
                 {"op": "dualize", "module": "C"},
                 {"op": "dualize", "module": "F"},
                 {"op": "sol", "module": "F", "s": 7}],
}


def test_modules_over_the_point(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    assert main(["run", write(tmp_path, POINT), "--json", out]) == 0
    res = json.loads(open(out).read())["results"]
    assert all(r["ok"] for r in res)
    assert [r["dim"] for r in res[2:4]] == [3, 3]
    assert res[4]["dim_fq"] == 3 and res[4]["geometric_dim"] == 3
    capsys.readouterr()


def test_module_dim_missing_over_the_point_or_unequal_is_schema_error(tmp_path, capsys):
    doc = json.loads(json.dumps(POINT))
    del doc["modules"]["C"]["carrier"]["dim"]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "without variables needs its dim" in capsys.readouterr().err
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["A"]["carrier"]["dim"] = 3
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "must be 3 x 3, the module dim" in capsys.readouterr().err


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
    proc = forge("--help")
    assert proc.returncode == 0 and "forge" in proc.stdout


def test_sol_on_cartier_module_is_schema_error(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "sol", "module": "A"}]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "sol expects" in capsys.readouterr().err


# 10**24 + 7, the least prime past 10**24: trial division up to its square
# root would take hours, the cap check a microsecond
BIG_PRIME = 10 ** 24 + 7


@pytest.fixture
def no_trial_division_past_the_cap(monkeypatch):
    """Every `is_prime` the package calls refuses a number past MAX_ORDER."""
    from cartierforge import duality, field

    def guarded(n, is_prime=field.is_prime):
        assert n <= field.MAX_ORDER, f"trial division of {n}, past the cap"
        return is_prime(n)
    for module in (field, duality, cli):
        monkeypatch.setattr(module, "is_prime", guarded)


def test_a_25_digit_prime_is_refused_at_the_cap_before_trial_division(
        tmp_path, capsys, no_trial_division_past_the_cap):
    t0 = time.monotonic()
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["field"]["p"] = BIG_PRIME
    with pytest.raises(ValueError, match=f"^GF\\({BIG_PRIME}\\^1\\) exceeds the desk-scale cap"):
        cli.parse_problem(doc)
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "hasse", "p": BIG_PRIME, "cubic": [0, 1, 0, 1]}]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert f"hasse: GF({BIG_PRIME}^1) exceeds the desk-scale cap" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["generate", "random-artinian", "--p", str(BIG_PRIME)])
    assert exc.value.code == 2
    assert f"--p {BIG_PRIME} is past the field-order cap" in capsys.readouterr().err
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("p", [4194319, BIG_PRIME])
def test_generate_with_a_prime_past_the_cap_is_a_usage_error(p):
    # 4194319 is the least prime past MAX_ORDER = 2**22
    proc = forge("generate", "random-artinian", "--p", str(p))
    assert proc.returncode == 2, proc.stderr
    assert "past the field-order cap" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("free", [[[[1], [0, 1]]], [[[1], [0, 1]], [[1]]]],
                         ids=["one-row-of-two", "ragged"])
def test_a_non_square_free_multiplier_matrix_is_a_schema_error(tmp_path, capsys, free):
    # free_diagonal would read entry (0, 0) alone and report verdicts for u = 1
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["bad_free"]["free"] = free
    doc["commands"] = [{"op": "validate", "module": "bad_free"},
                       {"op": "dualize", "module": "bad_free"}]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "free multiplier matrix must be square" in capsys.readouterr().err


def test_hasse_at_p2_is_schema_error(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "hasse", "p": 2, "cubic": [0, 1, 0, 1]}]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "odd prime" in capsys.readouterr().err


def test_hasse_takes_the_invariant_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(p, cubic, inner=cli.hasse_invariant):
        calls.append(p)
        return inner(p, cubic)

    monkeypatch.setattr(cli, "hasse_invariant", counted)
    monkeypatch.setattr("cartierforge.duality.hasse_invariant", counted)
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "hasse", "p": 101, "cubic": [1, 1, 0, 1]}]
    out = tmp_path / "rep.json"
    assert main(["run", write(tmp_path, doc), "--json", str(out)]) == 0
    res, = json.loads(out.read_text())["results"]
    assert (res["hasse"], res["a_p"], res["ordinary"]) == (98, -3, True)
    assert calls == [101]
    capsys.readouterr()


def test_command_exception_becomes_error_result(tmp_path, capsys, monkeypatch):
    """A command that raises is a fault, not a failed assertion: no verdict
    (ok null) and its error; the run goes on, the report is written and
    the exit code is 3, also when another command failed."""
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "double-dual", "module": "A"},
                       {"op": "nilpotent", "module": "A"}]

    def fail(m):
        raise ValueError("planted failure")

    monkeypatch.setattr(cli, "double_dual_check", fail)
    out = str(tmp_path / "rep.json")
    assert main(["run", write(tmp_path, doc), "--json", out]) == 3
    rep = json.loads(open(out).read())
    assert not rep["ok"]
    err, nil = rep["results"]
    assert err == {"op": "double-dual", "ok": None, "unsupported": False,
                   "error": "ValueError: planted failure"}
    assert nil["ok"] and nil["index"] == 2
    text = capsys.readouterr().out
    assert "ERROR" in text and "FAIL" not in text.replace("report: FAILED", "")
    # with a failed assertion beside the fault the exit code is still 3
    doc["modules"]["bad"] = {"kind": "cartier", "carrier": {"actions": [[[0, 0], [1, 0]]]},
                             "structure": [[1, 0], [0, 1]]}
    doc["commands"].append({"op": "validate", "module": "bad"})
    assert main(["run", write(tmp_path, doc), "--json", out]) == 3
    assert [r["ok"] for r in json.loads(open(out).read())["results"]] == [None, True, False]
    capsys.readouterr()


def test_pair_of_cartier_modules_is_unsupported_when_tau_is_not_determined(tmp_path, capsys):
    # A is nilpotent: kappa_A x^lambda stacked has rank 1 < 2, so the
    # solution for tau on Hom(A, A) is not unique.  N (x acts by 0, kappa
    # invertible) is not unit either, but its stack has full rank, so the
    # pairing into N is solved as before.
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["E"] = {"kind": "cartier",
                           "carrier": {"actions": [[[0, 1], [0, 0]]]},
                           "structure": [[1, 0], [0, 0]]}
    doc["modules"]["N"] = {"kind": "cartier",
                           "carrier": {"actions": [[[0, 0], [0, 0]]]},
                           "structure": [[1, 0], [0, 1]]}
    doc["commands"] = [{"op": "pair", "left": "A", "right": "A"},
                       {"op": "pair", "left": "A", "right": "E"},
                       {"op": "pair", "left": "A", "right": "N"}]
    out = tmp_path / "rep.json"
    assert main(["run", write(tmp_path, doc), "--json", str(out)]) == 0
    bad, into_e, into_n = json.loads(out.read_text())["results"]
    assert bad == {"op": "pair", "left": "A", "right": "A", "ok": None,
                   "unsupported": True,
                   "reason": "pairing solution not unique; target is not unit"}
    assert into_e["ok"] and into_e["kind"] == "frobenius" and into_e["dim"] == 2
    assert into_n == {"op": "pair", "left": "A", "right": "N", "ok": True,
                      "unsupported": False, "kind": "frobenius", "dim": 2,
                      "nilpotency_index": 1}
    assert "UNSUPPORTED" in capsys.readouterr().out
    assert main(["run", write(tmp_path, doc), "--strict"]) == 1
    capsys.readouterr()


def test_pair_over_two_rings_is_schema_error(tmp_path, capsys):
    # B declares its own ring F_2[x]/(x^3); A lives over F_2[x]/(x^2)
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["B"] = {"kind": "cartier",
                           "ring": {"vars": ["x"], "relations": [[3]]},
                           "carrier": {"actions": [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]]},
                           "structure": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}
    for left, right in (("A", "B"), ("B", "A")):
        doc["commands"] = [{"op": "pair", "left": left, "right": right}]
        assert main(["run", write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "pair expects two modules over one ring" in err and "Traceback" not in err


@pytest.mark.parametrize("module,index", [
    pytest.param({"free": [[0, 1]]}, None, id="u=x"),
    pytest.param({"torsion": {"x_action": [[0]], "structure": [[0]]}, "free": [[1]]}, None,
                 id="nilpotent-torsion+u=1"),
    pytest.param({"free": [[0], [0]]}, 1, id="u=0"),
    pytest.param({"torsion": {"x_action": [[0, 0], [1, 0]], "structure": [[0, 0], [1, 0]]},
                  "free": [[0]]}, 2, id="torsion-index-2+u=0"),
])
def test_nilpotent_reads_the_free_part(tmp_path, capsys, module, index):
    """kappa_S o u on a free part is nilpotent only for u = 0
    (`pid.free_crystal_zero`); then the torsion index stands, else null."""
    doc = {"schema": 1, "field": {"p": 2, "r": 1},
           "modules": {"M": {"tier": "pid", "kind": "cartier", **module}},
           "commands": [{"op": "nilpotent", "module": "M"}]}
    out = tmp_path / "report.json"
    assert main(["run", write(tmp_path, doc), "--json", str(out)]) == 0
    [res] = json.loads(out.read_text())["results"]
    assert res == {"op": "nilpotent", "module": "M", "ok": True, "unsupported": False,
                   "index": index}
    capsys.readouterr()


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
    {"op": "suite", "seed": 1.5},
    {"op": "suite", "seed": True},
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


@pytest.mark.parametrize("cmd,message", [
    ({"op": "stable", "module": "sky"}, "artinian tier"),
    ({"op": "unitalize", "module": "sky"}, "artinian tier"),
    ({"op": "unitalize", "module": "frob"}, "with a cartier structure"),
    ({"op": "double-dual", "module": "sky"}, "artinian tier"),
    ({"op": "base-change", "module": "sky"}, "artinian tier"),
    ({"op": "kashiwara", "module": "sky", "j_gens": [[1]]}, "artinian tier"),
    ({"op": "pair", "left": "sky", "right": "sky"}, "artinian tier"),
    ({"op": "sol", "module": "sky"}, "artinian tier"),
    ({"op": "localize-model", "module": "A", "f": [1, 1]}, "pid tier"),
    ({"op": "local-duality", "module": "A"}, "pid tier"),
    ({"op": "perverse", "module": "A"}, "pid tier"),
    ({"op": "kashiwara", "module": "A"}, "missing field 'j_gens'"),
    ({"op": "localize-model", "module": "sky"}, "missing field 'f'"),
    ({"op": "hasse", "cubic": [0, 1, 0, 1]}, "missing field 'p'"),
    ({"op": "hasse", "p": 5}, "missing field 'cubic'"),
    ({"op": "kashiwara", "module": "A", "j_gens": [[1, 0]]},
     "one exponent per ring variable"),
    ({"op": "hasse", "p": 5, "cubic": 5}, "hasse: cubic must be an array"),
    ({"op": "kashiwara", "module": "A", "j_gens": 5},
     "kashiwara: j_gens must be an array"),
    ({"op": "kashiwara", "module": "A", "j_gens": [1]},
     "kashiwara: j_gens vector must be an array"),
    ({"op": "localize-model", "module": "sky", "f": 5},
     "polynomial coefficients must be an array"),
    ({"op": "validate", "module": ["A"]}, "unknown module ['A']"),
    ({"op": "perverse", "complex": [1]}, "unknown complex [1]"),
])
def test_wrong_tier_or_missing_field_is_schema_error(tmp_path, capsys, cmd, message):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["frob"] = FROB
    doc["commands"] = [cmd]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


def test_integer_fields_at_their_bounds(tmp_path, capsys):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["modules"]["frob"] = FROB
    doc["commands"] = [
        {"op": "unitalize", "module": "A", "max_steps": 0},
        {"op": "sol", "module": "frob", "s": 1},
        {"op": "base-change", "module": "frob", "s": 1},
        {"op": "perverse", "module": "sky", "degree": -1}]
    out = str(tmp_path / "rep.json")
    # max_steps = 0 builds no stage, so the run reports not_stabilized
    assert main(["run", write(tmp_path, doc), "--json", out]) == 1
    uni, sol, bc, perv = json.loads(open(out).read())["results"]
    assert uni["status"] == "not_stabilized" and uni["steps"] == 0
    assert sol["s"] == 1 and bc["s"] == 1
    assert "error" not in perv
    capsys.readouterr()


@pytest.mark.parametrize("s", [12, 10 ** 6])
def test_extension_past_the_order_cap_is_unsupported(tmp_path, capsys, s):
    """Over GF(4), s = 12 asks for GF(2^24) > MAX_ORDER; s = 10**6 for a
    field whose order has some 600,000 digits."""
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["field"] = {"p": 2, "r": 2}
    doc["modules"] = {"frob": FROB}
    doc["commands"] = [{"op": "sol", "module": "frob", "s": s},
                       {"op": "base-change", "module": "frob", "s": s}]
    out = str(tmp_path / "rep.json")
    assert main(["run", write(tmp_path, doc), "--json", out]) == 0
    for r in json.loads(open(out).read())["results"]:
        assert "error" not in r, r
        assert r["unsupported"] is True and r["ok"] is None and r["s"] == s
        assert f"GF(2^{2 * s})" in r["reason"]
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
    (("field",), [2]),
    (("ring",), [1]),
    (("modules",), [1]),
    (("modules", "A"), [1]),
    (("complexes",), [1]),
    (("complexes",), {"C": {"terms": ["sky"]}}),
    (("commands",), [1]),
    (("commands",), {"a": 1}),
])
def test_wrongly_nested_input_is_schema_error(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(FIXTURE_A))
    set_path(doc, path, value)
    assert main(["run", write(tmp_path, doc)]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("path,value,field", [
    (("modules", "A", "carrier"), [1], "module 'A' carrier must be an object"),
    (("modules", "A", "carrier", "actions"), 5, "module 'A' carrier actions"),
    (("modules", "A", "carrier", "actions"), [5], "module 'A' carrier action must"),
    (("modules", "A", "structure"), 5, "module 'A' structure must"),
    (("modules", "A", "structure"), [5], "module 'A' structure row"),
    (("modules", "A", "ring"), [1], "module 'A' ring must be an object"),
    (("modules", "A", "ring"), {"vars": 5, "relations": [[2]]}, "module 'A' ring vars"),
    (("modules", "A", "ring"), {"vars": ["x"], "relations": 5}, "module 'A' ring relations"),
    (("modules", "sky", "torsion"), [1], "module 'sky' torsion must be an object"),
    (("modules", "sky", "torsion", "x_action"), 5, "module 'sky' torsion x_action"),
    (("modules", "sky", "torsion", "structure"), 5, "module 'sky' torsion structure"),
    (("modules", "bad_free", "free"), 5, "module 'bad_free' free must"),
    (("modules", "bad_free", "free"), [[[0], [1]], 5], "module 'bad_free' free row"),
    (("ring", "vars"), 5, "ring vars must be an array"),
    (("ring", "relations"), 5, "ring relations must be an array"),
    (("ring", "vars"), [[1]], "ring vars entry must be a string, got [1]"),
    (("modules", "A", "ring"), {"vars": [{}], "relations": [[2]]},
     "module 'A' ring vars entry must be a string, got {}"),
    # a complex is its terms with zero differentials: any other key is refused
    (("complexes",), {"C": {"terms": {"0": "sky", "1": "sky"}, "diffs": {"0": [[1]]}}},
     "complex 'C': unknown key 'diffs'"),
    (("complexes",), {"C": {"terms": {"0": "sky", "00": "sky"}}},
     "complex 'C': degree key '00' must be an integer"),
    (("complexes",), {"C": {"terms": {"+1": "sky"}}},
     "complex 'C': degree key '+1' must be an integer"),
    (("complexes",), {"C": {"terms": {"x": "sky"}}},
     "complex 'C': degree key 'x' must be an integer"),
])
def test_wrongly_typed_module_part_names_its_field(tmp_path, capsys, path, value, field):
    doc = json.loads(json.dumps(FIXTURE_A))
    set_path(doc, path, value)
    assert main(["run", write(tmp_path, doc)]) == 2
    assert field in capsys.readouterr().err


def test_top_level_array_is_schema_error(tmp_path, capsys):
    assert main(["run", write(tmp_path, [FIXTURE_A])]) == 2
    assert "a problem must be an object" in capsys.readouterr().err


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


@pytest.mark.parametrize("f,message", [
    ([], "localize-model: f must be a nonzero polynomial"),
    ([0, 0], "localize-model: f must be a nonzero polynomial"),
    ([[0, 0]], "localize-model: f polynomial coefficient must have 1 digits"),
    ([1, [1, 1]], "localize-model: f polynomial coefficient must have 1 digits"),
])
def test_zero_or_malformed_localization_polynomial_is_schema_error(tmp_path, capsys,
                                                                   f, message):
    doc = json.loads(json.dumps(FIXTURE_A))
    doc["commands"] = [{"op": "localize-model", "module": "sky", "f": f}]
    assert main(["run", write(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path,ring,where", [
    (("ring",), {"vars": ["x"], "relations": [[1000000]]}, "ring ('x',) / ((1000000,),)"),
    (("ring",), {"vars": ["x", "y"], "relations": [[70, 0], [0, 70]]},
     "ring ('x', 'y') / ((70, 0), (0, 70))"),
    (("modules", "A", "ring"), {"vars": ["x"], "relations": [[4097]]},
     "ring ('x',) / ((4097,),)"),
])
def test_ring_past_the_size_cap_is_schema_error(tmp_path, path, ring, where):
    """Each ring has more than MAX_RING_DIM = 4096 standard monomials; the
    cap is checked before the basis is enumerated or a matrix allocated."""
    doc = json.loads(json.dumps(FIXTURE_A))
    set_path(doc, path, ring)
    doc["commands"] = [{"op": "validate", "module": "A"}]
    proc = forge("run", write(tmp_path, doc))
    assert proc.returncode == 2, proc.stderr
    assert where in proc.stderr and "past the ring-size cap 4096" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_h1_verdicts_of_a_degree_4095_multiplier(tmp_path):
    """H^1 of a free part is decided by its multiplier, u = 0, with no hull
    built: a hull at level deg u + 1 = 4096 would take minutes."""
    doc = {"schema": 1, "field": {"p": 2, "r": 1},
           "ring": {"tier": "artinian", "vars": ["x"], "relations": [[2]]},
           "modules": {"u": {"tier": "pid", "kind": "cartier", "free": [[0] * 4095 + [1]]}},
           "commands": [{"op": "local-duality", "module": "u"},
                        {"op": "perverse", "module": "u", "degree": -2}]}
    out = str(tmp_path / "report.json")
    assert main(["run", write(tmp_path, doc), "--json", out]) == 1
    local, perverse = json.loads(open(out).read())["results"]
    assert local["ok"] and "error" not in local
    assert [(v["local_zero"], v["ext_zero"]) for v in local["verdicts"]] == [
        (True, True), (False, False)]
    hull = [c for c in perverse["conditions"] if c["degree"] == -1 and c["side"] == "local"]
    assert not perverse["ok"] and len(hull) == 1 and not hull[0]["ok"]


# every leaf and subtree of an input is replaced by each of these in turn;
# none allocates much
MUTATIONS = [5, -1, 0, 1.5, True, None, "x", [], {}, [[1]], [1], 10 ** 6, [[0, 0]], [[[1]]]]
# what `cmd_run` reports as a schema error (exit 2) when parsing raises it
PARSE_ERRORS = (KeyError, TypeError, ValueError, cli.SchemaError)


def json_paths(node, path=()):
    """The path of every subtree of a JSON document, the root and the
    leaves included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_paths(child, path + (key,))


def mutant_outcomes(doc, mutations) -> set:
    """Parse each mutant of `doc` (the subtree at `path` replaced by
    `value`, for each (path, value) of `mutations`) and run each of its
    commands in-process, as `forge run` does.  Each command must give a
    result without an error, an invalid-module report or a schema error;
    nothing else may be raised.  Returns the kinds of outcome seen."""
    seen = set()
    for path, value in mutations:
        mutant = json.loads(json.dumps(doc))
        if path:
            set_path(mutant, path, json.loads(json.dumps(value)))
        else:
            mutant = json.loads(json.dumps(value))
        try:
            problem = cli.parse_problem(mutant)
        except PARSE_ERRORS:
            seen.add("schema")
            continue
        for cmd in problem["commands"]:
            try:
                r = cli.run_command(problem, cmd, 0)
            except cli.SchemaError:
                seen.add("schema")
            except cli.InvalidModule:
                seen.add("invalid")
            else:
                assert "error" not in r and r["ok"] in (True, False, None), (path, value)
                json.dumps(r, sort_keys=True)
                seen.add("unsupported" if r["unsupported"] else "verdict")
    return seen


def test_every_single_replacement_in_the_fixture_ends_in_a_verdict_or_a_schema_error():
    """Each mutant of sample_problems/fixture_a.json (one subtree replaced
    by one value of MUTATIONS, 1,652 in all) ends in a verdict, an
    invalid-module report or a schema error (`mutant_outcomes`)."""
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "sample_problems" / "fixture_a.json").read_text())
    mutations = [(path, value) for path in json_paths(doc) for value in MUTATIONS]
    assert mutant_outcomes(doc, mutations) == {"schema", "invalid", "unsupported", "verdict"}


BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


@pytest.mark.parametrize("workload", ["artinian-prime", "pid-duality", "extension-field"])
def test_seeded_single_replacements_in_each_workload_end_in_a_verdict_or_a_schema_error(workload):
    """A fixed, seeded draw of 600 of the 3,360-4,522 mutants of the first
    input file of each benchmark workload, checked as the fixture's are.
    The complete enumeration of the three files (11,494 mutants) takes
    about 11 s on a 2-CPU host, past the 5 s this test may take."""
    doc = json.loads(sorted((BENCH_INPUTS / workload).glob("*.json"))[0].read_text())
    mutations = [(path, value) for path in json_paths(doc) for value in MUTATIONS]
    seen = mutant_outcomes(doc, random.Random(2029).sample(mutations, 600))
    assert {"schema", "verdict"} <= seen
