"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest -q bench/test_bench.py

The oracle is tested against brute force and against sympy, never against
`cartierforge`; the verification step is tested by planting wrong verdicts.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402

EXT_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1)] + EXT_FIELDS)
def test_field_tables_form_a_field(p, r):
    F = oracle.Field(p, r)
    q = F.q
    elems = np.arange(q)
    assert (F.add_t == F.add_t.T).all() and (F.mul_t == F.mul_t.T).all()
    assert (F.add_t[elems, F.neg_t] == 0).all()
    assert (F.mul_t[elems[1:], F.inv_t[1:]] == 1).all()
    for a, b, c in itertools.product(range(q), repeat=3) if q <= 9 else []:
        assert F.mul_t[a, F.add_t[b, c]] == F.add_t[F.mul_t[a, b], F.mul_t[a, c]]
        assert F.mul_t[a, F.mul_t[b, c]] == F.mul_t[F.mul_t[a, b], c]
    # the multiplicative group is cyclic of order q - 1
    orders = []
    for g in range(1, q):
        x, n = g, 1
        while x != 1:
            x, n = F.mul_t[x, g], n + 1
        orders.append(n)
    assert max(orders) == q - 1


@pytest.mark.parametrize("p,r", EXT_FIELDS)
def test_modulus_is_the_smallest_irreducible(p, r):
    import sympy
    x = sympy.Symbol("x")
    f = oracle.smallest_modulus(p, r)
    assert sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible
    code = sum(c * p ** i for i, c in enumerate(f[:-1]))
    for smaller in range(code):
        g = [(smaller // p ** i) % p for i in range(r)] + [1]
        assert not sympy.Poly(list(reversed(g)), x, modulus=p).is_irreducible


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_sympy(p):
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(p)
    F = oracle.Field(p)
    for _ in range(40):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        a = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(cols)]
             for _ in range(rows)]
        dm = DomainMatrix([[GF(p)(v) for v in row] for row in a], (rows, cols), GF(p))
        assert F.rank(np.array(a)) == dm.rank()


def test_nil_index():
    F = oracle.Field(3)
    for n in range(1, 5):
        jordan = np.eye(n, k=-1, dtype=np.int64)
        assert F.nil_index(jordan) == n
    assert F.nil_index(np.eye(3, dtype=np.int64)) is None


def test_sol_dimension_matches_brute_force():
    """Fixed points of v -> tau sigma(v) over GF(4) for tau over GF(2),
    counted by enumeration, against the oracle's rank formula."""
    F2, F4 = oracle.Field(2), oracle.Field(2, 2)
    rng = random.Random(5)
    for _ in range(12):
        d = rng.randrange(1, 4)
        tau = np.array([[rng.randrange(2) for _ in range(d)] for _ in range(d)])
        mdoc = {"kind": "frobenius", "ring": {"vars": ["x"], "relations": [[1]]},
                "carrier": {"dim": d, "actions": [np.zeros((d, d), int).tolist()]},
                "structure": tau.tolist()}
        facts = oracle.facts(F2, mdoc)
        fixed = 0
        for v in itertools.product(range(4), repeat=d):
            v = np.array(v).reshape(d, 1)
            if np.array_equal(F4.mmul(tau, F4.mul_t[v, v]), v):
                fixed += 1
        assert fixed == 2 ** facts["sol_dim"][2]
        fixed1 = sum(np.array_equal(F2.mmul(tau, np.array(v).reshape(d, 1)),
                                    np.array(v).reshape(d, 1))
                     for v in itertools.product(range(2), repeat=d))
        assert fixed1 == 2 ** facts["sol_dim"][1]


@pytest.fixture(scope="module")
def small_run():
    """One untraced pass over two problem files of each workload."""
    cli = run.import_program()
    docs = []
    for workload in run.WORKLOADS:
        docs += run.load_inputs(workload)[:2]
    problems = [cli.parse_problem(doc) for doc in docs]
    return cli, docs, run.run_pass(cli, problems, list(range(len(docs))))


def _clone(p):
    out = run.Pass()
    out.results = {k: json.loads(json.dumps(v)) for k, v in p.results.items()}
    out.latencies_s, out.wall_s = list(p.latencies_s), p.wall_s
    return out


def test_clean_passes_verify(small_run):
    _, docs, p = small_run
    attempted, failed, wrong, notes = run.verify(docs, [run.payload([p, _clone(p)])])
    assert (attempted, failed, wrong, notes) == (2 * len(p.results), 0, 0, [])


def _plant(docs, p, op, mutate):
    bad = _clone(p)
    for (i, j), res in bad.results.items():
        if docs[i]["commands"][j]["op"] == op:
            mutate(res)
            return bad
    raise AssertionError(f"no {op} command in the sample")


@pytest.mark.parametrize("op,mutate", [
    ("nilpotent", lambda r: r.update(index=(r["index"] or 0) + 1)),
    ("unitalize", lambda r: r.update(status="zero" if r["status"] == "unit" else "unit")),
    ("double-dual", lambda r: r.update(witness=[[0] * len(r["witness"])] * len(r["witness"]))),
    ("validate", lambda r: r.update(ok=False)),
    ("base-change", lambda r: r.update(dual=False)),
    ("local-duality", lambda r: r["verdicts"][0].update(local_zero=not r["verdicts"][0]["local_zero"])),
    ("dualize", lambda r: [t.update(kind="cartier" if t["kind"] == "frobenius" else "frobenius")
                           for t in r["terms"].values()]),
    ("perverse", lambda r: r.update(ok=not r["ok"])),
    ("sol", lambda r: r.update(dim_fq=r["dim_fq"] + 1)),
])
def test_planted_wrong_verdict_is_counted_failed(small_run, op, mutate):
    _, docs, p = small_run
    bad = _plant(docs, p, op, mutate)
    # wrong in the first pass: the oracle check catches it in both passes
    _, failed, wrong, notes = run.verify(docs, [run.payload([bad, _clone(p)])])
    assert failed == wrong == 2 and len(notes) == 1
    # wrong only in a later pass: the repeat check catches it
    _, failed, wrong, _ = run.verify(docs, [run.payload([_clone(p), bad])])
    assert failed == wrong == 1


def test_raised_command_is_failed_but_not_wrong(small_run):
    _, docs, p = small_run
    bad = _clone(p)
    bad.results[next(iter(bad.results))] = {"raised": "ValueError: planted"}
    _, failed, wrong, _ = run.verify(docs, [run.payload([_clone(p), bad])])
    assert (failed, wrong) == (1, 0)
    _, failed, wrong, _ = run.verify(docs, [run.payload([bad])])
    assert (failed, wrong) == (1, 0)


def test_tracer_counts_repeat_and_uninstall_restores(small_run):
    from tracing import Tracer
    cli, docs, p = small_run
    import cartierforge.matrix as mx
    mmul = mx.mmul
    clearers = run.cache_clearers([m for n, m in sys.modules.items()
                                   if n.startswith("cartierforge")])
    tracer = Tracer()
    tracer.install()
    try:
        assert mx.mmul is not mmul
        snapshots = []
        for order in (range(len(docs)), reversed(range(len(docs)))):
            for clear in clearers:
                clear()
            tracer.new_pass()
            problems = [cli.parse_problem(doc) for doc in docs]
            one = run.run_pass(cli, problems, list(order), tracer)
            snapshots.append(tracer.metrics(len(snapshots) + 1, [2] * (len(snapshots) + 1)))
    finally:
        tracer.uninstall()
    assert mx.mmul is mmul
    assert one.results == p.results
    for name, value in snapshots[0].items():
        if not name.endswith("self_ms"):
            assert snapshots[1][name] == value, name
    assert snapshots[0]["cli.run_command.self_ms"] > 0
    assert tracer.calls["cli.run_command"] == 2 * len(p.results)


def test_result_differing_between_processes_is_failed(small_run):
    _, docs, p = small_run
    other = _clone(p)
    key = next(iter(other.results))
    other.results[key]["planted"] = 1     # passes the oracle, but differs
    attempted, failed, wrong, notes = run.verify(
        docs, [run.payload([p]), run.payload([other])])
    assert (attempted, failed, wrong) == (2 * len(p.results), 1, 1)
    assert notes == [f"file {key[0]} command {key[1]}: result differs from another process's"]


def test_probe_scales_latencies(small_run):
    cli, docs, p = small_run
    problems = [cli.parse_problem(doc) for doc in docs]
    calls = []

    def slow_probe():                     # the host runs at half the reference speed
        calls.append(1)
        return 2 * run.PROBE_REF_S
    one = run.run_pass(cli, problems, list(range(len(docs))), probe=slow_probe)
    assert one.results == p.results
    assert len(one.latencies_s) == len(p.latencies_s) and len(calls) >= 2
    assert sum(one.latencies_s) == pytest.approx(one.raw_s / 2)


def test_tracer_overhead_lands_in_no_layer(small_run, monkeypatch):
    import time
    import tracing
    cli, docs, _ = small_run
    pause = 0.005

    def slow_hook(t, args, kwargs):
        time.sleep(pause)
    monkeypatch.setitem(tracing._HOOKS, "structures.validate", (slow_hook, None))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.new_pass()
        problems = [cli.parse_problem(doc) for doc in docs]
        one = run.run_pass(cli, problems, list(range(len(docs))), tracer)
    finally:
        tracer.uninstall()
    hooks_s = pause * tracer.calls["structures.validate"]
    assert hooks_s > 0
    assert sum(tracer.layer_self_s.values()) < one.wall_s - hooks_s
