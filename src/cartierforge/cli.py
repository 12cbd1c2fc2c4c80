"""forge: batch front-end.

    forge run <file> [--seed N] [--strict] [--json out.json] [--timing]
    forge generate <kind> --seed N [options]

Problem files and reports are JSON (schema 1); the text table printed by
`run` is a rendering of the report, never the source of truth.  Reports
are byte-stable for a fixed (file, seed, version): timing is reported as 0
unless --timing opts in.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .artinian import fin_module, ring_make
from .complexes import (StructuredComplex, coherent_model_of_localization,
                        dualize, is_perverse, local_duality_check,
                        shift_module)
from .duality import (_ordinary_by_sol, double_dual_check, dual_base_change_check,
                      dualize_artinian, elliptic_ap, hasse_invariant, matlis_witness,
                      nilpotence_exchange_check, nonsingular_short_weierstrass, pair_C_to_F,
                      pair_F_to_C, sol_base_change_check, sol_certified, sol_point)
from .field import GF, MAX_ORDER, is_prime, order_fits
from .generate import (artinian_corpus, pid_torsion_corpus, random_pid_torsion,
                       random_structured)
from .pid import (CARTIER, FROBENIUS, PidModule, free_crystal_zero, pid_free,
                  pid_sum, pid_torsion, validate_pid)
from .poly import Poly
from .structures import (Unsupported, kashiwara_counit, nilpotency_index,
                         stable_image, stable_kernel, structured, unitalize, validate)

SCHEMA = 1


class SchemaError(Exception):
    pass


class InvalidModule(Exception):
    def __init__(self, name, violations):
        super().__init__(f"module {name!r} is invalid")
        self.name = name
        self.violations = list(violations)


def _int(v, what, lo=None):
    """`v` if it is a JSON integer (not a boolean), at least `lo` when
    given, else a SchemaError; every integer of the input goes through it."""
    if isinstance(v, bool) or not isinstance(v, int) or (lo is not None and v < lo):
        bound = "an integer" if lo is None else f"an integer >= {lo}"
        raise SchemaError(f"{what} must be {bound}, got {v!r}")
    return v


def _container(v, kind, what):
    """`v` if it is a JSON object (kind dict) or array (kind list), else a
    SchemaError naming `what`."""
    if not isinstance(v, kind):
        label = "an object" if kind is dict else "an array"
        raise SchemaError(f"{what} must be {label}, got {v!r}")
    return v


def _required(cmd, key):
    """cmd[key], or a SchemaError naming the missing field."""
    if key not in cmd:
        raise SchemaError(f"{cmd.get('op')}: missing field {key!r}")
    return cmd[key]


def _int_field(cmd, key, default, lo=None):
    v = cmd.get(key, default)
    if type(v) is int and (lo is None or v >= lo):
        return v        # the message of a SchemaError is built only for one
    return _int(v, f"{cmd.get('op')}: {key}", lo)


def _exponents(vectors, what):
    return [tuple(_int(e, f"{what} entry", lo=0) for e in _container(v, list, f"{what} vector"))
            for v in _container(vectors, list, what)]


def _decode_scalar(field, v, what="field element"):
    if isinstance(v, list):
        if len(v) != field.deg:
            raise SchemaError(f"{what} must have {field.deg} digits, got {v!r}")
        return int(field.from_digits([_int(d, f"{what} digit") for d in v]))
    return _int(v, what) % field.order


def _decode_matrix(field, rows, what):
    return np.array([[_decode_scalar(field, v) for v in _container(row, list, f"{what} row")]
                     for row in _container(rows, list, what)], dtype=np.int64)


def _decode_poly(field, coeffs, what="polynomial"):
    coeffs = _container(coeffs, list, f"{what} coefficients")
    return Poly.make(field, [_decode_scalar(field, c, f"{what} coefficient") for c in coeffs])


def _canonical_int(key: str) -> bool:
    """`key` is an integer written as str(int(key)): no sign on 0, no '+',
    leading zeros, spaces or underscores."""
    try:
        return str(int(key)) == key
    except ValueError:
        return False


def _parse_ring(field, rdoc, what):
    rdoc = _container(rdoc, dict, what)
    names = _container(rdoc.get("vars"), list, f"{what} vars")
    for v in names:
        if not isinstance(v, str):
            raise SchemaError(f"{what} vars entry must be a string, got {v!r}")
    return ring_make(field, names, _exponents(rdoc.get("relations"), f"{what} relations"))


def parse_problem(doc: dict):
    if _container(doc, dict, "a problem").get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    fld = _container(doc.get("field", {}), dict, "field")
    field = GF(_int(fld.get("p", 2), "field p"), _int(fld.get("r", 1), "field r"))
    ring = None
    rdoc = doc.get("ring")
    if rdoc and _container(rdoc, dict, "ring").get("tier", "artinian") == "artinian":
        ring = _parse_ring(field, rdoc, "ring")
    modules = {}
    for name, mdoc in _container(doc.get("modules", {}), dict, "modules").items():
        where = f"module {name!r}"
        modules[name] = _parse_module(field, ring, _container(mdoc, dict, where), where)
    complexes, complex_terms = {}, {}
    for name, cdoc in _container(doc.get("complexes", {}), dict, "complexes").items():
        # a complex is its terms, each with zero differential
        for key in _container(cdoc, dict, f"complex {name!r}"):
            if key != "terms":
                raise SchemaError(f"complex {name!r}: unknown key {key!r}; "
                                  f"a complex has only 'terms'")
        refs = _container(cdoc.get("terms", {}), dict, f"complex {name!r}: terms")
        terms = {}
        for deg, ref in refs.items():
            if not _canonical_int(deg):
                raise SchemaError(f"complex {name!r}: degree key {deg!r} "
                                  f"must be an integer in canonical form")
            mod = modules.get(ref)
            if not isinstance(mod, PidModule):
                raise SchemaError(f"complex {name}: term {ref} is not a pid module")
            terms[int(deg)] = mod
        complexes[name] = StructuredComplex(terms)
        complex_terms[name] = list(refs.values())
    # "validations" memoizes each module's validation; `_validation` fills
    # it the first time a command names the module or a complex holding it.
    return {"field": field, "ring": ring, "modules": modules,
            "complexes": complexes, "complex_terms": complex_terms,
            "commands": [_container(cmd, dict, "a command") for cmd in
                         _container(doc.get("commands", []), list, "commands")],
            "validations": {}}


def _parse_module(field, ring, mdoc: dict, where: str):
    kind = mdoc.get("kind", CARTIER)
    if kind not in (CARTIER, FROBENIUS):
        raise SchemaError(f"unknown structure kind {kind!r}")
    if mdoc.get("tier") == "pid":
        parts = []
        if "torsion" in mdoc:
            t = _container(mdoc["torsion"], dict, f"{where} torsion")
            parts.append(pid_torsion(
                field, _decode_matrix(field, t.get("x_action"), f"{where} torsion x_action"),
                _decode_matrix(field, t.get("structure"), f"{where} torsion structure"), kind))
        if "free" in mdoc:
            mult = _container(mdoc["free"], list, f"{where} free")
            if mult and isinstance(mult[0], list) and mult[0] and \
                    isinstance(mult[0][0], list):
                rows = [[_decode_poly(field, e)
                         for e in _container(row, list, f"{where} free row")] for row in mult]
                parts.append(pid_free(field, rows, kind))
            else:
                parts.append(pid_free(field, [_decode_poly(field, u) for u in mult], kind))
        if not parts:
            raise SchemaError("pid module needs a torsion or free part")
        out = parts[0]
        for extra in parts[1:]:
            out = pid_sum(out, extra)
        return out
    this_ring = _parse_ring(field, mdoc["ring"], f"{where} ring") if "ring" in mdoc else ring
    if this_ring is None:
        raise SchemaError("artinian module without a ring declaration")
    carrier = _container(mdoc.get("carrier"), dict, f"{where} carrier")
    dim = _int(carrier["dim"], "carrier dim", lo=0) if "dim" in carrier else None
    actions = [_decode_matrix(field, a, f"{where} carrier action") for a in
               _container(carrier.get("actions"), list, f"{where} carrier actions")]
    return structured(kind, fin_module(this_ring, actions, dim),
                      _decode_matrix(field, mdoc.get("structure"), f"{where} structure"))


def _index_json(v):
    return None if v == math.inf else int(v)


def _mat_json(m) -> list:
    return [[int(x) for x in row] for row in np.asarray(m)]


def _validation(problem, name):
    """The validation of module `name`, computed once per problem."""
    memo = problem["validations"]
    rep = memo.get(name)
    if rep is None:
        m = problem["modules"][name]
        rep = memo[name] = validate_pid(m) if isinstance(m, PidModule) else validate(m)
    return rep


def _operand(problem, cmd, op, spec, key, out):
    """The valid module of the op's tier and kind that `cmd` names at `key`
    (`validate` takes an invalid one); for "complex", the complex it names,
    or else its module.  The name goes into `out`: an unsupported result keeps it."""
    name = cmd.get(key)
    if key == "complex":
        if name is not None:
            if "module" in cmd or "degree" in cmd:
                raise SchemaError(f"{op}: a complex takes no 'module' or 'degree'")
            if not isinstance(name, str) or name not in problem["complexes"]:
                raise SchemaError(f"unknown complex {name!r}")
            out[key] = name
            for ref in problem["complex_terms"][name]:
                if not (rep := _validation(problem, ref)).ok:
                    raise InvalidModule(ref, rep.violations)
            return problem["complexes"][name]
        key, name = "module", cmd.get("module")
    m = problem["modules"].get(name) if isinstance(name, str) else None
    if m is None:
        raise SchemaError(f"unknown module {name!r}")
    got = "pid" if isinstance(m, PidModule) else "artinian"
    if spec.tier not in (None, got) or spec.kind not in (None, m.kind):
        with_kind = f" with a {spec.kind} structure" if spec.kind else ""
        raise SchemaError(f"{op} expects a module of the {spec.tier} tier{with_kind}; "
                          f"{name!r} is not one")
    out[key] = name
    rep = _validation(problem, name)
    if not rep.ok and op != "validate":
        raise InvalidModule(name, rep.violations)
    return m


# -- one handler per op: it writes the op's fields into `out` --


def _validate(problem, cmd, seed, out, m):
    rep = _validation(problem, out["module"])
    out.update(ok=rep.ok, violations=list(rep.violations))


def _nilpotent(problem, cmd, seed, out, m):
    target = m.torsion if isinstance(m, PidModule) else m
    idx = nilpotency_index(target) if target is not None else 1
    if isinstance(m, PidModule) and not free_crystal_zero(m):
        idx = math.inf      # kappa_S o u on a free part is nilpotent only for u = 0
    out.update(index=_index_json(idx), ok=True)


def _stable(problem, cmd, seed, out, m):
    part, _ = (stable_image(m) if m.kind == CARTIER else stable_kernel(m))
    out.update(dim=part.dim, crystal_zero=bool(
        part.dim == 0 if m.kind == CARTIER else part.dim == m.dim), ok=True)


def _unitalize(problem, cmd, seed, out, m):
    res = unitalize(m, _int_field(cmd, "max_steps", 16, lo=0))
    out.update(status=res.status, dim=res.module.dim if res.module else None,
               steps=res.steps, ok=res.status in ("unit", "zero"))
    if cert := res.certificate:
        out["certificate"] = {"kernel_index": _index_json(cert.kernel_index),
                              "cokernel_index": _index_json(cert.cokernel_index)}


def _dualize(problem, cmd, seed, out, m):
    if isinstance(m, PidModule):
        out.update(ok=True, terms={
            str(k): {"torsion_dim": v.torsion_dim, "free_rank": v.free_rank,
                     "kind": v.kind} for k, v in dualize(m).terms.items()})
    else:
        d, _ = dualize_artinian(m)
        out.update(ok=True, kind=d.kind, dim=d.dim,
                   nilpotency_index=_index_json(nilpotency_index(d)))


def _double_dual(problem, cmd, seed, out, m):
    ok, witness = double_dual_check(m)
    out.update(ok=bool(ok), witness=_mat_json(witness))


def _pair(problem, cmd, seed, out, a, b):
    if b.kind != CARTIER:
        raise SchemaError("pair expects (frobenius, cartier) or (cartier, unit cartier)")
    if a.ring != b.ring:
        raise SchemaError("pair expects two modules over one ring")
    h, _ = (pair_F_to_C if a.kind == FROBENIUS else pair_C_to_F)(a, b)
    out.update(ok=True, kind=h.kind, dim=h.dim,
               nilpotency_index=_index_json(nilpotency_index(h)))


def _sol(problem, cmd, seed, out, m):
    """`sol`, and `base-change`, which on a Frobenius module solves Sol over GF(q^s) too."""
    op = out["op"]
    out["s"] = s = _int_field(cmd, "s", 1 if op == "sol" else 2, lo=1)
    F = m.ring.field
    if (op == "sol" or m.kind == FROBENIUS) and not order_fits(F.p, F.deg * s):
        raise Unsupported(
            f"{op} needs GF({F.p}^{F.deg * s}), past the field-order cap {MAX_ORDER}")
    if op == "sol":
        rep = sol_point(m, s)
        out.update(ok=sol_certified(m, rep), dim_fq=rep.dim_fq, geometric_dim=rep.geometric_dim)
        return
    if m.kind == FROBENIUS:
        out["sol"] = sol_base_change_check(m, s)
    out["dual"] = dual_base_change_check(m, s)
    out["ok"] = bool(out["dual"] and out.get("sol", {"ok": True})["ok"])


def _local_duality(problem, cmd, seed, out, m):
    rep = local_duality_check(m)
    out.update(ok=rep.ok, verdicts=[{"degree": v.degree, "local_zero": v.local_zero,
                                     "ext_zero": v.ext_zero} for v in rep.verdicts])


def _perverse(problem, cmd, seed, out, target):
    if isinstance(target, PidModule):
        target = shift_module(target, _int_field(cmd, "degree", 0))
    rep = is_perverse(target)
    out.update(ok=rep.ok, conditions=[
        {"point": c.point, "side": c.side, "degree": c.degree, "ok": c.ok}
        for c in rep.conditions])


def _kashiwara(problem, cmd, seed, out, m):
    j = _exponents(_required(cmd, "j_gens"), "kashiwara: j_gens")
    if any(len(g) != len(m.ring.vars) for g in j):
        raise SchemaError(f"kashiwara: each j_gens vector needs one exponent "
                          f"per ring variable ({len(m.ring.vars)})")
    counit = kashiwara_counit(m, j)
    out.update(ok=counit.ok, counit_nil_iso=counit.ok, supported=counit.supported)


def _localize_model(problem, cmd, seed, out, m):
    f = _decode_poly(problem["field"], _required(cmd, "f"), "localize-model: f polynomial")
    if f.is_zero():
        raise SchemaError("localize-model: f must be a nonzero polynomial")
    model = coherent_model_of_localization(m, f)
    out["model"] = {"torsion_dim": model.torsion_dim, "free_rank": model.free_rank}


def _hasse(problem, cmd, seed, out):
    p = _int(_required(cmd, "p"), "hasse: p")
    cubic = [_int(c, "hasse: cubic coefficient")
             for c in _container(_required(cmd, "cubic"), list, "hasse: cubic")]
    try:
        h = hasse_invariant(p, cubic)
    except ValueError as exc:
        raise SchemaError(f"hasse: {exc}") from None
    ap = elliptic_ap(p, cubic)
    out.update(ok=(h != 0) == (ap % p != 0), hasse=h, a_p=ap, ordinary=_ordinary_by_sol(p, h))


def _suite(problem, cmd, seed, out):
    out.update(run_suites(_int_field(cmd, "seed", seed),
                          _int_field(cmd, "count", 25, lo=0)))


class Op(NamedTuple):
    """A command of `forge run`: the handler that writes its result, the tier
    and kind of the modules it reads (None: any), the command fields naming
    them, in order, what backs its `ok` (README, "The `forge` CLI"), and the
    other fields its handler reads."""
    handler: Callable
    tier: "str | None"
    kind: "str | None"
    reads: tuple
    check: str
    fields: tuple = ()


OPS = {
    "validate": Op(_validate, None, None, ("module",), "computed"),
    "nilpotent": Op(_nilpotent, None, None, ("module",), "computed"),
    "stable": Op(_stable, "artinian", None, ("module",), "computed"),
    "unitalize": Op(_unitalize, "artinian", CARTIER, ("module",), "certificate", ("max_steps",)),
    "dualize": Op(_dualize, None, None, ("module",), "computed"),
    "double-dual": Op(_double_dual, "artinian", None, ("module",), "certificate"),
    "pair": Op(_pair, "artinian", None, ("left", "right"), "computed"),
    "sol": Op(_sol, "artinian", FROBENIUS, ("module",), "certificate", ("s",)),
    "base-change": Op(_sol, "artinian", None, ("module",), "certificate", ("s",)),
    "local-duality": Op(_local_duality, "pid", None, ("module",), "computed"),
    "perverse": Op(_perverse, "pid", None, ("complex",), "computed", ("module", "degree")),
    "kashiwara": Op(_kashiwara, "artinian", None, ("module",), "certificate", ("j_gens",)),
    "localize-model": Op(_localize_model, "pid", CARTIER, ("module",), "model", ("f",)),
    "hasse": Op(_hasse, None, None, (), "certificate", ("p", "cubic")),
    "suite": Op(_suite, None, None, (), "self-test", ("seed", "count")),
}
_KEYS = {op: frozenset(("op", *spec.reads, *spec.fields)) for op, spec in OPS.items()}


def run_command(problem, cmd: dict, seed: int) -> dict:
    """The result of one command: a field its op does not read is a
    SchemaError, then the op's modules are resolved and validated, then its
    handler runs.  A documented scope boundary, raised as Unsupported
    anywhere below, is caught here and nowhere else: the result reads
    unsupported, with no verdict and the boundary's reason."""
    op = cmd.get("op")
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise SchemaError(f"unknown command {op!r}")
    if not _KEYS[op].issuperset(cmd):
        extra = ", ".join(sorted(map(repr, cmd.keys() - _KEYS[op])))
        raise SchemaError(f"{op}: unknown field(s) {extra}; it reads {sorted(_KEYS[op])}")
    out = {"op": op, "ok": None, "unsupported": False}
    try:
        operands = []
        for key in spec.reads:
            operands.append(_operand(problem, cmd, op, spec, key, out))
        spec.handler(problem, cmd, seed, out, *operands)
    except Unsupported as exc:
        out.update(unsupported=True, ok=None, reason=str(exc))
    return out


def run_suites(seed: int, count: int) -> dict:
    """The invariant batteries on seeded corpora; every check is exact."""
    res = {"seed": seed, "count": count}
    corpus = artinian_corpus(seed, count)
    res["double_dual"] = sum(1 for m in corpus
                             if double_dual_check(m)[0] and matlis_witness(m)[0])
    res["nilpotence_exchange"] = sum(1 for m in corpus
                                     if nilpotence_exchange_check(m))
    res["dual_base_change"] = sum(1 for m in corpus
                                  if dual_base_change_check(m, 2))
    uni = [unitalize(m).status in ("unit", "zero") for m in corpus]
    res["unitalize"] = sum(uni)
    tors = pid_torsion_corpus(seed, count)
    res["local_duality"] = sum(1 for m in tors if local_duality_check(m).ok)
    res["perverse_dual"] = sum(1 for m in tors if is_perverse(dualize(m)).ok)
    rng = random.Random(seed)
    sol_ok = 0
    for _ in range(count):
        m = random_structured(rng, FROBENIUS, rng.choice([2, 3]), 2, 5, 4)
        sol_ok += sol_base_change_check(m, 2)["ok"]
    res["sol_base_change"] = sol_ok
    res["ok"] = all(res[k] == count for k in
                    ("double_dual", "nilpotence_exchange", "dual_base_change",
                     "unitalize", "local_duality", "perverse_dual",
                     "sol_base_change"))
    return res


def cmd_run(args) -> int:
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
        problem = parse_problem(doc)
    except (OSError, KeyError, TypeError, ValueError, SchemaError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    results = []
    failed = faulted = False
    for cmd in problem["commands"]:
        try:
            r = run_command(problem, cmd, args.seed)
        except SchemaError as exc:
            print(f"schema error: {exc}", file=sys.stderr)
            return 2
        except InvalidModule as exc:
            r = {"op": cmd.get("op"), "module": exc.name, "ok": False,
                 "unsupported": False, "violations": exc.violations}
        except Exception as exc:      # a fault of the program, not a verdict
            r = {"op": cmd.get("op"), "ok": None, "unsupported": False,
                 "error": f"{type(exc).__name__}: {exc}"}
            faulted = True
        results.append(r)
        failed = failed or r.get("ok") is False or bool(r.get("unsupported") and args.strict)
    field = problem["field"]
    report = {
        "schema": SCHEMA, "version": __version__, "seed": args.seed,
        "field": {"p": field.p, "r": field.deg, "polynomial": list(field.modulus)},
        "timing_ms": int((time.monotonic() - t0) * 1000) if args.timing else 0,
        "results": results, "ok": not (failed or faulted),
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    for r in results:
        status = ("UNSUPPORTED" if r.get("unsupported") else "ERROR" if "error" in r
                  else {True: "ok", False: "FAIL", None: "-"}[r.get("ok")])
        extra = {k: v for k, v in r.items() if k not in ("op", "ok", "unsupported", "witness")}
        print(f"{r['op']:<16} {status:<12} {json.dumps(extra, sort_keys=True)}")
    print(f"report: {'ok' if not (failed or faulted) else 'FAILED'}")
    return 3 if faulted else 1 if failed else 0


def _encode_structured(m) -> dict:
    return {"kind": m.kind,
            "ring": {"vars": list(m.ring.vars),
                     "relations": [list(r) for r in m.ring.relations]},
            "carrier": {"actions": [_mat_json(a) for a in m.module.actions]},
            "structure": _mat_json(m.mat)}


def _encode_pid(m: PidModule) -> dict:
    out = {"tier": "pid", "kind": m.kind}
    if m.torsion is not None:
        out["torsion"] = {"x_action": _mat_json(m.torsion.module.actions[0]),
                          "structure": _mat_json(m.torsion.mat)}
    if m.free is not None:
        out["free"] = [[list(u.coeffs) for u in row] for row in m.free]
    return out


def cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    doc = {"schema": SCHEMA, "field": {"p": args.p, "r": 1},
           "modules": {}, "commands": []}
    if args.kind == "random-artinian":
        for i in range(args.count):
            m = random_structured(rng, CARTIER, args.p, 2, args.ring_dim, args.dim)
            name = f"M{i}"
            doc["modules"][name] = _encode_structured(m)
            doc["commands"] += [{"op": op, "module": name} for op in
                                ("validate", "double-dual", "nilpotent", "unitalize")]
    elif args.kind == "random-pid-torsion":
        for i in range(args.count):
            m = random_pid_torsion(rng, args.p, args.dim)
            name = f"T{i}"
            doc["modules"][name] = _encode_pid(m)
            doc["commands"] += [{"op": op, "module": name}
                                for op in ("validate", "local-duality", "dualize")]
    elif args.kind == "elliptic-scan":
        del doc["modules"]
        for (a, b) in nonsingular_short_weierstrass(args.p):
            doc["commands"].append({"op": "hasse", "p": args.p,
                                    "cubic": [b, a, 0, 1]})
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="forge",
                                     description="exact semilinear-algebra batch runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a problem file")
    runp.add_argument("file")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--strict", action="store_true",
                      help="treat Unsupported results as failures")
    runp.add_argument("--json", help="write the JSON report here")
    runp.add_argument("--timing", action="store_true",
                      help="include wall-clock timing in the report "
                           "(off by default to keep reports byte-stable)")
    genp = sub.add_parser("generate", help="emit a reproducible problem file")
    genp.add_argument("kind", choices=["random-artinian", "random-pid-torsion",
                                       "elliptic-scan"])
    genp.add_argument("--seed", type=int, default=0)
    genp.add_argument("--count", type=int, default=10)
    genp.add_argument("--p", type=int, default=2)
    genp.add_argument("--dim", type=int, default=4)
    genp.add_argument("--ring-dim", type=int, default=5)
    genp.add_argument("--out")
    args = parser.parse_args(argv)
    if args.command == "generate":
        if not order_fits(args.p, 1):
            genp.error(f"--p {args.p} is past the field-order cap {MAX_ORDER}")
        if not is_prime(args.p) or (args.kind == "elliptic-scan" and args.p == 2):
            genp.error(f"--p must be a prime, odd for elliptic-scan; got {args.p}")
        if min(args.dim, args.ring_dim) < 1:
            genp.error("--dim and --ring-dim must be >= 1")
    return cmd_run(args) if args.command == "run" else cmd_generate(args)


if __name__ == "__main__":
    sys.exit(main())
