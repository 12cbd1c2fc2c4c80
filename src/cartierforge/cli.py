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

import numpy as np

from . import __version__
from .artinian import fin_module, ring_make
from .complexes import (StructuredComplex, coherent_model_of_localization,
                        dualize, is_perverse, local_duality_check,
                        shift_module)
from .duality import (double_dual_check, dual_base_change_check,
                      dualize_artinian, elliptic_ap, hasse_invariant,
                      nilpotence_exchange_check, nonsingular_short_weierstrass,
                      ordinarity, pair_C_to_F, pair_F_to_C,
                      sol_base_change_check, sol_point)
from .field import GF
from .generate import (artinian_corpus, pid_torsion_corpus, random_cartier,
                       random_f_module, random_pid_torsion)
from .pid import (CARTIER, FROBENIUS, PidModule, Unsupported, pid_free,
                  pid_sum, pid_torsion, validate_pid)
from .poly import Poly
from .structures import (kashiwara_counit, kashiwara_roundtrip,
                         nilpotency_index, stable_image, stable_kernel,
                         structured, structured_i_torsion, unitalize,
                         validate)

SCHEMA = 1


class SchemaError(Exception):
    pass


class InvalidModule(Exception):
    def __init__(self, name, violations):
        super().__init__(f"module {name!r} is invalid")
        self.name = name
        self.violations = violations


def _validation(m) -> tuple[bool, list]:
    """(ok, notes) of a module's validation; notes list the violations."""
    if isinstance(m, PidModule):
        ok, notes = validate_pid(m)
        return ok, list(notes)
    rep = validate(m)
    return rep.ok, list(rep.violations)


def _int(v, what, lo=None):
    """`v` if it is a JSON integer (not a boolean), at least `lo` when
    given, else a SchemaError; every integer of the input goes through it."""
    if isinstance(v, bool) or not isinstance(v, int) or (lo is not None and v < lo):
        bound = "an integer" if lo is None else f"an integer >= {lo}"
        raise SchemaError(f"{what} must be {bound}, got {v!r}")
    return v


def _int_field(cmd, key, default, lo=None):
    return _int(cmd.get(key, default), f"{cmd.get('op')}: {key}", lo)


def _exponents(vectors, what="relation entry"):
    return [tuple(_int(e, what, lo=0) for e in vec) for vec in vectors]


def _decode_scalar(field, v):
    if isinstance(v, list):
        return int(field.from_digits([_int(d, "field element digit") for d in v]))
    return _int(v, "field element") % field.order


def _decode_matrix(field, rows):
    return np.array([[_decode_scalar(field, v) for v in row] for row in rows],
                    dtype=np.int64)


def _decode_poly(field, coeffs):
    return Poly.make(field, [_decode_scalar(field, c) for c in coeffs])


def parse_problem(doc: dict):
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    fld = doc.get("field", {})
    field = GF(_int(fld.get("p", 2), "field p"), _int(fld.get("r", 1), "field r"))
    ring = None
    rdoc = doc.get("ring")
    if rdoc and rdoc.get("tier", "artinian") == "artinian":
        ring = ring_make(field, rdoc["vars"], _exponents(rdoc["relations"]))
    modules = {}
    for name, mdoc in doc.get("modules", {}).items():
        modules[name] = _parse_module(field, ring, mdoc)
    complexes, complex_terms = {}, {}
    for name, cdoc in doc.get("complexes", {}).items():
        terms = {}
        for deg, ref in cdoc.get("terms", {}).items():
            mod = modules.get(ref)
            if not isinstance(mod, PidModule):
                raise SchemaError(f"complex {name}: term {ref} is not a pid module")
            terms[int(deg)] = mod
        complexes[name] = StructuredComplex(terms)
        complex_terms[name] = list(cdoc.get("terms", {}).values())
    # "validations" memoizes each module's validation; run_command fills
    # it the first time a command names the module or a complex holding it.
    return {"field": field, "ring": ring, "modules": modules,
            "complexes": complexes, "complex_terms": complex_terms,
            "commands": doc.get("commands", []), "validations": {}}


def _parse_module(field, ring, mdoc: dict):
    kind = mdoc.get("kind", CARTIER)
    if kind not in (CARTIER, FROBENIUS):
        raise SchemaError(f"unknown structure kind {kind!r}")
    if mdoc.get("tier") == "pid":
        parts = []
        if "torsion" in mdoc:
            t = mdoc["torsion"]
            parts.append(pid_torsion(field, _decode_matrix(field, t["x_action"]),
                                     _decode_matrix(field, t["structure"]), kind,
                                     check=False))
        if "free" in mdoc:
            mult = mdoc["free"]
            if mult and isinstance(mult[0], list) and mult and \
                    mult[0] and isinstance(mult[0][0], list):
                rows = [[_decode_poly(field, e) for e in row] for row in mult]
                parts.append(pid_free(field, rows, kind))
            else:
                parts.append(pid_free(field, [_decode_poly(field, u) for u in mult], kind))
        if not parts:
            raise SchemaError("pid module needs a torsion or free part")
        out = parts[0]
        for extra in parts[1:]:
            out = pid_sum(out, extra)
        return out
    this_ring = ring
    if "ring" in mdoc:
        rd = mdoc["ring"]
        this_ring = ring_make(field, rd["vars"], _exponents(rd["relations"]))
    if this_ring is None:
        raise SchemaError("artinian module without a ring declaration")
    actions = [_decode_matrix(field, a) for a in mdoc["carrier"]["actions"]]
    module = fin_module(this_ring, actions, check=False)
    if ("dim" in mdoc["carrier"]
            and _int(mdoc["carrier"]["dim"], "carrier dim", lo=0) != module.dim):
        raise SchemaError("declared module dim does not match the actions")
    return structured(kind, module, _decode_matrix(field, mdoc["structure"]),
                      check=False)


def _index_json(v):
    return None if v == math.inf else int(v)


def _mat_json(m) -> list:
    return [[int(x) for x in row] for row in np.asarray(m)]


def run_command(problem, cmd: dict, seed: int) -> dict:
    op = cmd.get("op")
    out = {"op": op, "ok": None, "unsupported": False}
    mods, cxs = problem["modules"], problem["complexes"]

    def validation(name):
        memo = problem["validations"]
        if name not in memo:
            memo[name] = _validation(mods[name])
        return memo[name]

    def get_module(key="module"):
        name = cmd.get(key)
        if name not in mods:
            raise SchemaError(f"unknown module {name!r}")
        out[key] = name
        ok, notes = validation(name)
        if not ok and op != "validate":
            raise InvalidModule(name, notes)
        return mods[name]

    if op == "validate":
        get_module()
        ok, notes = validation(out["module"])
        out.update(ok=ok, violations=list(notes))
    elif op == "nilpotent":
        m = get_module()
        target = m.torsion if isinstance(m, PidModule) else m
        idx = nilpotency_index(target) if target is not None else 1
        out.update(index=_index_json(idx), ok=True)
    elif op == "stable":
        m = get_module()
        part, _ = (stable_image(m) if m.kind == CARTIER else stable_kernel(m))
        out.update(dim=part.dim, crystal_zero=bool(
            part.dim == 0 if m.kind == CARTIER else part.dim == m.dim), ok=True)
    elif op == "unitalize":
        m = get_module()
        res = unitalize(m, _int_field(cmd, "max_steps", 16, lo=0))
        out.update(status=res.status, dim=res.module.dim if res.module else None,
                   steps=res.steps, ok=res.status in ("unit", "zero"))
        if res.certificate:
            out["certificate"] = {
                "kernel_index": _index_json(res.certificate.kernel_index),
                "cokernel_index": _index_json(res.certificate.cokernel_index)}
    elif op == "dualize":
        m = get_module()
        if isinstance(m, PidModule):
            d = dualize(m)
            if isinstance(d, Unsupported):
                out.update(unsupported=True, reason=d.reason, ok=None)
            else:
                out.update(ok=True, terms={
                    str(k): {"torsion_dim": v.torsion_dim, "free_rank": v.free_rank,
                             "kind": v.kind} for k, v in d.terms.items()})
        else:
            d, _ = dualize_artinian(m)
            out.update(ok=True, kind=d.kind, dim=d.dim,
                       nilpotency_index=_index_json(nilpotency_index(d)))
    elif op == "double-dual":
        m = get_module()
        ok, witness = double_dual_check(m)
        out.update(ok=bool(ok), witness=_mat_json(witness))
    elif op == "pair":
        a = get_module("left")
        b = get_module("right")
        if a.kind == FROBENIUS and b.kind == CARTIER:
            h, _ = pair_F_to_C(a, b)
        elif a.kind == CARTIER and b.kind == CARTIER:
            h, _ = pair_C_to_F(a, b)
        else:
            raise SchemaError("pair expects (frobenius, cartier) or (cartier, unit cartier)")
        out.update(ok=True, kind=h.kind, dim=h.dim,
                   nilpotency_index=_index_json(nilpotency_index(h)))
    elif op == "sol":
        m = get_module()
        if isinstance(m, PidModule) or m.kind != FROBENIUS:
            raise SchemaError("sol expects an artinian frobenius module")
        s = _int_field(cmd, "s", 1, lo=1)
        rep = sol_point(m, s)
        out.update(ok=True, s=s, dim_fq=rep.dim_fq, geometric_dim=rep.geometric_dim)
    elif op == "base-change":
        m = get_module()
        s = _int_field(cmd, "s", 2, lo=1)
        res = {"s": s}
        if m.kind == FROBENIUS:
            res["sol"] = sol_base_change_check(m, s)
        res["dual"] = dual_base_change_check(m, s)
        ok = res["dual"] and res.get("sol", {"ok": True})["ok"]
        out.update(ok=bool(ok), **res)
    elif op == "local-duality":
        m = get_module()
        rep = local_duality_check(m)
        if rep.unsupported is not None:
            out.update(unsupported=True, reason=rep.unsupported.reason, ok=None)
        else:
            out.update(ok=rep.ok, verdicts=[
                {"degree": v.degree, "local_zero": v.local_zero,
                 "ext_zero": v.ext_zero} for v in rep.verdicts])
    elif op == "perverse":
        name = cmd.get("complex")
        if name is not None:
            if name not in cxs:
                raise SchemaError(f"unknown complex {name!r}")
            out["complex"] = name
            for ref in problem["complex_terms"][name]:
                ok, notes = validation(ref)
                if not ok:
                    raise InvalidModule(ref, notes)
            target = cxs[name]
        else:
            target = shift_module(get_module(), _int_field(cmd, "degree", 0))
        rep = is_perverse(target)
        if rep.unsupported is not None:
            out.update(unsupported=True, reason=rep.unsupported.reason, ok=None)
        else:
            out.update(ok=rep.ok, conditions=[
                {"point": c.point, "side": c.side, "degree": c.degree, "ok": c.ok}
                for c in rep.conditions])
    elif op == "kashiwara":
        m = get_module()
        j = _exponents(cmd["j_gens"], "kashiwara: j_gens entry")
        tors, _ = structured_i_torsion(m, j)
        rt = kashiwara_roundtrip(tors)
        counit = kashiwara_counit(m, j)
        out.update(ok=bool(rt and counit.roundtrip_exact), roundtrip=rt,
                   counit_nil_iso=counit.roundtrip_exact,
                   supported=counit.supported)
    elif op == "localize-model":
        m = get_module()
        f = _decode_poly(problem["field"], cmd["f"])
        res = coherent_model_of_localization(m, f, _int_field(cmd, "depth", 3, lo=1))
        out.update(ok=res.ok, note=res.note,
                   layer_indices=[_index_json(i) for i in res.layer_indices],
                   model={"torsion_dim": res.model.torsion_dim,
                          "free_rank": res.model.free_rank})
    elif op == "hasse":
        p = _int(cmd["p"], "hasse: p")
        cubic = [_int(c, "hasse: cubic coefficient") for c in cmd["cubic"]]
        try:
            h = hasse_invariant(p, cubic)
        except ValueError as exc:
            raise SchemaError(f"hasse: {exc}") from None
        ap = elliptic_ap(p, cubic)
        agree = (h != 0) == (ap % p != 0)
        out.update(ok=agree, hasse=h, a_p=ap, ordinary=ordinarity(p, cubic))
    elif op == "suite":
        out.update(run_suites(_int_field(cmd, "seed", seed),
                              _int_field(cmd, "count", 25, lo=0)))
    else:
        raise SchemaError(f"unknown command {op!r}")
    return out


def run_suites(seed: int, count: int) -> dict:
    """The invariant batteries on seeded corpora; every check is exact."""
    res = {"seed": seed, "count": count}
    corpus = artinian_corpus(seed, count)
    res["double_dual"] = sum(1 for m in corpus if double_dual_check(m)[0])
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
        m = random_f_module(rng, rng.choice([2, 3]), 2, 5, 4)
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
    failed = False
    for cmd in problem["commands"]:
        try:
            r = run_command(problem, cmd, args.seed)
        except SchemaError as exc:
            print(f"schema error: {exc}", file=sys.stderr)
            return 2
        except InvalidModule as exc:
            r = {"op": cmd.get("op"), "module": exc.name, "ok": False,
                 "unsupported": False, "violations": list(exc.violations)}
        except Exception as exc:
            r = {"op": cmd.get("op"), "ok": False, "unsupported": False,
                 "error": f"{type(exc).__name__}: {exc}"}
        results.append(r)
        if r.get("ok") is False:
            failed = True
        if r.get("unsupported") and args.strict:
            failed = True
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    field = problem["field"]
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "seed": args.seed,
        "field": {"p": field.p, "r": field.deg,
                  "polynomial": list(field.modulus)},
        "timing_ms": elapsed_ms if args.timing else 0,
        "results": results,
        "ok": not failed,
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    for r in results:
        status = ("UNSUPPORTED" if r.get("unsupported")
                  else {True: "ok", False: "FAIL", None: "-"}[r.get("ok")])
        extra = {k: v for k, v in r.items()
                 if k not in ("op", "ok", "unsupported", "witness")}
        print(f"{r['op']:<16} {status:<12} {json.dumps(extra, sort_keys=True)}")
    print(f"report: {'ok' if not failed else 'FAILED'}")
    return 1 if failed else 0


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
            m = random_cartier(rng, args.p, 2, args.ring_dim, args.dim)
            name = f"M{i}"
            doc["modules"][name] = _encode_structured(m)
            doc["commands"] += [{"op": "validate", "module": name},
                                {"op": "double-dual", "module": name},
                                {"op": "nilpotent", "module": name},
                                {"op": "unitalize", "module": name}]
    elif args.kind == "random-pid-torsion":
        for i in range(args.count):
            m = random_pid_torsion(rng, args.p, args.dim)
            name = f"T{i}"
            doc["modules"][name] = _encode_pid(m)
            doc["commands"] += [{"op": "validate", "module": name},
                                {"op": "local-duality", "module": name},
                                {"op": "dualize", "module": name}]
    elif args.kind == "elliptic-scan":
        del doc["modules"]
        for (a, b) in nonsingular_short_weierstrass(args.p):
            doc["commands"].append({"op": "hasse", "p": args.p,
                                    "cubic": [b, a, 0, 1]})
    else:
        print(f"unknown kind {args.kind!r}", file=sys.stderr)
        return 2
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
    if args.command == "run":
        return cmd_run(args)
    return cmd_generate(args)


if __name__ == "__main__":
    sys.exit(main())
