"""Regenerate the pinned problem files of every benchmark workload.

    python3 bench/make_inputs.py

Writes bench/inputs/<workload>/*.json (schema-1 `forge run` problem files)
and bench/inputs/manifest.json (the seed and make-up of each workload and
a SHA-256 digest of each file).  The benchmark itself only reads these
files and checks their digests, so a later change to the program's kernels
or to `cartierforge.generate` cannot silently change a workload; rerun this
script, and commit the new files and manifest, to change one on purpose.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from cartierforge import generate as gen  # noqa: E402
from cartierforge import matrix as mx  # noqa: E402
from cartierforge.artinian import ring_make  # noqa: E402
from cartierforge.field import GF  # noqa: E402

INPUTS = BENCH / "inputs"
CARTIER, FROBENIUS = "cartier", "frobenius"
ARTINIAN_OPS = [{"op": "validate"}, {"op": "nilpotent"}, {"op": "double-dual"},
                {"op": "base-change", "s": 2}, {"op": "unitalize"}]
PER_FILE = 5
EXT_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]
SEEDS = {"artinian-prime": 101, "pid-duality": 202, "extension-field": 303}


def _mat(m) -> list:
    return [[int(x) for x in row] for row in np.asarray(m)]


def _structured_doc(m) -> dict:
    return {"kind": m.kind,
            "ring": {"vars": list(m.ring.vars),
                     "relations": [list(r) for r in m.ring.relations]},
            "carrier": {"dim": m.dim,
                        "actions": [_mat(a) for a in m.module.actions]},
            "structure": _mat(m.mat)}


def _random_ring(rng, p, r):
    base = gen.random_artin_ring(rng, p, 2, 6)
    return ring_make(GF(p, r), base.vars, base.relations)


def _random_structured(rng, p, r, kind, max_dim=5):
    mod = gen.random_module(rng, _random_ring(rng, p, r), max_dim)
    return gen.random_structure(rng, mod, kind)


def _random_torsion(rng, F, kind, max_dim):
    """x-torsion module over GF(q)[x] with a random valid structure: a
    random nilpotent x-action and a random equivariant structure matrix."""
    d = rng.randrange(1, max_dim + 1)
    x_act = gen.random_nilpotent(rng, F, d)
    level, acc = 1, x_act
    while acc.any():
        level, acc = level + 1, mx.mmul(F, x_act, acc)
    probe = gen.fin_module(ring_make(F, ["x"], [[level]]), [x_act])
    ker = gen.equivariant_solutions(probe, kind)
    v = np.zeros(d * d, dtype=np.int64)
    for k in range(ker.shape[1]):
        c = rng.randrange(F.order)
        if c:
            v = F.add(v, F.mul(np.int64(c), ker[:, k]))
    return {"x_action": _mat(x_act), "structure": _mat(mx.unvec(v, d, d))}


def _random_multipliers(rng, F, rank):
    """Diagonal multipliers u of degree <= 3; about one in four is zero."""
    out = []
    for _ in range(rank):
        if rng.random() < 0.25:
            out.append([])
        else:
            deg = rng.randrange(0, 4)
            coeffs = [rng.randrange(F.order) for _ in range(deg)]
            out.append(coeffs + [rng.randrange(1, F.order)])
    return out


def _files(prefix, field, entries):
    """Split (name, module doc, commands) entries into problem files."""
    out = {}
    for start in range(0, len(entries), PER_FILE):
        chunk = entries[start:start + PER_FILE]
        doc = {"schema": 1, "field": {"p": field[0], "r": field[1]},
               "modules": {name: mdoc for name, mdoc, _ in chunk},
               "commands": [cmd for _, _, cmds in chunk for cmd in cmds]}
        out[f"{prefix}_{start // PER_FILE:02d}.json"] = doc
    return out


def _module_cmds(name, ops):
    return [dict(op, module=name) for op in ops]


def artinian_prime(seed):
    rng = random.Random(seed)
    files = {}
    for p, count in ((2, 60), (3, 60)):
        entries = []
        for i in range(count):
            m = _random_structured(rng, p, 1, CARTIER)
            name = f"C{i}"
            entries.append((name, _structured_doc(m), _module_cmds(name, ARTINIAN_OPS)))
        files.update(_files(f"gf{p}", (p, 1), entries))
    return files


def pid_duality(seed):
    rng = random.Random(seed)
    files = {}
    for p in (2, 3):
        F = GF(p)
        entries = []
        shapes = ([("torsion", CARTIER)] * 40 + [("torsion", FROBENIUS)] * 10
                  + [("free", CARTIER)] * 12 + [("mixed", CARTIER)] * 12)
        for i, (shape, kind) in enumerate(shapes):
            doc = {"tier": "pid", "kind": kind}
            if shape != "free":
                doc["torsion"] = _random_torsion(rng, F, kind, 5)
            if shape != "torsion":
                doc["free"] = _random_multipliers(rng, F, rng.randrange(1, 3))
            name = f"P{i}"
            cmds = [{"op": "local-duality", "module": name},
                    {"op": "dualize", "module": name}]
            cmds += [{"op": "perverse", "module": name, "degree": d} for d in (-1, 0, 1)]
            entries.append((name, doc, cmds))
        files.update(_files(f"gf{p}", (p, 1), entries))
    return files


def extension_field(seed):
    rng = random.Random(seed)
    files = {}
    for p, r in EXT_FIELDS:
        F = GF(p, r)
        entries = []
        for i in range(6):
            m = _random_structured(rng, p, r, CARTIER, 4)
            name = f"C{i}"
            entries.append((name, _structured_doc(m), _module_cmds(name, ARTINIAN_OPS)))
        for i in range(5):
            m = _random_structured(rng, p, r, FROBENIUS, 4)
            name = f"F{i}"
            entries.append((name, _structured_doc(m), _module_cmds(
                name, [{"op": "sol", "s": rng.choice([1, 2])},
                       {"op": "base-change", "s": 2}])))
        for i in range(4):
            name = f"T{i}"
            doc = {"tier": "pid", "kind": CARTIER,
                   "torsion": _random_torsion(rng, F, CARTIER, 3)}
            entries.append((name, doc, [{"op": "local-duality", "module": name}]))
        files.update(_files(f"gf{p}_{r}", (p, r), entries))
    return files


MAKERS = {"artinian-prime": artinian_prime, "pid-duality": pid_duality,
            "extension-field": extension_field}


def _makeup(files) -> dict:
    ops, kinds, fields = {}, {}, set()
    dims = []
    for doc in files.values():
        fields.add(doc["field"]["p"] ** doc["field"]["r"])
        for cmd in doc["commands"]:
            ops[cmd["op"]] = ops.get(cmd["op"], 0) + 1
        for mdoc in doc["modules"].values():
            key = f"{mdoc.get('tier', 'artinian')}-{mdoc['kind']}"
            if "torsion" in mdoc and "free" in mdoc:
                key += "-mixed"
            elif "free" in mdoc:
                key += "-free"
            kinds[key] = kinds.get(key, 0) + 1
            if "carrier" in mdoc:
                dims.append(mdoc["carrier"]["dim"])
            elif "torsion" in mdoc:
                dims.append(len(mdoc["torsion"]["x_action"]))
    return {"fields": sorted(fields), "modules": dict(sorted(kinds.items())),
            "commands": dict(sorted(ops.items())),
            "max_module_dim": max(dims), "files": len(files)}


def main() -> int:
    manifest = {}
    for name, build in MAKERS.items():
        files = build(SEEDS[name])
        wdir = INPUTS / name
        if wdir.exists():
            shutil.rmtree(wdir)
        wdir.mkdir(parents=True)
        digests = {}
        for fname, doc in sorted(files.items()):
            text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
            (wdir / fname).write_text(text)
            digests[fname] = hashlib.sha256(text.encode()).hexdigest()
        manifest[name] = {"seed": SEEDS[name], "makeup": _makeup(files),
                          "sha256": digests}
        print(f"{name}: {len(files)} files, {manifest[name]['makeup']}")
    (INPUTS / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
