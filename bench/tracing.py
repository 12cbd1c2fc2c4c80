"""Per-layer tracing of `cartierforge`, installed from outside the program.

`Tracer.install` wraps every public function of each layer module, at
every name it is bound to: in its own module, in each package module that
imported it by name, and as the `FiniteField` and `FinModule` methods.  A
wrapper records one span (name, parent, command, start, end) and keeps
per-function counters.  A span's self time is its duration minus the whole
time of the wrappers called inside it, from wrapper entry to wrapper exit,
so the tracer's own work (hooks, bookkeeping) is charged to no layer.
Spans of the first traced pass stay in memory until `write_spans` saves
them when the run ends; the counters cover every traced pass.

Layer counters count the calls that enter a layer from another layer (or
from the benchmark), so `field.calls` is the number of field operations
the upper layers asked for, not the field's own internal calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "cartierforge"
LAYERS = ("field", "matrix", "artinian", "structures", "duality", "complexes",
          "pid", "twisted", "cli")
CLASS_METHODS = {"field": "FiniteField", "artinian": "FinModule"}


def _public_functions(mod):
    """(name, function) for each public function defined in `mod`,
    including functools.lru_cache-wrapped ones."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
            yield name, obj


class Tracer:
    def __init__(self):
        self.stack = []                       # open frames: [layer, child_s, span_id]
        self.calls = defaultdict(int)         # qualified name -> calls
        self.self_s = defaultdict(float)      # qualified name -> self seconds
        self.layer_calls = defaultdict(int)   # layer -> calls entering it
        self.layer_self_s = defaultdict(float)
        self.notes = defaultdict(float)       # named extra counters
        self.active = defaultdict(int)        # open spans of a few functions
        self.matlis_x_actions = []            # (p, r, x_action) per matlis_dual
        self.seen_dualizing = set()
        self.passes = 0
        self.recording = False
        self.names = []
        self.cmd_id = -1
        self.span_parent = array("q")
        self.span_cmd = array("q")
        self.span_name = array("q")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._restore = []

    # -- installation --

    def install(self):
        mods = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for name, fn in _public_functions(mod):
                originals[id(fn)] = self._wrap(fn, layer, f"{layer}.{name}")
        for mname, mod in list(sys.modules.items()):
            if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None and wrapped[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[1])
        for layer, cls_name in CLASS_METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for name, fn in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                self._restore.append((cls, name, fn))
                setattr(cls, name, self._wrap(fn, layer, f"{layer}.{name}")[1])

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def new_pass(self):
        """Forget which dualizing-module keys were seen: each pass starts
        with empty program caches, like a fresh `forge run`."""
        self.seen_dualizing.clear()
        self.recording = self.passes == 0
        self.passes += 1

    def _wrap(self, fn, layer, qname):
        name_id = len(self.names)
        self.names.append(qname)
        pre, post = _HOOKS.get(qname, (None, None))
        stack, clock = self.stack, time.perf_counter
        calls, self_s = self.calls, self.self_s
        layer_calls, layer_self_s = self.layer_calls, self.layer_self_s
        sp_parent, sp_cmd, sp_name = self.span_parent, self.span_cmd, self.span_name
        sp_t0, sp_t1 = self.span_t0, self.span_t1
        tracer = self

        def wrapper(*args, **kwargs):
            entry = clock()
            if pre is not None:
                pre(tracer, args, kwargs)
            parent = stack[-1] if stack else None
            entering = parent is None or parent[0] != layer
            span_id = -1
            if tracer.recording:
                span_id = len(sp_t0)
                sp_t0.append(0.0)
                sp_t1.append(0.0)
                sp_parent.append(parent[2] if parent is not None else -1)
                sp_cmd.append(tracer.cmd_id)
                sp_name.append(name_id)
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                own = t1 - t0 - frame[1]
                calls[qname] += 1
                self_s[qname] += own
                layer_self_s[layer] += own
                if entering:
                    layer_calls[layer] += 1
                if span_id >= 0:
                    sp_t0[span_id] = t0
                    sp_t1[span_id] = t1
                if post is not None:
                    post(tracer, args, kwargs, result, entering)
                if parent is not None:
                    parent[1] += clock() - entry
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qname)
        return fn, wrapper

    def write_spans(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), parent=np.frombuffer(self.span_parent, dtype=np.int64),
            command=np.frombuffer(self.span_cmd, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start_s=np.frombuffer(self.span_t0), end_s=np.frombuffer(self.span_t1))

    # -- per-layer metrics --

    def metrics(self, passes: int, x_levels: list[int]) -> dict:
        """Every per-layer metric, per pass over the workload."""
        c, s, n = self.calls, self.self_s, self.notes

        def per(v):
            return v / passes

        def ms(v):
            return round(1000.0 * v / passes, 4)

        def ratio(a, b):
            return round(a / b, 6) if b else 0.0

        dual_calls = c["duality.dualizing_module"]
        out = {
            "field.calls": per(self.layer_calls["field"]),
            "field.elements": per(n["field.elements"]),
            "field.self_ms": ms(self.layer_self_s["field"]),
            "matrix.mmul.calls": per(c["matrix.mmul"]),
            "matrix.mmul.macs": per(n["matrix.mmul.macs"]),
            "matrix.mmul.self_ms": ms(s["matrix.mmul"]),
            "matrix.rref.calls": per(c["matrix.rref"]),
            "matrix.rref.cells": per(n["matrix.rref.cells"]),
            "matrix.rref.max_cells": n["matrix.rref.max_cells"],
            "matrix.rref.self_ms": ms(s["matrix.rref"]),
            "matrix.solve.calls": per(c["matrix.solve_full"]),
            "matrix.kernel.calls": per(c["matrix.kernel"]),
            "matrix.inverse.calls": per(c["matrix.inverse"]),
            "matrix.self_ms": ms(self.layer_self_s["matrix"]),
            "artinian.hom_module.calls": per(c["artinian.hom_module"]),
            "artinian.hom_module.self_ms": ms(s["artinian.hom_module"]),
            "artinian.f_flat.calls": per(c["artinian.f_flat"]),
            "artinian.f_flat.self_ms": ms(s["artinian.f_flat"]),
            "artinian.action_of.calls": per(c["artinian.action_of"]),
            "artinian.hom_coords.calls": per(c["artinian.hom_coords"]),
            "artinian.self_ms": ms(self.layer_self_s["artinian"]),
            "structures.unitalize.calls": per(c["structures.unitalize"]),
            "structures.unitalize.self_ms": ms(s["structures.unitalize"]),
            "structures.flat_cartier.calls": per(c["structures.flat_cartier"]),
            "structures.unitalize.stage_yield": ratio(
                n["unitalize.steps"], n["unitalize.flat_cartier"]),
            "structures.adjoint_structural.calls": per(c["structures.adjoint_structural"]),
            "structures.adjoint_structural.self_ms": ms(s["structures.adjoint_structural"]),
            "structures.validate.calls": per(c["structures.validate"]),
            "structures.nilpotency_index.calls": per(c["structures.nilpotency_index"]),
            "structures.self_ms": ms(self.layer_self_s["structures"]),
            "duality.dualizing_module.calls": per(dual_calls),
            "duality.dualizing_module.hit_ratio": ratio(n["dualizing.hits"], dual_calls),
            "duality.dualizing_module.self_ms": ms(s["duality.dualizing_module"]),
            "duality.pair_C_to_F.calls": per(c["duality.pair_C_to_F"]),
            "duality.pair_C_to_F.self_ms": ms(s["duality.pair_C_to_F"]),
            "duality.pair_F_to_C.calls": per(c["duality.pair_F_to_C"]),
            "duality.self_ms": ms(self.layer_self_s["duality"]),
            "complexes.matlis_dual.calls": per(c["complexes.matlis_dual"]),
            "complexes.matlis_dual.self_ms": ms(s["complexes.matlis_dual"]),
            "complexes.matlis_dual.level_ratio": ratio(
                n["matlis.levels"], sum(x_levels)),
            "complexes.self_ms": ms(self.layer_self_s["complexes"]),
            "pid.hull_twist.calls": per(c["pid.hull_twist"]),
            "pid.hull_twist.max_dim": n["pid.hull_twist.max_dim"],
            "pid.retruncate.calls": per(c["pid.retruncate"]),
            "pid.self_ms": ms(self.layer_self_s["pid"]),
            "twisted.semilinear_fixed_points.calls": per(c["twisted.semilinear_fixed_points"]),
            "twisted.self_ms": ms(self.layer_self_s["twisted"]),
            "cli.parse_problem.self_ms": ms(s["cli.parse_problem"]),
            "cli.run_command.self_ms": ms(s["cli.run_command"]),
            "cli.validations_per_command": ratio(
                n["cli.validations"], c["cli.run_command"]),
        }
        return out


UNITS = {"calls": "count", "elements": "count", "macs": "count", "cells": "count",
         "max_cells": "count", "max_dim": "count", "self_ms": "ms",
         "stage_yield": "ratio", "hit_ratio": "ratio", "level_ratio": "ratio",
         "validations_per_command": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


# -- hooks: (pre, post) callbacks for the functions whose arguments or
# results feed a metric.  They run outside the span's timed interval; post
# also runs when the call raises, with result None. --

def _field_post(t, args, kwargs, result, entering):
    if entering and result is not None:
        t.notes["field.elements"] += np.size(result)


def _mmul_pre(t, args, kwargs):
    a, b = np.shape(args[1]), np.shape(args[2])
    rows = a[0] if len(a) == 2 else 1
    cols = b[1] if len(b) == 2 else 1
    t.notes["matrix.mmul.macs"] += rows * a[-1] * cols


def _rref_pre(t, args, kwargs):
    shape = np.shape(args[1])
    cells = shape[0] * shape[1]
    t.notes["matrix.rref.cells"] += cells
    t.notes["matrix.rref.max_cells"] = max(t.notes["matrix.rref.max_cells"], cells)


def _enter(key):
    def pre(t, args, kwargs):
        t.active[key] += 1
    return pre


def _unitalize_post(t, args, kwargs, result, entering):
    t.active["unitalize"] -= 1
    if result is not None:
        t.notes["unitalize.steps"] += result.steps


def _flat_cartier_post(t, args, kwargs, result, entering):
    if t.active["unitalize"]:
        t.notes["unitalize.flat_cartier"] += 1


def _dualizing_pre(t, args, kwargs):
    power = args[1] if len(args) > 1 else kwargs.get("power", 1)
    key = (args[0].key(), power)
    if key in t.seen_dualizing:
        t.notes["dualizing.hits"] += 1
    t.seen_dualizing.add(key)


def _matlis_pre(t, args, kwargs):
    tors = args[0]
    field = tors.ring.field
    t.matlis_x_actions.append((field.p, field.deg, np.array(tors.module.actions[0])))
    t.active["matlis"] += 1


def _leave(key):
    def post(t, args, kwargs, result, entering):
        t.active[key] -= 1
    return post


def _retruncate_pre(t, args, kwargs):
    if t.active["matlis"]:
        t.notes["matlis.levels"] += args[1] if len(args) > 1 else kwargs["level"]


def _hull_twist_pre(t, args, kwargs):
    level = args[1] if len(args) > 1 else kwargs["level"]
    t.notes["pid.hull_twist.max_dim"] = max(t.notes["pid.hull_twist.max_dim"], level)


def _validate_pre(t, args, kwargs):
    if t.active["run_command"]:
        t.notes["cli.validations"] += 1


_FIELD_OPS = ("add", "neg", "sub", "mul", "inv", "div", "power", "frobenius",
              "digits", "from_digits")
_HOOKS = {f"field.{op}": (None, _field_post) for op in _FIELD_OPS}
_HOOKS.update({
    "matrix.mmul": (_mmul_pre, None),
    "matrix.rref": (_rref_pre, None),
    "structures.unitalize": (_enter("unitalize"), _unitalize_post),
    "structures.flat_cartier": (None, _flat_cartier_post),
    "structures.validate": (_validate_pre, None),
    "duality.dualizing_module": (_dualizing_pre, None),
    "complexes.matlis_dual": (_matlis_pre, _leave("matlis")),
    "pid.retruncate": (_retruncate_pre, None),
    "pid.hull_twist": (_hull_twist_pre, None),
    "cli.run_command": (_enter("run_command"), _leave("run_command")),
})
