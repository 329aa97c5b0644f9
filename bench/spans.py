"""Span tracing of contactmorse layers, installed from outside the program.

`install` replaces each traced function of the program by a wrapper at every
place it is bound: the defining module, every `from .x import f` copy in the
other contactmorse modules, and the class for methods.  A wrapped call
records one span (name, start, end, parent) in memory and, for some layers,
work counters read off its arguments and result.  `Tracer.dump` writes the
spans out once the run has ended; `layer_metrics` turns a dump into the
per-layer metrics, with self time = duration minus the direct children's.

Only the traced child process imports the program; the aggregation half of
this module needs nothing but the standard library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"names": self.names, "spans": self.spans, "counts": self.counts})
        )


# ---------------------------------------------------------------------------
# Work counters, read at the layer boundary
# ---------------------------------------------------------------------------


def _binder(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bound


def _rows(a) -> int:
    return 1 if a.ndim == 1 else int(a.shape[0])


def _count_eval_lift(counts, args, kwargs, result):
    # eval_lift(spec, z, t=0.0) runs tens of thousands of times per run, so
    # its argument is read without signature binding.
    z = args[1] if len(args) > 1 else kwargs["z"]
    counts["hamiltonian.eval_lift.rows"] += _rows(z)


def _make_counters(flow, fns):
    bind = {name: _binder(fn) for name, fn in fns.items()}

    def integrate_flow(counts, args, kwargs, result):
        a = bind["integrate_flow"](args, kwargs)
        span = a["t1"] - a["t0"]
        settings = a["settings"] or flow.IntegratorSettings()
        steps = settings.steps_for(span) if span else 0
        kind = "jac" if a["with_jacobian"] else "state"
        counts[f"flow.field_evals.{kind}"] += _rows(a["z0"]) * steps * 4

    def solve_midpoint(counts, args, kwargs, result):
        counts["genfun.solve_midpoint.rows"] += _rows(bind["solve_midpoint"](args, kwargs)["b"])

    def family_evaluate(counts, args, kwargs, result):
        counts["translated.ShiftedGenFunFamily.evaluate.rows"] += _rows(
            bind["evaluate"](args, kwargs)["x"]
        )

    def route(key, fn_name):
        def count(counts, args, kwargs, result):
            a = bind[fn_name](args, kwargs)
            counts[f"translated.{key}.starts"] += a["sphere_count"] * min(
                a["keep_per_seed"], a["t_count"]
            )
            counts[f"translated.{key}.converged"] += result.converged_raw

        return count

    def write_outputs(counts, args, kwargs, result):
        counts["report.bytes"] += sum(p.stat().st_size for p in result.values())

    return {
        "integrate_flow": integrate_flow,
        "solve_midpoint": solve_midpoint,
        "evaluate": family_evaluate,
        "direct_translated_points": route("direct", "direct_translated_points"),
        "find_critical_rays": route("genfun", "find_critical_rays"),
        "write_outputs": write_outputs,
    }


# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>" with a trailing "__post_init__" dropped, so a
# validating constructor is traced under its class name.
TARGETS = (
    ("hamiltonian", "eval_lift"),
    ("flow", "integrate_flow"),
    ("flow", "subdivide_c1_small"),
    ("genfun", "solve_midpoint"),
    ("genfun", "evaluate_stacked"),
    ("genfun", "rotation_family_matrices"),
    ("translated", "ShiftedGenFunFamily.evaluate"),
    ("translated", "direct_translated_points"),
    ("translated", "find_critical_rays"),
    ("translated", "build_phi_genfun"),
    ("translated", "index_data"),
    ("projective", "ProjectiveSpec.__post_init__"),
    ("projective", "antipodal_classes"),
    ("linsymp", "inertia"),
    ("config", "load_config"),
    ("report", "write_outputs"),
)


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding in the imported contactmorse modules."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and name.split(".")[0] == "contactmorse"]
    flow = importlib.import_module("contactmorse.flow")
    originals = {}
    for mod_name, attr in TARGETS:
        owner = importlib.import_module(f"contactmorse.{mod_name}")
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        originals[(mod_name, attr)] = (owner, fn_name, getattr(owner, fn_name))
    counters = _make_counters(flow, {fn_name: fn for _, fn_name, fn in originals.values()})
    for (mod_name, attr), (owner, fn_name, fn) in originals.items():
        span_name = f"{mod_name}.{attr}".removesuffix(".__post_init__")
        count = _count_eval_lift if fn_name == "eval_lift" else counters.get(fn_name)
        traced = tracer.wrap(span_name, fn, count)
        setattr(owner, fn_name, traced)
        if owner is not sys.modules[f"contactmorse.{mod_name}"]:
            continue  # a method: the class is its only binding
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name."""
    names = dump["names"]
    spans = dump["spans"]
    counts = dump["counts"]
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    leaf_integrations = 0
    for nid, start, end, parent in spans:
        name = names[nid]
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            pname = names[spans[parent][0]]
            child[pname] += end - start
            if name == "flow.integrate_flow" and pname == "genfun.solve_midpoint":
                leaf_integrations += 1
    self_s = {name: total[name] - child[name] for name in total}

    m: dict[str, float] = {}
    rows = counts.get("hamiltonian.eval_lift.rows", 0.0)
    m["hamiltonian.eval_lift.calls"] = calls["hamiltonian.eval_lift"]
    m["hamiltonian.eval_lift.rows"] = rows
    m["hamiltonian.eval_lift.self_s"] = self_s.get("hamiltonian.eval_lift", 0.0)
    m["hamiltonian.eval_lift.ns_per_row"] = 1e9 * _ratio(m["hamiltonian.eval_lift.self_s"], rows)
    m["flow.integrate_flow.calls"] = calls["flow.integrate_flow"]
    m["flow.integrate_flow.self_s"] = self_s.get("flow.integrate_flow", 0.0)
    m["flow.field_evals.jac"] = counts.get("flow.field_evals.jac", 0.0)
    m["flow.field_evals.state"] = counts.get("flow.field_evals.state", 0.0)
    m["flow.subdivide_c1_small.s"] = total["flow.subdivide_c1_small"]
    m["genfun.solve_midpoint.calls"] = calls["genfun.solve_midpoint"]
    m["genfun.solve_midpoint.rows"] = counts.get("genfun.solve_midpoint.rows", 0.0)
    m["genfun.solve_midpoint.integrations"] = leaf_integrations
    m["genfun.solve_midpoint.self_s"] = self_s.get("genfun.solve_midpoint", 0.0)
    m["genfun.evaluate_stacked.s"] = total["genfun.evaluate_stacked"]
    m["genfun.rotation_family_matrices.s"] = total["genfun.rotation_family_matrices"]
    outer = calls["translated.ShiftedGenFunFamily.evaluate"]
    m["genfun.leaf_integrations_per_outer_iter"] = _ratio(leaf_integrations, outer)
    m["translated.ShiftedGenFunFamily.evaluate.calls"] = outer
    m["translated.ShiftedGenFunFamily.evaluate.rows"] = counts.get(
        "translated.ShiftedGenFunFamily.evaluate.rows", 0.0
    )
    m["translated.ShiftedGenFunFamily.evaluate.self_s"] = self_s.get(
        "translated.ShiftedGenFunFamily.evaluate", 0.0
    )
    for fn in ("direct_translated_points", "find_critical_rays", "build_phi_genfun",
               "index_data"):
        m[f"translated.{fn}.s"] = total[f"translated.{fn}"]
    for key in ("direct", "genfun"):
        m[f"translated.{key}.converged_per_start"] = _ratio(
            counts.get(f"translated.{key}.converged", 0.0),
            counts.get(f"translated.{key}.starts", 0.0),
        )
    m["projective.ProjectiveSpec.s"] = total["projective.ProjectiveSpec"]
    m["projective.antipodal_classes.s"] = total["projective.antipodal_classes"]
    m["linsymp.inertia.s"] = total["linsymp.inertia"]
    m["config.load_config.s"] = total["config.load_config"]
    m["report.write_outputs.s"] = total["report.write_outputs"]
    m["report.bytes"] = counts.get("report.bytes", 0.0)
    return m
