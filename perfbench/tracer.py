"""Layer tracer for the degenlab CLI, installed from outside the package.

Run as a script, this executes a plan of CLI invocations in one process
by calling ``degenlab.cli.main``.  With ``--trace 1`` every public
module-level function of each layer is first wrapped in a span, and the
wrapper is bound in place of the original under every name that any
``degenlab`` module holds for it (``cli`` imports ``compute_spectrum``
and ``solve_implicit`` by name, ``shape_design`` does the same for
``evolution`` and ``discretize``), so nested calls are seen too.  With
``--trace 0`` nothing is wrapped; the same plan then measures the wall
time the tracing overhead is taken against.

    PYTHONPATH=src python3 perfbench/tracer.py --trace 1 --plan plan.json --result out.json

Spans are kept in memory and written once at the end.  Counts come from
call arguments and return values only.  The tracer keeps one span stack,
so it assumes the program runs single-threaded (``--jobs 1``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "geometry", "discretize", "spectral", "evolution",
          "shape_design", "carleman", "observability", "rng")
# Spans the tracer itself causes (counting after a call returns); their
# time is excluded from the layer that made the call.
TRACE_LAYER = "trace"


def _mesh_key(mesh):
    """Identity of a discretised problem: its domain and node coordinates."""
    digest = hashlib.sha1(repr(mesh.domain).encode())
    for axis in mesh.axes:
        digest.update(np.ascontiguousarray(axis).tobytes())
    return digest.hexdigest()


def _eig_residual(ops, spectrum):
    """max_k ||K phi_k - lambda_k M phi_k|| / (lambda_k ||M phi_k||)."""
    phi = spectrum.modes[ops.interior]
    lam = spectrum.eigenvalues
    m_phi = ops.M @ phi
    resid = ops.K @ phi - m_phi * lam
    return float(np.max(np.linalg.norm(resid, axis=0)
                        / (np.abs(lam) * np.linalg.norm(m_phi, axis=0))))


def _field_bytes(args, field):
    return {"field_bytes": int(field.values.nbytes)}


def _budget_counts(fields, s_points):
    node_evals = sum((f.grid.steps - 1) * f.mesh.n_nodes for f in fields) * s_points
    return {"fields": len(fields), "budget_evals": len(fields) * s_points,
            "node_evals": int(node_evals)}


# "<layer>.<function>" -> counts(bound arguments, return value)
COUNTERS = {
    "discretize.assemble": lambda a, r: {"problem": _mesh_key(a["mesh"])},
    "spectral.compute_spectrum": lambda a, r: {
        "problem": _mesh_key(a["ops"].mesh),
        "dofs": int(a["ops"].K.shape[0]),
        "eig_residual": _eig_residual(a["ops"], r),
    },
    "rng.random_admissible": lambda a, r: {"values": int(a["mesh"].interior.size)},
    "evolution.solve_implicit": lambda a, r: {"steps": int(a["grid"].steps),
                                              **_field_bytes(a, r)},
    "evolution.solve_spectral": _field_bytes,
    "evolution.time_reverse": _field_bytes,
    "carleman.find_s0": lambda a, r: _budget_counts(list(a["fields"]), len(r.s_grid)),
    "carleman.check_inequality": lambda a, r: _budget_counts([a["field"]], 1),
}


class Tracer:
    """Span recorder plus the function wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.invocation = 0
        self._stack = []
        self._patches = []

    def open(self, name, layer):
        span = {"id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "invocation": self.invocation, "name": name, "layer": layer,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer):
        counter = COUNTERS.get(f"{layer}.{fn.__name__}")
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(fn.__name__, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                note = self.open("count", TRACE_LAYER)
                try:
                    span["attrs"] = counter(signature.bind(*args, **kwargs).arguments, result)
                finally:
                    self.close(note)
            return result

        return traced

    def install(self):
        """Wrap every public function of every layer, under all its names."""
        for layer in LAYERS:
            importlib.import_module(f"degenlab.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "degenlab" or n.startswith("degenlab.")]
        for layer in LAYERS:
            module = sys.modules[f"degenlab.{layer}"]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(fn, layer)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, attr, wrapper)
                            self._patches.append((target, attr, fn))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


def self_times(spans):
    """Each span's duration minus the time covered by its child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - c for span, c in zip(spans, child)]


def _reuse(calls):
    """Distinct problems per invocation, summed, over the number of calls."""
    if not calls:
        return 0.0
    distinct = {(s["invocation"], s["attrs"]["problem"]) for s in calls}
    return len(distinct) / len(calls)


def layer_metrics(spans, invocations):
    """Per-layer metrics of one traced pass (see perfbench/baseline.json)."""
    own = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        own[span["layer"]] += self_s

    def calls(layer, name):
        return [s for s in spans if s["layer"] == layer and s["name"] == name]

    def inclusive_s(layer, name):
        return sum(s["end"] - s["start"] for s in calls(layer, name))

    def total(found, key):
        return sum(s["attrs"][key] for s in found)

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    metrics = {f"{layer}.self_s": own[layer] for layer in LAYERS}
    spectra = calls("spectral", "compute_spectrum")
    metrics.update({
        "spectral.compute_spectrum_calls": len(spectra),
        "spectral.dofs": total(spectra, "dofs"),
        "spectral.eig_residual_max": max((s["attrs"]["eig_residual"] for s in spectra),
                                         default=0.0),
        "spectral.spectrum_reuse": _reuse(spectra),
        "discretize.assemble_reuse": _reuse(calls("discretize", "assemble")),
        "discretize.boundary_flux_calls": len(calls("discretize", "boundary_flux")),
        "discretize.hardy_check_s": inclusive_s("discretize", "hardy_check"),
    })
    drawn = total(calls("rng", "random_admissible"), "values")
    metrics.update({"rng.values_drawn": drawn,
                    "rng.values_per_s": rate(drawn, own["rng"])})
    fields = [s for s in spans if s["layer"] == "evolution" and "field_bytes" in s["attrs"]]
    metrics.update({
        f"evolution.{name}_s": inclusive_s("evolution", name)
        for name in ("solve_implicit", "solve_spectral", "time_reverse",
                     "energy_history", "flux_history")})
    metrics.update({
        "evolution.implicit_steps": total(calls("evolution", "solve_implicit"), "steps"),
        "evolution.field_mb": total(fields, "field_bytes") / 1e6,
        "observability.estimate_constant_s": inclusive_s("observability", "estimate_constant"),
        "observability.window_bound_check_s": inclusive_s("observability", "window_bound_check"),
    })
    budgets = calls("carleman", "find_s0") + calls("carleman", "check_inequality")
    metrics.update({
        "carleman.fields": total(budgets, "fields"),
        "carleman.budget_evals": total(budgets, "budget_evals"),
        "carleman.node_evals_per_s": rate(total(budgets, "node_evals"), own["carleman"]),
        "cli.output_bytes": sum(inv["output_bytes"] for inv in invocations),
        "trace.wall_s": sum(inv["wall_s"] for inv in invocations),
        "trace.self_s": own[TRACE_LAYER],
    })
    return metrics


def run_plan(plan, trace):
    """Run the planned invocations in this process; returns the record."""
    from degenlab import cli

    tracer = Tracer()
    if trace:
        tracer.install()
    invocations = []
    try:
        for index, item in enumerate(plan):
            tracer.invocation = index
            start = time.perf_counter()
            code = cli.main(item["argv"])
            wall = time.perf_counter() - start
            out = Path(item["out"])
            size = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
            invocations.append({"argv": item["argv"], "exit": code, "wall_s": wall,
                                "output_bytes": size})
    finally:
        tracer.uninstall()
    return {"trace": bool(trace), "invocations": invocations, "spans": tracer.spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--plan", required=True,
                        help='JSON list of {"argv": [...], "out": dir} invocations')
    parser.add_argument("--result", required=True, help="where to write the record")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    record = run_plan(plan, args.trace)
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
