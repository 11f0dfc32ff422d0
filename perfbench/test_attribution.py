"""Checks that the layer tracer attributes work correctly, on tiny configs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_attribution.py
"""

import inspect
import json
import sys

import run
import tracer

TINY = {"domain": "interval", "alpha": 0.5, "T": 1.0, "n": 40, "grading": 2.0,
        "steps": 8, "modes": 3, "deltas": [0.2, 0.1, 0.05], "s_grid": [],
        "samples": 4, "seed": 3, "out": "results"}
# Self times must add up to the wall time measured around the invocations;
# the difference is the cost of entering and leaving the outermost span.
SUM_RTOL, SUM_ATOL = 0.02, 0.005


def run_plan(tmp_path, experiments, trace):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    plan = [{"argv": run.cli_argv(e, config, tmp_path / e)[2:], "out": str(tmp_path / e)}
            for e in experiments]
    return tracer.run_plan(plan, trace)


def wrapped_functions():
    return [f"{name}.{attr}" for name, module in list(sys.modules.items())
            if name.startswith("degenlab")
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__.startswith("degenlab")
            and hasattr(value, "__wrapped__")]


def test_delta_sweep_sees_every_nested_solve(tmp_path):
    record = run_plan(tmp_path, ["delta-sweep"], trace=True)
    assert [inv["exit"] for inv in record["invocations"]] == [0]
    spans = record["spans"]
    solves = [s for s in spans if s["layer"] == "evolution" and s["name"] == "solve_implicit"]
    # reference, coarse reference and one truncated solve per delta
    assert len(solves) == 2 + len(TINY["deltas"]) == 5
    assert all(spans[s["parent"]]["layer"] == "shape_design" for s in solves)
    metrics = tracer.layer_metrics(spans, record["invocations"])
    assert metrics["evolution.implicit_steps"] == 5 * TINY["steps"]


def test_self_times_are_non_negative_and_sum_to_traced_wall(tmp_path):
    record = run_plan(tmp_path, ["full-report"], trace=True)
    assert [inv["exit"] for inv in record["invocations"]] == [0]
    self_s = tracer.self_times(record["spans"])
    assert min(self_s) >= 0.0
    wall = sum(inv["wall_s"] for inv in record["invocations"])
    assert abs(sum(self_s) - wall) <= SUM_RTOL * wall + SUM_ATOL
    metrics = tracer.layer_metrics(record["spans"], record["invocations"])
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert abs(layer_sum + metrics["trace.self_s"] - sum(self_s)) <= 1e-9
    assert not wrapped_functions()


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    record = run_plan(tmp_path, ["spectrum"], trace=False)
    assert [inv["exit"] for inv in record["invocations"]] == [0]
    assert record["spans"] == []
    assert not wrapped_functions()
    # the end-to-end passes start the CLI module itself, never the tracer
    assert run.cli_argv("spectrum", "c.json", "out")[:2] == ["-m", "degenlab.cli"]
