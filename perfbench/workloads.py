"""Workload definitions, config generation and output checks.

A workload is a fixed list of CLI invocations on one generated config.
Every config field is written explicitly; the seed is the only input
that varies between runs, and the program sees it only through the
generated config file.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Every config field, written explicitly: the CLI's own defaults (for
# example modes=5) are never relied on.
BASE_CONFIG = {
    "alpha": 0.5,
    "T": 1.0,
    "n": 240,
    "grading": 2.0,
    "steps": 128,
    "modes": 10,
    "deltas": [0.2, 0.1, 0.05],
    "s_grid": [],
    "samples": 100,
}

# Number of points in the CLI's default s grid (s_grid: []).
DEFAULT_S_POINTS = 20

# Random fields the carleman experiment adds to its mode fields.
CARLEMAN_RANDOM_FIELDS = 5

# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    "square-n240": {
        "config": {"domain": "square", "n": 240},
        "experiments": ["spectrum", "hardy", "evolve", "observability", "delta-sweep"],
    },
    "square-carleman": {
        "config": {"domain": "square", "n": 60},
        "experiments": ["carleman"],
    },
    "interval-report": {
        "config": {"domain": "interval", "n": 240},
        "experiments": ["full-report"],
    },
}


def _expected_rows(experiment, cfg, summary_values):
    """Tables one experiment writes: name -> expected data-row count."""
    s_points = len(cfg["s_grid"]) or DEFAULT_S_POINTS
    rows = {
        "spectrum": {"eigenvalues": cfg["modes"]},
        "hardy": {"hardy": min(cfg["modes"], 10) + cfg["samples"]},
        "evolve": {"energy": cfg["steps"] + 1},
        "observability": {"observability": summary_values.get("subspace_dim")},
        "delta-sweep": {"delta_sweep": len(cfg["deltas"])},
        "carleman": {
            "carleman_budgets": (cfg["modes"] + CARLEMAN_RANDOM_FIELDS) * s_points,
            "carleman_fit": 1,
        },
    }
    return rows[experiment]


def sub_experiments(experiment):
    if experiment == "full-report":
        return ["spectrum", "hardy", "evolve", "delta-sweep", "carleman", "observability"]
    return [experiment]


def make_config(workload, seed):
    """The config file contents for one workload and seed."""
    spec = WORKLOADS[workload]
    cfg = dict(BASE_CONFIG)
    cfg.update(spec["config"])
    cfg["seed"] = int(seed)
    cfg["out"] = "results"
    return cfg


# Seed-independent outputs compared against perfbench/reference.json.
# c_obs and the observability ratios are left out on purpose: planned
# refactors of the flux Gram legitimately move them by up to 2%.
REL_TOL = 1e-6
# mode_error sits at roundoff (about 1e-21); a relative tolerance on it
# is meaningless, so it is compared with this absolute floor instead.
ABS_TOL = {"evolve.mode_error": 1e-12}


def read_table(path):
    """Data rows of a CLI CSV (context line and header skipped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


def pinned_values(experiment, out_dir, cfg, summary):
    """Seed-independent values of one invocation's outputs, by name."""
    out = Path(out_dir)
    values = summary.get("values", {})
    pinned = {}
    for sub in sub_experiments(experiment):
        if sub == "spectrum":
            rows = read_table(out / "eigenvalues.csv")
            pinned["spectrum.lambda"] = [float(r["lambda"]) for r in rows]
        elif sub == "evolve":
            key = "evolve.mode_error" if experiment == "full-report" else "mode_error"
            pinned["evolve.mode_error"] = [float(values[key])]
        elif sub == "delta-sweep":
            rows = read_table(out / "delta_sweep.csv")
            for col in ("solution_error", "final_time_error", "flux_error"):
                pinned[f"delta_sweep.{col}"] = [float(r[col]) for r in rows]
        elif sub == "carleman":
            # only the eigenmode fields: the others are seeded random data
            rows = read_table(out / "carleman_budgets.csv")
            pinned["carleman.mode_field_log_needed_c"] = [
                float(r["log_needed_c"]) for r in rows if int(r["field"]) < cfg["modes"]]
    return pinned


def _close(value, ref, atol):
    if value == ref:
        return True
    if math.isnan(value) or math.isnan(ref) or math.isinf(value) or math.isinf(ref):
        return False
    return abs(value - ref) <= REL_TOL * abs(ref) + atol


def check_outputs(experiment, out_dir, cfg, exit_code, reference):
    """Problems found with one invocation; an empty list means it passed.

    reference maps pinned value names to recorded values; pass None to
    skip that comparison (used only while recording the reference).
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out = Path(out_dir)
    summary_path = out / f"{experiment}_summary.json"
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"summary unreadable: {exc}"]
    problems = []
    if summary.get("pass") is not True:
        failed = [k for k, v in summary.get("checks", {}).items() if v is not True]
        problems.append(f"summary pass is not true (failed checks: {failed})")
    values = summary.get("values", {})
    for sub in sub_experiments(experiment):
        sub_values = values if experiment != "full-report" else {
            k.split(".", 1)[1]: v for k, v in values.items() if k.startswith(sub + ".")}
        for table, want in _expected_rows(sub, cfg, sub_values).items():
            path = out / f"{table}.csv"
            if not path.is_file():
                problems.append(f"{table}.csv missing")
                continue
            got = len(read_table(path))
            if want is None or got != want:
                problems.append(f"{table}.csv has {got} rows, expected {want}")
    if problems or reference is None:
        return problems
    try:
        pinned = pinned_values(experiment, out, cfg, summary)
    except (OSError, KeyError, ValueError) as exc:
        return [f"pinned values unreadable: {exc}"]
    for name, ref in reference.items():
        got = pinned.get(name)
        if got is None or len(got) != len(ref):
            problems.append(f"{name}: expected {len(ref)} values, got "
                            f"{'none' if got is None else len(got)}")
            continue
        atol = ABS_TOL.get(name, 0.0)
        bad = [i for i, (g, r) in enumerate(zip(got, ref)) if not _close(g, r, atol)]
        if bad:
            i = bad[0]
            problems.append(f"{name}[{i}] = {got[i]!r}, reference {ref[i]!r} "
                            f"(rtol {REL_TOL}, atol {atol}; {len(bad)} off)")
    return problems
