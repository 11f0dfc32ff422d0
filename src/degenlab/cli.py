"""Batch experiment driver.

``degen-lab <experiment> --config <path> [--out <dir>] [--jobs <k>]``

reads a YAML/JSON config, runs the requested pipeline and writes one CSV
per result table plus a JSON summary of all check outcomes.  Exit codes:
0 all checks pass, 1 a check failed, 2 invalid config (or a parameter,
contract or precondition error), 3 numerical failure inside a module
(any other exception is a defect and propagates).
Outputs are byte-identical across reruns with the same config and seed:
floats are printed with 17 significant digits and random vectors come
from the documented linear congruential generator.  Experiments run in
sequence; ``--jobs`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import carleman as carle
from . import observability as obs
from .discretize import assemble, build_mesh, hardy_check, poincare_check
from .errors import (ContractError, ConventionError, DegenerateObservationError,
                     EigensolverError, ParameterError, PreconditionError)
from .evolution import (TimeGrid, energy_history, form_of_difference, solve_implicit,
                        solve_spectral, time_reverse)
from .geometry import make_domain, truncate
from .rng import Lcg, random_admissible
from .shape_design import delta_sweep
from .spectral import compute_spectrum, expand

EXPERIMENTS = ("spectrum", "evolve", "hardy", "delta-sweep", "carleman",
               "observability", "full-report")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    domain: str = "interval"
    alpha: float = 0.5
    T: float = 1.0
    n: int = 240
    grading: float = 2.0
    steps: int = 128
    modes: int = 5
    deltas: tuple = (0.2, 0.1, 0.05)
    s_grid: tuple = field(default_factory=tuple)
    samples: int = 100
    seed: int = 1
    out: str = "results"

    def __post_init__(self):
        def fail(name, msg):
            raise ConfigError(f"config field '{name}': {msg}")

        if self.experiment not in EXPERIMENTS:
            fail("experiment", f"must be one of {EXPERIMENTS}")
        if self.domain not in ("interval", "square"):
            fail("domain", "must be 'interval' or 'square'")
        if not (0.0 < self.alpha < 1.0):
            fail("alpha", "must lie strictly inside (0, 1)")
        if self.T <= 0.0:
            fail("T", "must be positive")
        if self.n < 4:
            fail("n", "must be at least 4")
        if self.grading < 1.0:
            fail("grading", "must be >= 1")
        if self.steps < 8:
            fail("steps", "must be at least 8")
        if self.modes < 1:
            fail("modes", "must be at least 1")
        if not self.deltas or any(d2 >= d1 for d1, d2 in zip(self.deltas, self.deltas[1:])):
            fail("deltas", "must be non-empty and strictly descending")
        if any(not (0.0 < d < 0.25) for d in self.deltas):
            fail("deltas", "entries must lie in (0, 0.25)")
        if self.s_grid and (self.s_grid[0] < 1.0
                            or any(b <= a for a, b in zip(self.s_grid, self.s_grid[1:]))):
            fail("s_grid", "must be ascending and start at or above 1")
        if self.samples < 1:
            fail("samples", "must be at least 1")
        if self.seed < 0:
            fail("seed", "must be non-negative")

    @property
    def s_values(self):
        if self.s_grid:
            return tuple(float(s) for s in self.s_grid)
        return tuple(np.geomspace(1.0, 200.0, 20))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    if _is_int(value):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the double range
            return False
    return isinstance(value, float) and bool(np.isfinite(value))


# the type check of a raw config value, by its ExperimentConfig annotation
_TYPE_CHECKS = {
    int: (_is_int, "must be an integer"),
    float: (_is_real, "must be a finite real number"),
    tuple: (lambda v: isinstance(v, list) and all(_is_real(x) for x in v),
            "must be a list of finite real numbers"),
    str: (lambda v: isinstance(v, str), "must be a string"),
}
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _check_types(raw):
    """Reject values of the wrong type before any range check sees them."""
    for key, value in raw.items():
        ok, msg = _TYPE_CHECKS[_FIELD_TYPES[key]]
        if not ok(value):
            raise ConfigError(f"config field '{key}': {msg}, got {value!r}")


def load_config(path, experiment=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is not valid YAML/JSON: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    unknown = set(raw) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown, key=str)}")
    if experiment is not None:
        raw["experiment"] = experiment
    if "experiment" not in raw:
        raise ConfigError("config field 'experiment': missing")
    _check_types(raw)
    for key, value in raw.items():
        if _FIELD_TYPES[key] is tuple:
            raw[key] = tuple(float(v) for v in value)
    return ExperimentConfig(**raw)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _context_line(cfg: ExperimentConfig, delta="", s="") -> str:
    dstr = delta if delta != "" else ";".join(_fmt(d) for d in cfg.deltas)
    return (f"# alpha={_fmt(cfg.alpha)},T={_fmt(cfg.T)},n={cfg.n},"
            f"g={_fmt(cfg.grading)},delta={dstr},s={s},K={cfg.modes}")


def _write_csv(path, context, columns, rows):
    lines = [context, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass
class Outcome:
    tables: dict  # name -> (context, columns, rows)
    checks: dict  # name -> bool
    values: dict


def _bump_factory(lo, hi):
    span = hi - lo

    def bump(points):
        x = np.atleast_2d(points)[:, -1]
        out = np.zeros_like(x)
        m = (x > lo) & (x < hi)
        t = (x[m] - lo) / span
        out[m] = np.exp(-1.0 / (t * (1.0 - t)))
        return out

    return bump


def _problem_memo():
    """Memoised builder of (mesh, ops, spectrum) with cfg.modes modes, for
    the full domain of a config (graded mesh) or, given delta, for its slab
    truncated at delta (uniform mesh).  One memo serves one run, so the
    experiments of a full report assemble and eigensolve each domain once."""
    built = {}

    def problem(cfg: ExperimentConfig, delta=None):
        key = (cfg.domain, cfg.alpha, cfg.n, cfg.grading, cfg.modes, delta)
        if key not in built:
            domain = make_domain(cfg.domain, cfg.alpha)
            if delta is None:
                mesh = build_mesh(domain, cfg.n, cfg.grading)
            else:
                mesh = build_mesh(truncate(domain, delta), cfg.n)
            ops = assemble(mesh)
            built[key] = (mesh, ops, compute_spectrum(ops, cfg.modes))
        return built[key]

    return problem


def run_spectrum(cfg: ExperimentConfig, problem) -> Outcome:
    _, ops, spec = problem(cfg)
    phi = spec.modes[ops.interior]
    gram_m = phi.T @ (ops.M @ phi)
    gram_k = phi.T @ (ops.K @ phi)
    mass_resid = float(np.max(np.abs(gram_m - np.eye(cfg.modes))))
    stiff_resid = float(np.max(np.abs(gram_k - np.diag(spec.eigenvalues))
                               / np.maximum(spec.eigenvalues, 1.0)))
    rows = [(k + 1, spec.eigenvalues[k]) for k in range(cfg.modes)]
    return Outcome(
        tables={"eigenvalues": (_context_line(cfg), ("mode", "lambda"), rows)},
        checks={
            "lambda1_positive": bool(spec.eigenvalues[0] > 0.0),
            "mass_orthonormal": mass_resid <= 1e-10,
            "stiffness_orthogonal": stiff_resid <= 1e-8,
        },
        values={"mass_residual": mass_resid, "stiffness_residual": stiff_resid},
    )


def run_hardy(cfg: ExperimentConfig, problem) -> Outcome:
    mesh, ops, spec = problem(cfg)
    n_eigs = min(cfg.modes, 10)
    rng = Lcg(cfg.seed)
    rows = []
    all_hold = True
    poincare_max = 0.0
    for k in range(n_eigs):
        res = hardy_check(ops, spec.modes[:, k])
        poincare_max = max(poincare_max, poincare_check(ops, spec.modes[:, k])["ratio"])
        rows.append(("eigenvector", k + 1, res["ratio"], res["bound"], res["holds"]))
        all_hold &= res["holds"]
    for i in range(cfg.samples):
        u = random_admissible(mesh, rng)
        res = hardy_check(ops, u)
        rows.append(("random", i + 1, res["ratio"], res["bound"], res["holds"]))
        all_hold &= res["holds"]
    lam1 = float(spec.eigenvalues[0])
    poincare_gap = abs(poincare_max - 1.0 / lam1) * lam1
    return Outcome(
        tables={"hardy": (_context_line(cfg), ("kind", "index", "ratio", "bound", "holds"), rows)},
        checks={"hardy_all_hold": bool(all_hold),
                "poincare_sharp": poincare_gap <= 1e-8},
        values={"bound": 4.0 / (1.0 - cfg.alpha) ** 2,
                "poincare_max_ratio": poincare_max, "lambda1": lam1},
    )


def run_evolve(cfg: ExperimentConfig, problem) -> Outcome:
    _, ops, spec = problem(cfg)
    grid = TimeGrid(cfg.T, cfg.steps)
    y0 = spec.mode(1)
    fs = solve_spectral(spec, y0, None, grid)
    fi = solve_implicit(ops, y0, None, grid, theta=1.0)
    e_s = energy_history(fs, ops)
    e_i = energy_history(fi, ops)
    lam1 = spec.eigenvalues[0]
    # the spectral field stays in coefficient space: only its last row and
    # one block of rows at a time are built as nodal values
    mode_err = float(np.max(np.abs(expand(spec, fs.rows(-1))[0]
                                   - np.exp(-lam1 * cfg.T))))
    gap = float(np.max(np.sqrt(form_of_difference(ops.M_full, fs.rows, fi.values))))
    rows = [(grid.nodes[j], e_s[j], e_i[j]) for j in range(cfg.steps + 1)]
    return Outcome(
        tables={"energy": (_context_line(cfg), ("t", "l2_spectral", "l2_implicit"), rows)},
        checks={
            "spectral_mode_exact": mode_err <= 1e-10,
            "energy_monotone": bool(np.all(np.diff(e_s) <= 1e-12)
                                    and np.all(np.diff(e_i) <= 1e-12)),
        },
        values={"mode_error": mode_err, "solver_gap": gap},
    )


def run_delta_sweep(cfg: ExperimentConfig, problem) -> Outcome:
    domain = make_domain(cfg.domain, cfg.alpha)
    grid = TimeGrid(cfg.T, cfg.steps)
    y0 = _bump_factory(0.45, 0.95)
    report = delta_sweep(domain, y0, None, grid, cfg.deltas, n_ref=cfg.n)
    rows = []
    for i, d in enumerate(report.deltas):
        rate = report.solution_rates[i - 1] if i > 0 else float("nan")
        rows.append((d, report.solution_errors[i], report.final_time_errors[i],
                     report.flux_errors[i], rate))
    decreasing = all(a > b for a, b in zip(report.solution_errors,
                                           report.solution_errors[1:]))
    flux_dec = all(a > b for a, b in zip(report.flux_errors, report.flux_errors[1:]))
    return Outcome(
        tables={"delta_sweep": (_context_line(cfg),
                                ("delta", "solution_error", "final_time_error",
                                 "flux_error", "rate"), rows)},
        checks={"solution_errors_decreasing": decreasing,
                "flux_errors_decreasing": flux_dec},
        values={"reference_self_error": report.reference_self_error,
                "reference": report.reference},
    )


def run_carleman(cfg: ExperimentConfig, problem) -> Outcome:
    delta = cfg.deltas[0]
    tmesh, tops, spec = problem(cfg, delta)
    grid = TimeGrid(cfg.T, cfg.steps)
    rng = Lcg(cfg.seed)

    def make_field(y0):
        return time_reverse(solve_spectral(spec, y0, None, grid))

    data = [spec.modes[:, k] for k in range(cfg.modes)]
    data += [random_admissible(tmesh, rng) for _ in range(5)]
    template = carle.CarlemanWeights(alpha=cfg.alpha, T=cfg.T, s=1.0)
    # streamed: the fields are never all held at once
    fit = carle.find_s0((make_field(y0) for y0 in data), template, tops, cfg.s_values)
    rows = []
    for i, per_s in enumerate(fit.log_needed_c):
        for j, s in enumerate(fit.s_grid):
            rows.append((i, s, per_s[j]))
    fit_rows = [(fit.found, fit.s0 if fit.found else float("nan"),
                 fit.c_boundary if fit.found else float("nan"))]
    holds_beyond = True
    if fit.found:
        c = fit.c_boundary
        w0 = replace(template, s=fit.s0)
        b51 = carle.check_inequality(make_field(data[0]), w0, tops, "eq51",
                                     c_boundary=max(c, 1.0))
        holds_beyond = b51.holds
    context = _context_line(
        cfg, delta=_fmt(delta),
        s=f"{_fmt(cfg.s_values[0])}..{_fmt(cfg.s_values[-1])}")
    return Outcome(
        tables={
            "carleman_budgets": (context, ("field", "s", "log_needed_c"), rows),
            "carleman_fit": (context, ("found", "s0", "c_boundary"), fit_rows),
        },
        checks={"s0_found": fit.found, "eq51_holds": bool(holds_beyond)},
        values={"s0": fit.s0, "c_boundary": fit.c_boundary},
    )


def run_observability(cfg: ExperimentConfig, problem) -> Outcome:
    mesh, ops, spec = problem(cfg)
    grid = TimeGrid(cfg.T, cfg.steps)
    report = obs.estimate_constant(grid, ops, spec, cfg.modes)
    rows = [(m + 1, report.ratios[m]) for m in range(report.subspace_dim)]
    rng = Lcg(cfg.seed)
    window_ok = True
    for _ in range(20):
        y0 = random_admissible(mesh, rng)
        back = time_reverse(solve_spectral(spec, y0, None, grid))
        window_ok &= obs.window_bound_check(back, ops)["holds"]
    rough = random_admissible(mesh, rng)
    rough_ratio = obs.observability_ratio(rough, grid, ops, spec)
    checks = {
        "c_obs_finite": (not report.singular) and report.c_obs is not None,
        "c_obs_dominates": (not report.singular)
        and all(report.c_obs >= r * (1.0 - 1e-9) for r in report.ratios),
        "window_bound": bool(window_ok),
    }
    return Outcome(
        tables={"observability": (_context_line(cfg),
                                  ("mode", "ratio"), rows)},
        checks=checks,
        values={"c_obs": report.c_obs, "subspace_dim": report.subspace_dim,
                "rough_data_ratio": rough_ratio, "singular": report.singular},
    )


# every experiment but full-report, in EXPERIMENTS order
_RUNNERS = {
    "spectrum": run_spectrum,
    "evolve": run_evolve,
    "hardy": run_hardy,
    "delta-sweep": run_delta_sweep,
    "carleman": run_carleman,
    "observability": run_observability,
}


def run(config: ExperimentConfig, out_dir=None) -> int:
    """Execute the configured experiment, or every experiment in turn for a
    full report; returns the process exit code."""
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    problem = _problem_memo()
    report = config.experiment == "full-report"
    checks, values = {}, {}
    for name in _RUNNERS if report else [config.experiment]:
        outcome = _RUNNERS[name](config, problem)
        _write_outcome(out, outcome)
        prefix = f"{name}." if report else ""
        checks.update({prefix + k: v for k, v in outcome.checks.items()})
        values.update({prefix + k: v for k, v in outcome.values.items()})
    _write_summary(out / f"{config.experiment}_summary.json", config, checks, values)
    return 0 if all(checks.values()) else 1


def _write_outcome(out, outcome: Outcome):
    for table, (context, columns, rows) in outcome.tables.items():
        _write_csv(out / f"{table}.csv", context, columns, rows)


def _write_summary(path, config: ExperimentConfig, checks, values):
    payload = {
        "experiment": config.experiment,
        "params": _plain({
            "domain": config.domain, "alpha": config.alpha, "T": config.T,
            "n": config.n, "grading": config.grading, "steps": config.steps,
            "modes": config.modes, "deltas": list(config.deltas),
            "seed": config.seed,
        }),
        "checks": _plain(checks),
        "values": _plain(values),
        "pass": bool(all(checks.values())),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="degen-lab",
        description="Batch experiments for the degenerate parabolic laboratory",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="YAML/JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="ignored; kept so that old command lines still run")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, experiment=args.experiment)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except (EigensolverError, DegenerateObservationError, ConventionError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
