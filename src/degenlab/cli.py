"""Batch experiment driver.

``degen-lab <experiment> --config <path> [--out <dir>] [--jobs <k>]``

reads a YAML/JSON config, runs the requested pipeline and writes one CSV
per result table plus a JSON summary of all check outcomes.  Exit codes:
0 all checks pass, 1 a check failed, 2 invalid config (or a parameter,
contract or precondition error, or an output directory that cannot be
made), 3 numerical failure inside a module (any other exception is a
defect and propagates).
Outputs are byte-identical across reruns with the same config, seed and
BLAS thread count: floats are printed with 17 significant digits and
random vectors come from the documented linear congruential generator.  Experiments run in
sequence; ``--jobs`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import carleman as carle
from . import observability as obs
from .discretize import (_check_size, _require_memory, assemble, build_mesh, hardy_check,
                         tensor_form)
from .errors import (ContractError, DegenerateObservationError, EigensolverError,
                     ParameterError, PreconditionError)
from .evolution import TimeGrid, energy_history, solve_spectral, theta_rows, time_reverse
from .geometry import MAX_DELTA, make_domain, truncate
from .rng import Lcg, random_admissible
from .shape_design import _check_sweep, delta_sweep
from .spectral import _check_eigensolve, compute_spectrum, expand

EXPERIMENTS = ("spectrum", "evolve", "hardy", "delta-sweep", "carleman",
               "observability", "full-report")


class ConfigError(ValueError):
    pass


class OutputError(OSError):
    """The output directory cannot be made."""


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
        if not self.alpha - 2.0 > -2.0:
            # the Hardy check's mass weight x_N**(alpha - 2) needs an exponent above -2
            fail("alpha", f"{self.alpha!r} is so small that alpha - 2 rounds to -2")
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
        if any(not (0.0 < d < MAX_DELTA) for d in self.deltas):
            fail("deltas", f"entries must lie in (0, {MAX_DELTA})")
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


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads numbers with an exponent as floats.

    YAML 1.1 makes a float of a plain scalar only with a dot and a signed
    exponent, so ``1e-1`` or ``2.5e3``, valid JSON numbers, would load as
    strings.  The resolver is added to this subclass alone; quoted
    scalars stay strings.
    """


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_config(path, experiment=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_ConfigLoader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is not valid YAML/JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
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
    if isinstance(value, (bool, np.bool_)):
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
    """Write the table one line at a time, so ``rows`` may be a generator."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(context + "\n" + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_value(value):
    """json.dumps's hook for what it cannot write: NumPy arrays and scalars
    as Python values (np.float64 is a float and never reaches it)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@dataclass
class Outcome:
    tables: dict  # name -> (context, columns, rows); rows are read once
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


def _problem_memo(cfg: ExperimentConfig):
    """Memoised builder of the spectrum with cfg.modes modes, for the full
    domain of the config (graded mesh) or, given delta, for its slab
    truncated at delta (uniform mesh); it carries its operator pair and
    mesh.  One memo serves one run of one config, so the experiments of a
    full report assemble and eigensolve each domain once."""
    built = {}

    def problem(delta=None):
        if delta not in built:
            domain = make_domain(cfg.domain, cfg.alpha)
            if delta is None:
                mesh = build_mesh(domain, cfg.n, cfg.grading)
            else:
                mesh = build_mesh(truncate(domain, delta), cfg.n)
            built[delta] = compute_spectrum(assemble(mesh), cfg.modes)
        return built[delta]

    return problem


def run_spectrum(cfg: ExperimentConfig, problem) -> Outcome:
    spec = problem()
    ops = spec.ops
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
            "mass_orthonormal": mass_resid <= 1e-10,
            "stiffness_orthogonal": stiff_resid <= 1e-8,
        },
        values={"mass_residual": mass_resid, "stiffness_residual": stiff_resid},
    )


def run_hardy(cfg: ExperimentConfig, problem) -> Outcome:
    spec = problem()
    ops = spec.ops
    n_eigs = min(cfg.modes, 10)
    rng = Lcg(cfg.seed)
    vectors = itertools.chain((spec.modes[:, k] for k in range(n_eigs)),
                              (random_admissible(ops.mesh, rng) for _ in range(cfg.samples)))
    # columns as arrays, rows streamed from them: no Python tuple per sample is held
    ratio, holds = np.empty(n_eigs + cfg.samples), np.empty(n_eigs + cfg.samples, dtype=bool)
    for j, u in enumerate(vectors):
        res = hardy_check(ops, u)
        ratio[j], holds[j] = res["ratio"], res["holds"]
    kinds = itertools.chain(itertools.repeat("eigenvector", n_eigs),
                            itertools.repeat("random", cfg.samples))
    index = itertools.chain(range(1, n_eigs + 1), range(1, cfg.samples + 1))
    rows = zip(kinds, index, ratio, itertools.repeat(res["bound"]), holds)
    return Outcome(
        tables={"hardy": (_context_line(cfg), ("kind", "index", "ratio", "bound", "holds"), rows)},
        checks={"hardy_all_hold": bool(holds.all())},
        values={"bound": 4.0 / (1.0 - cfg.alpha) ** 2},
    )


def run_evolve(cfg: ExperimentConfig, problem) -> Outcome:
    spec = problem()
    ops = spec.ops
    grid = TimeGrid(cfg.T, cfg.steps)
    y0 = spec.mode(1)
    fs = solve_spectral(spec, y0, grid)
    e_s = energy_history(fs)
    # theta rows are folded as they come: no nodal field of either solver is held
    e2_i, gap2 = np.empty((2, cfg.steps + 1))
    for j, row in enumerate(theta_rows(ops, y0, grid, theta=1.0)):
        e2_i[j], gap2[j] = tensor_form(np.stack([row, fs.rows(j) - row]), ops.x1[1], ops.xn[1])
    e_i = np.sqrt(np.maximum(e2_i, 0.0))
    lam1 = spec.eigenvalues[0]
    mode_err = float(np.max(np.abs(expand(spec, fs.rows(-1))[0] - np.exp(-lam1 * cfg.T))))
    gap = float(np.max(np.sqrt(gap2)))
    # the datum is a discrete eigenvector, so backward Euler steps it by
    # (1 + lambda_1 dt)^-1 and the spectral solver by exp(-lambda_1 dt)
    closed = float(np.max(np.abs((1.0 + lam1 * grid.dt) ** -np.arange(cfg.steps + 1.0)
                                 - np.exp(-lam1 * grid.nodes))))
    return Outcome(
        tables={"energy": (_context_line(cfg), ("t", "l2_spectral", "l2_implicit"),
                           zip(grid.nodes, e_s, e_i))},
        checks={"solver_gap_closed_form": abs(gap - closed) <= 1e-8 * closed + 1e-10},
        values={"mode_error": mode_err, "solver_gap": gap},
    )


def run_delta_sweep(cfg: ExperimentConfig, problem) -> Outcome:
    domain = make_domain(cfg.domain, cfg.alpha)
    grid = TimeGrid(cfg.T, cfg.steps)
    y0 = _bump_factory(0.45, 0.95)
    report = delta_sweep(domain, y0, grid, cfg.deltas, n_ref=cfg.n)
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
    spec = problem(delta)
    grid = TimeGrid(cfg.T, cfg.steps)
    rng = Lcg(cfg.seed)
    data = [spec.modes[:, k] for k in range(cfg.modes)]
    data += [random_admissible(spec.ops.mesh, rng) for _ in range(5)]
    # streamed, never all held at once; the first field's data serves the eq51 check
    fields = (carle.FieldData(time_reverse(solve_spectral(spec, y0, grid)))
              for y0 in data)
    first = next(fields)
    fit = carle.find_s0(itertools.chain([first], fields), cfg.s_values)
    n_fields, n_s = fit.log_needed_c.shape
    rows = zip(np.repeat(np.arange(n_fields), n_s), itertools.cycle(fit.s_grid),
               fit.log_needed_c.ravel())
    fit_rows = [(fit.found, fit.s0 if fit.found else float("nan"),
                 fit.c_boundary if fit.found else float("nan"))]
    eq51_holds = True
    if fit.found:
        eq51_holds = bool(first.sweep([fit.s0], "eq51")[0]
                          <= np.log(max(fit.c_boundary, 1.0)) + np.log1p(1e-9))
    context = _context_line(
        cfg, delta=_fmt(delta),
        s=f"{_fmt(cfg.s_values[0])}..{_fmt(cfg.s_values[-1])}")
    return Outcome(
        tables={
            "carleman_budgets": (context, ("field", "s", "log_needed_c"), rows),
            "carleman_fit": (context, ("found", "s0", "c_boundary"), fit_rows),
        },
        checks={"s0_found": fit.found, "eq51_holds": eq51_holds},
        values={"s0": fit.s0, "c_boundary": fit.c_boundary},
    )


def run_observability(cfg: ExperimentConfig, problem) -> Outcome:
    spec = problem()
    grid = TimeGrid(cfg.T, cfg.steps)
    report = obs.estimate_constant(grid, spec, cfg.modes)
    rows = [(m + 1, report.ratios[m]) for m in range(report.subspace_dim)]
    rough = random_admissible(spec.ops.mesh, Lcg(cfg.seed))
    rough_ratio = obs.observability_ratio(rough, grid, spec)
    return Outcome(
        tables={"observability": (_context_line(cfg),
                                  ("mode", "ratio"), rows)},
        checks={"c_obs_finite": (not report.singular) and report.c_obs is not None},
        values={"c_obs": report.c_obs, "subspace_dim": report.subspace_dim,
                "rough_data_ratio": rough_ratio, "singular": report.singular},
    )


def _check_arrays(cfg: ExperimentConfig, experiments):
    """Refuse a run whose mesh, eigensolve, arrays with one row per time
    node or row tables, delta sweep or Carleman s range some experiment
    would refuse, before any of them exists, in that order and each with
    its own message.  Every experiment but delta-sweep builds the mesh and
    computes a spectrum.  The bound per time node (tracemalloc measured
    45-85% of it over 512 to 8192 steps) covers, for evolve, K coefficients
    and energy products and four energy columns (no nodal field; the table
    is written row by row); for carleman, per x_N node, two moment factor
    products of min(n_x1, 2K) entries and about 20 moment, weight and work
    arrays of its field and the first, and four copies of the 2 n_x1 flux
    stencil values.  Observability holds nothing per time node.  The evolve
    constant still counts K load values per node, which the source-free
    solves no longer hold: a larger estimate only makes the guard more
    cautious.  Row tables count 168 bytes per hardy row (eigenvectors and
    samples) and 120 per carleman field and value of s, what tracemalloc
    measured when the rows were held as tuples.  Both tables are now
    streamed from arrays: tracemalloc measures 9 bytes per hardy row, and
    20-24 per carleman field and value of s over 15 to 6 fields (about 18
    for the log_needed_c array and the table's field column, the rest per
    value of s and not per field), so both estimates are cautious."""
    dim = 1 if cfg.domain == "interval" else 2
    if any(e != "delta-sweep" for e in experiments):
        _check_eigensolve((cfg.n - 1) ** dim, _check_size((cfg.n + 1,) * dim), cfg.modes, dim)
    k, n_x1, n_s = cfg.modes, (cfg.n + 1) ** (dim - 1), len(cfg.s_values)
    need = {"evolve": (cfg.steps + 1) * 8 * (3 * k + 4),
            "hardy": 168 * (min(k, 10) + cfg.samples),
            "carleman": ((cfg.steps + 1) * 8 * ((cfg.n + 1) * (2 * min(n_x1, 2 * k) + 20)
                                                 + 8 * n_x1 + 3 * k)
                         + 120 * (k + 5) * n_s)}
    what = {"evolve": f"evolve with {cfg.steps} time steps",
            "hardy": f"hardy with {cfg.samples} samples",
            "carleman": f"carleman with {cfg.steps} time steps and {n_s} values of s"}
    name = max(experiments, key=lambda e: need.get(e, 0))
    if name in need:
        _require_memory(need[name], what[name])
    if "delta-sweep" in experiments:
        _check_sweep(dim, cfg.deltas, cfg.n, cfg.steps)
    if "carleman" in experiments:
        carle._check_range(carle.CarlemanWeights(cfg.alpha, cfg.T),
                           TimeGrid(cfg.T, cfg.steps).nodes[1:-1], cfg.s_values[-1])


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
    report = config.experiment == "full-report"
    experiments = list(_RUNNERS) if report else [config.experiment]
    _check_arrays(config, experiments)
    out = Path(out_dir if out_dir is not None else config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot make the output directory {out}: {exc}") from exc
    problem = _problem_memo(config)
    if "observability" in experiments:
        # the depth checks need the eigenvalues, so they run here, before the
        # first file is written; the spectrum is memoised for the experiments
        obs._check_depth(problem().eigenvalues, config.T, config.modes)
    checks, values = {}, {}
    for name in experiments:
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
    # every config field but the experiment, named beside it, and the output directory
    params = {k: v for k, v in asdict(config).items() if k not in ("experiment", "out")}
    payload = {
        "experiment": config.experiment,
        "params": params,
        "checks": checks,
        "values": values,
        "pass": all(checks.values()),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_value) + "\n",
                    encoding="utf-8")


# the refused inputs, which exit 2, and the prefix of each one's message
_REFUSALS = {ConfigError: "config error", ParameterError: "parameter error",
             ContractError: "contract error", PreconditionError: "precondition error",
             OutputError: "output error"}


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
        return run(load_config(args.config, experiment=args.experiment), out_dir=args.out)
    except (EigensolverError, DegenerateObservationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except tuple(_REFUSALS) as exc:
        prefix = next(p for kind, p in _REFUSALS.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
