import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
import yaml

import degenlab
from degenlab import carleman, cli, discretize, evolution, spectral
from degenlab.cli import ConfigError, ExperimentConfig, load_config, main
from degenlab.discretize import OperatorPair
from degenlab.errors import ContractError, EigensolverError, ParameterError, PreconditionError


def write_config(path: Path, text: str) -> Path:
    cfg = path / "config.yaml"
    cfg.write_text(text, encoding="utf-8")
    return cfg


SPECTRUM_CFG = """
experiment: spectrum
domain: interval
alpha: 0.5
n: 128
grading: 2.0
modes: 5
seed: 3
"""


def test_spectrum_run_writes_tables(tmp_path):
    cfg = write_config(tmp_path, SPECTRUM_CFG)
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    csv = (out / "eigenvalues.csv").read_text().splitlines()
    assert csv[0].startswith("# alpha=0.5,T=1,n=128,g=2,")
    assert csv[1] == "mode,lambda"
    assert len(csv) == 2 + 5
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["pass"] is True
    assert summary["checks"]["mass_orthonormal"] is True


def test_summary_params_name_every_config_field(tmp_path):
    # every field but the experiment, named beside it, and the output directory
    cfg = write_config(tmp_path, SPECTRUM_CFG)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    params = json.loads((out / "spectrum_summary.json").read_text())["params"]
    names = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment", "out"}
    assert set(params) == names
    assert params["seed"] == 3 and params["samples"] == 100 and params["s_grid"] == []


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, """
experiment: hardy
domain: interval
alpha: 0.5
n: 64
modes: 3
samples: 10
seed: 11
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["hardy", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("hardy.csv", "hardy_summary.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_square_carleman_rerun_byte_identical(tmp_path):
    # the square moments run through matrix products and QR factors
    # (BLAS and LAPACK): a rerun still writes the same bytes
    cfg = write_config(tmp_path, """
experiment: carleman
domain: square
alpha: 0.5
n: 24
steps: 32
modes: 6
deltas: [0.125]
s_grid: [1.0, 10.0, 100.0]
seed: 7
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["carleman", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir()) and len(names) == 3
    for fname in names:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_invalid_alpha_is_config_error(tmp_path):
    cfg = write_config(tmp_path, "experiment: spectrum\nalpha: 1.5\n")
    assert main(["spectrum", "--config", str(cfg)]) == 2


def test_unknown_field_rejected(tmp_path):
    cfg = write_config(tmp_path, "experiment: spectrum\nwavelength: 3\n")
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert main(["spectrum", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("field, text", [
    ("n", "n: 40.5"),
    ("seed", "seed: true"),
    ("steps", "steps: 16.0"),
    ("modes", "modes: 3.7"),
    ("samples", "samples: 2.5"),
    ("alpha", "alpha: true"),
    ("T", "T: '1.0'"),
    ("grading", "grading: false"),
    ("deltas", "deltas: 0.1"),
    ("deltas", "deltas: [0.2, true]"),
    ("s_grid", "s_grid: 3"),
    ("s_grid", "s_grid: [1.0, '10']"),
    ("T", "T: .inf"),
    ("T", "T: .nan"),
    ("grading", "grading: .inf"),
    ("s_grid", "s_grid: [1.0, .inf]"),
    ("deltas", "deltas: []"),
    # integers beyond the double range
    pytest.param("T", "T: " + "9" * 400, id="T-huge-int"),
    pytest.param("alpha", "alpha: " + "9" * 400, id="alpha-huge-int"),
    pytest.param("grading", "grading: " + "9" * 400, id="grading-huge-int"),
    pytest.param("deltas", "deltas: [0.2, " + "9" * 400 + "]", id="deltas-huge-int"),
    pytest.param("s_grid", "s_grid: [1.0, " + "9" * 400 + "]", id="s_grid-huge-int"),
    ("out", "out: 5"),
    ("out", "out: null"),
    ("out", "out: [a]"),
])
def test_wrong_field_type_is_config_error(tmp_path, field, text):
    cfg = write_config(tmp_path, f"experiment: spectrum\n{text}\n")
    with pytest.raises(ConfigError, match=f"'{field}'"):
        load_config(cfg)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, text", [
    ("config.yaml", "T: 1e-1\nalpha: 5E-1\ndeltas: [2e-1, 5e-2]\ns_grid: [1e0, 2.5e1]\n"),
    ("config.json", '{"T": 1e-1, "alpha": 5E-1, "deltas": [2e-1, 5e-2], "s_grid": [1e0, 2.5e1]}'),
])
def test_exponent_floats_are_numbers(tmp_path, name, text):
    # YAML 1.1 alone reads 1e-1 (no dot) and 2.5e1 (unsigned exponent) as strings
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    config = load_config(cfg, "spectrum")
    assert (config.T, config.alpha) == (0.1, 0.5)
    assert config.deltas == (0.2, 0.05) and config.s_grid == (1.0, 25.0)
    assert yaml.safe_load(text)["T"] == "1e-1"  # the shared SafeLoader is left as it is


@pytest.mark.parametrize("name, text", [
    ("config.yaml", 'T: "1e-1"\n'),
    ("config.yaml", "T: '1e-1'\n"),
    ("config.json", '{"T": "1e-1"}'),
])
def test_quoted_exponent_float_is_config_error(tmp_path, name, text):
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="'T'"):
        load_config(cfg, "spectrum")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00bad",  # not UTF-8
    b"experiment: spectrum\n1: 2\nfoo: 3\n",  # unknown keys of mixed types
])
def test_malformed_config_file_exit_2(tmp_path, content):
    cfg = tmp_path / "config.yaml"
    cfg.write_bytes(content)
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_import_leaves_out_scipy_interpolate():
    # scipy.interpolate costs about a third of a second at start-up and
    # the laboratory needs none of it
    src = str(Path(degenlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, degenlab.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("error, prefix", [
    (ParameterError, "parameter error: "),
    (ContractError, "contract error: "),
    (PreconditionError, "precondition error: "),
])
def test_module_input_errors_exit_2(tmp_path, monkeypatch, capsys, error, prefix):
    def runner(cfg, problem):
        raise error("refused input")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", runner)
    cfg = write_config(tmp_path, "experiment: spectrum\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(prefix + "refused input")


def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    def runner(cfg, problem):
        raise EigensolverError("no convergence")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", runner)
    cfg = write_config(tmp_path, "experiment: spectrum\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: EigensolverError")


def test_program_error_propagates(tmp_path, monkeypatch):
    # a defect in the program is a traceback, not a numerical failure
    def runner(cfg, problem):
        raise TypeError("bug")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", runner)
    cfg = write_config(tmp_path, "experiment: spectrum\n")
    with pytest.raises(TypeError, match="bug"):
        main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_missing_config_file(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.yaml")]) == 2


@pytest.mark.parametrize("out", ["taken", "taken/o"])
def test_unusable_output_directory_exit_2(tmp_path, monkeypatch, capsys, out):
    # a file where the output directory or one of its parents should be
    (tmp_path / "taken").write_text("")

    def runner(cfg, problem):
        raise AssertionError("an experiment started")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", runner)
    cfg = write_config(tmp_path, "experiment: spectrum\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: cannot make the output directory")
    assert "Traceback" not in err


def test_misaligned_deltas_exit_code(tmp_path):
    cfg = write_config(tmp_path, """
experiment: delta-sweep
domain: interval
alpha: 0.5
n: 64
steps: 32
deltas: [0.21, 0.07]
""")
    assert main(["delta-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_oversized_delta_sweep_refused_before_assembly(tmp_path, capsys):
    # 129 time rows of (100001**2 + 50001**2) nodes: about 12 TiB of fields
    cfg = write_config(tmp_path, """
experiment: delta-sweep
domain: square
n: 100000
steps: 128
""")
    tracemalloc.start()
    try:
        code = main(["delta-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "9842116 MiB reference field" in err and "2460578 MiB coarse field" in err
    assert peak < 2**20


def test_full_report_refuses_misaligned_deltas_before_any_output(tmp_path, capsys):
    # the sweep mesh has 30 cells, so 0.05 falls between two of its nodes
    cfg = write_config(tmp_path, """
domain: interval
n: 60
modes: 3
""")
    out = tmp_path / "o"
    assert main(["full-report", "--config", str(cfg), "--out", str(out)]) == 2
    assert "delta=0.05 is not node-aligned" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_full_report_refuses_oversized_sweep_before_any_output(tmp_path, monkeypatch,
                                                                capsys):
    # square n=40: the mesh (0.4 MiB), eigensolve (1.75 MiB) and carleman time
    # arrays (1.6 MiB) fit a 1.8 MiB machine, the sweep's fields (2.1 MiB) do not
    monkeypatch.setattr(discretize, "physical_memory_mib", lambda: 1.8)
    cfg = write_config(tmp_path, """
domain: square
n: 40
modes: 3
""")
    out = tmp_path / "o"
    assert main(["full-report", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: a delta sweep with a 2 MiB reference field")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("experiment", ["observability", "full-report"])
def test_depth_limit_refused_before_any_output(tmp_path, capsys, experiment):
    # lambda_1 * T = 487: the depth limit needs the spectrum, and runs before
    # the first table of a full report is written
    cfg = write_config(tmp_path, """
domain: interval
n: 16
steps: 8
modes: 3
deltas: [0.125]
T: 100
""")
    out = tmp_path / "o"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: lambda_1 * T = 487 exceeds the depth limit 60")
    assert list(out.glob("*")) == []


def test_tiny_horizon_refused_before_any_output(tmp_path, capsys):
    # at T = 1e-300 the three modes' time kernels agree to double precision,
    # and the flux Gram would be singular
    cfg = write_config(tmp_path, """
domain: interval
n: 16
steps: 8
modes: 3
deltas: [0.125]
T: 1e-300
""")
    out = tmp_path / "o"
    assert main(["observability", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: 2 lambda_3 * T = ") and "Traceback" not in err
    assert "below machine epsilon" in err
    assert list(out.glob("*")) == []


def test_tiny_alpha_refused_before_any_output(tmp_path, capsys):
    # alpha - 2 rounds to -2 at alpha = 1e-17, and the Hardy check's mass
    # weight x_N**(alpha - 2) refuses that exponent; the config refuses it first
    cfg = write_config(tmp_path, """
domain: interval
n: 16
steps: 8
modes: 3
alpha: 1.0e-17
deltas: [0.125]
""")
    out = tmp_path / "o"
    assert main(["full-report", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'alpha'") and "Traceback" not in err
    assert not out.exists()
    assert ExperimentConfig("hardy", alpha=1e-12).alpha == 1e-12


def test_long_horizon_evolve_warns_nothing(tmp_path):
    # every mode has decayed to zero after the first of these steps; a
    # source-free evolve forms no load weights that could overflow, and at
    # T = 1e307 the exponents lambda_k t_j of the spectral solver leave the
    # double range
    for T in ("1.0e300", "1.0e307"):
        cfg = write_config(tmp_path, f"""
domain: interval
n: 16
steps: 8
modes: 3
T: {T}
""")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / T)]) == 0


@pytest.mark.parametrize("line, size", [
    pytest.param("s_grid: [1, 1e154]", "10**158.0", id="large-s"),
    pytest.param("T: 1e-300", "10**2406.3", id="tiny-T"),
])
def test_carleman_coefficient_overflow_refused_before_any_output(tmp_path, capsys, line,
                                                                 size):
    # s (2 - alpha) Theta(t), squared in the eq410 bracket, would leave the
    # double range and turn the budgets into nan
    cfg = write_config(tmp_path, f"""
domain: interval
n: 16
steps: 8
modes: 3
deltas: [0.125]
{line}
""")
    out = tmp_path / "o"
    assert main(["carleman", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error:") and "Traceback" not in err
    assert f"at about {size}, beyond the limit 1e+150" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["spectrum", "evolve", "hardy", "carleman",
                                        "observability", "full-report"])
def test_oversized_mesh_refused_before_assembly(tmp_path, capsys, experiment):
    # 100001**2 nodes at 248 bytes each: about 2.3 TiB of mesh arrays and operators
    cfg = write_config(tmp_path, """
domain: square
n: 100000
""")
    tracemalloc.start()
    try:
        code = main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "a mesh of 10000200001 nodes needs about 2365160 MiB" in err
    assert peak < 2**20


@pytest.mark.parametrize("experiment, need", [
    ("evolve", "evolve with 10000000000 time steps needs about 991821 MiB"),
    ("carleman", "carleman with 10000000000 time steps and 20 values of s needs about "
                 "16403198 MiB"),
    ("full-report", "carleman with 10000000000 time steps and 20 values of s needs about "
                    "16403198 MiB"),
])
def test_huge_step_count_refused_before_allocation(tmp_path, capsys, experiment, need):
    # 10**10 + 1 time nodes: one coefficient array of 3 modes alone is 224 GiB
    cfg = write_config(tmp_path, """
domain: interval
n: 8
modes: 3
steps: 10000000000
""")
    tracemalloc.start()
    try:
        code = main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert need in err and "Traceback" not in err
    assert peak < 2**20


def test_oversized_hardy_table_refused_before_any_output(tmp_path, monkeypatch, capsys):
    # 100000 sampled rows at 168 bytes each (16 MiB) do not fit a 1 MiB
    # machine, which the mesh and the eigensolve of the interval at n=4 fit
    monkeypatch.setattr(discretize, "physical_memory_mib", lambda: 1.0)
    cfg = write_config(tmp_path, """
domain: interval
n: 4
modes: 3
samples: 100000
""")
    out = tmp_path / "o"
    assert main(["hardy", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: hardy with 100000 samples needs about 16 MiB")
    assert "Traceback" not in err
    assert not out.exists()


def test_observability_holds_nothing_per_time_node(tmp_path):
    # the flux Gram integrates in time in closed form, so 10**10 + 1 time
    # nodes cost no memory and the run is not refused
    cfg = write_config(tmp_path, """
domain: interval
n: 8
modes: 3
steps: 10000000000
""")
    tracemalloc.start()
    try:
        code = main(["observability", "--config", str(cfg), "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


@pytest.mark.parametrize("experiment", ["spectrum", "evolve", "hardy", "carleman",
                                        "observability", "full-report"])
def test_huge_mode_count_refused_before_eigensolve(tmp_path, capsys, experiment):
    # 100000 modes on 999999 unknowns: ARPACK's Lanczos basis alone is 1.46 TiB;
    # the tridiagonal LU factor of K adds 57 MiB
    cfg = write_config(tmp_path, """
domain: interval
n: 1000000
modes: 100000
""")
    tracemalloc.start()
    try:
        code = main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "an eigensolve of 100000 modes on 999999 unknowns needs about 2288882 MiB" in err
    assert "Traceback" not in err
    assert peak < 2**20


def test_eigensolve_refused_for_its_lu_factor_before_splu(tmp_path, monkeypatch, capsys):
    # square n=60, 10 modes: the mesh (0.9 MiB), the Lanczos basis and the
    # nodal modes (0.8 MiB) fit a 3 MiB machine; with the LU factor of K
    # (about 4 MiB) the eigensolve does not, and splu never runs
    monkeypatch.setattr(discretize, "physical_memory_mib", lambda: 3.0)
    monkeypatch.setattr(spectral.spla, "splu", lambda *a, **kw: pytest.fail("splu ran"))
    cfg = write_config(tmp_path, """
domain: square
n: 60
modes: 10
""")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: an eigensolve of 10 modes on 3481 unknowns "
                          "needs about 5 MiB")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("domain, n, experiments", [
    ("square", 240, ["spectrum", "hardy", "evolve", "observability", "delta-sweep"]),
    ("square", 60, ["carleman"]),
    ("interval", 240, list(cli._RUNNERS)),
])
def test_benchmark_configs_pass_the_memory_checks(domain, n, experiments):
    # every pre-flight check, the sweep's included: one that refused a
    # benchmark config would fail every run of that workload
    cfg = ExperimentConfig(experiment="spectrum", domain=domain, n=n, modes=10)
    for experiment in experiments:
        cli._check_arrays(cfg, [experiment])
    cli._check_arrays(cfg, experiments)


def test_carleman_and_observability_runs(tmp_path):
    cfg = write_config(tmp_path, """
experiment: carleman
domain: interval
alpha: 0.5
T: 1.0
n: 96
steps: 64
modes: 3
deltas: [0.125]
s_grid: [1.0, 10.0, 100.0]
seed: 5
""")
    out = tmp_path / "carleman"
    assert main(["carleman", "--config", str(cfg), "--out", str(out)]) == 0
    fit = (out / "carleman_fit.csv").read_text().splitlines()
    assert fit[1] == "found,s0,c_boundary"
    assert fit[2].startswith("true,")

    cfg2 = write_config(tmp_path, """
experiment: observability
domain: interval
alpha: 0.5
T: 0.5
n: 96
steps: 64
modes: 3
seed: 5
""")
    out2 = tmp_path / "obs"
    assert main(["observability", "--config", str(cfg2), "--out", str(out2)]) == 0
    summary = json.loads((out2 / "observability_summary.json").read_text())
    assert summary["values"]["c_obs"] > 0


def test_config_defaults_and_ranges():
    cfg = ExperimentConfig(experiment="spectrum")
    assert cfg.n == 240 and cfg.T == 1.0
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="unknown")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="spectrum", steps=4)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="spectrum", deltas=(0.1, 0.2))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="spectrum", s_grid=(0.5, 2.0))


def test_config_deltas_stop_at_max_delta():
    # the truncation margin has one source, geometry.MAX_DELTA (test_geometry)
    with pytest.raises(ConfigError, match=r"'deltas'.*\(0, 0\.25\)"):
        ExperimentConfig(experiment="spectrum", deltas=(0.25,))


def test_full_report(tmp_path):
    cfg = write_config(tmp_path, """
experiment: full-report
domain: interval
alpha: 0.5
T: 1.0
n: 80
steps: 64
modes: 3
deltas: [0.2, 0.1]
s_grid: [1.0, 10.0, 100.0]
samples: 5
seed: 2
""")
    out = tmp_path / "report"
    code = main(["full-report", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "full-report_summary.json").read_text())
    assert summary["pass"] is True
    for table in ("eigenvalues.csv", "hardy.csv", "energy.csv",
                  "delta_sweep.csv", "carleman_fit.csv", "observability.csv"):
        assert (out / table).exists()


def test_full_report_matches_single_runs(tmp_path):
    cfg = write_config(tmp_path, """
experiment: full-report
domain: interval
alpha: 0.5
n: 80
steps: 32
modes: 3
deltas: [0.2, 0.1]
s_grid: [1.0, 10.0]
samples: 3
seed: 4
""")
    report = tmp_path / "report"
    assert main(["full-report", "--config", str(cfg), "--out", str(report)]) == 0
    checks, values, csvs = {}, {}, set()
    for name in cli._RUNNERS:
        single = tmp_path / name
        assert main([name, "--config", str(cfg), "--out", str(single)]) == 0
        for f in single.glob("*.csv"):
            csvs.add(f.name)
            assert (report / f.name).read_bytes() == f.read_bytes()
        summary = json.loads((single / f"{name}_summary.json").read_text())
        checks.update({f"{name}.{k}": v for k, v in summary["checks"].items()})
        values.update({f"{name}.{k}": v for k, v in summary["values"].items()})
    assert {f.name for f in report.glob("*.csv")} == csvs
    summary = json.loads((report / "full-report_summary.json").read_text())
    assert summary["checks"] == checks
    assert summary["values"] == values


def test_full_report_jobs_identical(tmp_path):
    text = """
experiment: full-report
domain: interval
alpha: 0.5
n: 80
steps: 64
modes: 3
deltas: [0.2, 0.1]
s_grid: [1.0, 10.0]
samples: 5
seed: 2
"""
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    assert main(["full-report", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["full-report", "--config", str(cfg), "--out", str(out2),
                 "--jobs", "4"]) == 0
    for f in sorted(out1.iterdir()):
        assert (out2 / f.name).read_bytes() == f.read_bytes()


def test_evolve_holds_no_nodal_field():
    # square n=120, 128 steps: one (steps+1, n_nodes) field is 15.1 MB
    cfg = ExperimentConfig(experiment="evolve", domain="square", n=120, steps=128)
    problem = cli._problem_memo(cfg)
    ops = problem().ops  # the eigensolve is not the experiment's to count
    tracemalloc.start()
    try:
        outcome = cli.run_evolve(cfg, problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(outcome.checks.values())
    assert peak < (cfg.steps + 1) * ops.mesh.n_nodes * 8


def test_evolve_writes_its_table_row_by_row(tmp_path):
    # the energy table goes to the file one line at a time: at 8192 steps
    # running and writing hold about 74 bytes per time node, against 355
    # with the table held as a list of rows and joined into one string
    cfg = ExperimentConfig(experiment="evolve", domain="interval", n=8, modes=3, steps=8192)
    problem = cli._problem_memo(cfg)
    problem()  # the eigensolve is not the experiment's to count
    tracemalloc.start()
    try:
        cli._write_outcome(tmp_path, cli.run_evolve(cfg, problem))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150 * (cfg.steps + 1)
    assert len((tmp_path / "energy.csv").read_text().splitlines()) == cfg.steps + 3


@pytest.mark.parametrize("domain", ["interval", "square"])
@pytest.mark.parametrize("experiment", ["hardy", "delta-sweep"])
def test_forms_build_no_full_node_operator(tmp_path, monkeypatch, experiment, domain):
    # the Hardy, Poincare and sweep-error forms apply the 1D factors, so
    # neither experiment builds M_full, the last full-node operator
    built = []
    getter = OperatorPair.M_full.func
    monkeypatch.setattr(OperatorPair, "M_full",
                        property(lambda ops: built.append(ops.mesh.shape) or getter(ops)))
    cfg = write_config(tmp_path, f"""
experiment: {experiment}
domain: {domain}
n: 40
steps: 16
modes: 3
samples: 5
deltas: [0.2, 0.1, 0.05]
""")
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert built == []


BREAK_CFG = """
domain: interval
n: 32
steps: 16
modes: 3
"""


def test_wrong_sign_theta_step_fails_the_evolve_check(tmp_path, monkeypatch):
    # backward Euler with the stiffness term's sign flipped, (M - dt K) y+ = M y,
    # grows mode 1 by (1 - lambda_1 dt)^-1 a step and misses the closed form
    def theta_rows(ops, y0, grid, theta):
        lu = spla.splu((ops.M - theta * grid.dt * ops.K).tocsc())
        row = np.array(y0, dtype=float)
        yield row
        for _ in range(grid.steps):
            row = row.copy()
            row[ops.interior] = lu.solve(ops.M @ row[ops.interior])
            yield row

    cfg = write_config(tmp_path, BREAK_CFG)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(cli, "theta_rows", theta_rows)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    summary = json.loads((tmp_path / "o" / "evolve_summary.json").read_text())
    assert summary["checks"] == {"solver_gap_closed_form": False}


def test_perturbed_mode_fails_a_spectrum_check(tmp_path, monkeypatch):
    # one interior entry of mode 2 moved by 1e-3: the modes are no longer
    # M-orthonormal, nor K-orthogonal
    def compute_spectrum(ops, k):
        spec = spectral.compute_spectrum(ops, k)
        spec.modes[ops.interior[ops.interior.size // 2], 1] += 1e-3
        return spec

    monkeypatch.setattr(cli, "compute_spectrum", compute_spectrum)
    cfg = write_config(tmp_path, BREAK_CFG)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    checks = json.loads((tmp_path / "o" / "spectrum_summary.json").read_text())["checks"]
    assert checks == {"mass_orthonormal": False, "stiffness_orthogonal": False}


def test_inflated_eq51_constant_fails_the_eq51_check(tmp_path, monkeypatch):
    # eq51 needs e**-30 of the fitted constant here; 50 e-folds more than it
    # needs, and the eq410 fit no longer covers it at s0
    sweep = carleman.FieldData.sweep

    def inflated(self, s_values, which):
        needed = sweep(self, s_values, which)
        return needed + 50.0 if which == "eq51" else needed

    cfg = write_config(tmp_path, BREAK_CFG)
    assert main(["carleman", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(carleman.FieldData, "sweep", inflated)
    assert main(["carleman", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    summary = json.loads((tmp_path / "o" / "carleman_summary.json").read_text())
    assert summary["checks"] == {"s0_found": True, "eq51_holds": False}


def test_zero_observed_flux_fails_the_s0_check(tmp_path, monkeypatch):
    # with nothing observed, no boundary constant bounds the budgets: no s0
    # is found, and eq51 is not compared against a fit that does not exist
    def flux_history(field):
        flux, _ = evolution.flux_history(field)
        return np.zeros_like(flux), 0.0

    monkeypatch.setattr(carleman, "flux_history", flux_history)
    cfg = write_config(tmp_path, BREAK_CFG)
    assert main(["carleman", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    summary = json.loads((tmp_path / "o" / "carleman_summary.json").read_text())
    assert summary["checks"] == {"s0_found": False, "eq51_holds": True}


def readme_checks():
    """experiment -> the set of check names of the README's table of CLI checks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI checks\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            experiment, check = (cell.strip().strip("`") for cell in line.split("|")[1:3])
            table.setdefault(experiment, set()).add(check)
    return table


@pytest.mark.parametrize("experiment", list(cli._RUNNERS))
def test_summary_checks_are_the_readme_table(tmp_path, experiment):
    # the README's table of checks and the checks the CLI runs cannot drift apart
    cfg = write_config(tmp_path, """
domain: interval
n: 40
steps: 16
modes: 3
samples: 5
deltas: [0.2, 0.1]
s_grid: [1.0, 10.0]
""")
    out = tmp_path / "o"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / f"{experiment}_summary.json").read_text())
    table = readme_checks()
    assert set(table) == set(cli._RUNNERS)
    assert set(summary["checks"]) == table[experiment]


def test_full_report_checks_are_the_readme_table(tmp_path):
    # every (experiment, check) row of the README's table against the checks
    # one full-report writes, each named with its experiment as prefix
    cfg = write_config(tmp_path, """
experiment: full-report
domain: interval
n: 20
steps: 8
modes: 2
samples: 2
deltas: [0.2, 0.1]
s_grid: [1.0, 10.0]
""")
    main(["full-report", "--config", str(cfg), "--out", str(tmp_path / "o")])
    summary = json.loads((tmp_path / "o" / "full-report_summary.json").read_text())
    documented = {(e, check) for e, checks in readme_checks().items() for check in checks}
    assert {tuple(name.split(".", 1)) for name in summary["checks"]} == documented
