"""degenlab benchmark: the real CLI on generated configs, in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload square-n240 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each invocation of the workload is one
``python -m degenlab.cli <experiment> --config <generated> --jobs 1``
subprocess, started only after the previous one has exited.  Wall time,
peak RSS (``ru_maxrss`` from ``os.wait4``) and failures are taken from
outside the program.  ``setup_s`` is a process that imports
``degenlab.cli`` and loads the config, then exits.

With ``--trace 1`` the workload runs in-process (perfbench/tracer.py),
alternately with and without layer wrappers, and the per-layer metrics
come from the traced passes.

Every invocation's outputs are checked (exit code, ``"pass": true``,
table row counts, and the seed-independent values in
perfbench/reference.json).  BLAS and OpenMP are pinned to one thread.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
when every check passed, 1 when an output check failed and 2 when the
benchmark could not start (for example, the package source is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5
# Whole-run limit; children still running then are killed and count as failed.
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path, timeout):
    """Run one process to its end: (exit code, wall seconds, peak RSS in MiB)."""
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            with lock:
                reaped = True
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # KiB on Linux


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def describe(name, values, unit):
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)}"
    tail = tail_percentile(values)
    if tail is not None:
        line += f", p{tail[0]:.0f} {tail[1]:.6g} {unit}"
    return line + ")"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "threads": THREAD_ENV,
        "jobs": 1,
    }


def measure_setup(config_path, experiment, deadline):
    """Median of SETUP_REPEATS import-and-load processes, after one warm-up."""
    argv = [sys.executable, "-c",
            "import sys, degenlab.cli as cli; cli.load_config(sys.argv[1], sys.argv[2])",
            str(config_path), experiment]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        code, wall, _ = run_child(argv, WORK / f"setup-{i}.log", deadline - time.perf_counter())
        if code != 0:
            log = (WORK / f"setup-{i}.log").read_text(errors="replace")
            raise SetupError(f"set-up process exited with {code}:\n{log}")
        if i:
            samples.append(wall)
    return samples


def cli_argv(experiment, config_path, out_dir):
    return ["-m", "degenlab.cli", experiment, "--config", str(config_path),
            "--out", str(out_dir), "--jobs", "1"]


def check(experiment, out_dir, cfg, code, reference, record):
    problems = workloads.check_outputs(experiment, out_dir, cfg, code,
                                       reference.get(experiment, {}))
    record["problems"] = problems
    if problems:
        print(f"FAILED {experiment} in {out_dir}: " + "; ".join(problems), file=sys.stderr)
    return record


def e2e_pass(index, experiments, config_path, cfg, reference, deadline):
    records = []
    for experiment in experiments:
        out = WORK / f"e2e-{index}-{experiment}"
        code, wall, rss = run_child([sys.executable] + cli_argv(experiment, config_path, out),
                                    WORK / f"e2e-{index}-{experiment}.log",
                                    deadline - time.perf_counter())
        records.append(check(experiment, out, cfg, code, reference,
                             {"experiment": experiment, "exit": code, "wall_s": wall,
                              "peak_rss_mb": rss}))
        if time.perf_counter() >= deadline:
            break
    return records


def traced_pass(index, trace, experiments, config_path, cfg, reference, deadline):
    tag = f"{'traced' if trace else 'plain'}-{index}"
    plan = [{"argv": cli_argv(e, config_path, WORK / f"{tag}-{e}")[2:],
             "out": str(WORK / f"{tag}-{e}")} for e in experiments]
    plan_path, result_path = WORK / f"{tag}-plan.json", WORK / f"{tag}-result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    argv = [sys.executable, str(BENCH / "tracer.py"), "--trace", str(int(trace)),
            "--plan", str(plan_path), "--result", str(result_path)]
    code, _, _ = run_child(argv, WORK / f"{tag}.log", deadline - time.perf_counter())
    if code != 0:
        return None, [{"experiment": e, "exit": code, "problems": [f"tracer exited with {code}"]}
                      for e in experiments]
    record = json.loads(result_path.read_text(encoding="utf-8"))
    records = [check(e, item["out"], cfg, inv["exit"], reference,
                     {"experiment": e, "exit": inv["exit"], "wall_s": inv["wall_s"]})
               for e, item, inv in zip(experiments, plan, record["invocations"])]
    return record, records


def closed_loop(one_pass, seconds, deadline):
    """Passes back to back; another starts only if a typical pass still fits."""
    start = time.perf_counter()
    passes, took = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass(len(passes)))
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        typical = statistics.median(took)
        failed = any(r["problems"] for r in passes[-1]["records"])
        if failed or elapsed + typical > seconds or time.perf_counter() + typical > deadline:
            return passes


def measure_e2e(experiments, config_path, cfg, reference, seconds, deadline):
    passes = closed_loop(
        lambda index: {"records": e2e_pass(index, experiments, config_path, cfg,
                                           reference, deadline)},
        seconds, deadline)
    complete = [p for p in passes if all(not r["problems"] for r in p["records"])]
    samples = {}
    for p in complete:
        p["wall_s"] = sum(r["wall_s"] for r in p["records"])
        p["peak_rss_mb"] = max(r["peak_rss_mb"] for r in p["records"])
        samples.setdefault("wall_s", []).append(p["wall_s"])
        samples.setdefault("peak_rss_mb", []).append(p["peak_rss_mb"])
        for r in p["records"]:
            samples.setdefault(r["experiment"].replace("-", "_") + "_s", []).append(r["wall_s"])
    return passes, samples


def measure_layers(experiments, config_path, cfg, reference, seconds, deadline):
    def one_pass(index):
        walls, records, layer = {}, [], None
        # alternate which side runs first, so drift does not favour one
        for trace in ((0, 1) if index % 2 == 0 else (1, 0)):
            record, recs = traced_pass(index, trace, experiments, config_path, cfg,
                                       reference, deadline)
            records += recs
            if record is not None:
                walls[trace] = sum(inv["wall_s"] for inv in record["invocations"])
                if trace:
                    layer = tracer.layer_metrics(record["spans"], record["invocations"])
        return {"records": records, "walls": walls, "layer": layer}

    passes = closed_loop(one_pass, seconds, deadline)
    complete = [p for p in passes if len(p["walls"]) == 2
                and all(not r["problems"] for r in p["records"])]
    if not complete:
        return passes, {}
    layers = [p["layer"] for p in complete]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    plain = statistics.median(p["walls"][0] for p in complete)
    traced = statistics.median(p["walls"][1] for p in complete)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    return passes, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="degenlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "degenlab" / "cli.py").is_file():
        print(f"degenlab source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][args.workload]
    experiments = workloads.WORKLOADS[args.workload]["experiments"]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    cfg = workloads.make_config(args.workload, args.seed)
    config_path = WORK / "config.json"
    config_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env))
    print("config: " + json.dumps(cfg))

    try:
        setup = measure_setup(config_path, experiments[0], deadline)
    except SetupError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.trace:
        passes, metrics = measure_layers(experiments, config_path, cfg, reference,
                                         args.seconds, deadline)
        wanted = spec["per_layer"]
    else:
        passes, samples = measure_e2e(experiments, config_path, cfg, reference,
                                      args.seconds, deadline)
        samples["setup_s"] = setup
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, values in samples.items():
            print(describe(name, values, units.get(name, "s")))
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        wanted = spec["end_to_end"]

    records = [r for p in passes for r in p["records"]]
    failed = sum(1 for r in records if r["problems"])
    print(f"failed_frac: {failed / len(records):.6g} ({failed} of {len(records)} invocations)")
    correct = failed == 0 and all(m["name"] in metrics for m in wanted)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    if args.trace:
        for m in wanted:
            if m["name"] in metrics:
                print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    (WORK / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "config": cfg, "setup_s": setup,
         "passes": [{k: v for k, v in p.items() if k != "layer"} for p in passes],
         "result": result}, indent=1, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
