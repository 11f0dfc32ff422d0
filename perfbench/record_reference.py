"""Record the seed-independent reference values the benchmark checks.

    python3 perfbench/record_reference.py

Runs every workload's invocations once through the CLI with seed 1 and
writes perfbench/reference.json.  Re-record only when a change to the
program is meant to change these values, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads

SEED = 1


def main():
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    recorded = {}
    for name, spec in workloads.WORKLOADS.items():
        cfg = workloads.make_config(name, SEED)
        config_path = run.WORK / f"{name}.json"
        config_path.write_text(json.dumps(cfg), encoding="utf-8")
        recorded[name] = {}
        for experiment in spec["experiments"]:
            out = run.WORK / f"{name}-{experiment}"
            code, _, _ = run.run_child([sys.executable] + run.cli_argv(experiment, config_path, out),
                                       run.WORK / f"{name}-{experiment}.log", 600.0)
            problems = workloads.check_outputs(experiment, out, cfg, code, None)
            if problems:
                print(f"{name} {experiment}: " + "; ".join(problems), file=sys.stderr)
                return 1
            summary = json.loads((out / f"{experiment}_summary.json").read_text())
            pinned = workloads.pinned_values(experiment, out, cfg, summary)
            if pinned:
                recorded[name][experiment] = pinned
            print(f"{name} {experiment}: {sum(map(len, pinned.values()))} values", flush=True)
    payload = {
        "seed": SEED,
        "recorded": time.strftime("%Y-%m-%d"),
        "workloads": recorded,
    }
    run.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
