"""eprkit benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                    # all workloads, traced, with a table

Each workload runs in a fresh worker process (worker.py) with OpenBLAS and
OpenMP pinned to one thread and the checkout's src/ on PYTHONPATH.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  The line before it holds the full result:
environment, input digest, reference-kernel guard, tail percentile and every
failed op.  A table of all metrics goes to stderr.

Exits non-zero, printing no result, if the checkout has no eprkit sources or
the worker fails or overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-default", "modular-dense", "cli-session")
TIME_LIMIT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS, PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    out = work / f"result-{workload}-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        # subprocess.run kills the worker and waits for it if the limit passes.
        subprocess.run(cmd, env=worker_env(), cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()))
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)


def contract_line(result: dict, metrics: dict, units: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def table(result: dict, units: dict, metrics: dict) -> str:
    rows = [f"== {result['workload']} (seed {result['seed']}, {result['attempted']} ops, "
            f"{result['failed']} failed, ref guard {result['details']['ref_guard']})"]
    rows += [f"  {name:<44} {metrics[name]:>14.6g} {unit}" for name, unit in units.items()]
    return "\n".join(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="eprkit benchmark")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "eprkit" / "__init__.py").is_file():
        print(f"error: no eprkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    deadline = time.monotonic() + TIME_LIMIT_S

    if args.workload != "all":
        try:
            result = run_worker(args.workload, args.seed, seconds, args.trace, deadline)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: worker failed: {exc}", file=sys.stderr)
            return 1
        units, metrics = (layer_units, result["per_layer"]) if args.trace else (e2e_units, result["end_to_end"])
        print(table(result, units, metrics), file=sys.stderr)
        print(json.dumps(result))
        print(json.dumps(contract_line(result, metrics, units)))
        return 0

    combined = {}
    for workload in WORKLOADS:
        try:
            result = run_worker(workload, args.seed, seconds, args.trace, time.monotonic() + TIME_LIMIT_S)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: worker failed on {workload}: {exc}", file=sys.stderr)
            return 1
        print(table(result, e2e_units, result["end_to_end"]), file=sys.stderr)
        entry = {"end_to_end": contract_line(result, result["end_to_end"], e2e_units)}
        if args.trace:
            print(table(result, layer_units, result["per_layer"]), file=sys.stderr)
            entry["per_layer"] = contract_line(result, result["per_layer"], layer_units)
        print(json.dumps(result))
        combined[workload] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
