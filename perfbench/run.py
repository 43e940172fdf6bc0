"""Benchmark entry point for ensembleq.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ``src`` there.
Each call starts fresh processes, with no more BLAS threads than the CPUs this
process may use: a few set-up probes, then the workload process (workload.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# set-up-only processes started before the workload; setup_s is the median of
# their set-up times and the workload process's own
PROBES = 3
PROBE_TIMEOUT_S = 30
DEADLINE_S = 170


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(argv: list, env: dict, timeout: float) -> dict:
    """Run workload.py to completion and return the JSON of its last line."""
    env = dict(env, PERFBENCH_SPAWN_T=repr(time.perf_counter()))
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *argv],
                          env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="ensembleq benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "ensembleq" / "__init__.py").is_file():
        print(f"perfbench: no src/ensembleq under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = _child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [_spawn(common + ["--probe"], env, PROBE_TIMEOUT_S) for _ in range(PROBES)]
        result = _spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        env, DEADLINE_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    setups = probes + [result["setup"]]
    metrics = dict(result["metrics"])
    if args.trace:
        metrics["cli.import.s"] = (statistics.median(s["import_s"] for s in setups), "s")
        metrics["cli.import.modules"] = (result["setup"]["modules"], "count")
        metrics["cli.import.scipy_loaded"] = (result["setup"]["scipy_loaded"], "count")
    else:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ expected)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
