"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]

Run from the root of a checkout.  Each run is ``perfbench/run.py`` with the
``run_seconds`` of BENCHMARK.json.  For every workload and metric it prints the
median, the quartiles, the quartile spread as a share of the median, and the
bound from BENCHMARK.json, plus the share of failed operations of each run.
This is how the reference figures in README.md were made.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs, took = [], []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            took.append(time.perf_counter() - t0)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted {', '.join(shares)}, "
              f"seconds per run {statistics.median(took):.1f} median, {max(took):.1f} max")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            line = f"  {name:40s} median {med:12.6g} {unit:5s}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f" q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:7.2%}"
                if name in bounds:
                    line += f" bound {bounds[name]:.0%}"
                line += "\n    runs: " + " ".join(f"{v:.6g}" for v in values)
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
