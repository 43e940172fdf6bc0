"""Run one workload in this fresh process and print its figures as one JSON line.

Started by run.py from the root of a checkout, with ``src`` on PYTHONPATH and
the perf_counter reading taken just before the spawn in PERFBENCH_SPAWN_T.
``--probe`` stops after set-up (interpreter start, ``import ensembleq``,
input generation) and reports how long it took.  Otherwise the process runs
whole rounds of the workload's operations until ``--seconds`` have passed,
times each operation, checks each output, and reports per-round medians.
With ``--trace 1`` the first round runs untraced and the rest run with the
per-layer spans of trace.py installed.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

SPAWN_ENV = "PERFBENCH_SPAWN_T"
CLI_TIMEOUT_S = 60


def _import_package():
    """Import ensembleq and report its cost, before anything imports numpy."""
    before = len(sys.modules)
    t0 = time.perf_counter()
    import ensembleq  # noqa: F401

    return {
        "import_s": time.perf_counter() - t0,
        "modules": len(sys.modules) - before,
        "scipy_loaded": int("scipy.optimize" in sys.modules),
    }


IMPORT_STATS = _import_package()

import checks  # noqa: E402  (these import numpy, so they follow the measurement)
import ensembleq  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import trace  # noqa: E402


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Session:
    """Runs the operations of one workload; owns the CLI input directory."""

    def __init__(self, cases, workdir):
        self.cases = cases
        self.tracer = None
        self.cli = {"processes": 0, "process_s": 0.0, "run_s": 0.0}
        for case in cases:
            paths = {}
            for key, spec in case.get("files", {}).items():
                paths[key] = os.path.join(workdir, f"{case['id']}-{key}.json")
                with open(paths[key], "w") as fh:
                    json.dump(inputs.file_json(spec), fh)
            if "argv" in case:
                case["argv"] = [a.format(**paths) for a in case["argv"]]

    @staticmethod
    def _ensemble(case):
        return ensembleq.Ensemble([(p, ensembleq.DensityMatrix(s))
                                   for p, s in zip(case["probs"], case["states"])])

    def call(self, case):
        eq = ensembleq
        op = case["op"]
        if op == "chi_q":
            return eq.chi_q(self._ensemble(case), case["n"])
        if op == "fidelity_q":
            return eq.fidelity_q(eq.DensityMatrix(case["rho"]), eq.DensityMatrix(case["sigma"]),
                                 case["n"], convention=case["convention"])
        if op == "acc_info":
            cfg = eq.OptimizerConfig(restarts=case["restarts"])
            return eq.accessible_information(self._ensemble(case), cfg)
        proc = subprocess.run([sys.executable, "-m", "ensembleq.cli", *case["argv"]],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def replay_in_process(self, case, seconds):
        """Time ensembleq.cli.run on the same argv, with the spans installed."""
        from ensembleq import cli

        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.run(case["argv"])
        self.cli["run_s"] += time.perf_counter() - t0
        self.cli["process_s"] += seconds
        self.cli["processes"] += 1

    def round(self):
        """One pass over every case: [(id, wall s, cpu s, broken rules)]."""
        done, results = {}, []
        for case in self.cases:
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                out = self.call(case)
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
            if error is None:
                broken = checks.BY_OP[case["op"]](case, out, done)
                done[case["id"]] = out
            else:
                broken = [error]
            if self.tracer is not None and case["op"] == "cli":
                self.replay_in_process(case, wall)
            results.append((case["id"], wall, cpu, broken))
        return results


def _peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux; for cli-session the largest child is the figure
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main():
    spawn_t = float(os.environ[SPAWN_ENV])
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=list(inputs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    cases = inputs.build(args.workload, args.seed)
    setup = {"setup_s": time.perf_counter() - spawn_t, **IMPORT_STATS}
    if args.probe:
        print(json.dumps(setup))
        return 0

    self_test = oracles.self_test()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as workdir:
        session = Session(cases, workdir)
        rounds, traced = [], []
        start = time.perf_counter()
        rounds.append(session.round())
        if args.trace:
            session.tracer = trace.Tracer()
            session.tracer.install()
        # whole rounds until about --seconds have passed: another round starts
        # only if it would end no more than half a round past the mark
        while True:
            elapsed = time.perf_counter() - start
            if (traced or not args.trace) and (
                    elapsed * (1.0 + 0.5 / len(rounds + traced)) >= args.seconds):
                break
            (traced if args.trace else rounds).append(session.round())
        if session.tracer is not None:
            session.tracer.uninstall()

    everything = rounds + traced
    failures = sorted({(cid, rule) for r in everything for cid, _, _, broken in r for rule in broken})
    for cid, rule in failures:
        print(f"failed: {args.workload} {cid}: {rule}", file=sys.stderr)
    for line in self_test:
        print(f"oracle self-test failed: {line}", file=sys.stderr)
    unexpected = [f for f in failures if f[1] != checks.KNOWN_FAULT]

    def round_sum(r, column):
        return sum(row[column] for row in r)

    report = {
        "correct": not self_test and not unexpected,
        "attempted": sum(len(r) for r in everything),
        "failed": sum(bool(row[3]) for r in everything for row in r),
        "setup": setup,
    }
    if not args.trace:
        report["metrics"] = {
            "wall_s": (statistics.median([round_sum(r, 1) for r in rounds]), "s"),
            "op_p50_s": (statistics.median([row[1] for r in rounds for row in r]), "s"),
            "cpu_s": (statistics.median([round_sum(r, 2) for r in rounds]), "s"),
            "peak_rss_mb": (_peak_rss_mb(args.workload), "MB"),
        }
    else:
        per_round = len(traced)
        layers = {name: (value / per_round, unit)
                  for name, (value, unit) in session.tracer.metrics().items()}
        cli_totals = session.cli
        layers.update({
            "cli.processes": (cli_totals["processes"] / per_round, "count"),
            "cli.process.s": (cli_totals["process_s"] / per_round, "s"),
            "cli.run.s": (cli_totals["run_s"] / per_round, "s"),
            "cli.startup.s": ((cli_totals["process_s"] - cli_totals["run_s"]) / per_round, "s"),
            "trace.overhead_s": (statistics.median([round_sum(r, 1) for r in traced])
                                 - round_sum(rounds[0], 1), "s"),
        })
        report["metrics"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
