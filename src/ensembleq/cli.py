"""Command-line front end: compute ensemble quantumness measures from JSON inputs.

Subcommands delegate to the library modules and emit deterministic CSV or JSON
(floats with 12 significant digits, seeded runs, atomic file writes), so the
outputs are stable enough to use as golden files.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .accinfo import OptimizerConfig, accessible_information, pure_limit_identities
from .densmat import FIDELITY_CONVENTIONS, DensityMatrix, matrix_from_json, trace_norm
from .ensemble import Ensemble, holevo, is_broadcastable
from .errors import (
    InvalidInput,
    NumericalFailure,
    PreconditionViolated,
    ResourceLimit,
)
from .extopt import chi_q, fidelity_q
from .recovery import Channel, au_feasible, orthogonal_pair_example, petz_map

__all__ = ["main", "run"]

SEED_ENV_VAR = "ENSEMBLEQ_SEED"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3
EXIT_RESOURCE_LIMIT = 4

# the header is part of the CLI contract; golden files depend on every byte
SWEEP_HEADER = "a, commutator_norm, au_min_margin, au_feasible, chi_q_n2, fidelity_q_n2"


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    x = float(x)
    # a pure state's entropy is -0.0; an exact zero prints without a sign
    return f"{0.0 if x == 0.0 else x:.12g}"


def _render_json(obj, indent: int = 0) -> str:
    """JSON with floats at 12 significant digits and stable key order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _render_csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    return str(v)


def _scalar_csv(report: dict) -> str:
    """One-row CSV for a flat report; nested values are skipped, None is empty."""
    flat = {
        k: v
        for k, v in report.items()
        if v is None
        or isinstance(v, (bool, int, float, str, np.bool_, np.integer, np.floating))
    }
    header = ",".join(flat.keys())
    row = ",".join(_render_csv_value(v) for v in flat.values())
    return header + "\n" + row + "\n"


def _emit(text: str, output: Optional[str]) -> None:
    """Print, or write atomically so partial output never lands on disk."""
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ensembleq-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InvalidInput(f"cannot write {output}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def _load_ensemble(path: str) -> Ensemble:
    return Ensemble.from_json(_load_json(path))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidInput(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from exc
    return OptimizerConfig.seed


def _optimizer_config(args) -> OptimizerConfig:
    """The measurement-ascent settings of acc-info, fuchs and pure-limits."""
    return OptimizerConfig(
        max_iters=args.max_iters, restarts=args.restarts, seed=_resolve_seed(args)
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_holevo(args) -> dict:
    e = _load_ensemble(args.input)
    return {"value": holevo(e)}


def _cmd_chi_q(args) -> dict:
    e = _load_ensemble(args.input)
    return chi_q(e, args.n).to_json()


def _cmd_acc_info(args) -> dict:
    e = _load_ensemble(args.input)
    cfg = _optimizer_config(args)
    return accessible_information(e, cfg).to_json()


def _cmd_fuchs(args) -> dict:
    e = _load_ensemble(args.input)
    cfg = _optimizer_config(args)
    chi = holevo(e)
    acc = accessible_information(e, cfg).value
    return {"holevo": chi, "acc_info": acc, "value": chi - acc}


def _cmd_pure_limits(args) -> dict:
    e = _load_ensemble(args.input)
    cfg = _optimizer_config(args)
    return pure_limit_identities(e, cfg).to_json()


def _cmd_petz_check(args) -> dict:
    ref = DensityMatrix(matrix_from_json(_load_json(args.reference)))
    ch = Channel.from_json(_load_json(args.channel))
    recovery = petz_map(ref, ch)
    back = recovery.apply(ch.apply(ref))
    residual = trace_norm(back.mat - ref.mat)
    return {
        "recovery_residual": residual,
        "ok": bool(residual <= 1e-7),
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
    }


def _cmd_au_check(args) -> dict:
    if (args.a is None) == (args.input is None):
        raise InvalidInput("au-check needs exactly one of --a or --input")
    if args.a is not None:
        ex = orthogonal_pair_example(args.a)
        report = au_feasible(ex.rho1_b, ex.rho2_b, ex.rho1_a, ex.rho2_a)
        out = {"a": float(args.a)}
        out.update(report.to_json())
        return out
    blob = _load_json(args.input)
    if not isinstance(blob, dict):
        raise InvalidInput("au-check input must be a JSON object")
    try:
        mats = {k: matrix_from_json(blob[k])
                for k in ("rho1", "rho2", "sigma1", "sigma2")}
    except KeyError as exc:
        raise InvalidInput(
            "au-check input must contain rho1, rho2, sigma1, sigma2"
        ) from exc
    report = au_feasible(mats["rho1"], mats["rho2"], mats["sigma1"], mats["sigma2"])
    return report.to_json()


def _sweep_rows(args) -> list[dict]:
    a_min, a_max, steps = args.a_min, args.a_max, args.steps
    if not (0.0 <= a_min <= 0.5 and 0.0 <= a_max <= 0.5):
        raise InvalidInput("sweep bounds must lie in [0, 1/2]")
    if a_max < a_min:
        raise InvalidInput("sweep upper bound is below the lower bound")
    if steps < 1:
        raise InvalidInput("sweep needs at least one grid point")
    grid = np.linspace(a_min, a_max, steps) if steps > 1 else np.array([a_min])
    rows = []
    for a in grid:
        ex = orthogonal_pair_example(float(a))
        au = au_feasible(ex.rho1_b, ex.rho2_b, ex.rho1_a, ex.rho2_a)
        e = Ensemble([(0.5, ex.rho1_a), (0.5, ex.rho2_a)])
        chi_rep = chi_q(e, 2)
        fid_rep = fidelity_q(ex.rho1_a, ex.rho2_a, 2, convention=args.fidelity_convention)
        rows.append(
            {
                "a": float(a),
                "commutator_norm": is_broadcastable(e).max_commutator_norm,
                "au_min_margin": au.min_margin,
                "au_feasible": au.feasible,
                "chi_q_n2": chi_rep.value,
                "fidelity_q_n2": fid_rep.value,
            }
        )
    return rows


def _cmd_sweep_example(args) -> str:
    rows = _sweep_rows(args)
    if args.format == "json":
        return _render_json(rows) + "\n"
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(",".join(_render_csv_value(v) for v in row.values()))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default json; sweep-example: csv)")
    common.add_argument("--output", default=None,
                        help="write to this path atomically instead of stdout")

    # the measurement ascent is the one solver with settings: chi_q's refine
    # and fidelity_q's SDP run at fixed caps
    acc = argparse.ArgumentParser(add_help=False)
    acc.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default: ${SEED_ENV_VAR} or {OptimizerConfig.seed})")
    acc.add_argument("--restarts", type=int, default=OptimizerConfig.restarts,
                     help=f"eigenbasis and random ascent starts (default "
                          f"{OptimizerConfig.restarts}); the eigenbasis and "
                          "pretty-good-measurement starts always run, so restarts + 1 "
                          "ascents run in all")
    acc.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters)

    p = argparse.ArgumentParser(
        prog="ensembleq",
        description="Quantumness measures of quantum-state ensembles",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("holevo", parents=[common],
                        help="Holevo quantity of an ensemble")
    sp.add_argument("input", help="ensemble JSON file")
    sp.set_defaults(fn=_cmd_holevo)

    sp = sub.add_parser("chi-q", parents=[common],
                        help="broadcast-extension quantumness chi_q^(n)")
    sp.add_argument("input", help="ensemble JSON file")
    sp.add_argument("--n", type=int, default=2, help="number of extension sites")
    sp.set_defaults(fn=_cmd_chi_q)

    sp = sub.add_parser("acc-info", parents=[common, acc],
                        help="accessible information lower bound")
    sp.add_argument("input", help="ensemble JSON file")
    sp.set_defaults(fn=_cmd_acc_info)

    sp = sub.add_parser("fuchs", parents=[common, acc],
                        help="Holevo quantity minus accessible information")
    sp.add_argument("input", help="ensemble JSON file")
    sp.set_defaults(fn=_cmd_fuchs)

    sp = sub.add_parser("pure-limits", parents=[common, acc],
                        help="infinite-copy limits for pure-state ensembles")
    sp.add_argument("input", help="ensemble JSON file")
    sp.set_defaults(fn=_cmd_pure_limits)

    sp = sub.add_parser("petz-check", parents=[common],
                        help="verify the recovery map reverses a channel on a state")
    sp.add_argument("--reference", required=True, help="state matrix JSON file")
    sp.add_argument("--channel", required=True, help="channel JSON file")
    sp.set_defaults(fn=_cmd_petz_check)

    sp = sub.add_parser("au-check", parents=[common],
                        help="qubit pair-transformation feasibility")
    sp.add_argument("--a", type=float, default=None,
                    help="check the built-in orthogonal-pair example at this a")
    sp.add_argument("--input", default=None,
                    help="JSON file with rho1, rho2, sigma1, sigma2 matrices")
    sp.set_defaults(fn=_cmd_au_check)

    sp = sub.add_parser("sweep-example", parents=[common],
                        help="sweep the orthogonal-pair example over a")
    sp.add_argument("--fidelity-convention", choices=FIDELITY_CONVENTIONS,
                    default="squared", help="fidelity convention")
    sp.add_argument("--a-min", type=float, default=0.0)
    sp.add_argument("--a-max", type=float, default=0.5)
    sp.add_argument("--steps", type=int, default=11)
    sp.set_defaults(fn=_cmd_sweep_example)
    return p


def run(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep-example":
            if args.format is None:
                args.format = "csv"
            text = _cmd_sweep_example(args)
        else:
            report = args.fn(args)
            if args.format == "csv":
                text = _scalar_csv(report)
            else:
                text = _render_json(report) + "\n"
        _emit(text, args.output)
        return EXIT_OK
    except (InvalidInput, PreconditionViolated) as exc:
        print(f"ensembleq: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NumericalFailure as exc:
        print(f"ensembleq: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except ResourceLimit as exc:
        print(f"ensembleq: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
