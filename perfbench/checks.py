"""Rules every operation's output must meet; each returns the rules it breaks.

A rule is a short name; an operation that breaks any rule counts as failed.
``KNOWN_FAULT`` is the one rule that fails today on fixed inputs (see
README.md); any other broken rule makes the run incorrect.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles

KNOWN_FAULT = "fidelity_q within product bound"

BASELINE_TOL = 1e-9  # baselines and closed forms against the oracle
BOUND_TOL = 1e-9  # slack on upper bounds
# largest value allowed on commuting inputs, and the least one required on the
# non-commuting ones (all have ||[rho, sigma]||_F >= 0.1)
COMMUTING_TOL = 1e-6
MONOTONE_TOL = 1e-6  # chi_q(n=3) may fall this far below chi_q(n=2)
AU_GAP = 1e-3  # the reported Alberti-Uhlmann minimum may exceed the exact one by this
SWEEP_HEADER = "a, commutator_norm, au_min_margin, au_feasible, chi_q_n2, fidelity_q_n2"


def _rules(**broken) -> list[str]:
    return [name.replace("_", " ") for name, bad in broken.items() if bad]


def chi_q(case: dict, report, done: dict) -> list[str]:
    """``done`` maps the ids of this round's earlier cases to their reports."""
    probs, states, n = case["probs"], case["states"], case["n"]
    value = report.value
    broken = _rules(
        baseline_matches_oracle=abs(report.baseline - oracles.holevo(probs, states)) > BASELINE_TOL,
        value_nonnegative=value < 0.0,
        value_within_product_bound=value > oracles.chi_product_bound(probs, states, n) + BOUND_TOL,
        converged=not report.converged,
    )
    if case["kind"] == "mixed" and not value > COMMUTING_TOL:
        broken.append("positive on non-commuting input")
    if case["kind"] == "commuting" and value > COMMUTING_TOL:
        broken.append("zero on commuting input")
    if case["kind"] == "pure" and abs(value - oracles.pure_chi_q(probs, case["kets"], n)) > BASELINE_TOL:
        broken.append("pure closed form")
    lower = done.get(f"{case['group']}/n{n - 1}")
    if lower is not None and value < lower.value - MONOTONE_TOL:
        broken.append("non-decreasing in n")
    return broken


def fidelity_q(case: dict, report, done: dict) -> list[str]:
    rho, sigma, n, conv = case["rho"], case["sigma"], case["n"], case["convention"]
    bound = oracles.fidelity_product_bound(rho, sigma, n, conv)
    broken = _rules(
        baseline_matches_oracle=abs(report.baseline - (1.0 - oracles.fidelity(rho, sigma, conv))) > BASELINE_TOL,
        value_nonnegative=report.value < 0.0,
        positive_on_non_commuting_input=not report.value > COMMUTING_TOL,
        converged=not report.converged,
    )
    if report.value > bound + BOUND_TOL:
        broken.append(KNOWN_FAULT)
    return broken


def acc_info(case: dict, report, done: dict) -> list[str]:
    probs, states = case["probs"], case["states"]
    chi = oracles.holevo(probs, states)
    value = report.value
    broken = _rules(
        baseline_matches_oracle=abs(value + report.holevo_gap - chi) > BASELINE_TOL,
        value_within_holevo_bound=value > chi + BOUND_TOL,
        at_least_eigenbasis_measurement=value < oracles.eigenbasis_mutual_information(probs, states) - BOUND_TOL,
        povm_reproduces_value=abs(oracles.mutual_information(probs, states, report.best_povm.elements) - value) > BASELINE_TOL,
    )
    if "expect" in case and abs(value - case["expect"]) > 1e-6:
        broken.append("known value")
    if case.get("commuting") and abs(value - chi) > BASELINE_TOL:
        broken.append("commuting value equals Holevo")
    return broken


def cli(case: dict, result, done: dict) -> list[str]:
    """``result`` is (exit code, stdout) of one CLI process."""
    code, out = result
    if code != 0:
        return [f"exit code 0 (got {code})"]
    try:
        return CLI_CHECKS[case["id"]](case, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"parsable output ({type(exc).__name__}: {exc})"]


def _cli_holevo(case, out):
    doc = json.loads(out)
    return _rules(value_matches_oracle=abs(doc["value"] - oracles.holevo(case["probs"], case["states"])) > BASELINE_TOL)


def _cli_au_check(case, out):
    doc = json.loads(out)
    inputs = oracles.au_inputs(case["a"])
    exact, _ = oracles.exact_min_margin(*inputs)
    low = doc["min_margin"]
    return _rules(
        min_margin_is_margin_at_argmin=abs(low - oracles.margin(*inputs, doc["argmin_t"])) > BASELINE_TOL,
        min_margin_near_exact_minimum=not (exact - BASELINE_TOL <= low <= exact + AU_GAP),
    )


def _cli_petz_check(case, out):
    doc = json.loads(out)
    return _rules(
        recovers_reference=not (doc["ok"] is True and doc["recovery_residual"] <= 1e-7),
        dimensions=(doc["in_dim"], doc["out_dim"]) != (case["in_dim"], case["out_dim"]),
    )


def _cli_chi_q_pure(case, out):
    doc = json.loads(out)
    probs, kets, n = case["probs"], case["kets"], case["n"]
    states = [np.outer(k, k.conj()) for k in kets]
    return _rules(
        baseline_matches_oracle=abs(doc["baseline"] - oracles.holevo(probs, states)) > BASELINE_TOL,
        pure_closed_form=abs(doc["value"] - oracles.pure_chi_q(probs, kets, n)) > BASELINE_TOL,
        converged=doc["converged"] is not True,
    )


def _cli_sweep(case, out):
    lines = out.rstrip("\n").split("\n")
    rows = [line.split(",") for line in lines[1:]]
    grid = np.linspace(0.0, 0.5, case["steps"])
    broken = _rules(exact_header=lines[0] != SWEEP_HEADER,
                    row_count=len(rows) != case["steps"])
    for a, row in zip(grid, rows):
        commuting = a in (0.0, 0.5)
        comm, chi, fid = float(row[1]), float(row[4]), float(row[5])
        broken += _rules(
            a_grid=abs(float(row[0]) - a) > 1e-12,
            commutator_norm=abs(comm - math.sqrt(2.0) * math.sqrt(a * (1.0 - 2.0 * a))) > BASELINE_TOL,
            zero_commutator_only_at_ends=(comm == 0.0) != commuting,
            feasible_only_at_zero=(row[3] == "true") != (a == 0.0),
            chi_q_zero_exactly_when_commuting=(chi <= COMMUTING_TOL) != commuting or chi < 0.0,
            fidelity_q_zero_exactly_when_commuting=(fid <= COMMUTING_TOL) != commuting or fid < 0.0,
        )
    return sorted(set(broken))


CLI_CHECKS = {
    "holevo": _cli_holevo,
    "au-check": _cli_au_check,
    "petz-check": _cli_petz_check,
    "chi-q-pure": _cli_chi_q_pure,
    "sweep-example": _cli_sweep,
}

BY_OP = {"chi_q": chi_q, "fidelity_q": fidelity_q, "acc_info": acc_info, "cli": cli}
