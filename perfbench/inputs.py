"""Inputs of the four workloads, drawn with plain numpy from the run's seed.

Every state is a Ginibre draw g g^dag / tr or a named ensemble; nothing comes
from ``ensembleq.rand``, so a change there cannot change the inputs.  The solver
cases are a fixed corpus drawn from the benchmark's own seeds, because a
solver's run time depends on its input in ways no property of the input
predicts: turning a pair by a random unitary leaves chi_q unchanged but moves
its run time by up to 7x, which would drown any change a later version makes.
The run seed draws the cases whose cost does not depend on the draw:

* ``chi-corpus``: the commuting pair (its spectra and common eigenbasis) and
  the pure pair;
* ``fidelity-pairs``: nothing.  Its operations include the ones that fail
  today (see README.md), and those have to fail the same way on every run;
* ``acc-info``: the eigenbasis of the commuting ensemble;
* ``cli-session``: the ensemble, reference state, channel and pure pair;
  ``au-check`` and ``sweep-example`` take no input.

Run ``python3 perfbench/inputs.py --workload NAME --seed N`` to print a
workload's inputs as JSON.
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np

from oracles import ginibre, trine, zero_plus

# non-commuting pairs of the fixed corpus are kept only if ||[rho, sigma]||_F
# reaches this, so that "value > 0" is a meaningful check on them
COMMUTATOR_FLOOR = 0.1

# seed of the fixed mixed-qubit-pair draw shared by chi-corpus and fidelity-pairs
PAIR_DRAW_SEED = 2024
FIDELITY_PAIRS = 10

# restart counts of the accessible-information operations: the trine reaches
# log2(3/2) only from the second (random) start; on the qutrit pair the second
# start lands below the first (0.385839 against 0.385931 bits) and more than
# doubles the call's time, so it runs the eigenbasis start alone
ACC_RESTARTS = 2
ACC_RESTARTS_QUTRIT = 1


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_ket(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a @ b - b @ a))


def seed_pair(d: int) -> list[np.ndarray]:
    """The pair drawn with seeds 11 and 12 (one Ginibre draw from each)."""
    return [ginibre(np.random.default_rng(s), d) for s in (11, 12)]


def filtered_pairs(count: int) -> list[list[np.ndarray]]:
    """The first ``count`` qubit pairs of the fixed draw that pass the commutator floor."""
    rng = np.random.default_rng(PAIR_DRAW_SEED)
    pairs = []
    while len(pairs) < count:
        rho, sigma = ginibre(rng, 2), ginibre(rng, 2)
        if commutator_norm(rho, sigma) >= COMMUTATOR_FLOOR:
            pairs.append([rho, sigma])
    return pairs


def _rotated(u: np.ndarray, states) -> list[np.ndarray]:
    return [u @ s @ u.conj().T for s in states]


def chi_corpus(seed: int) -> list[dict]:
    """chi_q cases; ``kind`` selects the checks: mixed, commuting or pure."""
    pairs = filtered_pairs(3)
    rng3 = np.random.default_rng(3)
    triple = [ginibre(rng3, 2) for _ in range(3)]
    cases = [
        {"id": f"{name}/n{n}", "op": "chi_q", "kind": "mixed", "group": name,
         "probs": probs, "states": states, "n": n}
        for name, probs, states, sites in (
            ("pair-11-12", [0.5, 0.5], seed_pair(2), (2, 3)),
            ("qutrit-11-12", [0.5, 0.5], seed_pair(3), (2,)),
            *[(f"pair-2024-{k}", [0.5, 0.5], p, (2,)) for k, p in enumerate(pairs)],
            ("triple", [0.5, 0.3, 0.2], triple, (2,)),
        )
        for n in sites
    ]
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng, 2)
    spectra = rng.uniform(0.05, 0.95, size=2)
    cases.append({"id": "commuting/n3", "op": "chi_q", "kind": "commuting", "group": "commuting",
                  "probs": [0.5, 0.5], "n": 3,
                  "states": _rotated(u, [np.diag([x, 1.0 - x]).astype(complex) for x in spectra])})
    kets = [random_ket(rng, 2) for _ in range(2)]
    cases.append({"id": "pure/n3", "op": "chi_q", "kind": "pure", "group": "pure",
                  "probs": [0.5, 0.5], "states": [np.outer(k, k.conj()) for k in kets],
                  "kets": kets, "n": 3})
    return cases


def fidelity_pairs(seed: int) -> list[dict]:
    del seed  # fixed inputs: see the module docstring
    return [
        {"id": f"pair-2024-{k}/{conv}", "op": "fidelity_q", "rho": rho, "sigma": sigma,
         "n": 2, "convention": conv}
        for conv in ("squared", "root")
        for k, (rho, sigma) in enumerate(filtered_pairs(FIDELITY_PAIRS))
    ]


def acc_info(seed: int) -> list[dict]:
    u = haar_unitary(np.random.default_rng(seed), 2)
    commuting = [np.diag([0.8, 0.2]).astype(complex), np.diag([0.3, 0.7]).astype(complex)]
    return [
        {"id": "trine", "op": "acc_info", "probs": [1 / 3] * 3, "states": trine(),
         "restarts": ACC_RESTARTS, "expect": math.log2(1.5)},
        {"id": "zero-plus", "op": "acc_info", "probs": [0.5, 0.5], "states": zero_plus(),
         "restarts": ACC_RESTARTS},
        {"id": "commuting", "op": "acc_info", "probs": [0.5, 0.5],
         "states": _rotated(u, commuting), "restarts": ACC_RESTARTS, "commuting": True},
        {"id": "qutrit-11-12", "op": "acc_info", "probs": [0.5, 0.5], "states": seed_pair(3),
         "restarts": ACC_RESTARTS_QUTRIT},
    ]


def _random_channel(rng: np.random.Generator, d_in: int, d_out: int, kraus: int):
    """Kraus operators of a random channel: blocks of a Haar isometry."""
    v = haar_unitary(rng, d_out * kraus)[:, :d_in]
    return [v[k * d_out:(k + 1) * d_out, :] for k in range(kraus)]


def cli_session(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    ens_probs = rng.uniform(0.2, 1.0, size=3)
    ens_probs = list(ens_probs / ens_probs.sum())
    ens_states = [ginibre(rng, 3) for _ in range(3)]
    reference = ginibre(rng, 3)
    channel = _random_channel(rng, 3, 2, 3)
    kets = [random_ket(rng, 2) for _ in range(2)]
    return [
        {"id": "holevo", "op": "cli", "argv": ["holevo", "{ensemble}"],
         "files": {"ensemble": ("ensemble", ens_probs, ens_states)},
         "probs": ens_probs, "states": ens_states},
        {"id": "au-check", "op": "cli", "argv": ["au-check", "--a", "0.25"], "a": 0.25},
        {"id": "petz-check", "op": "cli",
         "argv": ["petz-check", "--reference", "{reference}", "--channel", "{channel}"],
         "files": {"reference": ("matrix", reference), "channel": ("channel", channel)},
         "in_dim": 3, "out_dim": 2},
        {"id": "chi-q-pure", "op": "cli", "argv": ["chi-q", "{pure}", "--n", "3"],
         "files": {"pure": ("ensemble", [0.5, 0.5], [np.outer(k, k.conj()) for k in kets])},
         "probs": [0.5, 0.5], "kets": kets, "n": 3},
        {"id": "sweep-example", "op": "cli", "argv": ["sweep-example", "--steps", "11"],
         "steps": 11},
    ]


WORKLOADS = {
    "chi-corpus": chi_corpus,
    "fidelity-pairs": fidelity_pairs,
    "acc-info": acc_info,
    "cli-session": cli_session,
}


def build(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)


def matrix_json(m: np.ndarray) -> dict:
    """The package's matrix wire format: rows, cols and row-major re/im lists."""
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": m.real.tolist(), "im": m.imag.tolist()}


def file_json(spec) -> dict:
    """The JSON document a CLI input file holds, from a ``files`` entry."""
    kind = spec[0]
    if kind == "ensemble":
        _, probs, states = spec
        return {"members": [{"p": p, "state": matrix_json(s)} for p, s in zip(probs, states)]}
    if kind == "matrix":
        return matrix_json(spec[1])
    kraus = spec[1]
    return {"in_dim": kraus[0].shape[1], "out_dim": kraus[0].shape[0],
            "kraus": [matrix_json(k) for k in kraus]}


def _jsonable(value):
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return matrix_json(value)
        return {"re": value.real.tolist(), "im": value.imag.tolist()}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(_jsonable(build(args.workload, args.seed)), indent=1))
