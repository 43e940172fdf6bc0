"""Accessible information, its gap to the Holevo quantity, and pure-state limits.

Accessible information is the largest classical mutual information between the
ensemble label and the outcome of any measurement.  It is bounded above by the
Holevo quantity, with equality exactly for commuting ensembles.  The optimizer
here reports a lower bound: the best of seeded fixed-point ascents over
rank-one measurements with at most d^2 outcomes (which suffice, by Davies,
IEEE TIT 24, 596 (1978)), each run until its steps no longer move it,
strengthened on qubits by an exhaustive scan over binary projective
measurements in the plane spanned by the member states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernel as _k
from .densmat import (
    _require_finite,
    _require_int,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    von_neumann_entropy,
)
from .ensemble import Ensemble, holevo, shannon_entropy
from .errors import InvalidInput, PreconditionViolated, ResourceLimit, malformed
from .rand import rng_from

__all__ = [
    "ACC_DIM_CAP",
    "AccInfoReport",
    "OptimizerConfig",
    "Povm",
    "PureLimitReport",
    "accessible_information",
    "fuchs_quantumness",
    "mutual_information",
    "pure_limit_identities",
]

POVM_TOL = 1e-9

# measurement optimization is a desk-scale tool; larger systems need a
# dedicated solver
ACC_DIM_CAP = 4

# spectral floor when inverting the completeness normalizer
NORMALIZER_FLOOR = 1e-12

# number of grid points covering [0, pi) in the projective-measurement scan
SCAN_STEPS = 5000


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the measurement ascent in accessible_information.

    ``restarts`` seeded ascents run, the first from the average state's
    eigenbasis and the rest from random vectors drawn with ``seed``; each is
    capped at ``max_iters`` fixed-point steps.  The defaults (32 restarts,
    2000 steps, seed 42) are what ``accessible_information(e)`` and the CLI
    run; the seed must be nonnegative.  The extension solvers of chi_q and
    fidelity_q are convex, run from one start and take no settings.
    """

    max_iters: int = 2000
    restarts: int = 32
    seed: int = 42

    def __post_init__(self):
        for name in ("max_iters", "restarts", "seed"):
            object.__setattr__(self, name, _require_int(getattr(self, name), name))
        if self.max_iters < 1 or self.restarts < 1:
            raise InvalidInput("iteration and restart counts must be positive")
        if self.seed < 0:
            raise InvalidInput(f"seed must be nonnegative, got {self.seed}")


class Povm:
    """A generalized measurement: PSD elements summing to the identity.

    Validation happens at construction: every element must be Hermitian PSD
    within POVM_TOL and the elements must sum to the identity within POVM_TOL.
    """

    def __init__(self, elements: Sequence[np.ndarray]):
        els = [_require_finite(np.array(as_matrix(m), dtype=complex)) for m in elements]
        if not els:
            raise InvalidInput("a measurement needs at least one element")
        d = els[0].shape[0]
        if any(m.shape != (d, d) for m in els):
            raise InvalidInput("all measurement elements must be square of equal size")
        total = np.zeros((d, d), dtype=complex)
        for idx, m in enumerate(els):
            if float(np.linalg.norm(m - m.conj().T)) > POVM_TOL:
                raise InvalidInput(f"measurement element {idx} is not Hermitian")
            w = np.linalg.eigvalsh(_k.hermitize(m))
            if float(w[0]) < -POVM_TOL:
                raise InvalidInput(
                    f"measurement element {idx} has negative eigenvalue {w[0]:.3e}"
                )
            total += m
        if float(np.linalg.norm(total - np.eye(d))) > POVM_TOL:
            raise InvalidInput("measurement elements do not sum to the identity")
        self.elements = tuple(els)
        self.dim = d

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "elements": [matrix_to_json(m) for m in self.elements],
        }

    @classmethod
    def from_json(cls, obj) -> "Povm":
        if not isinstance(obj, dict) or "elements" not in obj:
            raise InvalidInput("POVM JSON must be an object with an 'elements' list")
        with malformed("POVM"):
            return cls([matrix_from_json(m) for m in obj["elements"]])

    def __repr__(self) -> str:
        return f"Povm(dim={self.dim}, elements={len(self.elements)})"


def _mutual_info_bits(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """I(label; outcome) in bits from outcome probabilities q[..., i, k] = Tr(rho_i M_k)."""
    return np.einsum("i,...ik->...", probs, q * _log_ratio(probs, q)) / np.log(2.0)


def _log_ratio(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """ln(q_ik / q_k) with q_k = sum_i p_i q_ik, and 0 where q_ik or q_k is 0."""
    q_k = np.einsum("i,...ik->...k", probs, q)[..., None, :]
    seen = (q > 0.0) & (q_k > 0.0)
    return np.log(np.where(seen, q, 1.0) / np.where(seen, q_k, 1.0))


def _outcomes(states: np.ndarray, b: np.ndarray):
    """Outcome probabilities of the rank-one elements |b_k><b_k|, b[..., k, :] = b_k.

    Returns q[..., i, k] = <b_k| rho_i |b_k> and the images rb[..., i, k, :] = rho_i b_k.
    """
    rb = b[..., None, :, :] @ np.swapaxes(states, -1, -2)
    return np.einsum("...kx,...ikx->...ik", b.conj(), rb).real, rb


def mutual_information(e: Ensemble, m: Povm) -> float:
    """Classical mutual information between ensemble label and outcome, in bits."""
    if not isinstance(m, Povm):
        m = Povm(m)
    if m.dim != e.dim:
        raise InvalidInput(
            f"measurement dimension {m.dim} does not match ensemble dimension {e.dim}"
        )
    states = np.stack([s.mat for s in e.states])
    q = np.einsum("ixy,kyx->ik", states, np.stack(m.elements)).real
    return float(max(_mutual_info_bits(e.probs, q), 0.0))


@dataclass(frozen=True)
class AccInfoReport:
    """Lower bound on accessible information with the achieving measurement.

    ``mutual_info_per_restart`` records the value found by every optimization
    candidate (the seeded fixed-point ascents, plus the projective scan on
    qubits), so outliers are auditable.  ``holevo_gap`` is chi - value,
    nonnegative up to solver tolerance.
    """

    value: float
    best_povm: Povm
    restarts_used: int
    mutual_info_per_restart: tuple[float, ...]
    holevo_gap: float

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "holevo_gap": float(self.holevo_gap),
            "restarts_used": int(self.restarts_used),
            "mutual_info_per_restart": [float(v) for v in self.mutual_info_per_restart],
            "best_povm": self.best_povm.to_json(),
        }


def _complete(c: np.ndarray) -> np.ndarray:
    """Rows b_k = G^{-1/2} c_k with G = sum_k c_k c_k^dag, so sum_k b_k b_k^dag = 1.

    Leading axes are independent sets.  G's spectrum is floored at
    NORMALIZER_FLOOR before the inverse square root.
    """
    w, v = np.linalg.eigh(np.swapaxes(c, -1, -2) @ c.conj())
    scaled = v / np.sqrt(np.maximum(w, NORMALIZER_FLOOR))[..., None, :]
    return c @ (v.conj() @ np.swapaxes(scaled, -1, -2))


def _ascend(probs: np.ndarray, states: np.ndarray, b: np.ndarray, max_iters: int):
    """Fixed-point ascent of the mutual information over rank-one measurements.

    ``b[s]`` holds the vectors of start s; the starts advance together, each on
    its own step size.  A step moves b_k to b_k + eps R_k b_k with
    R_k = sum_i p_i rho_i ln(q_ik / q_k), the gradient of the information (in
    nats) with respect to M_k, and restores completeness (Rehacek, Englert and
    Kaszlikowski, PRA 71, 054303 (2005)).  eps doubles after an accepted step
    and halves within a step until the information does not fall.  A start
    stops when a step gains nothing because it no longer moves the vectors in
    floating point, or after ``max_iters`` steps.  Steps on which the value
    only holds are kept: near a saddle the gains fall below rounding long
    before the ascent has left it.  Returns (values in bits, vectors), one per
    start.
    """
    b = b.copy()
    q, rb = _outcomes(states, b)
    val = _mutual_info_bits(probs, q)
    eps = np.ones(len(b))
    steps = np.zeros(len(b), dtype=int)
    live = np.arange(len(b))
    while live.size:
        b_live = b[live]
        direction = np.einsum("i,...ik,...ikx->...kx", probs, _log_ratio(probs, q[live]), rb[live])
        c = b_live + eps[live, None, None] * direction
        trial = _complete(c)
        q_trial, rb_trial = _outcomes(states, trial)
        val_trial = _mutual_info_bits(probs, q_trial)
        moved = np.any(c != b_live, axis=(1, 2))
        kept = moved & (val_trial >= val[live])
        up = live[kept]
        b[up], q[up], rb[up], val[up] = trial[kept], q_trial[kept], rb_trial[kept], val_trial[kept]
        eps[up] *= 2.0
        eps[live[moved & ~kept]] /= 2.0
        steps[up] += 1
        live = live[moved & (steps[live] < max_iters)]
    return val, b


def _projective_scan(probs: np.ndarray, states: Sequence[np.ndarray]):
    """Exhaustive scan over binary projective qubit measurements.

    Directions sweep the plane spanned by the member Bloch vectors (every
    binary projective optimum lies in that plane whenever the vectors are
    coplanar with the origin, which covers all two-member and all commuting
    ensembles); step pi / SCAN_STEPS.
    """
    bloch = np.stack([_k.bloch_vector(s) for s in states])  # (k, 3)
    u, s, vt = np.linalg.svd(bloch, full_matrices=False)
    frame = np.eye(3)[:2]
    if s.size and s[0] > 1e-12:
        e1 = vt[0]
        if vt.shape[0] > 1 and s[1] > 1e-12:
            e2 = vt[1]
        else:
            pick = np.eye(3)[int(np.argmin(np.abs(e1)))]
            e2 = pick - np.dot(pick, e1) * e1
            e2 /= np.linalg.norm(e2)
        frame = np.stack([e1, e2])
    thetas = np.arange(SCAN_STEPS) * (np.pi / SCAN_STEPS)
    dirs = np.cos(thetas)[:, None] * frame[0] + np.sin(thetas)[:, None] * frame[1]
    q = np.clip((1.0 + bloch @ dirs.T).T / 2.0, 0.0, 1.0)  # (steps, k) outcome-plus probabilities
    vals = _mutual_info_bits(probs, np.stack([q, 1.0 - q], axis=-1))
    best = int(np.argmax(vals))
    n = dirs[best]
    pauli = (
        n[0] * np.array([[0, 1], [1, 0]], dtype=complex)
        + n[1] * np.array([[0, -1j], [1j, 0]], dtype=complex)
        + n[2] * np.array([[1, 0], [0, -1]], dtype=complex)
    )
    plus = (np.eye(2) + pauli) / 2.0
    return float(vals[best]), [plus, np.eye(2) - plus]


def accessible_information(
    e: Ensemble, cfg: Optional[OptimizerConfig] = None
) -> AccInfoReport:
    """Best found measurement mutual information; a lower bound on the truth.

    Runs ``cfg.restarts`` seeded fixed-point ascents over rank-one
    measurements, each capped at ``cfg.max_iters`` steps: the first starts at
    the eigenbasis of the average state (d outcomes, exact for commuting
    ensembles), every further one at a random set of d^2 vectors.  On qubits
    the exhaustive projective-plane scan runs as well.  The best candidate
    wins; ties keep the earliest.
    """
    cfg = cfg or OptimizerConfig()
    d = e.dim
    if d > ACC_DIM_CAP:
        raise ResourceLimit(
            f"measurement optimization capped at dimension {ACC_DIM_CAP}, got {d}"
        )
    probs = e.probs
    states = np.stack([s.mat for s in e.states])

    _, vecs = np.linalg.eigh(e.average_state().mat)
    g = rng_from(cfg.seed).normal(size=(cfg.restarts - 1, 2, d * d, d))
    runs = [
        _ascend(probs, states, vecs.T[None], cfg.max_iters),
        _ascend(probs, states, _complete(g[:, 0] + 1j * g[:, 1]), cfg.max_iters),
    ]

    per_restart: list[float] = []
    best_val = -np.inf
    best_elements: Optional[list[np.ndarray]] = None
    for vals, vectors in runs:
        for val, b in zip(vals, vectors):
            per_restart.append(float(val))
            if val > best_val:
                best_val = val
                best_elements = [np.outer(bk, bk.conj()) for bk in b]

    if d == 2:
        scan_val, scan_els = _projective_scan(probs, states)
        per_restart.append(scan_val)
        if scan_val > best_val:
            best_val = scan_val
            best_elements = scan_els

    chi = holevo(e)
    return AccInfoReport(
        value=float(best_val),
        best_povm=Povm(best_elements),
        restarts_used=len(per_restart),
        mutual_info_per_restart=tuple(per_restart),
        holevo_gap=float(chi - best_val),
    )


def fuchs_quantumness(e: Ensemble, cfg: Optional[OptimizerConfig] = None) -> float:
    """The unreachable part of the Holevo bound: chi minus accessible information."""
    return float(holevo(e) - accessible_information(e, cfg).value)


@dataclass(frozen=True)
class PureLimitReport:
    """Infinite-copy limits for a pure-state ensemble, from shared one-shot terms.

    chi_q_inf = H({p}) - S(avg); iacc_q_inf = H({p}) - I_acc;
    q_fuchs = S(avg) - I_acc.  The three satisfy
    q_fuchs = iacc_q_inf - chi_q_inf identically because S(avg) and I_acc are
    evaluated once and reused; identity_residual records the float leftovers.
    """

    chi_q_inf: float
    iacc_q_inf: float
    q_fuchs: float
    identity_residual: float

    def to_json(self) -> dict:
        return {
            "chi_q_inf": float(self.chi_q_inf),
            "iacc_q_inf": float(self.iacc_q_inf),
            "q_fuchs": float(self.q_fuchs),
            "identity_residual": float(self.identity_residual),
        }


def pure_limit_identities(
    e: Ensemble, cfg: Optional[OptimizerConfig] = None
) -> PureLimitReport:
    """Closed-form infinite-copy quantumness limits (pure members only)."""
    for idx, s in enumerate(e.states):
        if not _k.is_pure(s.mat):
            raise PreconditionViolated(
                f"member {idx} is mixed; "
                "the infinite-copy closed forms require pure members"
            )
    h_labels = shannon_entropy(e.probs)
    s_avg = von_neumann_entropy(e.average_state().mat)
    iacc = accessible_information(e, cfg).value
    chi_q_inf = h_labels - s_avg
    iacc_q_inf = h_labels - iacc
    q_fuchs = s_avg - iacc
    residual = abs(q_fuchs - (iacc_q_inf - chi_q_inf))
    return PureLimitReport(
        chi_q_inf=float(chi_q_inf),
        iacc_q_inf=float(iacc_q_inf),
        q_fuchs=float(q_fuchs),
        identity_residual=float(residual),
    )
