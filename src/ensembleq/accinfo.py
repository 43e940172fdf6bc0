"""Accessible information, its gap to the Holevo quantity, and pure-state limits.

Accessible information is the largest classical mutual information between the
ensemble label and the outcome of any measurement.  It is bounded above by the
Holevo quantity, with equality exactly for commuting ensembles.  The optimizer
here reports a certified lower bound: a seeded multi-start simplex ascent over
a completeness-preserving measurement parametrization, strengthened on qubits
by an exhaustive scan over binary projective measurements in the plane spanned
by the member states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernel as _k
from .densmat import (
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    von_neumann_entropy,
)
from .ensemble import Ensemble, holevo, shannon_entropy
from .errors import InvalidInput, PreconditionViolated, ResourceLimit
from .extopt import OptimizerConfig
from .rand import rng_from

__all__ = [
    "ACC_DIM_CAP",
    "AccInfoReport",
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

DEFAULT_ACC_RESTARTS = 32


class Povm:
    """A generalized measurement: PSD elements summing to the identity.

    Validation happens at construction: every element must be Hermitian PSD
    within POVM_TOL and the elements must sum to the identity within POVM_TOL.
    """

    def __init__(self, elements: Sequence[np.ndarray]):
        els = [np.array(as_matrix(m), dtype=complex) for m in elements]
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
        return cls([matrix_from_json(m) for m in obj["elements"]])

    def __repr__(self) -> str:
        return f"Povm(dim={self.dim}, elements={len(self.elements)})"


def _mutual_info_bits(
    probs: np.ndarray, states: Sequence[np.ndarray], elements: Sequence[np.ndarray]
) -> float:
    """I(label; outcome) in bits for P(i, j) = p_i Tr(rho_i M_j)."""
    from scipy.special import xlogy

    joint = np.empty((len(states), len(elements)))
    for i, rho in enumerate(states):
        for j, m in enumerate(elements):
            joint[i, j] = probs[i] * max(float(np.trace(rho @ m).real), 0.0)
    total = joint.sum()
    if total <= 0.0:
        return 0.0
    joint /= total
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    h_rows = -xlogy(rows, rows).sum()
    h_cols = -xlogy(cols, cols).sum()
    h_joint = -xlogy(joint, joint).sum()
    return float(max(h_rows + h_cols - h_joint, 0.0)) / np.log(2.0)


def mutual_information(e: Ensemble, m: Povm) -> float:
    """Classical mutual information between ensemble label and outcome, in bits."""
    if not isinstance(m, Povm):
        m = Povm(m)
    if m.dim != e.dim:
        raise InvalidInput(
            f"measurement dimension {m.dim} does not match ensemble dimension {e.dim}"
        )
    states = [s.mat for s in e.states]
    return _mutual_info_bits(e.probs, states, m.elements)


@dataclass(frozen=True)
class AccInfoReport:
    """Lower bound on accessible information with the achieving measurement.

    ``mutual_info_per_restart`` records the value found by every optimization
    candidate (seeded simplex restarts, plus the projective scan on qubits),
    so outliers are auditable.  ``holevo_gap`` is chi - value, nonnegative up
    to solver tolerance.
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


def _povm_elements_from_vectors(b: np.ndarray, d: int) -> list[np.ndarray]:
    """Completeness-preserving map from m unconstrained vectors to elements.

    M_i = T^{-1/2} b_i b_i^dag T^{-1/2} with T = sum_i b_i b_i^dag; T's spectrum
    is floored at NORMALIZER_FLOOR and any residual deficit from flooring is
    appended as an extra element so the result always sums to the identity.
    """
    t = np.zeros((d, d), dtype=complex)
    for bi in b:
        t += np.outer(bi, bi.conj())
    w, v = np.linalg.eigh(_k.hermitize(t))
    w = np.maximum(w, NORMALIZER_FLOOR)
    t_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    els = []
    for bi in b:
        c = t_inv_sqrt @ bi
        els.append(np.outer(c, c.conj()))
    deficit = np.eye(d) - sum(els)
    deficit = _k.hermitize(deficit)
    if float(np.linalg.norm(deficit)) > 1e-12:
        els.append(deficit)
    return els


def _binary_mutual_info(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorized I(label; outcome) for binary outcome probabilities q[..., i]."""
    from scipy.special import xlogy

    def h2(x):
        return -(xlogy(x, x) + xlogy(1.0 - x, 1.0 - x)) / np.log(2.0)

    avg = q @ probs
    cond = h2(q) @ probs
    return h2(avg) - cond


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
    q = (1.0 + bloch @ dirs.T).T / 2.0  # (steps, k) outcome-plus probabilities
    vals = _binary_mutual_info(probs, np.clip(q, 0.0, 1.0))
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

    Runs ``cfg.restarts`` seeded simplex ascents over a rank-one measurement
    parametrization with d^2 outcomes (the first start uses the eigenbasis of
    the average state, exact for commuting ensembles), and on qubits also the
    exhaustive projective-plane scan.  The best candidate wins; ties keep the
    earliest.
    """
    # scipy loads on first use, so importing the package stays light
    from scipy.optimize import minimize

    cfg = cfg or OptimizerConfig(restarts=DEFAULT_ACC_RESTARTS)
    d = e.dim
    if d > ACC_DIM_CAP:
        raise ResourceLimit(
            f"measurement optimization capped at dimension {ACC_DIM_CAP}, got {d}"
        )
    probs = e.probs
    states = [s.mat for s in e.states]
    m = d * d

    def unpack(x: np.ndarray) -> np.ndarray:
        parts = x.reshape(m, 2, d)
        return parts[:, 0, :] + 1j * parts[:, 1, :]

    def value_of(x: np.ndarray) -> float:
        return _mutual_info_bits(
            probs, states, _povm_elements_from_vectors(unpack(x), d)
        )

    # deterministic first start: projectors of the average-state eigenbasis
    avg = e.average_state().mat
    _, vecs = np.linalg.eigh(avg)
    x_eig = np.zeros((m, 2, d))
    for j in range(d):
        x_eig[j, 0, :] = vecs[:, j].real
        x_eig[j, 1, :] = vecs[:, j].imag

    starts = [x_eig.reshape(-1)]
    rng = rng_from(cfg.seed)
    for _ in range(max(cfg.restarts - 1, 0)):
        starts.append(rng.normal(size=2 * m * d))

    per_restart: list[float] = []
    best_val = -np.inf
    best_elements: Optional[list[np.ndarray]] = None
    for x0 in starts:
        res = minimize(
            lambda x: -value_of(x),
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": 200 * x0.size,
                "xatol": 1e-6,
                "fatol": 1e-10,
                "adaptive": True,
            },
        )
        val = value_of(res.x)
        per_restart.append(val)
        if val > best_val:
            best_val = val
            best_elements = _povm_elements_from_vectors(unpack(res.x), d)

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
