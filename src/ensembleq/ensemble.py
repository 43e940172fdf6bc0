"""Ensembles of quantum states: Holevo quantity, broadcastability, extension sets.

``classical_broadcast`` builds the exact extension set of a commuting family;
``_site_count`` is the site-count check of every extension entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _kernel as _k
from .densmat import (
    DensityMatrix,
    DimensionProfile,
    _require_finite,
    _require_int,
    _real_array,
    matrix_from_json,
    matrix_to_json,
)
from .errors import InvalidInput, NumericalFailure, PreconditionViolated, ResourceLimit, malformed

#: Default commutator-norm tolerance below which an ensemble counts as classical.
COMMUTE_TOL = 1e-9
#: Hard cap on the total extension dimension d**n.
DIM_CAP = 64
#: Feasibility tolerance for extension sets (max marginal deviation, Frobenius).
FEAS_TOL = 1e-7

__all__ = [
    "COMMUTE_TOL",
    "DIM_CAP",
    "FEAS_TOL",
    "Ensemble",
    "BroadcastReport",
    "ExtensionSet",
    "shannon_entropy",
    "holevo",
    "is_broadcastable",
    "classical_broadcast",
    "build_flagged_state",
]


def _require_probabilities(probs, what: str = "probability vector") -> np.ndarray:
    """``probs`` as a float vector, or InvalidInput unless it is a probability vector.

    That is a non-empty 1-D vector of finite real numbers, each at least
    -1e-12, that sum to 1 within 1e-10.
    """
    p = _real_array(list(probs) if isinstance(probs, Iterator) else probs, what)
    if p.ndim != 1 or p.size == 0:
        raise InvalidInput(f"{what} must be a non-empty 1-D vector, got shape {p.shape}")
    _require_finite(p, what)
    if np.any(p < -1e-12):
        raise InvalidInput(f"{what} has a negative entry {p.min():.3e}")
    if abs(float(p.sum()) - 1.0) > 1e-10:
        raise InvalidInput(f"{what} must sum to 1, got {p.sum():.12g}")
    return p


class Ensemble:
    """A finite ensemble {(p_i, rho_i)} of same-dimension states.

    Probabilities must be finite, nonnegative and sum to 1 within 1e-10;
    states are validated through :class:`DensityMatrix`.
    """

    def __init__(self, members: Sequence[tuple[float, DensityMatrix]]):
        members = list(members)
        if not members:
            raise InvalidInput("ensemble must have at least one member")
        probs = _require_probabilities([p for p, _ in members], "ensemble probabilities")
        states = tuple(
            rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho) for _, rho in members
        )
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise InvalidInput(f"all members must share one dimension, got {sorted(dims)}")
        self._probs = np.clip(probs, 0.0, None)
        self._probs.setflags(write=False)
        self._states = states

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        return self._states

    @property
    def dim(self) -> int:
        return self._states[0].dim

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return iter(zip(self._probs.tolist(), self._states))

    def average_state(self) -> DensityMatrix:
        avg = sum(p * s.mat for p, s in zip(self._probs, self._states))
        return DensityMatrix(avg)

    @classmethod
    def from_json(cls, obj) -> "Ensemble":
        """Decode {"dim": d, "members": [{"p": ..., "state": matrix}, ...]}.

        The "p" fields are optional; when absent the ensemble is uniform.
        """
        if not isinstance(obj, dict):
            raise InvalidInput("ensemble JSON must be an object")
        if "members" not in obj or not isinstance(obj["members"], list) or not obj["members"]:
            raise InvalidInput("ensemble JSON needs a non-empty 'members' list")
        members = obj["members"]
        have_p = [("p" in m) for m in members if isinstance(m, dict)]
        if len(have_p) != len(members):
            raise InvalidInput("every ensemble member must be an object")
        if any(have_p) and not all(have_p):
            raise InvalidInput("either all members carry 'p' or none do")
        with malformed("ensemble"):
            pairs = []
            for m in members:
                if "state" not in m:
                    raise InvalidInput("ensemble member missing 'state'")
                p = m["p"] if all(have_p) else 1.0 / len(members)
                pairs.append((p, DensityMatrix(matrix_from_json(m["state"]))))
            ens = cls(pairs)
            if "dim" in obj and _require_int(obj["dim"], "dim") != ens.dim:
                raise InvalidInput(
                    f"declared dim {obj['dim']} does not match member dimension {ens.dim}"
                )
        return ens

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "members": [
                {"p": float(p), "state": matrix_to_json(s.mat)} for p, s in self
            ],
        }

    def __repr__(self) -> str:
        return f"Ensemble(dim={self.dim}, members={len(self)})"


@dataclass(frozen=True)
class BroadcastReport:
    """Outcome of the pairwise-commutator broadcastability test."""

    broadcastable: bool
    max_commutator_norm: float
    worst_pair: tuple[int, int]

    def __bool__(self) -> bool:
        return self.broadcastable


def shannon_entropy(probs: Iterable[float]) -> float:
    """Shannon entropy in bits of a probability vector."""
    p = _require_probabilities(probs)
    p = p[p > 0.0]
    return max(float(-(p * np.log2(p)).sum()), 0.0)


def holevo(e: Ensemble) -> float:
    """Holevo quantity chi = S(avg) - sum_i p_i S(rho_i), in bits."""
    return max(_k.holevo_bits(e.probs, [s.mat for s in e.states]), 0.0)


def is_broadcastable(e: Ensemble, tol: float = COMMUTE_TOL) -> BroadcastReport:
    """Classify an ensemble as classical (pairwise commuting) or not.

    The score is the maximum Frobenius norm of [rho_i, rho_j] over all pairs.
    A single-member ensemble is trivially broadcastable.
    """
    worst = (0, 0)
    worst_norm = 0.0
    states = [s.mat for s in e.states]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            comm = states[i] @ states[j] - states[j] @ states[i]
            norm = float(np.linalg.norm(comm))
            if norm > worst_norm:
                worst_norm = norm
                worst = (i, j)
    return BroadcastReport(worst_norm <= tol, worst_norm, worst)


def _simultaneous_eigenbasis(states: Sequence[np.ndarray], tol: float = 1e-8) -> np.ndarray:
    """Common eigenbasis of a commuting family.

    Diagonalizes a randomly weighted combination of the states (seeded, so the
    output is deterministic) to break degeneracies, then verifies that every
    member is diagonal in the resulting basis.
    """
    avg = sum(states) / len(states)
    rng = np.random.default_rng(7)
    for _ in range(8):
        coeffs = rng.uniform(0.05, 0.25, size=len(states))
        probe = avg + sum(c * s for c, s in zip(coeffs, states))
        _, basis = np.linalg.eigh(_k.hermitize(probe))
        ok = True
        for s in states:
            rotated = basis.conj().T @ s @ basis
            off = rotated - np.diag(np.diagonal(rotated))
            if float(np.max(np.abs(off))) > tol:
                ok = False
                break
        if ok:
            return basis
    raise NumericalFailure("failed to find a simultaneous eigenbasis")


def _site_count(n, d: int) -> int:
    """``n`` as an int, or InvalidInput unless it counts at least 2 sites.

    Raises ResourceLimit when d**n exceeds DIM_CAP, without forming d**n
    for more sites than DIM_CAP has bits.
    """
    n = _require_int(n, "site count")
    if n < 2:
        raise InvalidInput(f"extension needs at least 2 sites, got n={n}")
    if d ** min(n, DIM_CAP.bit_length()) > DIM_CAP:
        raise ResourceLimit(f"extension dimension {d}**{n} exceeds the cap {DIM_CAP}")
    return n


class ExtensionSet:
    """n-site extensions of ensemble members with all marginals pinned.

    Invariant: for every member and every site, the single-site marginal of
    the extension matches the member's target state within FEAS_TOL.
    """

    def __init__(self, n: int, local_dim: int,
                 extensions: Sequence[DensityMatrix],
                 target_marginals: Sequence[DensityMatrix]):
        local_dim = _require_int(local_dim, "local dimension")
        if local_dim < 2:
            raise InvalidInput(f"local dimension must be at least 2, got {local_dim}")
        n = _site_count(n, local_dim)
        extensions = tuple(
            e if isinstance(e, DensityMatrix) else DensityMatrix(e) for e in extensions
        )
        targets = tuple(
            t if isinstance(t, DensityMatrix) else DensityMatrix(t)
            for t in target_marginals
        )
        if not extensions or len(extensions) != len(targets):
            raise InvalidInput("extensions and targets must pair up one-to-one")
        big = local_dim**n
        if any(e.dim != big for e in extensions):
            raise InvalidInput(f"every extension must have dimension {big}")
        if any(t.dim != local_dim for t in targets):
            raise InvalidInput(f"every target must have dimension {local_dim}")
        self.n = n
        self.local_dim = local_dim
        self.extensions = extensions
        self.target_marginals = targets
        resid = self.feasibility_residual()
        if resid > FEAS_TOL:
            raise InvalidInput(
                f"marginal deviation {resid:.3e} exceeds feasibility tolerance {FEAS_TOL:.1e}"
            )

    @property
    def member_count(self) -> int:
        return len(self.extensions)

    def feasibility_residual(self) -> float:
        """Largest Frobenius deviation of any single-site marginal from its target."""
        return _k.marginal_residual(
            [e.mat for e in self.extensions],
            [t.mat for t in self.target_marginals],
            self.local_dim, self.n,
        )


def classical_broadcast(e: Ensemble, n: int) -> ExtensionSet:
    """Exact n-fold broadcast of a commuting ensemble.

    In the common eigenbasis {|k>}, each member rho_i maps to
    sum_k <k|rho_i|k> |k...k><k...k| on n sites; every single-site marginal
    reproduces rho_i exactly.
    """
    d, n = e.dim, _site_count(n, e.dim)
    report = is_broadcastable(e)
    if not report:
        raise PreconditionViolated(
            f"ensemble is not broadcastable: max commutator norm "
            f"{report.max_commutator_norm:.3e} at pair {report.worst_pair}"
        )
    basis = _simultaneous_eigenbasis([s.mat for s in e.states])
    extensions = []
    for s in e.states:
        weights = np.real(np.einsum("ik,ij,jk->k", basis.conj(), s.mat, basis))
        weights = np.clip(weights, 0.0, None)
        weights = weights / weights.sum()
        extensions.append(DensityMatrix(_k.hermitize(_k.copies(weights, basis, n))))
    return ExtensionSet(
        n=n,
        local_dim=d,
        extensions=extensions,
        target_marginals=list(e.states),
    )


def build_flagged_state(exts: ExtensionSet, probs: Iterable[float]):
    """Attach an orthogonal flag register to a set of extensions.

    Returns ``(state, profile)`` where the state is
    sum_i p_i |i><i| (x) ext_i and the profile is (members, d, ..., d) with
    the flag register as site 0.
    """
    p = _require_probabilities(probs, "flag probabilities")
    if p.size != len(exts.extensions):
        raise InvalidInput(
            f"got {p.size} probabilities for {len(exts.extensions)} extensions"
        )
    m = p.size
    big = exts.extensions[0].dim
    out = np.zeros((m * big, m * big), dtype=complex)
    for i, (pi, ext) in enumerate(zip(p, exts.extensions)):
        out[i * big:(i + 1) * big, i * big:(i + 1) * big] = pi * ext.mat
    profile = DimensionProfile((m,) + (exts.local_dim,) * exts.n)
    return DensityMatrix(out), profile
