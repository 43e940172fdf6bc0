"""Quantum channels, the canonical recovery map, and qubit pair-transformation feasibility.

Channels are stored as Kraus operator lists and validated as completely
positive and trace preserving at construction.  The recovery map built from a
reference state reverses a channel on that state exactly and, in the equality
cases of the data-processing inequality, on entire families of states.  The
pair-transformation check implements the qubit criterion comparing trace-norm
separations across a parameter grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._kernel import hermitize
from .densmat import (
    DensityMatrix,
    _as_profile,
    as_matrix,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    trace_norm,
)
from .errors import InvalidInput, malformed

__all__ = [
    "AuReport",
    "Channel",
    "ExampleStates",
    "KRAUS_TP_TOL",
    "CHOI_PSD_TOL",
    "apply_channel",
    "au_feasible",
    "identity_channel",
    "orthogonal_pair_example",
    "partial_trace_channel",
    "petz_map",
]

KRAUS_TP_TOL = 1e-9
CHOI_PSD_TOL = 1e-9

# eigenvalue floor when extracting Kraus operators from a process matrix
CHOI_RANK_FLOOR = 1e-12

# spectral floor deciding the support of a reference image inside the
# recovery-map construction
SUPPORT_FLOOR = 1e-12


class Channel:
    """A completely positive trace-preserving map in Kraus form.

    Invariants checked at construction: the Kraus operators satisfy
    sum(K^dag K) = identity within KRAUS_TP_TOL, and the process matrix is
    positive semidefinite within CHOI_PSD_TOL.  The process matrix is computed
    once and cached, so instances are immutable and shareable.
    """

    def __init__(self, kraus_ops: Sequence[np.ndarray]):
        ops = [np.array(as_matrix(k), dtype=complex) for k in kraus_ops]
        if not ops:
            raise InvalidInput("a channel needs at least one Kraus operator")
        out_dim, in_dim = ops[0].shape
        if any(k.shape != (out_dim, in_dim) for k in ops):
            raise InvalidInput("all Kraus operators must share one shape")
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.linalg.norm(total - np.eye(in_dim)))
        if dev > KRAUS_TP_TOL:
            raise InvalidInput(
                f"Kraus operators are not trace preserving: |sum K^dag K - I| = {dev:.3e}"
            )
        self._kraus = tuple(ops)
        self._in_dim = int(in_dim)
        self._out_dim = int(out_dim)
        self._choi = self._build_choi()
        w = np.linalg.eigvalsh(self._choi)
        if float(w[0]) < -CHOI_PSD_TOL:
            raise InvalidInput(
                f"channel is not completely positive: process-matrix eigenvalue {w[0]:.3e}"
            )

    def _build_choi(self) -> np.ndarray:
        d_in, d_out = self._in_dim, self._out_dim
        choi = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
        for k in self._kraus:
            vec = k.reshape(-1, order="C")  # |K>> with (out, in) index order
            choi += np.outer(vec, vec.conj())
        return hermitize(choi)

    @property
    def in_dim(self) -> int:
        return self._in_dim

    @property
    def out_dim(self) -> int:
        return self._out_dim

    @property
    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        return self._kraus

    @property
    def choi(self) -> np.ndarray:
        return self._choi.copy()

    @classmethod
    def from_choi(cls, choi, in_dim: int, out_dim: int) -> "Channel":
        """Rebuild Kraus operators from a process matrix by eigendecomposition.

        Eigenvalues at or below CHOI_RANK_FLOOR are dropped.
        """
        a = hermitize(np.array(as_matrix(choi), dtype=complex))
        in_dim, out_dim = int(in_dim), int(out_dim)
        if a.shape != (out_dim * in_dim, out_dim * in_dim):
            raise InvalidInput(
                f"process matrix shape {a.shape} does not match dims "
                f"{out_dim}*{in_dim}"
            )
        w, v = np.linalg.eigh(a)
        ops = []
        for wi, vi in zip(w, v.T):
            if wi > CHOI_RANK_FLOOR:
                ops.append(np.sqrt(wi) * vi.reshape(out_dim, in_dim, order="C"))
        if not ops:
            raise InvalidInput("process matrix has no spectrum above the rank floor")
        return cls(ops)

    def apply(self, rho) -> DensityMatrix:
        """Apply the channel to a state."""
        mat = rho.mat if isinstance(rho, DensityMatrix) else as_matrix(rho)
        if mat.shape != (self._in_dim, self._in_dim):
            raise InvalidInput(
                f"state dimension {mat.shape[0]} does not match channel input "
                f"{self._in_dim}"
            )
        out = sum(k @ mat @ k.conj().T for k in self._kraus)
        return DensityMatrix(hermitize(out))

    def apply_raw(self, x: np.ndarray) -> np.ndarray:
        """Apply the channel to an arbitrary operator (no state validation)."""
        return sum(k @ x @ k.conj().T for k in self._kraus)

    def adjoint_raw(self, y: np.ndarray) -> np.ndarray:
        """Apply the adjoint (Heisenberg-picture) map sum(K^dag Y K)."""
        return sum(k.conj().T @ y @ k for k in self._kraus)

    def to_json(self) -> dict:
        return {
            "in_dim": self._in_dim,
            "out_dim": self._out_dim,
            "kraus": [matrix_to_json(k) for k in self._kraus],
        }

    @classmethod
    def from_json(cls, obj) -> "Channel":
        if not isinstance(obj, dict) or "kraus" not in obj:
            raise InvalidInput("channel JSON must be an object with a 'kraus' list")
        with malformed("channel"):
            ch = cls([matrix_from_json(k) for k in obj["kraus"]])
            if "in_dim" in obj and int(obj["in_dim"]) != ch.in_dim:
                raise InvalidInput("declared in_dim does not match Kraus shapes")
            if "out_dim" in obj and int(obj["out_dim"]) != ch.out_dim:
                raise InvalidInput("declared out_dim does not match Kraus shapes")
        return ch

    def __repr__(self) -> str:
        return (
            f"Channel(in_dim={self._in_dim}, out_dim={self._out_dim}, "
            f"kraus={len(self._kraus)})"
        )


def apply_channel(ch: Channel, rho) -> DensityMatrix:
    """Apply a channel to a state (module-level convenience form)."""
    return ch.apply(rho)


def identity_channel(dim: int) -> Channel:
    return Channel([np.eye(int(dim), dtype=complex)])


def petz_map(reference: DensityMatrix, ch: Channel) -> Channel:
    """Canonical recovery channel of ``ch`` with respect to ``reference``.

    The map sends X to sqrt(ref) . ch^dag( s X s ) . sqrt(ref), where
    s = ch(ref)^{-1/2} on the support of ch(ref).  Its Kraus operators are
    sqrt(ref) K^dag s.  On the kernel of ch(ref) those operators vanish, so
    the map is completed to trace preservation by routing that kernel to the
    reference state itself; the completion never acts on inputs supported in
    the image of the reference.  The composite recovers ``reference`` from
    ch(reference) exactly.
    """
    if not isinstance(reference, DensityMatrix):
        reference = DensityMatrix(reference)
    if reference.dim != ch.in_dim:
        raise InvalidInput(
            f"reference dimension {reference.dim} does not match channel input "
            f"{ch.in_dim}"
        )
    ref = reference.mat
    image = hermitize(ch.apply_raw(ref))
    sqrt_ref = matrix_function(ref, "sqrt")
    inv_sqrt_image = matrix_function(image, "inv_sqrt_on_support")

    ops = [sqrt_ref @ k.conj().T @ inv_sqrt_image for k in ch.kraus_ops]

    # completion: route the kernel of ch(ref) to the reference state
    w, v = np.linalg.eigh(image)
    kernel_vecs = [vi for wi, vi in zip(w, v.T) if wi <= SUPPORT_FLOOR]
    if kernel_vecs:
        rw, rv = np.linalg.eigh(ref)
        for q in kernel_vecs:
            for lam, vec in zip(rw, rv.T):
                if lam > SUPPORT_FLOOR:
                    ops.append(np.sqrt(lam) * np.outer(vec, q.conj()))
    return Channel(ops)


def partial_trace_channel(profile, keep) -> Channel:
    """The channel tracing out every site not listed in ``keep``."""
    prof = _as_profile(profile)
    dims = prof.local_dims
    n = len(dims)
    if isinstance(keep, (int, np.integer)):
        keep_list = [int(keep)]
    else:
        keep_list = sorted({int(k) for k in keep})
    if not keep_list:
        raise InvalidInput("keep set must not be empty")
    if not set(keep_list).issubset(range(n)):
        raise InvalidInput(f"keep set {keep_list} out of range for {n} sites")
    traced = [i for i in range(n) if i not in keep_list]
    d_total = prof.total_dim
    d_keep = int(np.prod([dims[i] for i in keep_list]))

    if not traced:
        return identity_channel(d_total)

    # one Kraus operator per basis vector of the traced subsystem
    traced_dims = [dims[i] for i in traced]
    ops = []
    for flat in range(int(np.prod(traced_dims))):
        rem, m_idx = flat, []
        for td in reversed(traced_dims):
            m_idx.append(rem % td)
            rem //= td
        m_idx.reverse()
        k = np.zeros((d_keep, d_total), dtype=complex)
        for full in range(d_total):
            rem, digits = full, []
            for d_site in reversed(dims):
                digits.append(rem % d_site)
                rem //= d_site
            digits.reverse()
            if [digits[i] for i in traced] != m_idx:
                continue
            kept_digits = [digits[i] for i in keep_list]
            row = 0
            for i, kd in zip(keep_list, kept_digits):
                row = row * dims[i] + kd
            k[row, full] = 1.0
        ops.append(k)
    return Channel(ops)


@dataclass(frozen=True)
class AuReport:
    """Result of the qubit pair-transformation feasibility scan.

    ``min_margin`` is the smallest value over the parameter grid of
    ||rho1 - t*rho2||_1 - ||sigma1 - t*sigma2||_1; the transformation is
    feasible exactly when no margin is meaningfully negative.
    """

    feasible: bool
    min_margin: float
    argmin_t: float
    grid_size: int

    def to_json(self) -> dict:
        return {
            "feasible": bool(self.feasible),
            "min_margin": float(self.min_margin),
            "argmin_t": float(self.argmin_t),
            "grid_size": int(self.grid_size),
        }


AU_FEASIBLE_TOL = 1e-8

# large-parameter probe standing in for the end point of the grid
AU_LIMIT_T = 1e6


def _require_qubit(rho, name: str) -> np.ndarray:
    if not isinstance(rho, DensityMatrix):
        try:
            rho = DensityMatrix(rho)
        except InvalidInput as exc:
            raise InvalidInput(f"{name}: {exc}") from exc
    if rho.dim != 2:
        raise InvalidInput(f"{name} must be a qubit state, got dimension {rho.dim}")
    # bit-exact symmetrization: the scan scales these by t up to 1e6, which
    # would amplify any anti-Hermitian float noise past validation tolerances
    return hermitize(rho.mat)


def au_feasible(rho1, rho2, sigma1, sigma2, grid: int = 1001) -> AuReport:
    """Qubit criterion for the existence of a channel sending rho_i to sigma_i.

    A channel with sigma_i = ch(rho_i) for i = 1, 2 exists if and only if
    ||rho1 - t*rho2||_1 >= ||sigma1 - t*sigma2||_1 for every t >= 0.  The scan
    substitutes t = s/(1-s) for s on a uniform grid over [0, 1); the s -> 1
    end point compares the leading coefficients (both unit trace norms, always
    a tie) and is therefore resolved by the margin at a large finite t.
    """
    grid = int(grid)
    if grid < 101:
        raise InvalidInput(f"grid must be at least 101, got {grid}")
    r1 = _require_qubit(rho1, "rho1")
    r2 = _require_qubit(rho2, "rho2")
    s1 = _require_qubit(sigma1, "sigma1")
    s2 = _require_qubit(sigma2, "sigma2")

    worst = np.inf
    arg = 0.0
    for j in range(grid):
        s = j / grid
        t = s / (1.0 - s)
        margin = trace_norm(r1 - t * r2) - trace_norm(s1 - t * s2)
        if margin < worst:
            worst, arg = margin, t
    margin = trace_norm(r1 - AU_LIMIT_T * r2) - trace_norm(s1 - AU_LIMIT_T * s2)
    if margin < worst:
        worst, arg = margin, AU_LIMIT_T
    return AuReport(
        feasible=bool(worst >= -AU_FEASIBLE_TOL),
        min_margin=float(worst),
        argmin_t=float(arg),
        grid_size=grid,
    )


@dataclass(frozen=True)
class ExampleStates:
    """The a-parametrized orthogonal two-qubit pair and its closed-form marginals."""

    psi1_ab: DensityMatrix
    psi2_ab: DensityMatrix
    rho1_a: DensityMatrix
    rho1_b: DensityMatrix
    rho2_a: DensityMatrix
    rho2_b: DensityMatrix


def orthogonal_pair_example(a: float) -> ExampleStates:
    """Two orthogonal pure two-qubit states with tunable marginal commutativity.

    The pair is |00> and sqrt(a)|11> + sqrt(a)|10> + sqrt(1-2a)|01>, with
    single-qubit marginals returned in closed form:

        rho2_a = [[1-2a, g], [g, 2a]]   with g = sqrt(a(1-2a))
        rho2_b = [[1-a, a], [a, a]]

    rho2_a equals the literal partial trace of the second state; rho2_b is its
    bit-flipped image (the B register read in reversed basis order), which is
    the convention under which the pair-transformation sweep over a has its
    all-or-nothing answer.  The marginals of |00> are |0><0| on both sides.
    At a = 0 or a = 1/2 the A marginals commute; in between they do not.
    """
    a = float(a)
    if not 0.0 <= a <= 0.5:
        raise InvalidInput(f"parameter a must lie in [0, 1/2], got {a}")
    psi1 = DensityMatrix.from_statevector([1.0, 0.0, 0.0, 0.0])
    amp = np.sqrt(a)
    psi2 = DensityMatrix.from_statevector(
        [0.0, np.sqrt(1.0 - 2.0 * a), amp, amp]
    )
    g = np.sqrt(a * (1.0 - 2.0 * a))
    rho2_a = DensityMatrix(np.array([[1.0 - 2.0 * a, g], [g, 2.0 * a]], dtype=complex))
    rho2_b = DensityMatrix(np.array([[1.0 - a, a], [a, a]], dtype=complex))
    ket0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    return ExampleStates(
        psi1_ab=psi1,
        psi2_ab=psi2,
        rho1_a=ket0,
        rho1_b=ket0,
        rho2_a=rho2_a,
        rho2_b=rho2_b,
    )
