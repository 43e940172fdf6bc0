"""Quantum channels, the canonical recovery map, and qubit pair-transformation feasibility.

Channels are stored as Kraus operator lists and validated as completely
positive and trace preserving at construction.  The recovery map built from a
reference state reverses a channel on that state exactly and, in the equality
cases of the data-processing inequality, on entire families of states.  The
pair-transformation check implements the qubit Alberti-Uhlmann criterion,
comparing trace-norm separations, with its exact minimum in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernel as _k
from ._kernel import hermitize
from .densmat import (
    DensityMatrix,
    _as_profile,
    _require_finite,
    _require_int,
    as_matrix,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
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
        ops = [_require_finite(np.array(as_matrix(k), dtype=complex)) for k in kraus_ops]
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
        a = hermitize(_require_finite(np.array(as_matrix(choi), dtype=complex)))
        in_dim, out_dim = _require_int(in_dim, "in_dim"), _require_int(out_dim, "out_dim")
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
            if "in_dim" in obj and _require_int(obj["in_dim"], "in_dim") != ch.in_dim:
                raise InvalidInput("declared in_dim does not match Kraus shapes")
            if "out_dim" in obj and _require_int(obj["out_dim"], "out_dim") != ch.out_dim:
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
    # one Kraus operator <m|_traced (x) 1_kept per basis vector m of the traced sites
    ops = (
        np.eye(d_total, dtype=complex)
        .reshape(*dims, d_total)
        .transpose(*traced, *keep_list, n)
        .reshape(-1, d_keep, d_total)
    )
    return Channel(ops)


@dataclass(frozen=True)
class AuReport:
    """Infimum over t >= 0 of ||rho1 - t*rho2||_1 - ||sigma1 - t*sigma2||_1.

    ``argmin_t`` attains it, or is None when only the limit t -> infinity does.
    The transformation is feasible exactly when no margin is meaningfully negative.
    """

    feasible: bool
    min_margin: float
    argmin_t: Optional[float]

    def to_json(self) -> dict:
        return {
            "feasible": bool(self.feasible),
            "min_margin": float(self.min_margin),
            "argmin_t": None if self.argmin_t is None else float(self.argmin_t),
        }


AU_FEASIBLE_TOL = 1e-8

# leading polynomial coefficients at or below this are rounding noise; they
# would put spurious roots at t ~ 1e16, where the margin is not resolvable
AU_COEF_FLOOR = 1e-12


def _require_qubit(rho, name: str) -> np.ndarray:
    if not isinstance(rho, DensityMatrix):
        try:
            rho = DensityMatrix(rho)
        except InvalidInput as exc:
            raise InvalidInput(f"{name}: {exc}") from exc
    if rho.dim != 2:
        raise InvalidInput(f"{name} must be a qubit state, got dimension {rho.dim}")
    return rho.mat


def _nonnegative_roots(poly: np.ndarray) -> list[float]:
    # a double root comes out as a complex pair split by ~1e-8, so every root
    # is kept by its real part: a surplus candidate cannot raise the minimum
    big = np.flatnonzero(np.abs(poly) > AU_COEF_FLOOR)
    roots = np.roots(poly[big[0]:]).real if big.size else []
    return [float(t) for t in roots if t >= 0.0]


def au_feasible(rho1, rho2, sigma1, sigma2) -> AuReport:
    """Qubit criterion for the existence of a channel sending rho_i to sigma_i.

    Such a channel exists if and only if ||rho1 - t*rho2||_1 >=
    ||sigma1 - t*sigma2||_1 for every t >= 0 (Alberti and Uhlmann).  For qubits
    ||(c 1 + v.sigma)/2||_1 = max(|c|, |v|), so with Bloch vectors the margin is
    max(c, f) - max(c, g), c = |1 - t|, f = |r1 - t r2|, g = |s1 - t s2|.  It
    is 0 at t = 0 and never negative where g <= c.  Where g > c it is c - g or
    f - g.  As g is convex, c - g is concave on each side of the kink t = 1, so
    its minimum lies at t = 0, t = 1, a breakpoint f = c or where g = c (margin
    >= 0); f - g is stationary where f' = g'.  f^2 and g^2 are quadratics, so
    the breakpoints and the stationary points are roots of polynomials of
    degree 2 and 4.  The limit t -> infinity is
    (s1.s2 if sigma2 is pure else 1) - (r1.r2 if rho2 is pure else 1).
    """
    mats = [_require_qubit(m, name) for m, name in
            zip((rho1, rho2, sigma1, sigma2), ("rho1", "rho2", "sigma1", "sigma2"))]
    r1, r2, s1, s2 = (_k.bloch_vector(m) for m in mats)
    # f^2, g^2, c^2 and f f', g g' (half the derivatives), highest power first;
    # f' = g' squared is (f f')^2 g^2 = (g g')^2 f^2
    f2 = np.array([r2 @ r2, -2.0 * (r1 @ r2), r1 @ r1])
    g2 = np.array([s2 @ s2, -2.0 * (s1 @ s2), s1 @ s1])
    c2 = np.array([1.0, -2.0, 1.0])
    ff, gg = np.polyder(f2) / 2.0, np.polyder(g2) / 2.0
    polys = (
        f2 - c2,
        np.polysub(np.polymul(np.polymul(ff, ff), g2), np.polymul(np.polymul(gg, gg), f2)),
    )
    ts = np.array([0.0, 1.0] + [t for p in polys for t in _nonnegative_roots(p)])
    c = np.abs(1.0 - ts)
    margins = np.maximum(c, np.linalg.norm(r1 - ts[:, None] * r2, axis=1)) - np.maximum(
        c, np.linalg.norm(s1 - ts[:, None] * s2, axis=1)
    )
    best = int(np.argmin(margins))
    worst, arg = float(margins[best]), float(ts[best])
    limit = (s1 @ s2 if _k.is_pure(mats[3]) else 1.0) - (r1 @ r2 if _k.is_pure(mats[1]) else 1.0)
    if limit < worst:
        worst, arg = float(limit), None
    return AuReport(feasible=bool(worst >= -AU_FEASIBLE_TOL), min_margin=worst, argmin_t=arg)


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
