"""Minimization of information monotones over constrained broadcast extensions.

The feasible set for each ensemble member is the convex body of n-site states
whose every single-site marginal equals that member.  chi is jointly convex on
it, and the largest fidelity of two extensions is a linear SDP, so a certified
point of either objective is the optimum.  A family of pure members has one
feasible point, its product extension; a commuting family is reported at its
classical broadcast, which is optimal when it saturates the baseline.  Any
other family runs its objective's solver once:

* chi_q: from a start inside the feasible set, the entropic refine, an
  alternating minimization in the matrix-log geometry whose E-step is an
  exact relative-entropy projection, sped up by Anderson acceleration, then
  its certificate: the projected-gradient mapping norm at the one probe step
  PG_PROBE, then a kernel-alignment test and an interior-escape blend, which
  an interior point passes unless the blend lowers chi.  The mapping norm is
  checked on a schedule as the refine runs; an uncertified point is reported
  without further descent.  A point that misses the marginal set is first
  projected back onto it with the Newton projection; its certificate
  survives only if that leaves chi in place.
* fidelity_q: the fidelity SDP by the proximal point method _prox_linear,
  certified when its primal and dual bounds meet within PG_TOL.

One solver, ``_newton.solve``, projects onto an extension set, or onto the
matrices whose diagonal blocks lie in extension sets: Newton on the
projection's dual in the site multipliers, with the spectral map as a
parameter.  With P+ it is the Newton projection, the Euclidean projection
onto {X psd, every site marginal = target}: it serves project_feasible,
chi_q's feasibility restoration and certificate probe, and the steps of
_prox_linear.  The probe projects onto the set through the probed point: the
PSD matrices on the point's support face whose site marginals are the
point's own.  That set holds the point, so the projection's dual is bounded
and Newton converges.  The true targets would not do on a face: the face is
read off a snapped point, whose marginals may miss the targets by about
SNAP_TOL, so the PSD matrices on it need not meet the targets' marginal set.
With exp it is the entropic refine's E-step, run on all free members at
once, as one stack of matrices.

A snap (_snap) zeroes eigenvalues below SNAP_TOL in two places only.  The
certificate snaps each member and, in the face test, their average; the one
decomposition also gives the support face.  The refine's start is snapped,
which conditions log sigma on rank-deficient targets.  Points that are
already exact, such as a commuting family's classical broadcast or a Newton
projection, are used as they are.

Extension sets, FEAS_TOL, DIM_CAP and the site-count check live in
``ensemble`` beside the classical broadcast, and are re-exported here.  The
shared driver takes each objective as two plain functions: value and solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import _kernel as _k, _newton
# re-exported beside the solver constants defined here
from ._newton import PROJECTION_STEPS, PROJECTION_TOL
from .densmat import (FIDELITY_CONVENTIONS, DensityMatrix, as_matrix, _as_state,
                      _require_finite, _require_int, _require_real, _state_pair)
from .ensemble import (DIM_CAP, FEAS_TOL, Ensemble, ExtensionSet, _site_count,
                       classical_broadcast, holevo, is_broadcastable, shannon_entropy)
from .errors import (
    InvalidInput,
    NumericalFailure,
    PreconditionViolated,
    malformed,
)

#: Projected-gradient-mapping norm (chi_q), or gap between the bounds of
#: fidelity_q's SDP, below which a run counts as converged.
PG_TOL = 1e-6
#: Probe step of the projected-gradient mapping.  A step this small keeps the
#: probe near the feasible set even where floored logarithms make raw
#: gradients huge.
PG_PROBE = 1e-2
#: Eigenvalues below this are snapped to exact zero in two places only: at
#: chi_q's certificate, whose members and average read their support faces
#: off the snap, and at the refine's start.  Hovering just above the PSD
#: boundary leaves a ~1/lambda entropy curvature that swamps the
#: projected-gradient probe; on the exact boundary face the singular terms
#: of the member and average entropies cancel.
SNAP_TOL = 1e-9

# Objective values this close to a proven lower bound certify global optimality
# outright (feasible values are upper bounds, so the optimality gap is bounded
# by the distance to the bound itself).
SAT_TOL = 1e-9
#: Cap on the rounds of chi_q's entropic refine.
REFINE_ROUNDS = 1500
#: Depth m of the refine's Anderson step: it mixes the last m + 1 rounds.
ANDERSON_DEPTH = 3
#: Cap on fidelity_q's proximal-point steps.  Its step s doubles from 4 and
#: reaches 2e6 at the last; projections stall once s passes about 1e8, and
#: the hardest admitted input tried, qubits at n = 6, closes its gap at step 17.
PROX_STEPS = 20

__all__ = [
    "DIM_CAP",
    "FEAS_TOL",
    "ExtensionSet",
    "QuantumnessReport",
    "project_feasible",
    "chi_objective",
    "chi_gradient",
    "chi_q",
    "fidelity_q",
    "chi_q_infinite_pure",
]


@dataclass(frozen=True)
class QuantumnessReport:
    """Result of one quantumness optimization.

    ``iterations`` is 0 for a closed form or a classical broadcast, 1 for a
    chi_q run, and a fidelity_q run's number of proximal-point steps.
    ``restart_values`` holds one value, the objective at the reported point.
    """

    value: float
    objective_at_optimum: float
    baseline: float
    feasibility_residual: float
    iterations: int
    converged: bool
    restart_values: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "restart_values", tuple(self.restart_values))
        object.__setattr__(self, "converged", bool(self.converged))
        # written so that a NaN anywhere in the three fails it
        if not abs(self.value - (self.objective_at_optimum - self.baseline)) <= 1e-9:
            raise NumericalFailure(
                "inconsistent report: value must equal objective - baseline"
            )
        if self.value < -1e-6:
            raise NumericalFailure(
                f"optimized monotone fell {-self.value:.3e} below its baseline; "
                "the run is numerically untrustworthy"
            )

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "objective": self.objective_at_optimum,
            "baseline": self.baseline,
            "feasibility_residual": self.feasibility_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "restarts": list(self.restart_values),
        }

    @classmethod
    def from_json(cls, obj) -> "QuantumnessReport":
        if not isinstance(obj, dict):
            raise InvalidInput("report JSON must be an object")
        with malformed("report"):
            try:
                converged, restarts = obj["converged"], obj["restarts"]
                if not isinstance(converged, bool) or not isinstance(restarts, list):
                    raise InvalidInput("report needs boolean 'converged', a 'restarts' list")
                return cls(
                    value=_require_real(obj["value"], "report value"),
                    objective_at_optimum=_require_real(obj["objective"], "report objective"),
                    baseline=_require_real(obj["baseline"], "report baseline"),
                    feasibility_residual=_require_real(
                        obj["feasibility_residual"], "report feasibility_residual"),
                    iterations=_require_int(obj["iterations"], "report iterations"),
                    converged=converged,
                    restart_values=tuple(_require_real(v, "report restart") for v in restarts),
                )
            except KeyError as exc:
                raise InvalidInput(f"report JSON missing key {exc.args[0]!r}") from exc
            except NumericalFailure as exc:
                # the consistency checks guard the solver's own reports; on
                # decoded JSON their failure is a fault of the input
                raise InvalidInput(f"inconsistent report JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# feasible-set projections
# ---------------------------------------------------------------------------

def _snap(m: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Zero out sub-SNAP_TOL eigenvalues of a unit-trace m and renormalize.

    Returns the snapped matrix and its support face: an orthonormal basis of
    the kept eigenvectors, None at full rank (m comes back unchanged).  The
    marginal perturbation is bounded by the snapped mass (a few 1e-9), far
    inside FEAS_TOL.
    """
    w, v = np.linalg.eigh(_k.hermitize(m))
    keep = w >= SNAP_TOL
    if keep.all():
        return m, None
    out = (v * np.where(keep, w, 0.0)) @ v.conj().T
    return out * (float(np.trace(m).real) / float(np.trace(out).real)), v[:, keep]


def _newton_project(x: np.ndarray, target: np.ndarray, d: int, n: int,
                    basis: Optional[np.ndarray] = None) -> np.ndarray:
    """Euclidean projection of Hermitian x onto {X psd, site marginal k = target_k}.

    ``target`` is one (d, d) marginal for every site, or an (n, d, d) stack
    with one per site.  With ``basis`` (orthonormal columns) the PSD cone is
    cut down to the PSD matrices on the basis's span, a face of the cone.
    The Newton solver with P+ as its spectral map, on a stack of one.
    """
    point = _pure_target_point(target, n) if target.ndim == 2 else None
    if point is not None:
        return point
    stacked = target[None, None] if target.ndim == 2 else target[None]
    return _newton.solve(x, stacked, d, n, _newton.CLIP, basis=basis)[0][0]


def _prox_linear(C: np.ndarray, W0: np.ndarray, targets: Sequence[np.ndarray], d: int, n: int):
    """Maximise <C, W> over the psd W whose diagonal D x D blocks have every
    site marginal equal to their ``targets`` (one per block): the proximal
    point method (Rockafellar, SIAM J. Control Optim. 14, 877 (1976); Malick,
    Povh, Rendl and Wiegele, SIAM J. Optim. 20, 336 (2009)).

    Each step is W <- P(W + s C), P the Newton projection onto that set, with
    s doubling from 4 and the multipliers Y warm-started at twice the last.
    A projection runs to 1e-2 of the last gap; the loop ends once one run to
    PROJECTION_TOL (the one after a gap within PG_TOL, or the PROX_STEPS-th)
    closes the gap to PG_TOL.  The bounds are <C, W> and weak duality at
    y = -Y / s: a feasible W has trace b, the block count, so <C, W> is at
    most <targets, y> + b max(0, lambda_max(C - A* y)).  Returns ``(W, lower,
    upper, steps)``.
    """
    stacked = np.repeat(np.array(targets), n, axis=0)[None]
    W, mults, s, gap = W0, np.zeros_like(stacked), 4.0, 1.0  # the objective lies in [0, 1]
    for steps in range(1, PROX_STEPS + 1):
        tight = gap <= PG_TOL or steps == PROX_STEPS
        tol = PROJECTION_TOL if tight else max(PROJECTION_TOL, 1e-2 * gap)
        W, mults, _ = _newton.solve(W + s * C, stacked, d, n, _newton.CLIP, 2.0 * mults, tol=tol)
        W, y = W[0], -mults / s
        lower = float(np.vdot(C, W).real)
        residual = C[None].astype(complex)
        _k.subtract_at_sites(residual, y, d, n)  # C - A* y
        upper = float(np.vdot(y, stacked).real) + len(targets) * max(
            0.0, float(np.linalg.eigvalsh(residual[0])[-1]))
        gap = upper - lower
        if tight and gap <= PG_TOL:
            break
        s *= 2.0
    return W, lower, upper, steps


def _entropic_project(sigma: np.ndarray, spectrum, targets: np.ndarray, mults: np.ndarray,
                      d: int, n: int):
    """Relative-entropy projections of sigma onto m members' marginal sets.

    The Newton solver with exp as its spectral map, from log sigma (read off
    sigma's eigenpairs ``spectrum``): member i's projection is
    exp(log sigma + sum_k Y_ik at site k) with every site marginal within
    PROJECTION_TOL of targets[i].  ``targets`` is (m, d, d) and ``mults``
    (m, n, d, d) warm-starts the site multipliers Y.  Returns the (m, D, D)
    projections, their multipliers and the (m, D) logarithms of their
    eigenvalues.
    """
    log_sigma = _k.matrix_function(sigma, "log", spectrum)
    return _newton.solve(log_sigma, targets[:, None], d, n, _newton.EXP, mults)


def _entropic_refine(starts: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                     probs: np.ndarray, d: int, n: int):
    """Alternating minimization of the extension-chi objective.

    Alternates the two closed-form block minimizations of
    sum_i p_i D(E_i || sigma): the optimal sigma is the weighted average, and
    the optimal E_i for fixed sigma is its relative-entropy projection onto
    the marginal constraint set (Csiszar, Ann. Probab. 3, 146 (1975)), here
    exact: _entropic_project solves it by Newton on the site multipliers,
    all free members as one stack, warm-started from the last round's
    multipliers.  Both blocks respect the matrix-log geometry, so iterates
    approach boundary minimizers geometrically instead of the sublinear crawl
    of Euclidean steps, and every iterate meets the marginals within
    PROJECTION_TOL: its chi is the chi of a feasible point.

    That makes two shortcuts sound.  Once two rounds have run, each round
    first projects the Anderson step (_anderson_mix) of the round map
    G(sigma) = sum_i p_i Proj_i(sigma) over the last ANDERSON_DEPTH + 1
    rounds, its eigenvalues at or below 0 lifted to half the least
    eigenvalue of sigma_k, and keeps that round if chi does not rise;
    otherwise it runs the plain round from sigma_k and the old multipliers.
    The step is not damped toward sigma_k: damping held the iterates off the
    face of a boundary optimum, where the face test refused them.  And the
    certificate (the projected-gradient mapping norm at the snapped iterate,
    see _chi_certificate) is checked at round 25 and then after
    max(25, rounds / 4) more rounds, whatever chi does: the refine returns
    once it passes at half PG_TOL and _chi_face_check accepts the point, or
    once it stalls (it contracted by less than a tenth since the last reading)
    with chi held within 1e-10 for three rounds, or after REFINE_ROUNDS
    rounds.  A probe whose projection fails reads inf; that is no reading,
    so it neither stalls the refine nor replaces the last reading.  A point
    whose mapping norm passes while a small eigenvalue has not yet reached
    SNAP_TOL fails the face test; the rounds then go on from an empty
    Anderson history.

    Outside the projections and the certificate a round decomposes the new
    sigma once and at most one Anderson step, whose spectrum gives both the
    positivity test and its log.  The members' entropies come off the
    spectra of the projections' exponents, and a pure-pinned member's is
    taken once, so the stop rule's chi (that of chi_objective, up to
    rounding) costs no further decomposition.

    Returns ``(x, fx, certified)`` of _chi_certificate at the last round.
    """
    # a pure target admits exactly one feasible extension; its block update
    # is that point itself, which no exponential form exp(z) can represent
    pinned_points = [_pure_target_point(t, n) for t in targets]
    E = [
        np.array(m, dtype=complex) if pt is None else pt
        for m, pt in zip(starts, pinned_points)
    ]
    free = [i for i, pt in enumerate(pinned_points) if pt is None]
    free_targets = np.array([targets[i] for i in free], dtype=complex)
    # S(E_i) in bits of the members the objective weighs; each round
    # overwrites the free members' entries
    bits = [_k.entropy_bits(m) if p > 0.0 else 0.0 for m, p in zip(E, probs)]

    def update(sigma, spectrum):
        """The round from sigma, warm-started from the current multipliers:
        the members, their entropies and multipliers, the new average with
        its eigenpairs, and chi there."""
        projected, ys, exponents = _entropic_project(sigma, spectrum, free_targets, mults, d, n)
        # S = -sum e^w w / ln 2 over the eigenvalues e^w above EIG_FLOOR
        lam = np.exp(exponents)
        free_bits = -np.where(lam > _k.EIG_FLOOR, lam * exponents, 0.0).sum(axis=-1) / np.log(2.0)
        new_E, new_bits = list(E), list(bits)
        for i, Ei, b in zip(free, projected, free_bits.tolist()):
            new_E[i], new_bits[i] = Ei, b
        avg = sum(p * m for p, m in zip(probs, new_E))
        avg_spectrum = np.linalg.eigh(_k.hermitize(avg))
        return (new_E, new_bits, ys, avg, avg_spectrum,
                _k.holevo_from_entropies(avg_spectrum[0], probs, new_bits))

    mults = np.zeros((len(free), n, d, d), dtype=complex)
    sigma = sum(p * m for p, m in zip(probs, E))
    spectrum = np.linalg.eigh(_k.hermitize(sigma))
    chi = _k.holevo_from_entropies(spectrum[0], probs, bits)
    history, stable, last_pg, check = [], 0, np.inf, 25
    for rounds in range(1, REFINE_ROUNDS + 1):
        step = None
        try:
            if len(history) > 1:
                start, start_spectrum = _anderson_mix(history, 0.5 * spectrum[0][0])
                step = update(start, start_spectrum)
            if step is None or step[-1] > chi:
                start, step = sigma, update(sigma, spectrum)
        except NumericalFailure:
            break  # the round fails; the last iterate is feasible
        E, bits, mults, sigma, spectrum, cur = step
        # G(start) and its residual G(start) - start as real numbers
        history = (history + [(sigma, (sigma - start).view(float).ravel())])[-ANDERSON_DEPTH - 1:]
        stable = stable + 1 if abs(chi - cur) < 1e-10 else 0
        chi = cur
        if rounds == check:
            x, fx, certified, pg = _chi_certificate(E, probs, targets, d, n)
            if pg <= 0.5 * PG_TOL:
                if certified:
                    return x, fx, True
                history = []  # the face test refused it: restart the mixing
            elif pg == np.inf:
                pg = last_pg  # a failed probe is no reading: the rounds go on
            elif pg > 0.9 * last_pg and stable >= 3:
                return x, fx, certified  # stalled
            last_pg = pg
            check = rounds + max(25, rounds // 4)
    return _chi_certificate(E, probs, targets, d, n)[:3]


def _anderson_mix(history: Sequence[tuple], floor: float):
    """The type-II Anderson step of the refine's round map G, and its eigenpairs.

    ``history`` holds the last rounds, oldest first, as pairs of G(sigma_j)
    and the residual G(sigma_j) - sigma_j, viewed as real numbers.

    The step is sum_j a_j G(sigma_j) with sum_j a_j = 1 and the real a_j
    minimising |sum_j a_j (G(sigma_j) - sigma_j)| (Walker and Ni, SIAM J.
    Numer. Anal. 49, 1715 (2011)), solved in differences of successive
    rounds as a real least-squares problem over the real and imaginary
    parts.  Its eigenvalues at or below 0 are lifted to ``floor``; the one
    decomposition serves that test and the step's log.
    """
    images = [h[0] for h in history]
    residuals = np.array([h[1] for h in history])
    gamma = np.linalg.lstsq(np.diff(residuals, axis=0).T, residuals[-1], rcond=None)[0]
    mix = _k.hermitize(images[-1] - sum(g * (b - a) for g, a, b in zip(gamma, images, images[1:])))
    w, v = np.linalg.eigh(mix)
    if w[0] <= 0.0:
        w = np.where(w <= 0.0, floor, w)
        mix = (v * w) @ v.conj().T
    return mix, (w, v)


def _chi_certificate(E: Sequence[np.ndarray], probs: np.ndarray,
                     targets: Sequence[np.ndarray], d: int, n: int):
    """chi_q's certificate at the snapped extensions: ``(x, fx, certified, pg)``.

    pg is the projected-gradient mapping norm of chi at the snapped point.
    Within PG_TOL, _chi_face_check decides and its (x, fx) are returned;
    above it, the snapped point and its chi, uncertified.
    """
    x, faces = map(list, zip(*(_snap(e) for e in E)))
    fx = chi_objective(x, probs)
    pg = _pg_mapping_norm(x, faces, chi_gradient(x, probs), d, n)
    if pg > PG_TOL:
        return x, fx, False, pg
    return (*_chi_face_check(x, faces, fx, probs, targets, n), pg)


def _pure_target_point(target: np.ndarray, n: int) -> Optional[np.ndarray]:
    """The unique feasible extension of a pure target, or None if mixed.

    A pure single-site marginal admits no correlations, so the feasible set
    collapses to the n-fold product of the target's top eigenvector; the
    projection would creep toward that lone extreme point, so it is returned
    directly.
    """
    psi = _k.pure_vector(target)
    return None if psi is None else _k.copies(np.ones(1), psi[:, None], n)


def project_feasible(x, target: DensityMatrix, n: int) -> DensityMatrix:
    """Project a Hermitian matrix onto the feasible set of ``target``'s extensions."""
    target = _as_state(target)
    n, d = _site_count(n, target.dim)
    a = _require_finite(as_matrix(x))
    if a.shape != (d**n, d**n):
        raise InvalidInput(
            f"input shape {a.shape} does not match extension dimension {d**n}"
        )
    y = _newton_project(a, target.mat, d, n)
    y = y / np.trace(y).real
    return DensityMatrix(y)


# ---------------------------------------------------------------------------
# objectives and gradients
# ---------------------------------------------------------------------------

def chi_objective(extensions: Sequence[np.ndarray], probs: Sequence[float]) -> float:
    """Holevo quantity of the extension ensemble (raw matrices, no validation)."""
    return _k.holevo_bits(np.asarray(probs, dtype=float), [as_matrix(e) for e in extensions])


def chi_gradient(extensions: Sequence[np.ndarray], probs: Sequence[float]) -> list[np.ndarray]:
    """Frechet gradient of the Holevo objective w.r.t. each extension.

    d(chi)/d(E_i) = p_i (log2 E_i - log2 avg), with floored logarithms; the
    identity component is irrelevant on trace-preserving directions.
    """
    probs = np.asarray(probs, dtype=float)
    mats = [as_matrix(e) for e in extensions]
    avg = sum(p * m for p, m in zip(probs, mats))
    log_avg = _k.matrix_function(avg, "log2")
    return [
        p * (_k.matrix_function(m, "log2") - log_avg) if p > 0.0 else np.zeros_like(m)
        for p, m in zip(probs, mats)
    ]


def _fidelity_mono_objective(a: np.ndarray, b: np.ndarray, convention: str) -> float:
    root = _k.fidelity_root(a, b)
    return 1.0 - (root * root if convention == "squared" else root)


# ---------------------------------------------------------------------------
# local solvers and the shared driver
# ---------------------------------------------------------------------------

def _classical_copy(rho: np.ndarray, n: int) -> np.ndarray:
    """sum_k lambda_k |k...k><k...k| in the state's own eigenbasis (always feasible)."""
    out = _k.copies(*np.linalg.eigh(_k.hermitize(rho)), n)
    return out / np.trace(out).real


def _interior_start(target: np.ndarray, n: int) -> np.ndarray:
    """Classical-copy start nudged into the interior of the feasible set.

    Blending with the product extension keeps every marginal exact while
    lifting the copy state off the PSD boundary, where floored-logarithm
    gradients are unreliable.
    """
    return 0.8 * _classical_copy(target, n) + 0.2 * _k.kron_power(target, n)


def _pg_mapping_norm(x: Sequence[np.ndarray], faces: Sequence[Optional[np.ndarray]],
                     g: Sequence[np.ndarray], d: int, n: int) -> float:
    """Norm of the projected-gradient mapping at a feasible point.

    The mapping norm ||x - P(x - delta*g)|| / delta certifies stationarity
    for any fixed probe step delta; it is read at delta = PG_PROBE.  A probe
    whose projection fails reads inf.

    On rank-deficient iterates the probe projection is pinned to the support
    face, read off ``faces`` (the bases _snap returned with x, None at full
    rank).  Off the face the floored-logarithm gradient carries no
    information (the unpinned projection merely smears trace and marginal
    corrections into kernel directions), while inside the face the spectrum
    is bounded away from zero, so the mapping norm is as meaningful as at
    interior points.
    Face optimality versus leaving the face is judged by _chi_face_check.

    The probe projects onto the set through x itself: the PSD matrices on
    its support face (the whole cone at full rank) whose site marginals are
    x's own.  That set holds x, so a zero gradient reads zero, and the
    projection converges even where x misses the targets by a rounding-scale
    gap that its face cannot close.
    """
    own = [_k.site_marginals(xi, d, n) for xi in x]
    try:
        moved = [
            _newton_project(xi - PG_PROBE * gi, t, d, n, basis=b)
            for xi, gi, t, b in zip(x, g, own, faces)
        ]
    except NumericalFailure:
        return np.inf
    return float(
        np.sqrt(sum(np.linalg.norm(xi - mi) ** 2 for xi, mi in zip(x, moved)))
    ) / PG_PROBE


def _refine_and_certify(targets: Sequence[np.ndarray], d: int, n: int, probs: np.ndarray):
    """chi_q's local solver: the entropic refine from the snapped interior
    starts, then its certificate.

    The refine returns its point certified or not (_chi_certificate: the
    projected-gradient mapping norm at the snapped point, plus
    _chi_face_check).  No descent step follows.  A point that misses the
    marginals by more than FEAS_TOL is replaced by its Newton projection,
    which keeps the certificate only if chi moves by at most SAT_TOL, or by
    the uncertified start if the projection fails; every reported value is
    attained at a feasible point.
    """
    x0 = [_snap(_interior_start(t, n))[0] for t in targets]
    x, fx, conv = _entropic_refine(x0, targets, probs, d, n)
    if _k.marginal_residual(x, targets, d, n) > FEAS_TOL:
        # refine iterates meet the marginals within PROJECTION_TOL and a snap
        # moves them by a few SNAP_TOL, so only a faulty refine lands here
        try:
            y = [_newton_project(xi, t, d, n) for xi, t in zip(x, targets)]
        except NumericalFailure:
            return list(x0), chi_objective(x0, probs), 1, False
        fy = chi_objective(y, probs)
        x, fx, conv = y, fy, conv and abs(fy - fx) <= SAT_TOL
    return x, fx, 1, conv


def _chi_face_check(x: Sequence[np.ndarray], faces: Sequence[Optional[np.ndarray]],
                    fx: float, probs: np.ndarray, targets: Sequence[np.ndarray], n: int):
    """Face test of a chi point whose mapping norm passed: ``(x, fx, certified)``.

    Every member not pinned by a pure target must share the average's
    support: its face in ``faces`` (the basis _snap returned with it, None
    at full rank) must span the face of one _snap of the average (on a
    boundary face a mismatched kernel admits descent with unbounded slope,
    which the floored gradient cannot see), and a small blend toward the
    interior must not lower chi; a blend that does is returned in place of
    ``x``, uncertified.  Interior points share the full support, so only the
    blend can refuse them.
    """
    face = _snap(sum(p * m for p, m in zip(probs, x)))[1]
    for fi, t in zip(faces, targets):
        if _k.is_pure(t):
            continue
        if fi is None or face is None:
            if fi is not face:  # one of the two is full rank, the other not
                return x, fx, False
        # a rank mismatch puts this at 1 or more; kernels still locking into
        # place near a certified point differ by angles at the certificate scale
        elif float(np.linalg.norm(fi @ fi.conj().T - face @ face.conj().T)) > 1e-4:
            return x, fx, False
    # a genuinely wrong face shows an O(blend) decrease; anything at the
    # certificate's own gap scale is noise
    esc = [(1.0 - 1e-3) * xi + 1e-3 * _interior_start(t, n) for xi, t in zip(x, targets)]
    f_esc = chi_objective(esc, probs)
    if f_esc < fx - 1e-7:
        return esc, f_esc, False
    return x, fx, True


def _fidelity_sdp(targets: Sequence[np.ndarray], d: int, n: int, convention: str):
    """fidelity_q's solver: the largest fidelity over two extension sets, one SDP.

    Root fidelity is max Re tr X over [[A, X], [X^dag, B]] psd (Watrous, The
    Theory of Quantum Information, section 3.2): for two mixed members,
    _prox_linear on both blocks from rho^(x)n (+) sigma^(x)n.  A pure member
    pins its block to its product point P, and F^2 = <P, B> is linear in the
    other block B, solved alone.  Returns ``(x, fx, steps, certified)``.
    """
    pinned = [_pure_target_point(t, n) for t in targets]
    free = [t for t, pt in zip(targets, pinned) if pt is None]
    big, starts = d**n, [_k.kron_power(t, n) for t in free]
    if len(free) == 2:
        C = np.kron([[0.0, 0.5], [0.5, 0.0]], np.eye(big))
        zero = np.zeros_like(starts[0])
        W0 = np.block([[starts[0], zero], [zero, starts[1]]])
    else:
        C, W0 = next(pt for pt in pinned if pt is not None), starts[0]
    W, lower, upper, steps = _prox_linear(C, W0, free, d, n)
    blocks = iter([W[:big, :big], W[big:, big:]])
    x = [next(blocks) if pt is None else pt for pt in pinned]
    return x, _fidelity_mono_objective(*x, convention), steps, upper - lower <= PG_TOL


def _optimize_extensions(e: Ensemble, n: int, baseline: float, value,
                         local) -> QuantumnessReport:
    """Minimize ``value`` over joint n-site extensions of ``e``'s members.

    ``value(x)`` is the objective on a list of extensions, and
    ``local(targets, d, n)`` its solver, which returns ``(x, fx, iterations,
    converged)``.

    ``baseline`` is the objective on the members themselves, a proven lower
    bound over the feasible set; the report's value is the gap above it.  A
    certified point is the global optimum: chi is convex, and fidelity_q's
    certificate is the gap of its SDP (in either convention: 1 - F^2 is
    monotone in 1 - F).  Any point within SAT_TOL of the baseline is
    optimal: the only reliable
    test at singular points, where floored logarithms make the
    projected-gradient probe meaningless.  Pure members pin the feasible set
    to their product extensions; a commuting family is reported at its
    classical broadcast.
    """
    n, d = _site_count(n, e.dim)
    targets = [s.mat for s in e.states]
    if all(_k.is_pure(t) for t in targets):
        # a pure marginal forces the product extension: the feasible set is a point
        x = [_k.kron_power(t, n) for t in targets]
        fx, iters, conv = value(x), 0, True
    else:
        if is_broadcastable(e):
            x = [ext.mat for ext in classical_broadcast(e, n).extensions]
            fx, iters, conv = value(x), 0, False
        else:
            x, fx, iters, conv = local(targets, d, n)
        # values more than 1e-7 below the proven floor signal broken numerics
        # and must not be certified (they fail the report's sanity checks)
        if baseline - 1e-7 <= fx <= baseline + SAT_TOL:
            fx, conv = max(fx, baseline), True  # dips below the floor are rounding
    return QuantumnessReport(
        value=max(fx - baseline, 0.0),
        objective_at_optimum=fx,
        baseline=baseline,
        feasibility_residual=_k.marginal_residual(x, targets, d, n),
        iterations=iters,
        converged=conv,
        restart_values=(fx,),
    )


def chi_q(e: Ensemble, n: int) -> QuantumnessReport:
    """Excess Holevo quantity of the best n-site broadcast extension.

    Minimizes chi of the extension ensemble over all feasible extension sets
    and reports the gap above chi of the base ensemble.  Zero (within
    tolerance) characterizes commuting ensembles; the gap is strictly positive
    otherwise.
    """
    probs = e.probs
    return _optimize_extensions(e, n, holevo(e), partial(chi_objective, probs=probs),
                                partial(_refine_and_certify, probs=probs))


def fidelity_q(rho: DensityMatrix, sigma: DensityMatrix, n: int,
               convention: str = "squared") -> QuantumnessReport:
    """Fidelity-monotone gap between a pair of states and its best extensions.

    Maximizes F over joint feasible extension pairs; reported in monotone form
    (objective and baseline are 1 - F, so value = F_base - sup F_ext >= 0).
    """
    if convention not in FIDELITY_CONVENTIONS:
        raise InvalidInput(f"unknown fidelity convention {convention!r}")
    rho, sigma = _state_pair(rho, sigma)
    baseline = _fidelity_mono_objective(rho.mat, sigma.mat, convention)
    pair = Ensemble([(0.5, rho), (0.5, sigma)])
    return _optimize_extensions(pair, n, baseline,
                                lambda xs: _fidelity_mono_objective(*xs, convention),
                                partial(_fidelity_sdp, convention=convention))


def chi_q_infinite_pure(e: Ensemble) -> float:
    """Infinite-copy limit of chi_q for pure-state ensembles: H({p_i}) - chi(e)."""
    if not all(_k.is_pure(s.mat) for s in e.states):
        raise PreconditionViolated(
            "the infinite-copy closed form only applies to pure-state ensembles"
        )
    return shannon_entropy(e.probs) - holevo(e)
