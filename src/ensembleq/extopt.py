"""Minimization of information monotones over constrained broadcast extensions.

The feasible set for each ensemble member is the convex body of n-site states
whose every single-site marginal equals that member.  Both objectives are
convex on it.  A family of pure members has one feasible point, its product
extension; a commuting family is reported at its classical broadcast, which is
optimal when it saturates the baseline.  Any other family runs its objective's
local solver once, from a start inside the feasible set:

* chi_q: the entropic refine, an alternating minimization in the matrix-log
  geometry, then its certificate (the projected-gradient mapping norm, plus a
  kernel-alignment test and an interior-escape blend on a boundary face).  An
  uncertified point is reported without further descent.  A point that misses
  the marginal set is first projected back onto it with Dykstra's projections;
  its certificate survives only if that leaves chi in place.
* fidelity_q: projected gradient descent with Armijo backtracking; feasibility
  is restored after each step with Dykstra alternating projections between
  the PSD cone and the affine marginal constraints.

Dykstra stops at the first of three events: the marginal residual reaches
DYKSTRA_TOL, DYKSTRA_ITERS iterations, or a plateau (the residual fell by
less than a relative PLATEAU_RTOL over the last PLATEAU_WINDOW iterations).
The plateau is how a projection ends whose two sets do not meet.  That happens
on the face-pinned probes of the stationarity certificate: the support face is
read off a snapped iterate, whose marginals may miss the targets by about
SNAP_TOL, so the PSD matrices on that face need not contain any point of the
marginal set.  Dykstra then converges to the gap between the sets (Bauschke
and Borwein, J. Approx. Theory 79, 418 (1994)) and further iterations change
nothing.  A plateau above FEAS_TOL still fails the projection.

The entropic refine runs its relative-entropy projections on all free
members at once, as one stack of matrices, and returns snapped points.

Extension sets, FEAS_TOL, DIM_CAP and the site-count check live in
``ensemble`` beside the classical broadcast, and are re-exported here.  The
shared driver takes each objective as two plain functions: value and solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import _kernel as _k
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

#: Armijo sufficient-decrease constant.
ARMIJO_C = 1e-4
#: Projected-gradient-mapping norm below which a run counts as converged.
PG_TOL = 1e-6
#: Probe steps for the gradient-mapping norm, climbed smallest first.  The
#: small probe stays near the feasible set even when floored logarithms make
#: raw gradients huge; the wide probes sharpen the certificate near optima.
PG_PROBE_LADDER = (1e-2, 1.0, 10.0)
#: Cap on the Frobenius distance of any line-search proposal from the iterate.
TRIAL_RADIUS = 2.0
#: First (and largest) line-search step.
STEP_INIT = 0.5
#: Backtracking factor of the line search.
STEP_SHRINK = 0.5
#: An iteration that lowers the objective by less than this counts as stalled.
STALL_TOL = 1e-9
#: Iterate eigenvalues below this are snapped to exact zero after projection.
#: Hovering just above the PSD boundary leaves a ~1/lambda entropy curvature
#: that freezes the line search; on the exact boundary face the singular terms
#: of the member and average entropies cancel and descent proceeds normally.
SNAP_TOL = 1e-9

# Objective values this close to a proven lower bound certify global optimality
# outright (feasible values are upper bounds, so the optimality gap is bounded
# by the distance to the bound itself).
SAT_TOL = 1e-9
#: Cap on the rounds of chi_q's entropic refine.
REFINE_ROUNDS = 1500
#: Scaling sweeps per refine round: a couple suffice, since the multiplier
#: warm start keeps each block within a short hop of its optimum.
SCALING_SWEEPS = 2
#: Cap on fidelity_q's descent steps.
DESCENT_STEPS = 2000
#: Cap on the iterations of every Dykstra projection (project_feasible, both
#: certificates, fidelity_q's line search, chi_q's feasibility restoration).
DYKSTRA_ITERS = 500
#: Dykstra returns once the marginal residual is at most this.
DYKSTRA_TOL = 1e-9
#: Dykstra leaves its loop once the marginal residual is at least
#: (1 - PLATEAU_RTOL) times its value PLATEAU_WINDOW iterations earlier.
PLATEAU_WINDOW = 10
PLATEAU_RTOL = 1e-6

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
    point certified on arrival, otherwise the number of descent steps (chi_q
    takes none: it reports 1, certified or not).  ``restart_values`` holds one
    value, the objective at the reported point.
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

def _project_affine(x: np.ndarray, target: np.ndarray, target_trace: complex,
                    d: int, n: int) -> np.ndarray:
    """Orthogonal projection onto {Y : every single-site marginal of Y = target}.

    Closed form: subtract a global trace correction plus one traceless
    marginal-deviation correction embedded at each site.  ``target_trace`` is
    ``np.trace(target)``.
    """
    big = d**n
    t = (x.trace() - target_trace).real
    y = np.ascontiguousarray(x - (t / big) * _k.identity(big))
    r = _k.site_marginals(x, d, n) - target
    r_traceless = r - (r.trace(axis1=1, axis2=2) / d)[:, None, None] * _k.identity(d)
    _k.subtract_at_sites(y, r_traceless / d ** (n - 1), d, n)
    return y


def _project_psd(x: np.ndarray) -> np.ndarray:
    h = _k.hermitize(x)
    w, v = np.linalg.eigh(h)
    return h if w[0] >= 0.0 else _k.matrix_function(h, "psd_clip", (w, v))


def _snap_small(m: np.ndarray) -> np.ndarray:
    """Zero out sub-SNAP_TOL eigenvalues and renormalize the trace.

    The marginal perturbation this introduces is bounded by the snapped mass
    (a few 1e-9), far inside FEAS_TOL.
    """
    w, v = np.linalg.eigh(_k.hermitize(m))
    if w[0] >= SNAP_TOL:
        return m
    w = np.where(w < SNAP_TOL, 0.0, w)
    out = (v * w) @ v.conj().T
    tr = float(np.trace(out).real)
    if tr <= 0.0:
        return m
    return out * (float(np.trace(m).real) / tr)


def _scaling_iproject(log_sigma: np.ndarray, log_targets: np.ndarray, d: int, n: int,
                      mult_init: np.ndarray):
    """Relative-entropy projections of exp(log_sigma) onto m members' marginal sets.

    Iterative proportional scaling: cycle over sites, multiplying in the
    exponent by the mismatch between the required and the current marginal.
    The running exponent is exact by construction, so only the site marginals
    need fresh eigendecompositions.  All members run as one stack for
    SCALING_SWEEPS sweeps: ``log_targets`` is (m, d, d), ``mult_init``
    (m, D, D) warm-starts the accumulated site multipliers (they drift slowly
    across outer rounds), and the projections and final multiplier sums come
    back as (m, D, D) stacks.  Each member's result is the one it would get
    alone.
    """
    # the multipliers are updated in place, so they must not alias ``mult_init``
    mult = mult_init.copy()
    L = log_sigma + mult
    E = _k.matrix_function(L, "exp")
    for _ in range(SCALING_SWEEPS):
        for k in range(n):
            mk = _k.site_marginals(E, d, n, k)
            corr = log_targets - _k.matrix_function(mk, "log")
            _k.add_at_site(mult, corr, d, n, k)
            _k.add_at_site(L, corr, d, n, k)
            E = _k.matrix_function(L, "exp")
    return E, mult


def _entropic_refine(starts: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                     probs: np.ndarray, d: int, n: int):
    """Alternating minimization of the extension-chi objective.

    Alternates the two closed-form block minimizations of
    sum_i p_i D(E_i || sigma): the optimal sigma is the weighted average, and
    the optimal E_i for fixed sigma is its relative-entropy projection onto
    the marginal constraint set.  Both blocks respect the matrix-log geometry,
    so iterates approach boundary minimizers geometrically instead of the
    sublinear crawl of Euclidean steps, and every iterate stays feasible up
    to what SCALING_SWEEPS sweeps leave.

    The stationarity certificate (the projected-gradient mapping norm at the
    snapped iterate, see _chi_certificate) is consulted once the objective
    stabilizes.  Near boundary minimizers the objective flattens out many
    rounds before the iterate settles, so the stop rule watches the
    certificate, not the objective: refinement continues while the
    certificate keeps contracting, and stops once it passes or stalls, or
    after REFINE_ROUNDS rounds.

    Returns the snapped refined extensions and the certificate norm at
    exactly those points.
    """
    # a pure target admits exactly one feasible extension; its block update
    # is that point itself, and exponential-form scaling cannot represent it
    pinned_points = [_pure_target_point(t, n) for t in targets]
    E = [
        np.array(m, dtype=complex) if pt is None else pt
        for m, pt in zip(starts, pinned_points)
    ]
    free = [i for i, pt in enumerate(pinned_points) if pt is None]
    log_targets = _k.matrix_function(np.array([targets[i] for i in free], dtype=complex), "log")
    mults = np.zeros((len(free), d**n, d**n), dtype=complex)
    prev = chi_objective(E, probs)
    stable = 0
    last_pg = np.inf
    since_check = 0
    for _ in range(REFINE_ROUNDS):
        sigma = sum(p * m for p, m in zip(probs, E))
        log_sigma = _k.matrix_function(sigma, "log")
        projected, mults = _scaling_iproject(log_sigma, log_targets, d, n, mults)
        for i, Ei in zip(free, projected):
            E[i] = Ei
        cur = chi_objective(E, probs)
        stable = stable + 1 if abs(prev - cur) < 1e-10 else 0
        prev = cur
        since_check += 1
        if stable >= 3:
            # space the checks out so the measured contraction ratio reflects
            # a meaningful number of rounds rather than round-to-round noise
            if since_check < 25 and np.isfinite(last_pg):
                continue
            snapped, pg = _chi_certificate(E, probs, targets, d, n)
            since_check = 0
            if pg <= 0.5 * PG_TOL or pg > 0.9 * last_pg:
                return snapped, pg  # certified, or stalled
            last_pg = pg
    return _chi_certificate(E, probs, targets, d, n)


def _chi_certificate(E: Sequence[np.ndarray], probs: np.ndarray,
                     targets: Sequence[np.ndarray], d: int, n: int):
    """The snapped extensions and the projected-gradient mapping norm of chi there."""
    snapped = [_snap_small(e) for e in E]
    return snapped, _pg_mapping_norm(snapped, chi_gradient(snapped, probs), targets, d, n)


def _pure_target_point(target: np.ndarray, n: int) -> Optional[np.ndarray]:
    """The unique feasible extension of a pure target, or None if mixed.

    A pure single-site marginal admits no correlations, so the feasible set
    collapses to the n-fold product of the target's top eigenvector; Dykstra
    would creep toward that lone extreme point sublinearly, so it is returned
    directly.
    """
    psi = _k.pure_vector(target)
    return None if psi is None else _k.copies(np.ones(1), psi[:, None], n)


def _dykstra(x: np.ndarray, target: np.ndarray, d: int, n: int,
             face: Optional[np.ndarray] = None) -> np.ndarray:
    """Dykstra alternating projections onto (PSD cone) & (marginal affine set).

    With ``face`` (a support projector) the cone is replaced by the PSD
    matrices supported inside the face; the projection onto that set is the
    eigenvalue clip of the face-compressed matrix.  A face read off a snapped
    point can hold no PSD matrix with the target marginals at all; the
    iterates then converge to the gap between the two sets, and the loop ends
    on the plateau rule (see the module docstring) instead of running on to
    DYKSTRA_ITERS.  Any end above FEAS_TOL raises NumericalFailure.
    """
    point = _pure_target_point(target, n)
    if point is not None:
        return point
    target_trace = np.trace(target)
    y = _k.hermitize(x)
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    resids = []
    for it in range(DYKSTRA_ITERS):
        a = _project_affine(y + p, target, target_trace, d, n)
        p = y + p - a
        b = a + q if face is None else face @ (a + q) @ face
        y = _project_psd(b)
        q = a + q - y
        resid = _k.marginal_residual([y], [target], d, n)
        if resid <= DYKSTRA_TOL:
            return y
        resids.append(resid)
        if (it >= PLATEAU_WINDOW
                and resid >= (1.0 - PLATEAU_RTOL) * resids[it - PLATEAU_WINDOW]):
            break
    if resid > FEAS_TOL:
        raise NumericalFailure(
            f"Dykstra projection stalled at marginal residual {resid:.3e} "
            f"after {it + 1} iterations"
        )
    return y


def project_feasible(x, target: DensityMatrix, n: int) -> DensityMatrix:
    """Project a Hermitian matrix onto the feasible set of ``target``'s extensions."""
    target = _as_state(target)
    n, d = _site_count(n, target.dim)
    a = _require_finite(as_matrix(x))
    if a.shape != (d**n, d**n):
        raise InvalidInput(
            f"input shape {a.shape} does not match extension dimension {d**n}"
        )
    y = _dykstra(a, target.mat, d, n)
    y = _project_psd(y)
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


def _fidelity_mono_gradient(a: np.ndarray, b: np.ndarray,
                            convention: str) -> list[np.ndarray]:
    """Gradient of 1 - F(a, b) w.r.t. (a, b)."""
    grads = []
    for x, other in ((a, b), (b, a)):
        sqrt_o = _k.matrix_function(other, "sqrt")
        core = _k.matrix_function(sqrt_o @ x @ sqrt_o, "inv_sqrt_on_support")
        grads.append(0.5 * _k.hermitize(sqrt_o @ core @ sqrt_o))
    if convention == "squared":
        root = _k.fidelity_root(a, b)
        grads = [2.0 * root * g for g in grads]
    return [-g for g in grads]


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


def _support_projector(x: np.ndarray) -> Optional[np.ndarray]:
    """Projector onto the support of a (snapped) PSD matrix; None if full rank."""
    w, v = np.linalg.eigh(_k.hermitize(x))
    keep = w > 0.5 * SNAP_TOL
    if bool(keep.all()):
        return None
    vk = v[:, keep]
    return vk @ vk.conj().T


def _pg_mapping_norm(x: Sequence[np.ndarray], g: Sequence[np.ndarray],
                     targets: Sequence[np.ndarray], d: int, n: int) -> float:
    """Norm of the projected-gradient mapping at a feasible point.

    The mapping norm ||x - P(x - delta*g)|| / delta certifies stationarity
    for any fixed probe step delta; it is non-increasing in delta, and larger
    probes de-weight directions flattened by the entropy barrier.  The ladder
    is climbed lazily: wide probes are only attempted near stationarity,
    where gradients are small and the projection is well-conditioned.

    On rank-deficient iterates the probe projection is pinned to the support
    face.  Off the face the floored-logarithm gradient carries no information
    (the unpinned projection merely smears trace and marginal corrections into
    kernel directions), while inside the face the spectrum is bounded away
    from zero, so the mapping norm is as meaningful as at interior points.
    Face optimality versus leaving the face is judged separately.
    """
    faces = [_support_projector(xi) for xi in x]
    best = np.inf
    for delta in PG_PROBE_LADDER:
        try:
            moved = [
                _snap_small(_dykstra(xi - delta * gi, t, d, n, face=Pi))
                for xi, gi, t, Pi in zip(x, g, targets, faces)
            ]
        except NumericalFailure:
            break
        val = float(
            np.sqrt(sum(np.linalg.norm(xi - mi) ** 2 for xi, mi in zip(x, moved)))
        ) / delta
        best = min(best, val)
        if best <= PG_TOL or best > 1e-3:
            break
    return best


def _descend(x0: Sequence[np.ndarray], targets: Sequence[np.ndarray], d: int, n: int,
             convention: str):
    """fidelity_q's local solver: projected gradient descent with Armijo backtracking.

    Returns ``(x, fx, iterations, converged)`` where ``converged`` certifies a
    projected-gradient-mapping norm at most PG_TOL.
    """
    x = list(x0)
    fx = _fidelity_mono_objective(*x, convention)
    step = STEP_INIT
    stall = 0
    pg_norm = np.inf
    for iters in range(1, DESCENT_STEPS + 1):
        g = _fidelity_mono_gradient(*x, convention)
        pg_norm = _pg_mapping_norm(x, g, targets, d, n)
        if pg_norm <= PG_TOL:
            return x, fx, iters, True
        gnorm = float(np.sqrt(sum(np.linalg.norm(gi) ** 2 for gi in g)))
        s = min(STEP_INIT, step / STEP_SHRINK, TRIAL_RADIUS / gnorm)
        start_s = s
        accepted = False
        while s >= 1e-13:
            try:
                trial = [_snap_small(_dykstra(xi - s * gi, t, d, n))
                         for xi, gi, t in zip(x, g, targets)]
            except NumericalFailure:
                # trial too far from the feasible set to project; back off
                s *= STEP_SHRINK
                continue
            ft = _fidelity_mono_objective(*trial, convention)
            decrease = sum(
                float(np.real(np.vdot(gi, ti - xi)))
                for gi, ti, xi in zip(g, trial, x)
            )
            if ft <= fx + ARMIJO_C * decrease:
                accepted = True
                break
            s *= STEP_SHRINK
        if accepted:
            delta = fx - ft
            x, fx, step = trial, ft, s
        else:
            delta = 0.0
            # a fresh sweep from the largest admissible step found no decrease:
            # the iterate is stuck (up to projection noise), so stop early
            if start_s >= min(STEP_INIT, TRIAL_RADIUS / gnorm) - 1e-15:
                break
            step = STEP_INIT
        stall = stall + 1 if delta < STALL_TOL else 0
        if stall >= 10:
            break
    return x, fx, iters, pg_norm <= PG_TOL


def _refine_and_certify(x0: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                        d: int, n: int, probs: np.ndarray):
    """chi_q's local solver: the entropic refine, then its certificate.

    The certificate is the projected-gradient mapping norm at the snapped
    refined point, plus _chi_face_check.  No descent step follows.  A point
    that misses the marginals by more than FEAS_TOL is replaced by its Dykstra
    projection, which keeps the certificate only if chi moves by at most
    SAT_TOL, or by the uncertified start if the projection fails; every
    reported value is attained at a feasible point.
    """
    x, pg = _entropic_refine(x0, targets, probs, d, n)
    fx = chi_objective(x, probs)
    conv = pg <= PG_TOL
    if conv:
        x, fx, conv = _chi_face_check(x, fx, probs, targets, n)
    if _k.marginal_residual(x, targets, d, n) > FEAS_TOL:
        # the refine's last scaling round can end a little off the marginal
        # set, and a refine that cycles can end far from it
        try:
            y = [_snap_small(_dykstra(xi, t, d, n)) for xi, t in zip(x, targets)]
        except NumericalFailure:
            return list(x0), chi_objective(x0, probs), 1, False
        fy = chi_objective(y, probs)
        x, fx, conv = y, fy, conv and abs(fy - fx) <= SAT_TOL
    return x, fx, 1, conv


def _chi_face_check(x: Sequence[np.ndarray], fx: float, probs: np.ndarray,
                    targets: Sequence[np.ndarray], n: int):
    """Face test of a chi point whose mapping norm passed: ``(x, fx, certified)``.

    Interior points are certified.  On a boundary face every member not
    pinned by a pure target must share the average's support (a mismatched
    kernel admits descent with unbounded slope, which the floored gradient
    cannot see), and a small blend toward the interior must not lower chi; a
    blend that does is returned in place of ``x``, uncertified.
    """
    if all(float(np.linalg.eigvalsh(_k.hermitize(xi))[0]) >= SNAP_TOL for xi in x):
        return x, fx, True
    eye = np.eye(x[0].shape[0])
    ps = _support_projector(sum(p * m for p, m in zip(probs, x)))
    ps = eye if ps is None else ps
    for xi, t in zip(x, targets):
        if _k.is_pure(t):
            continue
        pi = _support_projector(xi)
        # a rank mismatch puts this at 1 or more; kernels still locking into
        # place near a certified point differ by angles at the certificate scale
        if float(np.linalg.norm((eye if pi is None else pi) - ps)) > 1e-4:
            return x, fx, False
    # a genuinely wrong face shows an O(blend) decrease; anything at the
    # certificate's own gap scale is noise
    esc = [(1.0 - 1e-3) * xi + 1e-3 * _interior_start(t, n) for xi, t in zip(x, targets)]
    f_esc = chi_objective(esc, probs)
    if f_esc < fx - 1e-7:
        return esc, f_esc, False
    return x, fx, True


def _optimize_extensions(e: Ensemble, n: int, baseline: float, value,
                         local) -> QuantumnessReport:
    """Minimize ``value`` over joint n-site extensions of ``e``'s members.

    ``value(x)`` is the objective on a list of extensions, and
    ``local(x0, targets, d, n)`` its local solver: it runs from one snapped
    feasible start and returns ``(x, fx, iterations, converged)``.

    ``baseline`` is the objective on the members themselves, a proven lower
    bound over the feasible set; the report's value is the gap above it.
    Both objectives are convex, so a certified point is the global optimum,
    and so is any point within SAT_TOL of the baseline: the only reliable
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
            x = [_snap_small(ext.mat) for ext in classical_broadcast(e, n).extensions]
            fx, iters, conv = value(x), 0, False
        else:
            x0 = [_snap_small(_interior_start(t, n)) for t in targets]
            x, fx, iters, conv = local(x0, targets, d, n)
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
                                partial(_descend, convention=convention))


def chi_q_infinite_pure(e: Ensemble) -> float:
    """Infinite-copy limit of chi_q for pure-state ensembles: H({p_i}) - chi(e)."""
    if not all(_k.is_pure(s.mat) for s in e.states):
        raise PreconditionViolated(
            "the infinite-copy closed form only applies to pure-state ensembles"
        )
    return shannon_entropy(e.probs) - holevo(e)
