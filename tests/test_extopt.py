"""Extension optimization: feasible projections, chi_q, fidelity_q."""

import time

import numpy as np
import pytest

from ensembleq.densmat import DensityMatrix, partial_trace, von_neumann_entropy
from ensembleq.ensemble import Ensemble, classical_broadcast, holevo
from ensembleq import _kernel, extopt
from ensembleq._kernel import marginal_residual
from ensembleq.accinfo import OptimizerConfig
from ensembleq.errors import (
    InvalidInput,
    NumericalFailure,
    PreconditionViolated,
    ResourceLimit,
)
from ensembleq.extopt import (
    DESCENT_STEPS,
    DYKSTRA_ITERS,
    FEAS_TOL,
    STALL_TOL,
    STEP_INIT,
    STEP_SHRINK,
    ExtensionSet,
    QuantumnessReport,
    chi_gradient,
    chi_objective,
    chi_q,
    chi_q_infinite_pure,
    fidelity_q,
    _dykstra,
    _project_affine,
    _project_psd,
    _pure_target_point,
    _scaling_iproject,
    project_feasible,
)
from ensembleq.rand import (
    random_commuting_states,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
    random_unitary,
    rng_from,
)

KET0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
PLUS = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))

# Frozen reference values for the uniform {|0>, |+>} ensemble and for a fixed
# seeded mixed-state instance (seeds 21/22, equal weights, n=2).
CHI_Q_ZERO_PLUS_N2 = 0.21040208776627656
CHI_Q_ZERO_PLUS_N3 = 0.3069762639090724
CHI_Q_ZERO_PLUS_INF = 0.39912396330714384
CHI_Q_HARD_VALUE = 0.011686348683810133
CHI_Q_HARD_OBJECTIVE = 0.1341222844689688
FID_Q_HARD_VALUE = 0.055804630762300356


def zero_plus() -> Ensemble:
    return Ensemble([(0.5, KET0), (0.5, PLUS)])


def hard_pair() -> Ensemble:
    a = DensityMatrix(random_density_matrix(2, seed=21))
    b = DensityMatrix(random_density_matrix(2, seed=22))
    return Ensemble([(0.5, a), (0.5, b)])


def seed_pair() -> Ensemble:
    """The uniform qubit pair drawn with seeds 11 and 12."""
    return Ensemble(
        [(0.5, DensityMatrix(random_density_matrix(2, seed=s))) for s in (11, 12)]
    )


def commuting_ensemble(seed: int, dim: int = 2, count: int = 2) -> Ensemble:
    states = random_commuting_states(dim, count, seed=seed)
    return Ensemble([(1.0 / count, DensityMatrix(s)) for s in states])


def interior_feasible_point(target: np.ndarray, n: int, seed: int) -> np.ndarray:
    """A strictly positive extension of ``target`` for derivative checks."""
    d = target.shape[0]
    noise = random_hermitian(d**n, seed=seed, scale=0.02)
    blended = _power(target, n) + noise
    return project_feasible(blended, DensityMatrix(target), n).mat


def _power(m: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, m)
    return out


# ---------------------------------------------------------------------------
# OptimizerConfig / ExtensionSet
# ---------------------------------------------------------------------------

def test_optimizer_config_defaults():
    cfg = OptimizerConfig()
    assert cfg.max_iters == 2000
    assert STEP_INIT == 0.5
    assert STEP_SHRINK == 0.5
    assert STALL_TOL == 1e-9
    assert DESCENT_STEPS == 2000
    assert DYKSTRA_ITERS == 500
    assert cfg.restarts == 32
    assert cfg.seed == 42


def test_optimizer_config_rejects_a_negative_seed():
    with pytest.raises(InvalidInput, match="seed must be nonnegative"):
        OptimizerConfig(seed=-1)
    assert OptimizerConfig(seed=0).seed == 0


def test_optimizer_config_validation():
    with pytest.raises(InvalidInput):
        OptimizerConfig(max_iters=0)
    for bad in ({"restarts": 1.5}, {"max_iters": "10"}, {"seed": 4.2}):
        with pytest.raises(InvalidInput):
            OptimizerConfig(**bad)
    assert OptimizerConfig(restarts=3.0).restarts == 3


def test_site_counts_must_be_integral():
    e = commuting_ensemble(seed=41)
    members = [s.mat for s in e.states]
    rho, sigma = e.states
    for call in (lambda: ExtensionSet(2.5, 2, [_power(m, 2) for m in members], members),
                 lambda: chi_q(seed_pair(), 2.5),
                 lambda: fidelity_q(rho, sigma, 2.5),
                 lambda: classical_broadcast(e, 2.5),
                 lambda: chi_q(seed_pair(), "2")):
        with pytest.raises(InvalidInput):
            call()
    # an integral float counts sites like the int it equals
    assert chi_q(e, 2.0) == chi_q(e, 2)
    assert fidelity_q(rho, sigma, 2.0) == fidelity_q(rho, sigma, 2)
    assert classical_broadcast(e, 2.0).n == 2


def _mixed(n: int) -> np.ndarray:
    """The maximally mixed state of n qubits, built for at most 7 of them."""
    return np.eye(2 ** min(n, 7)) / 2 ** min(n, 7)


SITE_COUNT_ENTRY_POINTS = {
    "chi_q": lambda n: chi_q(seed_pair(), n),
    "fidelity_q": lambda n: fidelity_q(KET0, PLUS, n),
    "project_feasible": lambda n: project_feasible(_mixed(n), PLUS, n),
    "classical_broadcast": lambda n: classical_broadcast(commuting_ensemble(seed=41), n),
    "ExtensionSet": lambda n: ExtensionSet(n, 2, [_mixed(n)], [_mixed(1)]),
}


@pytest.mark.parametrize("entry", sorted(SITE_COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("n, error", [(0, InvalidInput), (1, InvalidInput),
                                      (7, ResourceLimit), (20000, ResourceLimit)])
def test_site_counts_are_checked_against_the_cap(entry, n, error):
    # at d = 2 the cap admits 2..6 sites; 2**20000 must never be formed
    with pytest.raises(error):
        SITE_COUNT_ENTRY_POINTS[entry](n)


ONE = np.ones((1, 1))

LOCAL_DIM_ENTRY_POINTS = {
    "chi_q": lambda n: chi_q(Ensemble([(1.0, ONE)]), n),
    "fidelity_q": lambda n: fidelity_q(ONE, ONE, n),
    "project_feasible": lambda n: project_feasible(ONE, ONE, n),
    "classical_broadcast": lambda n: classical_broadcast(Ensemble([(1.0, ONE)]), n),
    "ExtensionSet": lambda n: ExtensionSet(n, 1, [ONE], [ONE]),
}


@pytest.mark.parametrize("entry", sorted(LOCAL_DIM_ENTRY_POINTS))
@pytest.mark.parametrize("n", [2, 70, 100000])
def test_one_level_members_are_rejected_before_the_site_count(entry, n):
    # 1**n never reaches the cap, so only the local-dimension rule stops these
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match="local dimension must be at least 2, got 1"):
        LOCAL_DIM_ENTRY_POINTS[entry](n)
    assert time.perf_counter() - start < 1.0


def test_extension_set_accepts_feasible_members():
    e = commuting_ensemble(seed=41)
    exts = classical_broadcast(e, 2)
    assert exts.member_count == 2
    assert exts.feasibility_residual() <= FEAS_TOL


def test_extension_set_rejects_infeasible_members():
    rho = np.diag([0.3, 0.7]).astype(complex)
    wrong = np.kron(np.diag([0.9, 0.1]), np.diag([0.9, 0.1])).astype(complex)
    with pytest.raises(InvalidInput):
        ExtensionSet(
            n=2,
            local_dim=2,
            extensions=[DensityMatrix(wrong)],
            target_marginals=[DensityMatrix(rho)],
        )


def test_extension_set_rejects_bad_shapes():
    rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    prod = DensityMatrix(np.kron(rho.mat, rho.mat))
    with pytest.raises(InvalidInput):
        ExtensionSet(n=1, local_dim=2, extensions=[prod], target_marginals=[rho])
    with pytest.raises(InvalidInput):
        ExtensionSet(n=2, local_dim=2, extensions=[rho], target_marginals=[rho])


# ---------------------------------------------------------------------------
# project_feasible
# ---------------------------------------------------------------------------

def test_project_feasible_pins_marginals():
    target = DensityMatrix(random_density_matrix(2, seed=51))
    raw = random_hermitian(4, seed=52)
    point = project_feasible(raw, target, 2)
    for site in range(2):
        marg = partial_trace(point.mat, (2, 2), site)
        assert np.linalg.norm(marg - target.mat) <= 1e-7


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2)])
def test_project_affine_returns_exact_marginals(d, n):
    target = random_density_matrix(d, seed=54)
    x = random_hermitian(d**n, seed=55)
    y = _project_affine(x, target, np.trace(target), d, n)
    for site in range(n):
        assert np.linalg.norm(partial_trace(y, (d,) * n, site) - target) <= 1e-12
    assert np.linalg.norm(_project_affine(y, target, np.trace(target), d, n) - y) <= 1e-12
    # an orthogonal projection: x - P(x) is normal to the affine set, which
    # holds the product extension z
    z = _kernel.kron_power(target, n)
    assert abs(np.vdot(x - y, y - z)) <= 1e-12


def test_project_feasible_idempotent_on_feasible_input():
    e = commuting_ensemble(seed=53)
    exts = classical_broadcast(e, 2)
    x = exts.extensions[0]
    again = project_feasible(x.mat, e.states[0], 2)
    assert np.linalg.norm(again.mat - x.mat) <= 1e-9


def test_project_feasible_pure_target_gives_product():
    point = project_feasible(np.eye(4) / 4, KET0, 2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(point.mat, expected, atol=1e-12)


def test_project_feasible_rejects_shape_mismatch():
    with pytest.raises(InvalidInput):
        project_feasible(np.eye(2) / 2, KET0, 2)


def test_project_feasible_rejects_non_finite_input():
    with pytest.raises(InvalidInput, match="non-finite"):
        project_feasible(np.full((4, 4), np.nan), KET0, 2)


def _count_affine_projections(monkeypatch) -> list:
    """Record one entry per _project_affine call, i.e. per Dykstra iteration."""
    calls = []

    def counted(*args):
        calls.append(1)
        return _project_affine(*args)

    monkeypatch.setattr(extopt, "_project_affine", counted)
    return calls


def test_dykstra_fails_fast_when_the_face_cannot_hold_the_target(monkeypatch):
    # PSD matrices on the |00> face have pure marginals, so they never meet a
    # mixed target's marginal set: the residual plateaus far above FEAS_TOL
    target = np.diag([0.7, 0.3]).astype(complex)
    face = np.zeros((4, 4), dtype=complex)
    face[0, 0] = 1.0
    calls = _count_affine_projections(monkeypatch)
    with pytest.raises(NumericalFailure):
        _dykstra(_power(target, 2), target, 2, 2, face=face)
    assert len(calls) <= 30


def test_dykstra_plateau_stop_matches_the_full_loop(monkeypatch):
    # capture the face-pinned certificate probes chi_q makes on the pair
    probes = []

    def recording(x, target, d, n, face=None):
        if face is not None:
            probes.append((x.copy(), target.copy(), face.copy()))
        return _dykstra(x, target, d, n, face)

    monkeypatch.setattr(extopt, "_dykstra", recording)
    chi_q(seed_pair(), 2)
    monkeypatch.undo()
    assert probes
    for x, target, face in probes:
        # the Dykstra recursion run for 500 iterations with no stop rule
        ref = _kernel.hermitize(x)
        p = np.zeros_like(ref)
        q = np.zeros_like(ref)
        for _ in range(500):
            a = _project_affine(ref + p, target, np.trace(target), 2, 2)
            p = ref + p - a
            ref = _project_psd(face @ (a + q) @ face)
            q = a + q - ref
        # the face misses the marginal set by a rounding-scale gap: the full
        # loop never meets the 1e-9 stop test, and ends feasible all the same
        assert 1e-9 < marginal_residual([ref], [target], 2, 2) <= FEAS_TOL
        calls = _count_affine_projections(monkeypatch)
        y = _dykstra(x, target, 2, 2, face=face)
        monkeypatch.undo()
        assert len(calls) < 100
        assert np.linalg.norm(y - ref) <= 1e-10


# ---------------------------------------------------------------------------
# entropic warm start
# ---------------------------------------------------------------------------

def test_scaling_iproject_stack_matches_each_member_alone(monkeypatch):
    targets = np.array([random_density_matrix(2, seed=s) for s in (31, 32, 33)])
    log_targets = _kernel.matrix_function(targets, "log")
    log_sigma = _kernel.matrix_function(random_density_matrix(8, seed=34), "log")
    zero = np.zeros((3, 8, 8), dtype=complex)
    _, once = _scaling_iproject(log_sigma, log_targets, 2, 3, zero)
    _, twice = _scaling_iproject(log_sigma, log_targets, 2, 3, once)
    # member 0 starts two calls warm, member 1 one call warm, member 2 cold
    mult = np.array([twice[0], once[1], zero[2]])
    before = mult.copy()
    gathers = []
    site_marginals = _kernel.site_marginals

    def recording(x, d, n, site=None):
        gathers.append((x.shape, site))
        return site_marginals(x, d, n, site)

    monkeypatch.setattr(_kernel, "site_marginals", recording)
    E, M = _scaling_iproject(log_sigma, log_targets, 2, 3, mult)
    monkeypatch.undo()
    # two sweeps of one whole-stack gather per site, and no member leaves
    assert gathers == [((3, 8, 8), k) for k in (0, 1, 2)] * 2
    assert np.array_equal(mult, before)
    for i in range(3):
        Ei, Mi = _scaling_iproject(log_sigma, log_targets[i:i + 1], 2, 3, mult[i:i + 1])
        assert np.array_equal(Ei[0], E[i]) and np.array_equal(Mi[0], M[i])


def test_solver_loops_gather_marginals_only_through_the_site_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a solver loop left the site table")

    qutrits = Ensemble(
        [(0.5, DensityMatrix(random_density_matrix(3, seed=s))) for s in (11, 12)]
    )
    # building a site table calls site_view, so build the ones these runs use first
    for d, n in ((2, 2), (2, 3), (3, 2)):
        _kernel.site_index(d, n)
    monkeypatch.setattr(_kernel, "partial_trace", forbidden)
    monkeypatch.setattr(_kernel, "site_view", forbidden)
    for r in (chi_q(seed_pair(), 2), chi_q(seed_pair(), 3), chi_q(qutrits, 2),
              fidelity_q(*seed_pair().states, 2)):
        assert r.feasibility_residual <= FEAS_TOL


def test_chi_q_keeps_a_pure_member_at_its_product_point(monkeypatch):
    psi = random_pure_state(2, seed=41)
    states = [np.outer(psi, psi.conj()), random_density_matrix(2, seed=42),
              random_density_matrix(2, seed=43)]
    e = Ensemble([(p, DensityMatrix(s)) for p, s in zip((0.3, 0.3, 0.4), states)])
    refined, stacks = [], []
    refine, iproject = extopt._entropic_refine, extopt._scaling_iproject

    def recording_refine(*args, **kwargs):
        out = refine(*args, **kwargs)
        refined.append(out[0])
        return out

    def recording_iproject(log_sigma, log_targets, *args, **kwargs):
        stacks.append(log_targets.shape)
        return iproject(log_sigma, log_targets, *args, **kwargs)

    monkeypatch.setattr(extopt, "_entropic_refine", recording_refine)
    monkeypatch.setattr(extopt, "_scaling_iproject", recording_iproject)
    r = chi_q(e, 2)
    # one stack holding the two mixed members, never the pure one
    assert refined and set(stacks) == {(2, 2, 2)}
    # the refine returns snapped points, so the pinned member comes back snapped
    point = extopt._snap_small(_pure_target_point(states[0], 2))
    for extensions in refined:
        assert np.array_equal(extensions[0], point)
    assert r.converged and r.feasibility_residual <= FEAS_TOL and r.value > 0.0


# ---------------------------------------------------------------------------
# objective and gradient
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, n, seed", [(2, 2, 51), (2, 3, 52), (3, 2, 53), (2, 4, 54)])
def test_copies_reproduce_the_copy_builders_they_replace(d, n, seed):
    rho = random_density_matrix(d, seed=seed)
    w, v = np.linalg.eigh(_kernel.hermitize(rho))
    vecs = [_kernel.kron_power(v[:, k], n) for k in range(d)]
    # the classical copy: one eigenvector term at a time, in column order
    loop = np.zeros((d**n, d**n), dtype=complex)
    for k in range(d):
        if w[k] > 0.0:
            loop += w[k] * np.outer(vecs[k], vecs[k].conj())
    assert np.array_equal(extopt._classical_copy(rho, n), loop / np.trace(loop).real)
    # the pure target point: one outer product of the top eigenvector's power
    psi = random_pure_state(d, seed=seed)
    pure = np.outer(psi, psi.conj())
    top = _kernel.kron_power(_kernel.pure_vector(pure), n)
    assert np.array_equal(_pure_target_point(pure, n), np.outer(top, top.conj()))
    # the classical broadcast summed all d terms in one matmul, zero weights too
    weights = np.clip(w, 0.0, None)
    weights[0] = 0.0
    stacked = np.array(vecs)
    matmul = (stacked.T * weights) @ stacked.conj()
    assert np.max(np.abs(_kernel.copies(weights, v, n) - matmul)) <= 1e-15


def test_chi_objective_on_classical_copies_matches_holevo():
    e = commuting_ensemble(seed=61)
    exts = classical_broadcast(e, 2)
    mats = [x.mat for x in exts.extensions]
    # classical copies carry the same eigenvalue weights as the originals, so
    # the extension-level quantity coincides with the base one
    assert chi_objective(mats, e.probs) == pytest.approx(holevo(e), abs=1e-8)


def test_chi_gradient_matches_finite_differences():
    rng = rng_from(71)
    target = random_density_matrix(2, seed=72)
    x0 = interior_feasible_point(target, 2, seed=73)
    x1 = interior_feasible_point(target, 2, seed=74)
    probs = [0.35, 0.65]
    mats = [x0, x1]
    grads = chi_gradient(mats, probs)
    h = 1e-5
    for _ in range(4):
        dirs = []
        for m in mats:
            raw = random_hermitian(4, rng, scale=1.0)
            raw -= np.trace(raw) / 4 * np.eye(4)
            # remove the marginal components so the direction stays feasible
            shifted = project_feasible(m + 0.01 * raw, DensityMatrix(target), 2).mat
            dirs.append((shifted - m) / 0.01)
        plus = [m + h * d for m, d in zip(mats, dirs)]
        minus = [m - h * d for m, d in zip(mats, dirs)]
        fd = (chi_objective(plus, probs) - chi_objective(minus, probs)) / (2 * h)
        analytic = sum(
            float(np.real(np.trace(g.conj().T @ d))) for g, d in zip(grads, dirs)
        )
        scale = max(abs(fd), abs(analytic), 1e-8)
        assert abs(fd - analytic) / scale <= 1e-4


def test_chi_objective_convex_along_feasible_segments():
    target = random_density_matrix(2, seed=81)
    probs = [0.5, 0.5]
    a = [interior_feasible_point(target, 2, seed=82 + i) for i in range(2)]
    b = [interior_feasible_point(target, 2, seed=92 + i) for i in range(2)]
    mid = [(x + y) / 2 for x, y in zip(a, b)]
    f_mid = chi_objective(mid, probs)
    f_avg = (chi_objective(a, probs) + chi_objective(b, probs)) / 2
    assert f_mid <= f_avg + 1e-8


# ---------------------------------------------------------------------------
# chi_q
# ---------------------------------------------------------------------------

def test_chi_q_zero_plus_frozen_oracles():
    e = zero_plus()
    r2 = chi_q(e, 2)
    assert r2.converged
    assert r2.value == pytest.approx(CHI_Q_ZERO_PLUS_N2, abs=1e-8)
    assert r2.baseline == pytest.approx(holevo(e), abs=1e-12)
    assert r2.feasibility_residual <= FEAS_TOL
    r3 = chi_q(e, 3)
    assert r3.value == pytest.approx(CHI_Q_ZERO_PLUS_N3, abs=1e-8)
    assert r3.value >= r2.value - 1e-4  # more sites cannot decrease the gap


def test_chi_q_pure_ensemble_matches_product_closed_form():
    e = zero_plus()
    for n in (2, 3):
        prod = sum(
            p * _power(s.mat, n) for p, s in zip(e.probs, e.states)
        )
        closed = von_neumann_entropy(prod) - von_neumann_entropy(e.average_state().mat)
        assert chi_q(e, n).value == pytest.approx(closed, abs=5e-3)


def test_chi_q_commuting_is_zero():
    for seed in (101, 102, 103):
        e = commuting_ensemble(seed=seed)
        report = chi_q(e, 2)
        assert report.converged
        assert report.value <= 1e-6


def test_chi_q_hard_instance_frozen_oracle():
    report = chi_q(hard_pair(), 2)
    assert report.converged
    assert report.value == pytest.approx(CHI_Q_HARD_VALUE, abs=1e-7)
    assert report.objective_at_optimum == pytest.approx(CHI_Q_HARD_OBJECTIVE, abs=1e-7)
    assert report.value == pytest.approx(
        report.objective_at_optimum - report.baseline, abs=1e-12
    )
    assert report.value >= 1e-4  # genuinely non-classical pair


def test_chi_q_report_json_round_trip():
    report = chi_q(zero_plus(), 2)
    blob = report.to_json()
    assert set(blob) == {
        "value",
        "objective",
        "baseline",
        "feasibility_residual",
        "iterations",
        "converged",
        "restarts",
    }
    back = QuantumnessReport.from_json(blob)
    assert back.value == pytest.approx(report.value, abs=1e-15)
    assert back.converged == report.converged
    below = {"value": -1e-3, "objective": blob["baseline"] - 1e-3}
    for bad in ({"iterations": "many"}, {"restarts": None},
                {"value": blob["value"] + 1e-3}, below, {"value": float("nan")},
                {"converged": "false"}, {"restarts": "123"}, {"iterations": 1.7},
                # numbers spelled as strings or booleans are not numbers
                *({key: repr(blob[key])} for key in
                  ("value", "objective", "baseline", "feasibility_residual")),
                {"feasibility_residual": True}, {"restarts": [repr(blob["restarts"][0])]}):
        with pytest.raises(InvalidInput):
            QuantumnessReport.from_json({**blob, **bad})


def test_chi_q_takes_no_descent_step(monkeypatch):
    def no_descent(*args, **kwargs):
        raise AssertionError("chi_q entered the Euclidean descent")

    monkeypatch.setattr(extopt, "_descend", no_descent)
    r = chi_q(seed_pair(), 2)
    assert r.converged and r.iterations == 1 and len(r.restart_values) == 1


def test_chi_face_check_refuses_misaligned_kernels():
    # each member's classical copy is feasible but rank-deficient, and its
    # kernel differs from the average's, so the face check must refuse it
    e = seed_pair()
    targets = [s.mat for s in e.states]
    x = [extopt._classical_copy(t, 2) for t in targets]
    assert marginal_residual(x, targets, 2, 2) <= 1e-14
    assert all(np.linalg.eigvalsh(xi)[0] < extopt.SNAP_TOL for xi in x)
    # no interior blend undercuts an objective of -inf, so only the kernel
    # test can refuse here
    assert extopt._chi_face_check(x, -np.inf, e.probs, targets, 2)[1:] == (-np.inf, False)
    fx = chi_objective(x, e.probs)
    assert not extopt._chi_face_check(x, fx, e.probs, targets, 2)[2]


def test_chi_q_certified_point_is_feasible_at_three_sites():
    # the refine's last two-sweep scaling round leaves this optimum 1.3e-7
    # off the marginal set; its projection moves chi by about 1e-10
    r = chi_q(seed_pair(), 3)
    assert r.converged and r.feasibility_residual <= FEAS_TOL


def test_chi_face_check_returns_a_lower_interior_blend():
    # the classical broadcast of a commuting pair is optimal on a face whose
    # kernels align; told a value above its true chi, the check must hand
    # back the feasible interior blend that undercuts it, uncertified
    e = commuting_ensemble(seed=7)
    targets = [s.mat for s in e.states]
    x = [ext.mat for ext in classical_broadcast(e, 2).extensions]
    assert all(np.linalg.eigvalsh(xi)[0] < extopt.SNAP_TOL for xi in x)
    fx = chi_objective(x, e.probs)
    assert extopt._chi_face_check(x, fx, e.probs, targets, 2) == (x, fx, True)
    esc, f_esc, certified = extopt._chi_face_check(x, fx + 1e-3, e.probs, targets, 2)
    assert not certified and f_esc < fx + 1e-3 - 1e-7
    assert f_esc == pytest.approx(chi_objective(esc, e.probs), abs=0.0)
    assert marginal_residual(esc, targets, 2, 2) <= 1e-14


@pytest.mark.parametrize("dykstra_fails", [False, True])
def test_chi_q_reports_a_feasible_point_when_the_refine_misses_the_marginals(
        monkeypatch, dykstra_fails):
    # rho_i (x) I/2 misses the second-site marginals but has chi equal to the
    # baseline, so reported as it is it would pass as saturated and certified
    e = seed_pair()
    targets = [s.mat for s in e.states]
    bad = [np.kron(t, np.eye(2) / 2) for t in targets]
    assert chi_objective(bad, e.probs) == pytest.approx(holevo(e), abs=1e-12)
    assert marginal_residual(bad, targets, 2, 2) > 0.1
    monkeypatch.setattr(extopt, "_entropic_refine", lambda *args: (bad, 0.0))
    if dykstra_fails:
        def failing(*args, **kwargs):
            raise NumericalFailure("stalled")
        monkeypatch.setattr(extopt, "_dykstra", failing)
    r = chi_q(e, 2)
    start = chi_objective([extopt._interior_start(t, 2) for t in targets], e.probs)
    assert r.feasibility_residual <= FEAS_TOL and not r.converged
    assert r.value > 1e-4
    if dykstra_fails:
        assert r.objective_at_optimum == pytest.approx(start, abs=1e-12)
    else:
        assert r.objective_at_optimum < start


def test_chi_q_qutrit_commuting():
    e = commuting_ensemble(seed=111, dim=3)
    report = chi_q(e, 2)
    assert report.converged
    assert report.value <= 1e-6


def test_commuting_family_never_enters_a_local_solver(monkeypatch):
    # the classical broadcast saturates the baseline, so it closes the run
    def no_local_solver(*args, **kwargs):
        raise AssertionError("a commuting family entered a local solver")

    monkeypatch.setattr(extopt, "_refine_and_certify", no_local_solver)
    monkeypatch.setattr(extopt, "_descend", no_local_solver)
    e = commuting_ensemble(seed=151)
    for r in (chi_q(e, 2), fidelity_q(e.states[0], e.states[1], 2)):
        assert r.converged and r.iterations == 0
        assert r.restart_values == (r.objective_at_optimum,)
        assert r.value <= 1e-9


def test_chi_q_rejects_single_site():
    with pytest.raises(InvalidInput):
        chi_q(zero_plus(), 1)


def test_chi_q_dimension_cap():
    e = commuting_ensemble(seed=121, dim=3)
    with pytest.raises(ResourceLimit):
        chi_q(e, 4)  # 3**4 = 81 exceeds the extension-dimension cap


def test_chi_q_infinite_pure_values():
    assert chi_q_infinite_pure(zero_plus()) == pytest.approx(
        CHI_Q_ZERO_PLUS_INF, abs=1e-12
    )
    orth = Ensemble(
        [
            (0.5, KET0),
            (0.5, DensityMatrix(np.array([[0, 0], [0, 1]], dtype=complex))),
        ]
    )
    assert chi_q_infinite_pure(orth) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(PreconditionViolated):
        chi_q_infinite_pure(commuting_ensemble(seed=131))


def test_chi_q_values_increase_with_sites_on_mixed_pair():
    e = hard_pair()
    r2 = chi_q(e, 2)
    r3 = chi_q(e, 3)
    assert r3.value >= r2.value - 1e-4


@pytest.mark.parametrize("draw", range(3))
def test_chi_q_invariant_under_local_unitaries_and_member_order(draw):
    # a common local unitary maps feasible extension sets onto each other
    # (U^{(x)n} on every member) and reordering members permutes the terms
    # of the Holevo objective, so neither can move the optimum
    e = seed_pair()
    base = chi_q(e, 2)
    u = random_unitary(2, seed=300 + draw)
    turned = [DensityMatrix(u @ s.mat @ u.conj().T) for s in e.states]
    for members in (zip(e.probs, turned), reversed(list(zip(e.probs, turned)))):
        r = chi_q(Ensemble(list(members)), 2)
        assert r.value == pytest.approx(base.value, abs=1e-9)
        assert r.converged == base.converged


# ---------------------------------------------------------------------------
# fidelity_q
# ---------------------------------------------------------------------------

def test_fidelity_q_pure_pair_closed_form():
    # product extensions square the overlap: gap = 0.5 - 0.25 in the squared
    # convention and sqrt(0.5) - 0.5 in the root convention
    r = fidelity_q(KET0, PLUS, 2)
    assert r.converged and r.iterations == 0
    assert r.value == pytest.approx(0.25, abs=1e-10)
    rr = fidelity_q(KET0, PLUS, 2, convention="root")
    assert rr.value == pytest.approx(np.sqrt(0.5) - 0.5, abs=1e-10)


def test_fidelity_q_commuting_pair_is_zero():
    e = commuting_ensemble(seed=141)
    r = fidelity_q(e.states[0], e.states[1], 2)
    assert r.converged
    assert r.value <= 1e-6


def test_fidelity_q_hard_pair_frozen_oracle():
    e = hard_pair()
    r = fidelity_q(e.states[0], e.states[1], 2)
    assert r.converged
    assert r.value == pytest.approx(FID_Q_HARD_VALUE, abs=1e-7)
    assert r.value >= 0.0
    assert r.feasibility_residual <= FEAS_TOL


def test_fidelity_q_uncertified_report_end_to_end(monkeypatch):
    # one descent step cannot reach the certificate: the report says so
    monkeypatch.setattr(extopt, "DESCENT_STEPS", 1)
    e = seed_pair()
    r = fidelity_q(e.states[0], e.states[1], 2)
    assert not r.converged and r.iterations == 1
    assert len(r.restart_values) == 1
    assert r.objective_at_optimum == r.restart_values[0]
    assert r.value == r.objective_at_optimum - r.baseline > 0.0
    assert r.feasibility_residual <= FEAS_TOL
    assert QuantumnessReport.from_json(r.to_json()) == r


def test_fidelity_q_rejects_unknown_convention():
    with pytest.raises(InvalidInput):
        fidelity_q(KET0, PLUS, 2, convention="cubed")
