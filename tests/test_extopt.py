"""Extension optimization: feasible projections, chi_q, fidelity_q."""

import subprocess
import sys
import time

import numpy as np
import pytest

from ensembleq.densmat import DensityMatrix, fidelity, partial_trace, von_neumann_entropy
from ensembleq.ensemble import Ensemble, classical_broadcast, holevo
from ensembleq import _kernel, _newton, extopt
from ensembleq._kernel import marginal_residual
from ensembleq.accinfo import OptimizerConfig
from ensembleq.errors import (
    InvalidInput,
    NumericalFailure,
    PreconditionViolated,
    ResourceLimit,
)
from ensembleq.extopt import (
    FEAS_TOL,
    PROJECTION_STEPS,
    PROJECTION_TOL,
    SAT_TOL,
    ExtensionSet,
    QuantumnessReport,
    chi_gradient,
    chi_objective,
    chi_q,
    chi_q_infinite_pure,
    fidelity_q,
    _entropic_project,
    _newton_project,
    _pure_target_point,
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
# the optimum of the fidelity SDP, solved to a gap of 1e-11
FID_Q_HARD_VALUE = 0.0093547553


def zero_plus() -> Ensemble:
    return Ensemble([(0.5, KET0), (0.5, PLUS)])


def hard_pair() -> Ensemble:
    a = DensityMatrix(random_density_matrix(2, seed=21))
    b = DensityMatrix(random_density_matrix(2, seed=22))
    return Ensemble([(0.5, a), (0.5, b)])


def seed_pair(d: int = 2) -> Ensemble:
    """The uniform pair of d-level states drawn with seeds 11 and 12."""
    return Ensemble(
        [(0.5, DensityMatrix(random_density_matrix(d, seed=s))) for s in (11, 12)]
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
    assert PROJECTION_STEPS == 500
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


SEEDED_SITES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2), (4, 3), (8, 2)]


def _seeded_inputs(d: int, n: int):
    """A Ginibre target t and the starts h and t^(x)n + 0.1 h, from default_rng(100 d + n)."""
    rng = np.random.default_rng(100 * d + n)
    target = random_density_matrix(d, seed=rng)
    g = rng.normal(size=(d**n, d**n)) + 1j * rng.normal(size=(d**n, d**n))
    h = (g + g.conj().T) / (2 * d**n)
    return target, [h, _power(target, n) + 0.1 * h]


@pytest.mark.parametrize("d, n", SEEDED_SITES)
def test_project_feasible_reaches_the_marginals_on_seeded_inputs(d, n):
    # Dykstra's 500 iterations left nine of these twenty above FEAS_TOL
    target, starts = _seeded_inputs(d, n)
    for x in starts:
        point = project_feasible(x, DensityMatrix(target), n).mat
        assert np.linalg.eigvalsh(point)[0] >= -1e-12
        assert marginal_residual([point], [target], d, n) <= PROJECTION_TOL


def _dykstra_reference(x: np.ndarray, target: np.ndarray, d: int, n: int) -> np.ndarray:
    """Dykstra's alternating projections, PSD cone and marginal set, for 500 iterations.

    No stop rule.  The affine step removes the trace excess evenly and each
    site's traceless marginal error spread over the other sites.
    """
    big = d**n
    y = _kernel.hermitize(x)
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    for _ in range(500):
        yp = y + p
        a = yp - ((np.trace(yp) - np.trace(target)).real / big) * np.eye(big)
        r = _kernel.site_marginals(yp, d, n) - target
        r -= (np.trace(r, axis1=1, axis2=2) / d)[:, None, None] * np.eye(d)
        _kernel.subtract_at_sites(a, r / d ** (n - 1), d, n)
        p = yp - a
        y = _kernel.matrix_function(a + q, "psd_clip")
        q = a + q - y
    return y


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2)])
def test_newton_projection_agrees_with_dykstra(d, n):
    target, starts = _seeded_inputs(d, n)
    agreed = 0
    for x in starts:
        ref = _dykstra_reference(x, target, d, n)
        if marginal_residual([ref], [target], d, n) > FEAS_TOL:
            continue  # (3, 2) from h: Dykstra stalls there
        assert np.linalg.norm(_newton_project(x, target, d, n) - ref) <= 1e-7
        agreed += 1
    assert agreed >= 1


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2)])
def test_newton_projection_of_two_blocks_projects_each_block(d, n):
    # conjugation by diag(I, -I) keeps the set of psd matrices with given
    # diagonal-block marginals and a block-diagonal input, so the projection
    # is block-diagonal too: each block's own projection
    (t1, (h1, _)), (t2, (h2, _)) = _seeded_inputs(d, n), _seeded_inputs(d, n + 1)
    h2 = h2[:d**n, :d**n]
    zero = np.zeros_like(h1)
    targets = np.array([t1] * n + [t2] * n)[None]
    point = _newton.solve(np.block([[h1, zero], [zero, h2]]), targets, d, n, _newton.CLIP)[0][0]
    big = d**n
    assert np.linalg.norm(point[:big, big:]) <= 1e-8
    assert np.linalg.norm(point[:big, :big] - _newton_project(h1, t1, d, n)) <= 1e-8
    assert np.linalg.norm(point[big:, big:] - _newton_project(h2, t2, d, n)) <= 1e-8


def test_newton_projection_fails_loudly_on_an_unreachable_target():
    # no PSD matrix has a marginal with a negative eigenvalue
    target = np.diag([0.6, 0.6, -0.2]).astype(complex)
    with pytest.raises(NumericalFailure, match="Newton projection stalled"):
        _newton_project(np.eye(9, dtype=complex) / 9, target, 3, 2)


def _rank(m: np.ndarray) -> int:
    return int((np.linalg.eigvalsh(m) > 0.5 * extopt.SNAP_TOL).sum())


def test_every_projection_is_the_newton_projection(monkeypatch):
    # chi_q's restoration and every probe of the projected-gradient mapping
    # project by Newton; a probe projects onto the set through its point: the
    # point's own marginals, on its support face
    calls = []
    probed = []
    pg_mapping_norm = extopt._pg_mapping_norm

    def probe(x, g, d, n):
        probed.append([(xi, _kernel.site_marginals(xi, d, n)) for xi in x])
        try:
            return pg_mapping_norm(x, g, d, n)
        finally:
            probed.pop()

    def newton(x, target, d, n, basis=None):
        if not probed:
            calls.append(("outside", basis is not None))
            return _newton_project(x, target, d, n, basis)
        points = [xi for xi, own in probed[-1] if np.array_equal(own, target)]
        assert points, "a probe projected onto marginals other than its point's"
        point = points[0]
        pinned = _rank(point) < len(point)
        assert (basis is not None) == pinned
        if pinned:
            # the basis spans the point's support
            face = basis @ basis.conj().T
            assert basis.shape[1] == _rank(point)
            assert np.linalg.norm(face @ point @ face - point) <= 1e-12
        calls.append(("probe", pinned))
        return _newton_project(x, target, d, n, basis)

    monkeypatch.setattr(extopt, "_pg_mapping_norm", probe)
    monkeypatch.setattr(extopt, "_newton_project", newton)

    assert chi_q(hard_pair(), 2).converged
    assert {kind for kind, _ in calls} == {"probe"}
    assert ("probe", True) in calls

    calls.clear()
    chi_q(seed_pair(), 2)
    assert ("probe", True) in calls

    calls.clear()
    targets = [s.mat for s in seed_pair().states]
    bad = [np.kron(t, np.eye(2) / 2) for t in targets]
    monkeypatch.setattr(extopt, "_entropic_refine", lambda *args: (bad, 0.0))
    chi_q(seed_pair(), 2)
    assert calls == [("outside", False), ("outside", False)]


# the refine's certified points and their ranks, all below d**n
CERTIFIED_FACE_CASES = {
    "seed-11-12/d2n2": (seed_pair, 2, (3, 3)),
    "seed-11-12/d2n3": (seed_pair, 3, (4, 4)),
    "seed-11-12/d3n2": (lambda: seed_pair(3), 2, (6, 6)),
    "hard/d2n2": (hard_pair, 2, (3, 3)),
}


@pytest.mark.parametrize("case", sorted(CERTIFIED_FACE_CASES))
def test_probe_holds_its_certified_face_pinned_point(case):
    # a zero gradient must leave the point where it is; projecting onto the
    # targets' marginal set on the face instead stopped 1e-8 short of it
    make, n, ranks = CERTIFIED_FACE_CASES[case]
    e = make()
    d = e.dim
    targets = [s.mat for s in e.states]
    starts = [extopt._snap_small(extopt._interior_start(t, n)) for t in targets]
    x, pg = extopt._entropic_refine(starts, targets, e.probs, d, n)
    assert pg <= extopt.PG_TOL
    assert tuple(_rank(xi) for xi in x) == ranks
    zero = [np.zeros_like(xi) for xi in x]
    assert extopt._pg_mapping_norm(x, zero, d, n) <= 1e-12


def test_probe_reads_the_mapping_at_one_step(monkeypatch):
    # a reading between PG_TOL and 1e-3 is still read at PG_PROBE alone: one
    # face-pinned projection per member, onto its point's own marginals
    e = seed_pair()
    targets = [s.mat for s in e.states]
    starts = [extopt._snap_small(extopt._interior_start(t, 2)) for t in targets]
    x, pg = extopt._entropic_refine(starts, targets, e.probs, 2, 2)
    assert pg <= extopt.PG_TOL
    g = [1e-5 * random_hermitian(4, seed=40 + i) for i in range(len(x))]
    calls = []

    def newton(y, target, d, n, basis=None):
        calls.append((target, basis))
        return _newton_project(y, target, d, n, basis)

    monkeypatch.setattr(extopt, "_newton_project", newton)
    reading = extopt._pg_mapping_norm(x, g, 2, 2)
    assert extopt.PG_TOL < reading < 1e-3
    assert len(calls) == len(x)
    for xi, (target, basis) in zip(x, calls):
        assert np.array_equal(target, _kernel.site_marginals(xi, 2, 2))
        assert np.array_equal(basis, extopt._support_basis(xi))


# ---------------------------------------------------------------------------
# entropic warm start
# ---------------------------------------------------------------------------

def test_entropic_project_stack_matches_each_member_alone(monkeypatch):
    targets = np.array([random_density_matrix(2, seed=s) for s in (31, 32, 33)])
    sigma = random_density_matrix(8, seed=34)
    spectrum = np.linalg.eigh(sigma)
    other = random_density_matrix(8, seed=35)
    zero = np.zeros((3, 3, 2, 2), dtype=complex)
    _, warm, _ = _entropic_project(other, np.linalg.eigh(other), targets, zero, 2, 3)
    # members 0 and 1 start warm, from another sigma's multipliers, member 2 cold
    mult = np.array([warm[0], warm[1], zero[2]])
    before = mult.copy()
    gathers = []
    site_marginals = _kernel.site_marginals

    def recording(x, d, n, site=None):
        gathers.append((x.shape, site))
        return site_marginals(x, d, n, site)

    monkeypatch.setattr(_kernel, "site_marginals", recording)
    E, M, W = _entropic_project(sigma, spectrum, targets, mult, 2, 3)
    monkeypatch.undo()
    # every gather takes all sites of the members still running, starting
    # with the whole stack, and no member's input multipliers move
    assert gathers[0] == ((3, 8, 8), None)
    assert all(site is None and shape[1:] == (8, 8) for shape, site in gathers)
    assert np.array_equal(mult, before)
    assert W.shape == (3, 8) and M.shape == (3, 3, 2, 2)
    for i in range(3):
        # an exact projection: the marginals are met, and E is exp of its exponent
        assert marginal_residual([E[i]], [targets[i]], 2, 3) <= PROJECTION_TOL
        assert np.allclose(np.linalg.eigvalsh(E[i]), np.exp(W[i]), rtol=0, atol=1e-14)
        Ei, Mi, Wi = _entropic_project(sigma, spectrum, targets[i:i + 1], mult[i:i + 1], 2, 3)
        assert np.array_equal(Ei[0], E[i]) and np.array_equal(Mi[0], M[i])
        assert np.array_equal(Wi[0], W[i])


def _scaling_reference(sigma: np.ndarray, target: np.ndarray, d: int, n: int,
                       sweeps: int) -> np.ndarray:
    """Iterative scaling onto {marginals = target} from sigma, for a fixed count of sweeps.

    No stop rule.  Each site step multiplies in the exponent by the mismatch
    log target - log marginal_k.
    """
    log_sigma = _kernel.matrix_function(sigma, "log")
    log_target = _kernel.matrix_function(target, "log")
    E = _kernel.matrix_function(log_sigma, "exp")
    for _ in range(sweeps):
        for k in range(n):
            ops = np.zeros((n, d, d), dtype=complex)
            marginal = _kernel.site_marginals(E, d, n, k)
            ops[k] = _kernel.matrix_function(marginal, "log") - log_target
            _kernel.subtract_at_sites(log_sigma, ops, d, n)
            E = _kernel.matrix_function(log_sigma, "exp")
    return E


def _entropic_projection(sigma: np.ndarray, target: np.ndarray, d: int, n: int) -> np.ndarray:
    zero = np.zeros((1, n, d, d), dtype=complex)
    return _entropic_project(sigma, np.linalg.eigh(sigma), target[None], zero, d, n)[0][0]


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2)])
def test_entropic_projection_agrees_with_iterative_scaling(d, n):
    target, _ = _seeded_inputs(d, n)
    sigma = random_density_matrix(d**n, seed=100 * d + n)
    E = _entropic_projection(sigma, target, d, n)
    assert marginal_residual([E], [target], d, n) <= PROJECTION_TOL
    assert np.linalg.norm(E - _scaling_reference(sigma, target, d, n, 2000)) <= 1e-7


@pytest.mark.parametrize("n, slow", [(3, 5e-7), (4, 1e-5)])
def test_entropic_projection_is_exact_at_a_near_singular_sigma(n, slow):
    # 0.999 of the seed-11/12 pair's classical copies and 0.001 of its
    # products: the sigma of a boundary optimum, where 100 sweeps of
    # scaling leave residuals of 8e-7 (n = 3) and 1.3e-5 (n = 4)
    rhos = [random_density_matrix(2, seed=s) for s in (11, 12)]
    sigma = (0.999 * sum(extopt._classical_copy(r, n) for r in rhos)
             + 0.001 * sum(_power(r, n) for r in rhos)) / 2
    E = _entropic_projection(sigma, rhos[0], 2, n)
    assert marginal_residual([E], [rhos[0]], 2, n) <= PROJECTION_TOL
    hundred = _scaling_reference(sigma, rhos[0], 2, n, 100)
    assert marginal_residual([hundred], [rhos[0]], 2, n) > slow
    assert np.linalg.norm(E - _scaling_reference(sigma, rhos[0], 2, n, 2000)) <= 1e-7


def test_every_refine_iterate_meets_the_marginals_at_four_sites(monkeypatch):
    e = seed_pair()
    targets = [s.mat for s in e.states]
    project = extopt._entropic_project
    worst = []

    def checking(*args, **kwargs):
        out = project(*args, **kwargs)
        worst.append(max(marginal_residual([x], [t], 2, 4) for x, t in zip(out[0], targets)))
        return out

    monkeypatch.setattr(extopt, "_entropic_project", checking)
    r = chi_q(e, 4)
    assert r.converged and len(worst) > 25
    assert max(worst) <= PROJECTION_TOL


@pytest.mark.parametrize("n", [2, 3])
def test_refine_round_decomposes_each_matrix_once(monkeypatch, n):
    # outside the projections a round decomposes the new sigma once, whose
    # spectrum serves the stop rule's chi and the next projection's log
    # sigma, and at most one extrapolation, whose spectrum serves its
    # positivity test and its log; no matrix is decomposed twice
    events, decomposed = [], []
    project = extopt._entropic_project

    def counting(decompose):
        def wrapped(a, *args, **kwargs):
            events.append("e")
            decomposed.append(np.array(a))
            return decompose(a, *args, **kwargs)
        return wrapped

    def recording(sigma, *args, **kwargs):
        start = len(events)
        out = project(sigma, *args, **kwargs)
        del events[start:], decomposed[start:]
        events.append("P")
        decomposed.append(_kernel.hermitize(sigma))
        return out

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    monkeypatch.setattr(extopt, "_entropic_project", recording)
    chi_q(seed_pair(), n)
    monkeypatch.undo()
    # the first 20 rounds run no certificate check
    first = "".join(events).index("P")
    last = [i for i, kind in enumerate(events) if kind == "P"][20]
    assert all(gap in ("e", "ee") for gap in "".join(events[first:last]).split("P")[1:])
    # some rounds extrapolate: two decompositions between projections
    assert "PeeP" in "".join(events[first:last])
    outside = [m for kind, m in zip(events[first:last], decomposed[first:last]) if kind == "e"]
    for i, m in enumerate(outside):
        assert not any(np.array_equal(m, other) for other in outside[:i])
    # every projected sigma is one the loop decomposed outside the projections
    for i in range(first, last):
        if events[i] == "P":
            assert any(kind == "e" and np.array_equal(decomposed[i], m)
                       for kind, m in zip(events[:i], decomposed[:i]))


def _pinned_triple() -> Ensemble:
    psi = random_pure_state(2, seed=41)
    states = [np.outer(psi, psi.conj()), random_density_matrix(2, seed=42),
              random_density_matrix(2, seed=43)]
    return Ensemble([(p, DensityMatrix(s)) for p, s in zip((0.3, 0.3, 0.4), states)])


def _pair_and_a_weightless_member() -> Ensemble:
    states = [random_density_matrix(2, seed=s) for s in (11, 12, 13)]
    return Ensemble([(p, DensityMatrix(s)) for p, s in zip((0.5, 0.5, 0.0), states)])


@pytest.mark.parametrize("build, n", [
    (seed_pair, 2),
    (seed_pair, 3),
    (lambda: Ensemble([(0.5, DensityMatrix(random_density_matrix(3, seed=s)))
                       for s in (11, 12)]), 2),
    (_pinned_triple, 2),
    (_pair_and_a_weightless_member, 2),
], ids=["pair-n2", "pair-n3", "qutrits", "pinned-triple", "weightless-member"])
def test_refine_stop_rule_chi_is_chi_objective(monkeypatch, build, n):
    e = build()
    starts, projected, values = [], [], []
    inside = [False]
    refine, project, holevo_sum = (extopt._entropic_refine, extopt._entropic_project,
                                   _kernel.holevo_from_entropies)

    def recording_refine(x0, *args, **kwargs):
        starts.append(list(x0))
        inside[0] = True
        try:
            return refine(x0, *args, **kwargs)
        finally:
            inside[0] = False

    def recording_project(*args, **kwargs):
        out = project(*args, **kwargs)
        projected.append(out[0].copy())
        return out

    def recording_sum(*args, **kwargs):
        value = holevo_sum(*args, **kwargs)
        if inside[0]:
            values.append(value)
        return value

    monkeypatch.setattr(extopt, "_entropic_refine", recording_refine)
    monkeypatch.setattr(extopt, "_entropic_project", recording_project)
    monkeypatch.setattr(_kernel, "holevo_from_entropies", recording_sum)
    chi_q(e, n)
    monkeypatch.undo()
    # one value at the start, then one after each projection, an
    # extrapolated round's included
    assert len(starts) == 1 and len(values) == len(projected) + 1 > 1
    pinned = [_pure_target_point(s.mat, n) for s in e.states]
    free = [i for i, pt in enumerate(pinned) if pt is None]
    x = [s if pt is None else pt for s, pt in zip(starts[0], pinned)]
    for k, value in enumerate(values):
        if k:
            for i, xi in zip(free, projected[k - 1]):
                x[i] = xi
        assert abs(value - chi_objective(x, e.probs)) <= 1e-12


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


def test_import_builds_no_site_table():
    # the tables are built on a solver's first call, never at import, where
    # they would add to every process's start-up
    code = (
        "import ensembleq; from ensembleq import _kernel\n"
        "print(_kernel.site_index.cache_info().currsize, "
        "_kernel.site_rows.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_chi_q_keeps_a_pure_member_at_its_product_point(monkeypatch):
    e = _pinned_triple()
    refined, stacks = [], []
    refine, project = extopt._entropic_refine, extopt._entropic_project

    def recording_refine(*args, **kwargs):
        out = refine(*args, **kwargs)
        refined.append(out[0])
        return out

    def recording_project(sigma, spectrum, targets, *args, **kwargs):
        stacks.append(targets.shape)
        return project(sigma, spectrum, targets, *args, **kwargs)

    monkeypatch.setattr(extopt, "_entropic_refine", recording_refine)
    monkeypatch.setattr(extopt, "_entropic_project", recording_project)
    r = chi_q(e, 2)
    # one stack holding the two mixed members, never the pure one
    assert refined and set(stacks) == {(2, 2, 2)}
    # the refine returns snapped points, so the pinned member comes back snapped
    point = extopt._snap_small(_pure_target_point(e.states[0].mat, 2))
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
    assert r3.value >= r2.value - SAT_TOL  # more sites cannot decrease the gap


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
        raise AssertionError("chi_q entered fidelity_q's solver")

    monkeypatch.setattr(extopt, "_fidelity_sdp", no_descent)
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
    # a full-rank point faces the same blend test: the product extensions of
    # a mixed pair, told a value above their chi, give way to the blend
    e = seed_pair()
    targets = [s.mat for s in e.states]
    x = [np.kron(t, t) for t in targets]
    assert all(np.linalg.eigvalsh(xi)[0] > 0.04 for xi in x)
    fx = chi_objective(x, e.probs) + 1e-3
    esc, f_esc, certified = extopt._chi_face_check(x, fx, e.probs, targets, 2)
    assert not certified and f_esc < fx - 1e-7
    assert f_esc == pytest.approx(chi_objective(esc, e.probs), abs=0.0)
    assert marginal_residual(esc, targets, 2, 2) <= 1e-14


@pytest.mark.parametrize("restoration_fails", [False, True])
def test_chi_q_reports_a_feasible_point_when_the_refine_misses_the_marginals(
        monkeypatch, restoration_fails):
    # rho_i (x) I/2 misses the second-site marginals but has chi equal to the
    # baseline, so reported as it is it would pass as saturated and certified
    e = seed_pair()
    targets = [s.mat for s in e.states]
    bad = [np.kron(t, np.eye(2) / 2) for t in targets]
    assert chi_objective(bad, e.probs) == pytest.approx(holevo(e), abs=1e-12)
    assert marginal_residual(bad, targets, 2, 2) > 0.1
    monkeypatch.setattr(extopt, "_entropic_refine", lambda *args: (bad, 0.0))
    if restoration_fails:
        def failing(*args, **kwargs):
            raise NumericalFailure("stalled")
        monkeypatch.setattr(extopt, "_newton_project", failing)
    r = chi_q(e, 2)
    start = chi_objective([extopt._interior_start(t, 2) for t in targets], e.probs)
    assert r.feasibility_residual <= FEAS_TOL and not r.converged
    assert r.value > 1e-4
    if restoration_fails:
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
    monkeypatch.setattr(extopt, "_fidelity_sdp", no_local_solver)
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
    assert r3.value >= r2.value - SAT_TOL


# certified values of the seed-11/12 pair and of the hard pair (seeds 21/22)
N_LADDERS = {"seed-11-12": (seed_pair, (2, 3, 4, 5)), "hard": (hard_pair, (2, 3, 4))}


@pytest.mark.parametrize("pair", sorted(N_LADDERS))
def test_chi_q_certifies_a_non_decreasing_n_ladder(pair):
    # tracing a site out of an n-site extension set leaves an (n-1)-site
    # one, and chi cannot rise under that channel: chi_q(n) >= chi_q(n-1)
    make, sites = N_LADDERS[pair]
    e = make()
    reports = [chi_q(e, n) for n in sites]
    for r in reports:
        assert r.converged and r.feasibility_residual <= FEAS_TOL
    for lower, upper in zip(reports, reports[1:]):
        assert upper.objective_at_optimum >= lower.objective_at_optimum - SAT_TOL
        assert upper.value >= lower.value - SAT_TOL
    if pair == "seed-11-12":
        # an inexact E-step cycles off the marginal set here and reports 0.0422
        assert reports[-1].value < 0.01


def _falsifier_pair(s: int) -> Ensemble:
    return Ensemble([(0.5, DensityMatrix(random_density_matrix(2, 100 + 2 * s + k)))
                     for k in (0, 1)])


def _solver_point(e: Ensemble, n: int) -> list:
    """The n-site point chi_q's local solver reaches from its interior start."""
    targets = [s.mat for s in e.states]
    x, _, _, _ = extopt._refine_and_certify(targets, 2, n, e.probs)
    return x


def _depolarise(m: np.ndarray, p: float) -> np.ndarray:
    """(1 - p) m + p I / 2 on a qubit."""
    return (1.0 - p) * m + p * np.trace(m) * np.eye(2) / 2


def _depolarise_sites(x: np.ndarray, p: float) -> np.ndarray:
    """The depolarising channel of ``_depolarise`` on both sites of a two-qubit x."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    kraus = [np.sqrt(1.0 - 0.75 * p) * paulis[0]] + [np.sqrt(p / 4) * a for a in paulis[1:]]
    pairs = [np.kron(a, b) for a in kraus for b in kraus]
    return sum(k @ x @ k.conj().T for k in pairs)


@pytest.mark.parametrize("s", range(8))
def test_chi_q_point_traced_down_a_site_is_no_better_than_the_certified_rung(s):
    # tracing site 3 out of a feasible three-site point gives a feasible
    # two-site point: the certified n = 2 optimum lies at or below its chi
    e = _falsifier_pair(s)
    r2 = chi_q(e, 2)
    assert r2.converged
    traced = [_kernel.partial_trace(x, (2, 2, 2), (0, 1)) for x in _solver_point(e, 3)]
    assert marginal_residual(traced, [st.mat for st in e.states], 2, 2) <= FEAS_TOL
    assert chi_objective(traced, e.probs) >= r2.objective_at_optimum - SAT_TOL


@pytest.mark.parametrize("s", range(8))
def test_chi_q_point_pushed_through_a_channel_is_no_better_than_its_certified_report(s):
    # a depolarising channel on every site maps a feasible point of e to a
    # feasible point of the depolarised ensemble
    p = 0.3
    e = _falsifier_pair(s)
    pushed_e = Ensemble([(q, DensityMatrix(_depolarise(st.mat, p)))
                         for q, st in zip(e.probs, e.states)])
    r = chi_q(pushed_e, 2)
    assert r.converged
    pushed = [_depolarise_sites(x, p) for x in _solver_point(e, 2)]
    assert marginal_residual(pushed, [st.mat for st in pushed_e.states], 2, 2) <= FEAS_TOL
    assert chi_objective(pushed, e.probs) >= r.objective_at_optimum - SAT_TOL


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


# 1 - F^2 at the optimum of the fidelity SDP, from an independent solver (the
# hard pair's optimum is FID_Q_HARD_VALUE)
FID_Q_SDP_OPTIMA = {
    "seed-11-12/d2n2": (seed_pair, 2, 0.1778659),
    "seed-11-12/d2n3": (seed_pair, 3, 0.1804616),
    "seed-11-12/d2n4": (seed_pair, 4, 0.1816529),
    "seed-11-12/d3n2": (lambda: seed_pair(3), 2, 0.5511964),
}


@pytest.mark.parametrize("case", sorted(FID_Q_SDP_OPTIMA))
def test_fidelity_q_reaches_the_sdp_optimum(case):
    make, n, optimum = FID_Q_SDP_OPTIMA[case]
    e = make()
    r = fidelity_q(e.states[0], e.states[1], n)
    assert r.converged and r.feasibility_residual <= FEAS_TOL
    assert r.objective_at_optimum == pytest.approx(optimum, abs=1e-6)


def _fidelity_point(e: Ensemble, n: int) -> list:
    """The n-site extension pair fidelity_q's solver reaches."""
    x, _, _, _ = extopt._fidelity_sdp([s.mat for s in e.states], e.dim, n, "squared")
    return x


def _one_minus_f2(x: list) -> float:
    return extopt._fidelity_mono_objective(x[0], x[1], "squared")


@pytest.mark.parametrize("s", range(8))
def test_fidelity_q_point_traced_down_a_site_is_no_better_than_the_certified_rung(s):
    # tracing site 3 out of a feasible three-site pair gives a feasible
    # two-site pair: the certified n = 2 optimum lies at or below its 1 - F^2
    e = _falsifier_pair(s)
    r2 = fidelity_q(e.states[0], e.states[1], 2)
    assert r2.converged
    traced = [_kernel.partial_trace(x, (2, 2, 2), (0, 1)) for x in _fidelity_point(e, 3)]
    assert marginal_residual(traced, [st.mat for st in e.states], 2, 2) <= FEAS_TOL
    assert _one_minus_f2(traced) >= r2.objective_at_optimum - 1e-7


@pytest.mark.parametrize("s", range(8))
def test_fidelity_q_point_pushed_through_a_channel_is_no_better_than_its_certified_report(s):
    # a depolarising channel on every site maps a feasible pair of e to a
    # feasible pair of the depolarised members
    p = 0.3
    e = _falsifier_pair(s)
    rho, sigma = (DensityMatrix(_depolarise(st.mat, p)) for st in e.states)
    r = fidelity_q(rho, sigma, 2)
    assert r.converged
    pushed = [_depolarise_sites(x, p) for x in _fidelity_point(e, 2)]
    assert marginal_residual(pushed, [rho.mat, sigma.mat], 2, 2) <= FEAS_TOL
    assert _one_minus_f2(pushed) >= r.objective_at_optimum - 1e-7


@pytest.mark.parametrize("s", range(8))
def test_fidelity_q_conventions_imply_the_same_fidelity(s):
    e = _falsifier_pair(s)
    squared = fidelity_q(e.states[0], e.states[1], 2)
    root = fidelity_q(e.states[0], e.states[1], 2, convention="root")
    assert squared.converged and root.converged
    assert np.sqrt(1.0 - squared.objective_at_optimum) == pytest.approx(
        1.0 - root.objective_at_optimum, abs=1e-6)


def _rank_two_qutrit(seed: int) -> DensityMatrix:
    u = random_unitary(3, seed=seed)
    return DensityMatrix(u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T)


# members whose extension sets have no interior point, or nearly none: the
# projection's dual has no minimiser, or a badly conditioned one
DEGENERATE_PAIRS = {
    "rank-2 qutrits": lambda: (_rank_two_qutrit(1), _rank_two_qutrit(2)),
    "near-pure qubits": lambda: (
        DensityMatrix(np.diag([1.0 - 5e-7, 5e-7]).astype(complex)),
        DensityMatrix((1.0 - 1e-6) * np.full((2, 2), 0.5, dtype=complex) + 5e-7 * np.eye(2))),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_PAIRS))
def test_fidelity_q_certifies_members_without_interior_points(case):
    rho, sigma = DEGENERATE_PAIRS[case]()
    squared = fidelity_q(rho, sigma, 2)
    root = fidelity_q(rho, sigma, 2, convention="root")
    for r in (squared, root):
        assert r.converged and r.feasibility_residual <= FEAS_TOL
    assert np.sqrt(1.0 - squared.objective_at_optimum) == pytest.approx(
        1.0 - root.objective_at_optimum, abs=1e-6)
    # no worse than the product extensions
    f = fidelity(rho, sigma)
    assert squared.value <= f - f * f + 1e-9


def test_fidelity_q_pins_a_pure_member_to_its_product_point():
    # a pure member has one extension, so the other member's block alone is
    # solved
    rho = DensityMatrix(random_density_matrix(2, seed=11))
    x, fx, steps, converged = extopt._fidelity_sdp([KET0.mat, rho.mat], 2, 2, "squared")
    assert converged and steps > 0
    assert np.array_equal(x[0], _pure_target_point(KET0.mat, 2))
    assert marginal_residual(x, [KET0.mat, rho.mat], 2, 2) <= FEAS_TOL
    # F^2 with a pure product point is the overlap <00|B|00>
    assert fx == pytest.approx(1.0 - x[1][0, 0].real, abs=1e-12)
    assert fx <= 1.0 - fidelity(KET0, rho) ** 2
    r = fidelity_q(KET0, rho, 2)
    assert r.converged and r.objective_at_optimum == fx
    # member order only moves the rounding of F at the rank-deficient blocks
    swapped = fidelity_q(rho, KET0, 2)
    assert swapped.objective_at_optimum == pytest.approx(fx, abs=1e-7)


def test_fidelity_q_uncertified_report_end_to_end(monkeypatch):
    # one proximal-point step cannot close the gap: the report says so
    monkeypatch.setattr(extopt, "PROX_STEPS", 1)
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
