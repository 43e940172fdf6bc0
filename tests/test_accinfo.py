"""Accessible information, measurement optimization, infinite-copy limits."""

import subprocess
import sys

import numpy as np
import pytest

from ensembleq import accinfo
from ensembleq.accinfo import (
    AccInfoReport,
    OptimizerConfig,
    Povm,
    accessible_information,
    fuchs_quantumness,
    mutual_information,
    pure_limit_identities,
)
from ensembleq.densmat import DensityMatrix, eig_hermitian
from ensembleq.ensemble import Ensemble, holevo
from ensembleq.errors import InvalidInput, PreconditionViolated, ResourceLimit
from ensembleq.rand import (
    random_commuting_states,
    random_density_matrix,
    random_kraus,
    random_pure_state,
    rng_from,
)
from ensembleq.recovery import Channel

KET0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
KET1 = DensityMatrix(np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
PLUS = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))

I_ACC_ZERO_PLUS = 0.3991239633071438
CHEAP = OptimizerConfig(restarts=2)


def zero_plus() -> Ensemble:
    return Ensemble([(0.5, KET0), (0.5, PLUS)])


def helstrom_povm(e: Ensemble) -> Povm:
    """Two-outcome measurement along the eigenbasis of p1*rho1 - p2*rho2."""
    gap = e.probs[0] * e.states[0].mat - e.probs[1] * e.states[1].mat
    w, v = eig_hermitian(gap)
    plus = sum(
        np.outer(v[:, k], v[:, k].conj()) for k in range(len(w)) if w[k] > 0
    )
    return Povm([plus, np.eye(e.dim) - plus])


# ---------------------------------------------------------------------------
# Povm
# ---------------------------------------------------------------------------

def test_povm_accepts_projective_measurement():
    m = Povm([KET0.mat, KET1.mat])
    assert len(m) == 2


def test_povm_rejects_incomplete_elements():
    with pytest.raises(InvalidInput):
        Povm([KET0.mat, 0.5 * KET1.mat])


def test_povm_rejects_negative_element():
    with pytest.raises(InvalidInput):
        Povm([1.5 * KET0.mat, np.eye(2) - 1.5 * KET0.mat])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_povm_rejects_non_finite_element(bad):
    # a NaN element once passed validation and gave zero mutual information
    with pytest.raises(InvalidInput):
        Povm([np.array([[bad, 0.0], [0.0, 1.0]]), np.zeros((2, 2))])


def test_povm_rejects_non_hermitian():
    bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(InvalidInput):
        Povm([bad, np.eye(2) - bad])


@pytest.mark.parametrize("elements", [5, None])
def test_povm_from_json_rejects_malformed_elements(elements):
    with pytest.raises(InvalidInput):
        Povm.from_json({"elements": elements})


def test_povm_json_round_trip():
    m = helstrom_povm(zero_plus())
    back = Povm.from_json(m.to_json())
    for a, b in zip(back.elements, m.elements):
        assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# mutual_information
# ---------------------------------------------------------------------------

def test_mutual_info_perfect_discrimination():
    e = Ensemble([(0.5, KET0), (0.5, KET1)])
    m = Povm([KET0.mat, KET1.mat])
    assert mutual_information(e, m) == pytest.approx(1.0, abs=1e-10)


def test_mutual_info_uninformative_measurement():
    m = Povm([np.eye(2) / 2, np.eye(2) / 2])
    assert mutual_information(zero_plus(), m) == pytest.approx(0.0, abs=1e-10)


def test_mutual_info_helstrom_on_zero_plus():
    val = mutual_information(zero_plus(), helstrom_povm(zero_plus()))
    assert val == pytest.approx(0.3991, abs=1e-3)


def test_mutual_info_dimension_mismatch():
    m = Povm([np.eye(3)])
    with pytest.raises(InvalidInput):
        mutual_information(zero_plus(), m)


# ---------------------------------------------------------------------------
# accessible_information
# ---------------------------------------------------------------------------

def test_acc_info_orthogonal_pair():
    e = Ensemble([(0.5, KET0), (0.5, KET1)])
    report = accessible_information(e, CHEAP)
    assert report.value == pytest.approx(1.0, abs=1e-6)
    assert report.holevo_gap == pytest.approx(0.0, abs=1e-6)


def test_acc_info_commuting_matches_holevo():
    for seed in (901, 902):
        states = random_commuting_states(2, 2, seed=seed)
        e = Ensemble([(0.5, DensityMatrix(s)) for s in states])
        report = accessible_information(e, CHEAP)
        assert abs(report.value - holevo(e)) <= 1e-4


def test_acc_info_zero_plus_oracle():
    report = accessible_information(zero_plus(), CHEAP)
    assert report.value == pytest.approx(I_ACC_ZERO_PLUS, abs=2e-3)
    assert report.value == pytest.approx(0.3991, abs=2e-3)


def test_acc_info_bounded_by_holevo():
    for trial in range(6):
        e = Ensemble(
            [
                (0.5, DensityMatrix(random_density_matrix(2, seed=910 + trial))),
                (0.5, DensityMatrix(random_density_matrix(2, seed=920 + trial))),
            ]
        )
        report = accessible_information(e, CHEAP)
        assert report.value <= holevo(e) + 1e-6
        assert report.holevo_gap >= -1e-6


def test_acc_info_achievability():
    # the returned measurement must actually attain the reported value
    report = accessible_information(zero_plus(), CHEAP)
    assert mutual_information(zero_plus(), report.best_povm) == pytest.approx(
        report.value, abs=1e-10
    )


def test_acc_info_runs_the_default_config_when_given_none():
    default = OptimizerConfig()
    report = accessible_information(zero_plus())
    # the eigenbasis and pretty-good-measurement starts plus the random ones
    assert report.restarts_used == default.restarts + 1
    assert report.to_json() == accessible_information(zero_plus(), default).to_json()


def test_acc_info_restart_bookkeeping():
    report = accessible_information(zero_plus(), OptimizerConfig(restarts=3))
    assert report.restarts_used == len(report.mutual_info_per_restart)
    assert max(report.mutual_info_per_restart) == pytest.approx(
        report.value, abs=1e-12
    )
    blob = report.to_json()
    assert set(blob) == {
        "value",
        "holevo_gap",
        "restarts_used",
        "mutual_info_per_restart",
        "best_povm",
    }


def test_acc_info_monotone_under_channel():
    e = zero_plus()
    before = accessible_information(e, CHEAP).value
    ch = Channel(random_kraus(2, 2, 2, seed=930))
    mapped = Ensemble([(p, ch.apply(s)) for p, s in e])
    after = accessible_information(mapped, CHEAP).value
    assert after <= before + 2e-3


def trine() -> Ensemble:
    angles = 2 * np.pi * np.arange(3) / 3
    kets = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return Ensemble([(1 / 3, DensityMatrix(np.outer(v, v) + 0j)) for v in kets])


def seeded_pair(d: int) -> Ensemble:
    return Ensemble([(0.5, DensityMatrix(random_density_matrix(d, seed=s))) for s in (11, 12)])


def extremality_residuals(e: Ensemble, povm: Povm) -> tuple[float, float]:
    """Holevo's conditions for an information-maximising measurement {M_k}.

    With R_k = sum_i p_i rho_i ln(q_ik / q_k), Lambda = sum_k R_k M_k must be
    Hermitian and (R_k - Lambda) M_k = 0 for every k.  Returns the spectral
    norms of Lambda - Lambda^dag and the largest (R_k - Lambda) M_k.
    """
    rhos = [s.mat for s in e.states]
    q = np.array([[np.trace(rho @ m).real for m in povm.elements] for rho in rhos])
    q_k = e.probs @ q
    rs = [
        sum(p * rho * np.log(q[i, k] / q_k[k])
            for i, (p, rho) in enumerate(zip(e.probs, rhos)) if q[i, k] > 0.0)
        for k in range(len(povm))
    ]
    lam = sum(r @ m for r, m in zip(rs, povm.elements))
    stationary = max(np.linalg.norm((r - lam) @ m, 2) for r, m in zip(rs, povm.elements))
    return float(np.linalg.norm(lam - lam.conj().T, 2)), float(stationary)


@pytest.mark.parametrize("make", [trine, lambda: seeded_pair(3), lambda: seeded_pair(4)],
                         ids=["trine", "qutrit-11-12", "d4-11-12"])
def test_acc_info_returns_an_extremal_measurement(make):
    e = make()
    report = accessible_information(e, OptimizerConfig(restarts=4))
    hermitian, stationary = extremality_residuals(e, report.best_povm)
    assert hermitian <= 1e-6
    assert stationary <= 1e-6


def test_ascend_leaves_a_start_near_a_saddle():
    # the eigenbasis of {|0>,|+>} is a zero-information saddle; a start
    # turned 1e-8 rad off it begins at rounding level and must still climb
    e = zero_plus()
    states = np.stack([s.mat for s in e.states])
    turn = np.array([[np.cos(1e-8), -np.sin(1e-8)], [np.sin(1e-8), np.cos(1e-8)]])
    start = (turn @ np.linalg.eigh(e.average_state().mat)[1]).T.astype(complex)
    before = accinfo._mutual_info_bits(e.probs, accinfo._outcomes(states, start)[0])
    vals, b = accinfo._ascend(e.probs, states, start[None], 2000)
    assert before <= 1e-15
    assert vals[0] == pytest.approx(I_ACC_ZERO_PLUS, abs=1e-9)
    hermitian, stationary = extremality_residuals(e, Povm([np.outer(v, v.conj()) for v in b[0]]))
    assert hermitian <= 1e-6
    assert stationary <= 1e-6


def pgm_rows(e: Ensemble) -> np.ndarray:
    spectrum = np.linalg.eigh(e.average_state().mat)
    return accinfo._pgm_rows(e.probs, np.stack([s.mat for s in e.states]), spectrum)


def optimal_zero_plus_basis(e: Ensemble) -> np.ndarray:
    c8, s8 = np.cos(np.pi / 8), np.sin(np.pi / 8)
    return np.array([[-c8, s8], [s8, c8]], dtype=complex)


@pytest.mark.parametrize("make, start_of, value", [
    (zero_plus, optimal_zero_plus_basis, I_ACC_ZERO_PLUS),
    (trine, pgm_rows, 1 / 3),
], ids=["zero-plus-optimum", "trine-pgm"])
def test_ascend_stops_at_a_stationary_start(monkeypatch, make, start_of, value):
    # completion undoes each step up to rounding here; the start once
    # alternated between a kept and a rejected step until max_iters
    e = make()
    start = start_of(e)[None]
    calls = []
    complete = accinfo._complete
    monkeypatch.setattr(accinfo, "_complete", lambda c: calls.append(1) or complete(c))
    vals, b = accinfo._ascend(e.probs, np.stack([s.mat for s in e.states]), start, 2000)
    assert len(calls) <= 50
    assert vals[0] == pytest.approx(value, abs=1e-12)
    assert np.abs(b - start).max() <= 1e-15


def random_ket_pair(d: int) -> Ensemble:
    rng = np.random.default_rng(5)
    kets = []
    for _ in range(2):
        k = rng.normal(size=d) + 1j * rng.normal(size=d)
        kets.append(k / np.linalg.norm(k))
    return Ensemble([(0.5, DensityMatrix(np.outer(k, k.conj()))) for k in kets])


@pytest.mark.parametrize("d, expected", [(2, 0.172890), (3, 0.689866), (4, 0.443086)])
def test_acc_info_one_restart_lifts_an_equiprobable_pure_pair(d, expected):
    # the eigenbasis start is a zero-information stationary point here, and
    # the average state has rank 2, so the measurement needs its null rows
    e = random_ket_pair(d)
    report = accessible_information(e, OptimizerConfig(restarts=1))
    assert report.value == pytest.approx(expected, abs=1e-6)
    assert report.value == pytest.approx(accessible_information(e).value, abs=1e-6)
    assert mutual_information(e, report.best_povm) == pytest.approx(report.value, abs=1e-10)


def mixed_and_pure_triple(d: int) -> Ensemble:
    mixed = DensityMatrix(random_density_matrix(d, seed=60 + d))
    pures = [DensityMatrix(np.outer(k, k.conj())) for k in
             (random_pure_state(d, seed=70 + d), random_pure_state(d, seed=80 + d))]
    return Ensemble(list(zip((0.5, 0.3, 0.2), [mixed, *pures])))


def many_mixed(d: int) -> Ensemble:
    # 3d full-rank members: the pretty good measurement has 3d^2 rank-one rows
    return Ensemble([(1 / (3 * d), DensityMatrix(random_density_matrix(d, seed=90 + j)))
                     for j in range(3 * d)])


@pytest.mark.parametrize("make", [seeded_pair, mixed_and_pure_triple, many_mixed],
                         ids=["pair", "triple", "many-mixed"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_acc_info_batch_matches_each_start_alone(make, d):
    # zero rows pad the starts to one row count; they must not move any start
    e = make(d)
    cfg = OptimizerConfig(restarts=4, max_iters=300)
    report = accessible_information(e, cfg)
    probs, states = e.probs, np.stack([s.mat for s in e.states])
    spectrum = np.linalg.eigh(e.average_state().mat)
    g = rng_from(cfg.seed).normal(size=(cfg.restarts - 1, 2, d * d, d))
    starts = [
        spectrum[1].T,
        accinfo._pgm_rows(probs, states, spectrum),
        *accinfo._complete(g[:, 0] + 1j * g[:, 1]),
    ]
    assert report.restarts_used == len(report.mutual_info_per_restart) == cfg.restarts + 1
    # d^2 rank-one outcomes suffice, so no start widens the batch beyond d^2 rows
    assert max(len(start) for start in starts) <= d * d
    for got, start in zip(report.mutual_info_per_restart, starts):
        alone, _ = accinfo._ascend(probs, states, start[None], cfg.max_iters)
        assert got == pytest.approx(float(alone[0]), abs=1e-12)


@pytest.mark.parametrize("make", [trine, lambda: random_ket_pair(3), lambda: random_ket_pair(4),
                                  lambda: mixed_and_pure_triple(3), lambda: many_mixed(2),
                                  lambda: many_mixed(4)],
                         ids=["trine", "kets-3", "kets-4", "triple-3", "many-mixed-2",
                              "many-mixed-4"])
def test_pgm_rows_complete_to_the_identity(make):
    rows = pgm_rows(make())
    assert np.allclose(rows.T @ rows.conj(), np.eye(rows.shape[1]), atol=1e-12)


def test_pgm_rows_are_the_trine_square_root_measurement():
    # the trine's pretty good measurement is {(2/3)|psi_k><psi_k|}
    e = trine()
    rows = pgm_rows(e)
    q = np.array([[np.vdot(b, s.mat @ b).real for b in rows] for s in e.states])
    expected = np.full((3, 3), 1 / 6) + np.eye(3) / 2
    assert np.allclose(np.sort(q, axis=1), np.sort(expected, axis=1), atol=1e-12)


def test_acc_info_dimension_cap():
    e = Ensemble([(1.0, DensityMatrix(np.eye(5) / 5))])
    with pytest.raises(ResourceLimit):
        accessible_information(e, CHEAP)


# ---------------------------------------------------------------------------
# fuchs_quantumness and infinite-copy limits
# ---------------------------------------------------------------------------

def test_fuchs_orthogonal_pair_zero():
    e = Ensemble([(0.5, KET0), (0.5, KET1)])
    assert fuchs_quantumness(e, CHEAP) == pytest.approx(0.0, abs=2e-4)


def test_fuchs_commuting_near_zero():
    states = random_commuting_states(2, 2, seed=940)
    e = Ensemble([(0.5, DensityMatrix(s)) for s in states])
    assert abs(fuchs_quantumness(e, CHEAP)) <= 2e-4


def test_fuchs_zero_plus_oracle():
    val = fuchs_quantumness(zero_plus(), CHEAP)
    assert val == pytest.approx(holevo(zero_plus()) - I_ACC_ZERO_PLUS, abs=3e-3)
    assert val == pytest.approx(0.2018, abs=3e-3)


def test_pure_limits_zero_plus():
    report = pure_limit_identities(zero_plus(), CHEAP)
    assert report.chi_q_inf == pytest.approx(I_ACC_ZERO_PLUS, abs=1e-9)
    assert report.iacc_q_inf == pytest.approx(
        1.0 - I_ACC_ZERO_PLUS, abs=2e-3
    )
    assert report.q_fuchs == pytest.approx(0.2018, abs=3e-3)
    assert report.identity_residual <= 1e-9
    blob = report.to_json()
    assert set(blob) == {"chi_q_inf", "iacc_q_inf", "q_fuchs", "identity_residual"}


def test_pure_limits_orthogonal_pair_all_zero():
    e = Ensemble([(0.5, KET0), (0.5, KET1)])
    report = pure_limit_identities(e, CHEAP)
    assert report.chi_q_inf == pytest.approx(0.0, abs=1e-6)
    assert report.iacc_q_inf == pytest.approx(0.0, abs=1e-6)
    assert report.q_fuchs == pytest.approx(0.0, abs=1e-6)


def test_pure_limits_reject_mixed_members():
    e = Ensemble(
        [
            (0.5, KET0),
            (0.5, DensityMatrix(random_density_matrix(2, seed=950))),
        ]
    )
    with pytest.raises(PreconditionViolated):
        pure_limit_identities(e, CHEAP)


SCIPY_MODULES = "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"


def test_import_loads_no_scipy():
    # no module of the package uses scipy, so importing it loads none
    code = "import sys, ensembleq; " + SCIPY_MODULES
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_numpy_random_beyond_bare_numpy():
    # numpy 2 loads numpy.random on first use only; numpy 1.x loads it with
    # numpy itself, so the package may load no more than bare numpy does
    random_modules = "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    outputs = []
    for imports in ("numpy", "ensembleq", "ensembleq.cli"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {imports}; {random_modules}"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.strip())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_acc_info_loads_no_scipy():
    code = (
        "import sys; import numpy as np; import ensembleq as eq\n"
        "angles = 2 * np.pi * np.arange(3) / 3\n"
        "kets = np.stack([np.cos(angles), np.sin(angles)], axis=1)\n"
        "e = eq.Ensemble([(1 / 3, eq.DensityMatrix(np.outer(v, v) + 0j)) for v in kets])\n"
        "eq.accessible_information(e, eq.OptimizerConfig(restarts=2))\n"
        + SCIPY_MODULES
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
