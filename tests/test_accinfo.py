"""Accessible information, measurement optimization, infinite-copy limits."""

import subprocess
import sys

import numpy as np
import pytest

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
from ensembleq.rand import random_commuting_states, random_density_matrix, random_kraus
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
    # every seeded ascent plus the qubit projective scan
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
