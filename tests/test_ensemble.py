"""Ensemble container, Holevo quantity, broadcastability, flagged states."""

import ast
import pathlib

import numpy as np
import pytest

import ensembleq
from ensembleq.densmat import (
    DensityMatrix,
    DimensionProfile,
    partial_trace,
    relative_entropy,
    von_neumann_entropy,
)
from ensembleq.ensemble import (
    Ensemble,
    build_flagged_state,
    classical_broadcast,
    holevo,
    is_broadcastable,
    shannon_entropy,
)
from ensembleq.errors import InvalidInput, PreconditionViolated
from ensembleq.extopt import chi_objective
from ensembleq.rand import (
    random_commuting_states,
    random_density_matrix,
    random_kraus,
    random_pure_state,
)
from ensembleq.recovery import Channel, orthogonal_pair_example

KET0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
KET1 = DensityMatrix(np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
PLUS = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))

HOLEVO_ZERO_PLUS = 0.6008760366928562


def zero_plus() -> Ensemble:
    return Ensemble([(0.5, KET0), (0.5, PLUS)])


# ---------------------------------------------------------------------------
# Ensemble container
# ---------------------------------------------------------------------------

def test_ensemble_basic_accessors():
    e = zero_plus()
    assert len(e) == 2
    assert e.dim == 2
    assert np.allclose(e.probs, [0.5, 0.5])
    avg = e.average_state()
    assert np.allclose(avg.mat, np.array([[0.75, 0.25], [0.25, 0.25]]), atol=1e-12)


def test_ensemble_rejects_bad_probabilities():
    with pytest.raises(InvalidInput):
        Ensemble([(0.7, KET0), (0.7, KET1)])
    with pytest.raises(InvalidInput):
        Ensemble([(-0.1, KET0), (1.1, KET1)])
    with pytest.raises(InvalidInput):
        Ensemble([])


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_ensemble_rejects_non_finite_probabilities(p):
    with pytest.raises(InvalidInput, match="finite"):
        Ensemble([(p, KET0), (1.0, PLUS)])


def test_ensemble_requires_numeric_probabilities():
    # each of these sums to 1 once converted, but is not a vector of numbers
    for probs in (("0.5", "0.5"), (True, 0.0), (0.5, "0.5")):
        with pytest.raises(InvalidInput):
            Ensemble(list(zip(probs, (KET0, PLUS))))
        blob = zero_plus().to_json()
        for member, p in zip(blob["members"], probs):
            member["p"] = p
        with pytest.raises(InvalidInput):
            Ensemble.from_json(blob)


def test_ensemble_rejects_dimension_mismatch():
    with pytest.raises(InvalidInput):
        Ensemble([(0.5, KET0), (0.5, DensityMatrix(np.eye(3) / 3))])


def test_ensemble_json_round_trip():
    e = zero_plus()
    blob = e.to_json()
    back = Ensemble.from_json(blob)
    assert np.allclose(back.probs, e.probs)
    for a, b in zip(back.states, e.states):
        assert np.allclose(a.mat, b.mat, atol=1e-15)


def test_ensemble_json_uniform_default():
    blob = zero_plus().to_json()
    for member in blob["members"]:
        member.pop("p", None)
    e = Ensemble.from_json(blob)
    assert np.allclose(e.probs, [0.5, 0.5])


def test_ensemble_json_rejects_partial_probabilities():
    blob = zero_plus().to_json()
    blob["members"][0].pop("p")
    with pytest.raises(InvalidInput):
        Ensemble.from_json(blob)


def test_ensemble_json_rejects_a_non_integral_dim():
    with pytest.raises(InvalidInput):
        Ensemble.from_json({**zero_plus().to_json(), "dim": 2.5})


# ---------------------------------------------------------------------------
# shannon_entropy and holevo
# ---------------------------------------------------------------------------

def test_shannon_entropy_requires_a_flat_vector_of_numbers():
    for bad in (["a"], [[0.5], [0.5]], [True], ["1"], [], 0.5, [1j]):
        with pytest.raises(InvalidInput):
            shannon_entropy(bad)
    assert shannon_entropy(iter([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy(np.array([0.25, 0.75])) == shannon_entropy([0.25, 0.75])


def test_shannon_entropy_examples():
    assert shannon_entropy([1.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy([0.75, 0.25]) == pytest.approx(0.8113, abs=1e-3)


def test_shannon_entropy_rejects_bad_distribution():
    with pytest.raises(InvalidInput):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(InvalidInput):
        shannon_entropy([1.5, -0.5])


@pytest.mark.parametrize("probs", [[np.nan], [0.5, np.nan, 0.5], [np.inf, -np.inf]])
def test_shannon_entropy_rejects_non_finite_probabilities(probs):
    with pytest.raises(InvalidInput):
        shannon_entropy(probs)


def test_holevo_orthogonal_pure_pair():
    assert holevo(Ensemble([(0.5, KET0), (0.5, KET1)])) == pytest.approx(1.0, abs=1e-10)


def test_holevo_identical_members_zero():
    rho = random_density_matrix(3, seed=2)
    e = Ensemble([(0.3, DensityMatrix(rho)), (0.7, DensityMatrix(rho))])
    assert holevo(e) == pytest.approx(0.0, abs=1e-10)


def test_holevo_zero_plus_oracle():
    val = holevo(zero_plus())
    assert val == pytest.approx(0.6009, abs=1e-3)
    assert val == pytest.approx(HOLEVO_ZERO_PLUS, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_holevo_is_the_clipped_chi_objective(seed):
    # one Holevo sum serves both: holevo clips it at zero, chi_objective does not
    psi = random_pure_state(3, seed=400 + seed)
    mats = [random_density_matrix(3, seed=410 + 2 * seed),
            random_density_matrix(3, seed=411 + 2 * seed), np.outer(psi, psi.conj())]
    for members in (mats, mats[:2], [mats[2], mats[2]]):
        probs = np.full(len(members), 1.0 / len(members))
        e = Ensemble([(p, DensityMatrix(m)) for p, m in zip(probs, members)])
        assert holevo(e) == max(chi_objective([s.mat for s in e.states], e.probs), 0.0)


def test_holevo_equals_average_relative_entropy():
    for trial in range(10):
        states = [
            DensityMatrix(random_density_matrix(2, seed=50 + trial)),
            DensityMatrix(random_density_matrix(2, seed=150 + trial)),
        ]
        e = Ensemble([(0.4, states[0]), (0.6, states[1])])
        avg = e.average_state().mat
        direct = sum(
            p * relative_entropy(s.mat, avg) for p, s in zip(e.probs, e.states)
        )
        assert holevo(e) == pytest.approx(direct, abs=1e-7)


def test_holevo_bounded_by_label_entropy():
    for trial in range(10):
        states = random_commuting_states(2, 3, seed=250 + trial)
        e = Ensemble([(1 / 3, DensityMatrix(s)) for s in states])
        val = holevo(e)
        assert -1e-10 <= val <= shannon_entropy(e.probs) + 1e-8


def test_holevo_monotone_under_channels():
    for trial in range(8):
        e = Ensemble(
            [
                (0.5, DensityMatrix(random_density_matrix(2, seed=350 + trial))),
                (0.5, DensityMatrix(random_density_matrix(2, seed=450 + trial))),
            ]
        )
        ch = Channel(random_kraus(2, 2, 3, seed=550 + trial))
        mapped = Ensemble([(p, ch.apply(s)) for p, s in e])
        assert holevo(mapped) <= holevo(e) + 1e-7


# ---------------------------------------------------------------------------
# broadcastability
# ---------------------------------------------------------------------------

def test_is_broadcastable_diagonal_pair():
    e = Ensemble(
        [
            (0.5, DensityMatrix(np.diag([0.2, 0.8]).astype(complex))),
            (0.5, DensityMatrix(np.diag([0.9, 0.1]).astype(complex))),
        ]
    )
    report = is_broadcastable(e)
    assert bool(report)
    assert report.max_commutator_norm <= 1e-12


def test_is_broadcastable_zero_plus_fails():
    report = is_broadcastable(zero_plus())
    assert not bool(report)
    assert report.max_commutator_norm > 0.1
    assert report.worst_pair == (0, 1)


def test_commutator_norm_oracle_at_eighth():
    a = 0.125
    ex = orthogonal_pair_example(a)
    e = Ensemble([(0.5, ex.rho1_a), (0.5, ex.rho2_a)])
    report = is_broadcastable(e)
    r1, r2 = ex.rho1_a.mat, ex.rho2_a.mat
    comm = r1 @ r2 - r2 @ r1
    off_diag = abs(comm[0, 1])
    assert off_diag == pytest.approx(np.sqrt(a * (1 - 2 * a)), abs=1e-10)
    assert off_diag == pytest.approx(np.sqrt(3.0 / 32.0), abs=1e-6)
    assert report.max_commutator_norm == pytest.approx(
        np.sqrt(2.0) * np.sqrt(a * (1 - 2 * a)), abs=1e-10
    )


def test_single_member_always_broadcastable():
    e = Ensemble([(1.0, DensityMatrix(random_density_matrix(3, seed=4)))])
    assert bool(is_broadcastable(e))


# ---------------------------------------------------------------------------
# classical_broadcast
# ---------------------------------------------------------------------------

def test_classical_broadcast_orthogonal_pure_pair():
    e = Ensemble([(0.5, KET0), (0.5, KET1)])
    exts = classical_broadcast(e, 2)
    zz = np.zeros((4, 4), dtype=complex)
    zz[0, 0] = 1.0
    oo = np.zeros((4, 4), dtype=complex)
    oo[3, 3] = 1.0
    assert np.allclose(exts.extensions[0].mat, zz, atol=1e-12)
    assert np.allclose(exts.extensions[1].mat, oo, atol=1e-12)


def test_classical_broadcast_marginals_exact():
    states = random_commuting_states(3, 2, seed=31)
    e = Ensemble([(0.5, DensityMatrix(s)) for s in states])
    exts = classical_broadcast(e, 3)
    prof = DimensionProfile((3, 3, 3))
    for ext, target in zip(exts.extensions, e.states):
        for site in range(3):
            marg = partial_trace(ext.mat, prof, site)
            assert np.allclose(marg, target.mat, atol=1e-10)


def test_classical_broadcast_preserves_holevo():
    e = Ensemble(
        [
            (0.5, DensityMatrix(np.diag([0.2, 0.8]).astype(complex))),
            (0.5, DensityMatrix(np.diag([0.9, 0.1]).astype(complex))),
        ]
    )
    exts = classical_broadcast(e, 2)
    lifted = Ensemble([(p, ext) for p, ext in zip(e.probs, exts.extensions)])
    assert holevo(lifted) == pytest.approx(holevo(e), abs=1e-7)


def test_classical_broadcast_single_member():
    e = Ensemble([(1.0, DensityMatrix(np.diag([0.4, 0.6]).astype(complex)))])
    exts = classical_broadcast(e, 2)
    marg = partial_trace(exts.extensions[0].mat, DimensionProfile((2, 2)), 0)
    assert np.allclose(marg, e.states[0].mat, atol=1e-10)


def test_classical_broadcast_rejects_non_commuting():
    with pytest.raises(PreconditionViolated):
        classical_broadcast(zero_plus(), 2)


def test_classical_broadcast_rejects_single_site():
    e = Ensemble([(1.0, KET0)])
    with pytest.raises(InvalidInput):
        classical_broadcast(e, 1)


# ---------------------------------------------------------------------------
# build_flagged_state
# ---------------------------------------------------------------------------

def test_flagged_state_block_structure():
    e = Ensemble(
        [
            (0.5, DensityMatrix(np.diag([0.2, 0.8]).astype(complex))),
            (0.5, DensityMatrix(np.diag([0.9, 0.1]).astype(complex))),
        ]
    )
    exts = classical_broadcast(e, 2)
    flagged, profile = build_flagged_state(exts, e.probs)
    assert profile.local_dims == (2, 2, 2)
    big = 4
    for i in range(2):
        block = flagged.mat[i * big:(i + 1) * big, i * big:(i + 1) * big]
        assert np.allclose(block, 0.5 * exts.extensions[i].mat, atol=1e-12)
    off = flagged.mat[:big, big:]
    assert np.allclose(off, 0.0, atol=1e-15)


def test_flagged_state_marginals():
    e = Ensemble(
        [
            (0.25, DensityMatrix(np.diag([0.2, 0.8]).astype(complex))),
            (0.75, DensityMatrix(np.diag([0.9, 0.1]).astype(complex))),
        ]
    )
    exts = classical_broadcast(e, 2)
    flagged, profile = build_flagged_state(exts, e.probs)
    flag_marg = partial_trace(flagged.mat, profile, 0)
    assert np.allclose(flag_marg, np.diag([0.25, 0.75]), atol=1e-10)
    body = partial_trace(flagged.mat, profile, [1, 2])
    mix = 0.25 * exts.extensions[0].mat + 0.75 * exts.extensions[1].mat
    assert np.allclose(body, mix, atol=1e-10)


def test_flagged_state_degenerate_probabilities():
    e = Ensemble([(0.5, KET0), (0.5, KET1)])
    exts = classical_broadcast(e, 2)
    flagged, _ = build_flagged_state(exts, [1.0, 0.0])
    assert np.trace(flagged.mat).real == pytest.approx(1.0, abs=1e-12)


def test_flagged_state_rejects_bad_probabilities():
    e = Ensemble([(0.5, KET0), (0.5, KET1)])
    exts = classical_broadcast(e, 2)
    with pytest.raises(InvalidInput):
        build_flagged_state(exts, [0.5])
    with pytest.raises(InvalidInput):
        build_flagged_state(exts, [0.7, 0.7])
    with pytest.raises(InvalidInput, match="flag probabilities"):
        build_flagged_state(exts, [float("nan"), 1.0])
    single = classical_broadcast(Ensemble([(1.0, KET0)]), 2)
    for bad in (["1"], [True], [[1.0]]):
        with pytest.raises(InvalidInput):
            build_flagged_state(single, bad)


def test_package_imports_only_at_module_level():
    # extension sets live in ensemble, so ensemble never needs extopt: no
    # import cycle, no deferred imports and no type-checking-only imports
    for path in sorted(pathlib.Path(ensembleq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not [sub for sub in ast.walk(node)
                            if isinstance(sub, (ast.Import, ast.ImportFrom))], (
                    f"{path.name}: {node.name} imports inside its body")
            if isinstance(node, ast.If):
                assert "TYPE_CHECKING" not in ast.unparse(node.test), path.name
        if path.name == "ensemble.py":
            imported = [alias.name for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for alias in node.names]
            imported += [node.module for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module]
            assert not [name for name in imported if "extopt" in name], imported
