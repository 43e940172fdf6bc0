"""Channels, transpose-channel recovery, pair-transformation feasibility."""

import numpy as np
import pytest

from ensembleq.densmat import (
    DensityMatrix,
    DimensionProfile,
    partial_trace,
    trace_norm,
)
from ensembleq.ensemble import Ensemble, build_flagged_state, classical_broadcast
from ensembleq.errors import InvalidInput
from ensembleq.rand import (
    random_commuting_states,
    random_density_matrix,
    random_kraus,
    rng_from,
)
from ensembleq.recovery import (
    AuReport,
    Channel,
    apply_channel,
    au_feasible,
    identity_channel,
    orthogonal_pair_example,
    partial_trace_channel,
    petz_map,
)

# Exact worst margins of the B-side -> A-side transformation for the
# orthogonal two-qubit pair (a = 0.25: 1 - sqrt(3), reached at t = 2).
AU_MARGIN_005 = -0.3732109937267415
AU_MARGIN_025 = 1.0 - np.sqrt(3.0)
AU_MARGIN_045 = -0.9498743710661994


# ---------------------------------------------------------------------------
# Channel construction and serialization
# ---------------------------------------------------------------------------

def test_channel_identity_and_apply():
    ch = identity_channel(3)
    rho = DensityMatrix(random_density_matrix(3, seed=5))
    assert np.allclose(ch.apply(rho).mat, rho.mat, atol=1e-12)
    assert ch.in_dim == ch.out_dim == 3


def test_identity_channel_and_example_take_numbers_only():
    for dim in (2.7, True, "2"):
        with pytest.raises(InvalidInput):
            identity_channel(dim)
    for a in ("0.25", True):
        with pytest.raises(InvalidInput):
            orthogonal_pair_example(a)
    assert identity_channel(2.0).in_dim == 2
    assert orthogonal_pair_example(np.float64(0.25)) == orthogonal_pair_example(0.25)


def test_channel_rejects_non_trace_preserving():
    with pytest.raises(InvalidInput):
        Channel([np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)])


def test_channel_rejects_non_finite_kraus():
    with pytest.raises(InvalidInput):
        Channel([np.array([[np.nan, 0.0], [0.0, 1.0]])])


def test_channel_from_choi_rejects_non_finite_process_matrix():
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 0] = np.inf
    with pytest.raises(InvalidInput):
        Channel.from_choi(choi, 2, 2)


def test_channel_rejects_empty_and_ragged_kraus():
    with pytest.raises(InvalidInput):
        Channel([])
    with pytest.raises(InvalidInput):
        Channel([np.eye(2), np.eye(3)])


def test_channel_choi_round_trip():
    ops = random_kraus(2, 3, 2, seed=61)
    ch = Channel(ops)
    back = Channel.from_choi(ch.choi, in_dim=2, out_dim=3)
    rho = DensityMatrix(random_density_matrix(2, seed=62))
    assert np.allclose(ch.apply(rho).mat, back.apply(rho).mat, atol=1e-10)


def test_channel_json_round_trip():
    ch = Channel(random_kraus(3, 2, 4, seed=63))
    back = Channel.from_json(ch.to_json())
    rho = DensityMatrix(random_density_matrix(3, seed=64))
    assert np.allclose(ch.apply(rho).mat, back.apply(rho).mat, atol=1e-12)


def test_channel_json_rejects_inconsistent_dims():
    blob = Channel(random_kraus(2, 2, 2, seed=65)).to_json()
    for key, bad in (("in_dim", 3), ("in_dim", 2.5), ("out_dim", 2.5)):
        with pytest.raises(InvalidInput):
            Channel.from_json({**blob, key: bad})


def test_channel_apply_rejects_dimension_mismatch():
    ch = identity_channel(2)
    with pytest.raises(InvalidInput):
        ch.apply(DensityMatrix(np.eye(3) / 3))


def test_channel_adjoint_is_unital():
    ch = Channel(random_kraus(2, 3, 2, seed=66))
    assert np.allclose(ch.adjoint_raw(np.eye(3)), np.eye(2), atol=1e-10)


def test_apply_channel_helper():
    ch = identity_channel(2)
    rho = DensityMatrix(random_density_matrix(2, seed=67))
    assert np.allclose(apply_channel(ch, rho).mat, rho.mat, atol=1e-12)


# ---------------------------------------------------------------------------
# transpose-channel recovery
# ---------------------------------------------------------------------------

def test_petz_recovers_reference_exactly():
    worst = 0.0
    for trial in range(10):
        d = 2 + trial % 2
        ref = DensityMatrix(random_density_matrix(d, seed=200 + trial))
        ch = Channel(random_kraus(d, 2, 2, seed=300 + trial))
        rec = petz_map(ref, ch)
        recovered = rec.apply(ch.apply(ref))
        worst = max(worst, trace_norm(recovered.mat - ref.mat))
    assert worst <= 1e-7


def test_petz_recovers_rank_deficient_reference():
    ref = DensityMatrix(random_density_matrix(3, seed=210, rank=2))
    ch = Channel(random_kraus(3, 3, 2, seed=211))
    rec = petz_map(ref, ch)
    recovered = rec.apply(ch.apply(ref))
    assert trace_norm(recovered.mat - ref.mat) <= 1e-7


def test_petz_output_is_valid_channel():
    ref = DensityMatrix(random_density_matrix(2, seed=220))
    ch = Channel(random_kraus(2, 2, 3, seed=221))
    rec = petz_map(ref, ch)  # constructor re-validates CPTP
    assert rec.in_dim == ch.out_dim
    assert rec.out_dim == ch.in_dim


def test_petz_rebroadcasts_commuting_extensions():
    states = random_commuting_states(2, 2, seed=230)
    e = Ensemble([(0.5, DensityMatrix(s)) for s in states])
    exts = classical_broadcast(e, 2)
    avg_ext = DensityMatrix(
        0.5 * exts.extensions[0].mat + 0.5 * exts.extensions[1].mat
    )
    reduce_first = partial_trace_channel((2, 2), 0)
    rec = petz_map(avg_ext, reduce_first)
    for ext, member in zip(exts.extensions, e.states):
        rebuilt = rec.apply(member)
        assert trace_norm(rebuilt.mat - ext.mat) <= 1e-6


# ---------------------------------------------------------------------------
# partial-trace channels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "trial, profile, keep",
    [
        (0, (2, 2), 0),
        (1, (2, 3), 1),
        (2, (2, 2, 2), [0, 2]),
        (3, (3, 2), 0),
        (4, (2, 3, 2), [0, 2]),
        (5, (3, 2, 2), 1),
    ],
    ids=["2x2-keep0", "2x3-keep1", "2x2x2-keep02", "3x2-keep0", "2x3x2-keep02", "3x2x2-keep1"],
)
def test_partial_trace_channel_matches_direct(trial, profile, keep):
    total = int(np.prod(profile))
    rho = random_density_matrix(total, seed=400 + trial)
    ch = partial_trace_channel(profile, keep)
    direct = partial_trace(rho, DimensionProfile(profile), keep)
    assert np.allclose(ch.apply(DensityMatrix(rho)).mat, direct, atol=1e-10)


def test_partial_trace_channel_keep_all_is_identity():
    ch = partial_trace_channel((2, 3), [0, 1])
    rho = DensityMatrix(random_density_matrix(6, seed=410))
    assert np.allclose(ch.apply(rho).mat, rho.mat, atol=1e-12)


def test_partial_trace_channel_rejects_bad_keep():
    with pytest.raises(InvalidInput):
        partial_trace_channel((2, 2), 5)


@pytest.mark.parametrize("keep", [[0.7], 1.5, "1", [True], np.float64(1.0), None, []],
                         ids=["fraction-in-list", "fraction", "string", "bool", "numpy-float",
                              "none", "empty"])
def test_keep_sets_hold_integral_site_indices(keep):
    rho = random_density_matrix(4, seed=420)
    with pytest.raises(InvalidInput):
        partial_trace(rho, (2, 2), keep)
    with pytest.raises(InvalidInput):
        partial_trace_channel((2, 2), keep)


def test_keep_sets_take_numpy_indices_and_repeated_sites():
    a, b = (DensityMatrix(random_density_matrix(2, seed=s)) for s in (421, 422))
    ab = DensityMatrix(np.kron(a.mat, b.mat))
    for keep, expected in ((np.int64(1), b.mat), ((1, 0, 1), ab.mat)):
        assert np.allclose(partial_trace(ab, (2, 2), keep), expected, atol=1e-12)
        assert np.allclose(partial_trace_channel((2, 2), keep).apply(ab).mat, expected,
                           atol=1e-12)


def test_flagged_state_petz_identifies_members():
    # tracing the flagged state down to the flag+first-site pair keeps the
    # member blocks disjoint, so recovery acts blockwise
    states = random_commuting_states(2, 2, seed=420)
    e = Ensemble([(0.5, DensityMatrix(s)) for s in states])
    exts = classical_broadcast(e, 2)
    flagged, profile = build_flagged_state(exts, e.probs)
    keep_flag_and_first = partial_trace_channel(profile.local_dims, [0, 1])
    reduced = keep_flag_and_first.apply(flagged)
    big = 2
    for i in range(2):
        block = reduced.mat[i * big:(i + 1) * big, i * big:(i + 1) * big]
        assert np.allclose(block, 0.5 * e.states[i].mat, atol=1e-10)


# ---------------------------------------------------------------------------
# pair-transformation feasibility
# ---------------------------------------------------------------------------

def test_au_identity_pair_is_feasible():
    rho1 = DensityMatrix(random_density_matrix(2, seed=500))
    rho2 = DensityMatrix(random_density_matrix(2, seed=501))
    report = au_feasible(rho1, rho2, rho1, rho2)
    assert report.feasible
    assert report.min_margin >= -1e-8


def test_au_channel_images_are_feasible():
    rho1 = DensityMatrix(random_density_matrix(2, seed=510))
    rho2 = DensityMatrix(random_density_matrix(2, seed=511))
    ch = Channel(random_kraus(2, 2, 2, seed=19))
    report = au_feasible(rho1, rho2, ch.apply(rho1), ch.apply(rho2))
    assert report.feasible


def test_au_soundness_on_random_channel_images():
    # whenever a channel mapping the pair exists, the criterion must not
    # declare the transformation impossible
    for trial in range(25):
        rho1 = DensityMatrix(random_density_matrix(2, seed=600 + trial))
        rho2 = DensityMatrix(random_density_matrix(2, seed=700 + trial))
        ch = Channel(random_kraus(2, 2, 2, seed=800 + trial))
        report = au_feasible(rho1, rho2, ch.apply(rho1), ch.apply(rho2))
        assert report.feasible, f"false infeasibility at trial {trial}"


def test_au_example_backward_direction_fails():
    ex = orthogonal_pair_example(0.25)
    report = au_feasible(ex.rho1_b, ex.rho2_b, ex.rho1_a, ex.rho2_a)
    assert not report.feasible
    assert report.min_margin == pytest.approx(AU_MARGIN_025, abs=1e-9)
    assert report.argmin_t == pytest.approx(2.0, abs=1e-9)


def test_au_infimum_only_in_the_limit():
    # at a = 1/2 the margin sqrt(1 + t^2) - (1 + t) tends to -1 without
    # reaching it, so no finite t attains the infimum
    ex = orthogonal_pair_example(0.5)
    report = au_feasible(ex.rho1_b, ex.rho2_b, ex.rho1_a, ex.rho2_a)
    assert not report.feasible
    assert report.min_margin == pytest.approx(-1.0, abs=1e-12)
    assert report.argmin_t is None
    assert report.to_json()["argmin_t"] is None


def test_au_min_margin_is_exact_on_random_quadruples():
    # never above a dense scan of t, and attained at argmin_t when finite;
    # ranks 1 and 2 are mixed so that some infima are only the t -> infinity limit
    ts = np.concatenate([np.linspace(0.0, 20.0, 4001), np.linspace(20.0, 200.0, 901)])

    def scanned_norms(a, b):
        return np.abs(np.linalg.eigvalsh(a - ts[:, None, None] * b)).sum(axis=1)

    limit_only = 0
    for trial in range(30):
        r1, r2, s1, s2 = (
            random_density_matrix(2, seed=1100 + 4 * trial + j, rank=1 + ((trial >> j) & 1))
            for j in range(4)
        )
        report = au_feasible(r1, r2, s1, s2)
        scan = float((scanned_norms(r1, r2) - scanned_norms(s1, s2)).min())
        assert report.min_margin <= scan + 1e-12, f"above the scan at trial {trial}"
        if report.argmin_t is None:
            limit_only += 1
            continue
        t = report.argmin_t
        assert t >= 0.0
        at_t = trace_norm(r1 - t * r2) - trace_norm(s1 - t * s2)
        assert at_t == pytest.approx(report.min_margin, abs=1e-12)
    assert limit_only > 0


def test_au_equal_inputs_are_separated_at_the_kink():
    # rho1 = rho2 cannot be sent to two different states: the margin
    # min(0, |1 - t| - |s1 - t s2|) reaches -||sigma1 - sigma2||_1 at t = 1;
    # a pure rho leaves only a double root of the quartic there
    rho = DensityMatrix.from_statevector([1.0, 1.0])
    sigma1 = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
    sigma2 = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    report = au_feasible(rho, rho, sigma1, sigma2)
    assert report.min_margin == pytest.approx(-1.2, abs=1e-12)
    assert report.argmin_t == 1.0


def test_au_example_forward_direction_succeeds():
    ex = orthogonal_pair_example(0.25)
    report = au_feasible(ex.rho1_a, ex.rho2_a, ex.rho1_b, ex.rho2_b)
    assert report.feasible


def test_au_frozen_margins_across_a():
    for a, margin in ((0.05, AU_MARGIN_005), (0.45, AU_MARGIN_045)):
        ex = orthogonal_pair_example(a)
        report = au_feasible(ex.rho1_b, ex.rho2_b, ex.rho1_a, ex.rho2_a)
        assert not report.feasible
        assert report.min_margin == pytest.approx(margin, abs=1e-9)


def test_au_rejects_non_qubit_inputs():
    rho = DensityMatrix(np.eye(3) / 3)
    qubit = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(InvalidInput):
        au_feasible(rho, rho, qubit, qubit)


def test_au_report_fields():
    qubit = DensityMatrix(np.eye(2) / 2)
    report = au_feasible(qubit, qubit, qubit, qubit)
    assert isinstance(report, AuReport)
    assert report.feasible and report.min_margin >= -1e-12


# ---------------------------------------------------------------------------
# the a-parametrized example pair
# ---------------------------------------------------------------------------

def test_example_first_state_marginals():
    ex = orthogonal_pair_example(0.3)
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(ex.rho1_a.mat, ket0, atol=1e-12)
    assert np.allclose(ex.rho1_b.mat, ket0, atol=1e-12)
    prof = DimensionProfile((2, 2))
    assert np.allclose(partial_trace(ex.psi1_ab.mat, prof, 0), ket0, atol=1e-12)


def test_example_marginals_match_closed_forms():
    for a in np.linspace(0.0, 0.5, 11):
        ex = orthogonal_pair_example(a)
        g = np.sqrt(a * (1 - 2 * a))
        expect_a = np.array([[1 - 2 * a, g], [g, 2 * a]])
        expect_b = np.array([[1 - a, a], [a, a]])
        assert np.allclose(ex.rho2_a.mat, expect_a, atol=1e-10)
        assert np.allclose(ex.rho2_b.mat, expect_b, atol=1e-10)


def test_example_a_marginal_is_literal_partial_trace():
    prof = DimensionProfile((2, 2))
    for a in (0.1, 0.25, 0.4):
        ex = orthogonal_pair_example(a)
        traced = partial_trace(ex.psi2_ab.mat, prof, 0)
        assert np.allclose(ex.rho2_a.mat, traced, atol=1e-12)


def test_example_b_marginal_is_bit_flipped_partial_trace():
    prof = DimensionProfile((2, 2))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    for a in (0.1, 0.25, 0.4):
        ex = orthogonal_pair_example(a)
        traced = partial_trace(ex.psi2_ab.mat, prof, 1)
        assert np.allclose(ex.rho2_b.mat, flip @ traced @ flip, atol=1e-12)


def test_example_states_are_orthogonal():
    for a in (0.0, 0.2, 0.5):
        ex = orthogonal_pair_example(a)
        overlap = np.trace(ex.psi1_ab.mat @ ex.psi2_ab.mat).real
        assert overlap == pytest.approx(0.0, abs=1e-12)


def test_example_rejects_out_of_range():
    with pytest.raises(InvalidInput):
        orthogonal_pair_example(-0.01)
    with pytest.raises(InvalidInput):
        orthogonal_pair_example(0.51)
