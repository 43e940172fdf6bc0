"""End-to-end acceptance battery.

Each test covers one numbered criterion, measures its own runtime against the
stated budget, and records a single pass/fail line in the terminal summary.
"""

import time

import numpy as np
import pytest

from conftest import record_criterion
from ensembleq.cli import run
from ensembleq.densmat import (
    DensityMatrix,
    DimensionProfile,
    partial_trace,
    relative_entropy,
    trace_norm,
)
from ensembleq.ensemble import Ensemble, build_flagged_state, classical_broadcast, holevo
from ensembleq.extopt import (
    ExtensionSet,
    chi_gradient,
    chi_objective,
    chi_q,
    project_feasible,
)
from ensembleq.accinfo import (
    OptimizerConfig,
    accessible_information,
    pure_limit_identities,
)
from ensembleq.rand import (
    random_commuting_states,
    random_density_matrix,
    random_hermitian,
    random_kraus,
    random_probabilities,
)
from ensembleq.recovery import (
    Channel,
    au_feasible,
    orthogonal_pair_example,
    partial_trace_channel,
    petz_map,
)

KET0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
PLUS = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))


def check(num: int, description: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description} ({detail})"
    record_criterion(line)
    print(line)
    assert ok, line


def entropy_bits_oracle(m: np.ndarray) -> float:
    """Plain-numpy eigenvalue entropy, independent of the package code paths."""
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def kron_power(m: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, m)
    return out


def interior_state(d: int, seed: int) -> np.ndarray:
    """Random full-rank state bounded away from the boundary of state space."""
    return 0.85 * random_density_matrix(d, seed=seed) + 0.15 * np.eye(d) / d


def feasible_interior_extension(target: np.ndarray, n: int, seed: int,
                                scale: float = 0.05) -> np.ndarray:
    """Project a perturbed product extension back onto the feasible set.

    The positivity projection can land on the cone boundary, where entropy
    derivatives degenerate; mixing back toward the full-rank product (which
    shares the same marginals) keeps the point strictly interior.
    """
    d = target.shape[0]
    product = kron_power(target, n)
    noisy = product + random_hermitian(d**n, seed=seed, scale=scale)
    projected = project_feasible(noisy, DensityMatrix(target), n).mat
    return 0.8 * projected + 0.2 * product


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_example_closed_forms():
    start = time.perf_counter()
    worst_entry = 0.0
    worst_comm = 0.0
    for a in np.linspace(0.0, 0.5, 11):
        ex = orthogonal_pair_example(a)
        g = np.sqrt(a * (1 - 2 * a))
        expect_a = np.array([[1 - 2 * a, g], [g, 2 * a]])
        expect_b = np.array([[1 - a, a], [a, a]])
        worst_entry = max(
            worst_entry,
            float(np.max(np.abs(ex.rho2_a.mat - expect_a))),
            float(np.max(np.abs(ex.rho2_b.mat - expect_b))),
        )
        r1, r2 = ex.rho1_a.mat, ex.rho2_a.mat
        comm = r1 @ r2 - r2 @ r1
        worst_comm = max(worst_comm, abs(abs(comm[0, 1]) - g))
    elapsed = time.perf_counter() - start
    ok = worst_entry <= 1e-10 and worst_comm <= 1e-8 and elapsed < 1.0
    check(
        1,
        "closed-form marginals and commutator across 11 values of a",
        ok,
        f"entry dev {worst_entry:.2e}, comm dev {worst_comm:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_pair_transformation_sweep():
    start = time.perf_counter()
    ex0 = orthogonal_pair_example(0.0)
    rep0 = au_feasible(ex0.rho1_b, ex0.rho2_b, ex0.rho1_a, ex0.rho2_a)
    feasible_at_zero = rep0.feasible
    margins = []
    for a in np.linspace(0.05, 0.45, 9):
        ex = orthogonal_pair_example(a)
        rep = au_feasible(ex.rho1_b, ex.rho2_b, ex.rho1_a, ex.rho2_a)
        margins.append((a, rep.feasible, rep.min_margin))
    elapsed = time.perf_counter() - start
    all_infeasible = all(
        (not feas) and margin < -1e-4 for _, feas, margin in margins
    )
    ok = feasible_at_zero and all_infeasible and elapsed < 5.0
    worst = max(m for _, _, m in margins)
    check(
        2,
        "pair transformation feasible only at a=0",
        ok,
        f"a=0 feasible={feasible_at_zero}, largest interior margin {worst:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_03_commuting_ensembles_have_zero_gap():
    start = time.perf_counter()
    worst = 0.0
    all_converged = True
    for trial in range(50):
        count = 2 if trial < 25 else 3
        states = random_commuting_states(2, count, seed=3000 + trial)
        probs = random_probabilities(count, seed=3100 + trial)
        e = Ensemble([(p, DensityMatrix(s)) for p, s in zip(probs, states)])
        report = chi_q(e, 2)
        worst = max(worst, report.value)
        all_converged = all_converged and report.converged
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and all_converged and elapsed < 120.0
    check(
        3,
        "chi_q(n=2) vanishes on 50 commuting qubit ensembles",
        ok,
        f"max value {worst:.2e}, all converged {all_converged}, {elapsed:.1f}s",
    )


def test_criterion_04_non_commuting_pairs_have_positive_gap():
    start = time.perf_counter()
    accepted = 0
    seed = 0
    smallest = np.inf
    all_converged = True
    while accepted < 20:
        seed += 1
        r1 = random_density_matrix(2, seed=4000 + seed)
        r2 = random_density_matrix(2, seed=5000 + seed)
        if np.linalg.norm(r1 @ r2 - r2 @ r1) < 0.1:
            continue
        accepted += 1
        e = Ensemble([(0.5, DensityMatrix(r1)), (0.5, DensityMatrix(r2))])
        report = chi_q(e, 2)
        all_converged = all_converged and report.converged
        smallest = min(smallest, report.value)
    elapsed = time.perf_counter() - start
    ok = smallest >= 1e-4 and all_converged and elapsed < 300.0
    check(
        4,
        "chi_q(n=2) strictly positive on 20 non-commuting qubit pairs",
        ok,
        f"min value {smallest:.2e}, all converged {all_converged}, {elapsed:.1f}s",
    )


def test_criterion_05_pure_pair_closed_form():
    start = time.perf_counter()
    e = Ensemble([(0.5, KET0), (0.5, PLUS)])
    avg = e.average_state().mat
    values = {}
    devs = {}
    for n in (2, 3):
        prod_mix = 0.5 * kron_power(KET0.mat, n) + 0.5 * kron_power(PLUS.mat, n)
        oracle = entropy_bits_oracle(prod_mix) - entropy_bits_oracle(avg)
        got = chi_q(e, n).value
        values[n] = got
        devs[n] = abs(got - oracle)
    elapsed = time.perf_counter() - start
    ok = (
        devs[2] <= 5e-3
        and devs[3] <= 5e-3
        and abs(values[2] - 0.2104) <= 5e-3
        and values[3] >= values[2] - 1e-4
        and elapsed < 60.0
    )
    check(
        5,
        "pure-pair chi_q matches the product closed form for n=2,3",
        ok,
        f"n2={values[2]:.6f} (dev {devs[2]:.1e}), n3={values[3]:.6f} "
        f"(dev {devs[3]:.1e}), {elapsed:.1f}s",
    )


def test_criterion_06_flagged_identity():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(30):
        d = 2 if trial % 2 == 0 else 3
        targets = [
            interior_state(d, seed=6000 + trial),
            interior_state(d, seed=6100 + trial),
        ]
        exts = [
            feasible_interior_extension(t, 2, seed=6200 + trial + 30 * k)
            for k, t in enumerate(targets)
        ]
        probs = random_probabilities(2, seed=6300 + trial)
        ext_set = ExtensionSet(
            n=2,
            local_dim=d,
            extensions=[DensityMatrix(x) for x in exts],
            target_marginals=[DensityMatrix(t) for t in targets],
        )
        e = Ensemble([(p, DensityMatrix(t)) for p, t in zip(probs, targets)])
        lhs = chi_objective(exts, probs) - holevo(e)

        flagged, profile = build_flagged_state(ext_set, probs)
        rho_c = np.diag(probs).astype(complex)
        rho_ab = partial_trace(flagged.mat, profile, [1, 2])
        rho_ca = partial_trace(flagged.mat, profile, [0, 1])
        rho_a = partial_trace(flagged.mat, profile, 1)
        rhs = relative_entropy(flagged.mat, np.kron(rho_c, rho_ab)) - relative_entropy(
            rho_ca, np.kron(rho_c, rho_a)
        )
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    check(
        6,
        "flagged-state identity on 30 random extension sets",
        ok,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_recovery_map():
    start = time.perf_counter()
    worst_recover = 0.0
    shapes = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 2)]
    for trial in range(50):
        din, dout, nk = shapes[trial % len(shapes)]
        ref = DensityMatrix(random_density_matrix(din, seed=7000 + trial))
        ch = Channel(random_kraus(din, dout, nk, seed=7100 + trial))
        rec = petz_map(ref, ch)
        recovered = rec.apply(ch.apply(ref))
        worst_recover = max(worst_recover, trace_norm(recovered.mat - ref.mat))

    worst_rebroadcast = 0.0
    for trial in range(5):
        states = random_commuting_states(2, 2, seed=7200 + trial)
        e = Ensemble([(0.5, DensityMatrix(s)) for s in states])
        exts = classical_broadcast(e, 2)
        avg_ext = DensityMatrix(
            0.5 * exts.extensions[0].mat + 0.5 * exts.extensions[1].mat
        )
        rec = petz_map(avg_ext, partial_trace_channel((2, 2), 0))
        for ext, member in zip(exts.extensions, e.states):
            dev = trace_norm(rec.apply(member).mat - ext.mat)
            worst_rebroadcast = max(worst_rebroadcast, dev)
    elapsed = time.perf_counter() - start
    ok = worst_recover <= 1e-7 and worst_rebroadcast <= 1e-6 and elapsed < 60.0
    check(
        7,
        "recovery map reverses channels and re-broadcasts commuting members",
        ok,
        f"recover dev {worst_recover:.2e}, rebroadcast dev {worst_rebroadcast:.2e}, "
        f"{elapsed:.1f}s",
    )


def bloch_angle_scan_oracle(e: Ensemble, steps: int = 4001) -> float:
    """Independent projective-measurement scan for real-amplitude qubit pairs."""
    probs = np.asarray(e.probs)
    states = [s.mat for s in e.states]
    best = 0.0
    for theta in np.linspace(0.0, np.pi, steps):
        v = np.array([np.cos(theta / 2), np.sin(theta / 2)])
        proj = np.outer(v, v)
        q = np.array([[np.real(np.trace(proj @ s)) for s in states],
                      [1 - np.real(np.trace(proj @ s)) for s in states]])
        q = np.clip(q, 0.0, 1.0)
        py = q @ probs
        mi = 0.0
        for y in range(2):
            for i in range(len(states)):
                joint = probs[i] * q[y, i]
                if joint > 1e-15 and py[y] > 1e-15:
                    mi += joint * np.log2(joint / (py[y] * probs[i]))
        best = max(best, mi)
    return best


def test_criterion_08_holevo_bound_and_classical_equality():
    start = time.perf_counter()
    cfg = OptimizerConfig(restarts=3)
    bound_ok = True
    worst_gap = 0.0
    for trial in range(20):
        states = random_commuting_states(2, 2, seed=8000 + trial)
        probs = random_probabilities(2, seed=8100 + trial)
        e = Ensemble([(p, DensityMatrix(s)) for p, s in zip(probs, states)])
        report = accessible_information(e, cfg)
        chi = holevo(e)
        bound_ok = bound_ok and report.value <= chi + 1e-6
        worst_gap = max(worst_gap, abs(report.value - chi))

    zp = Ensemble([(0.5, KET0), (0.5, PLUS)])
    zp_report = accessible_information(zp, cfg)
    bound_ok = bound_ok and zp_report.value <= holevo(zp) + 1e-6
    scan = bloch_angle_scan_oracle(zp)
    scan_dev = abs(zp_report.value - scan)
    pinned_dev = abs(zp_report.value - 0.3991)
    residual = pure_limit_identities(zp, cfg).identity_residual
    elapsed = time.perf_counter() - start
    ok = (
        bound_ok
        and worst_gap <= 1e-4
        and scan_dev <= 2e-3
        and pinned_dev <= 2e-3
        and residual <= 1e-9
        and elapsed < 180.0
    )
    check(
        8,
        "Holevo bound, classical equality, and scan-oracle agreement",
        ok,
        f"bound {bound_ok}, commuting gap {worst_gap:.2e}, scan dev {scan_dev:.2e}, "
        f"identity residual {residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_09_gradient_matches_finite_differences():
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    checked = 0
    trial = 0
    while checked < 20:
        trial += 1
        d = 2 if trial % 2 == 0 else 3
        targets = [
            interior_state(d, seed=9000 + trial),
            interior_state(d, seed=9100 + trial),
        ]
        probs = random_probabilities(2, seed=9200 + trial)
        mats = [
            feasible_interior_extension(t, 2, seed=9300 + trial + 100 * k)
            for k, t in enumerate(targets)
        ]
        # feasible direction: difference of two feasible points
        others = [
            feasible_interior_extension(t, 2, seed=9400 + trial + 100 * k)
            for k, t in enumerate(targets)
        ]
        dirs = [o - m for o, m in zip(others, mats)]
        norm = np.sqrt(sum(np.linalg.norm(dv) ** 2 for dv in dirs))
        if norm < 1e-6:
            continue
        dirs = [dv / norm for dv in dirs]
        grads = chi_gradient(mats, probs)
        analytic = sum(
            float(np.real(np.trace(g.conj().T @ dv))) for g, dv in zip(grads, dirs)
        )
        plus = [m + h * dv for m, dv in zip(mats, dirs)]
        minus = [m - h * dv for m, dv in zip(mats, dirs)]
        fd = (chi_objective(plus, probs) - chi_objective(minus, probs)) / (2 * h)
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    check(
        9,
        "analytic gradient matches central differences at 20 interior points",
        ok,
        f"max relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    start = time.perf_counter()
    out1 = tmp_path / "sweep_a.csv"
    out2 = tmp_path / "sweep_b.csv"
    argv = ["sweep-example", "--steps", "6", "--a-min", "0.0", "--a-max", "0.5"]
    rc1 = run(argv + ["--output", str(out1)])
    rc2 = run(argv + ["--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - start
    ok = rc1 == 0 and rc2 == 0 and identical and elapsed < 60.0
    check(
        10,
        "repeated sweep invocations emit byte-identical CSV",
        ok,
        f"identical {identical}, {elapsed:.1f}s",
    )
