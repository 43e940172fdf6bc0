"""Reference computations for the benchmark's output checks, in plain numpy.

Nothing here imports ``ensembleq``: every value the benchmark compares a
program output against is computed again from the inputs by a separate route
(singular values instead of eigenvalues for the fidelity, Gram matrices for
pure-state entropies, the qubit Bloch form for trace norms).  Entropies are in
bits.  ``self_test`` pins the oracles to values known in closed form.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    """g g^dag / tr with g a d x d complex Ginibre matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits."""
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def holevo(probs, states) -> float:
    avg = sum(p * s for p, s in zip(probs, states))
    return entropy(avg) - sum(p * entropy(s) for p, s in zip(probs, states))


def power(rho: np.ndarray, n: int) -> np.ndarray:
    out = rho
    for _ in range(n - 1):
        out = np.kron(out, rho)
    return out


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray, convention: str) -> float:
    """Uhlmann fidelity as the trace norm of sqrt(rho) sqrt(sigma)."""
    root = float(np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False).sum())
    return root * root if convention == "squared" else root


def chi_product_bound(probs, states, n: int) -> float:
    """chi_q(n) <= chi of the product extension minus chi of the ensemble."""
    return holevo(probs, [power(s, n) for s in states]) - holevo(probs, states)


def fidelity_product_bound(rho, sigma, n: int, convention: str) -> float:
    """fidelity_q(n) <= F - F**n: the product extension has fidelity F**n."""
    f = fidelity(rho, sigma, convention)
    return f - f**n


def pure_chi_q(probs, kets, n: int) -> float:
    """chi_q(n) of a pure ensemble, whose only extension is the product one.

    Both entropies come from Gram matrices sqrt(p_i p_j) <psi_i|psi_j>^k, which
    share their nonzero spectrum with sum_i p_i |psi_i><psi_i|^{(x)k}.
    """

    def gram_entropy(k: int) -> float:
        sp = np.sqrt(np.asarray(probs, dtype=float))
        overlaps = np.array([[np.vdot(a, b) ** k for b in kets] for a in kets])
        return entropy(np.outer(sp, sp) * overlaps)

    return gram_entropy(n) - gram_entropy(1)


def mutual_information(probs, states, elements) -> float:
    """I(label; outcome) in bits for P(i, j) = p_i Tr(rho_i M_j)."""
    joint = np.array(
        [[p * np.trace(s @ m).real for m in elements] for p, s in zip(probs, states)]
    )
    joint = np.clip(joint, 0.0, None)
    joint /= joint.sum()

    def h(x):
        x = x[x > 0]
        return float(-(x * np.log2(x)).sum())

    return h(joint.sum(axis=1)) + h(joint.sum(axis=0)) - h(joint.ravel())


def eigenbasis_mutual_information(probs, states) -> float:
    """Mutual information of the measurement in the average state's eigenbasis."""
    _, v = np.linalg.eigh(sum(p * s for p, s in zip(probs, states)))
    return mutual_information(probs, states, [np.outer(c, c.conj()) for c in v.T])


# ---------------------------------------------------------------------------
# qubit trace-norm margin of the Alberti-Uhlmann criterion
# ---------------------------------------------------------------------------

def bloch(rho: np.ndarray) -> np.ndarray:
    return np.array([np.trace(rho @ p).real for p in PAULI])


def _trace_norm(c: float, v: np.ndarray) -> float:
    """||(c 1 + v.sigma)/2||_1 = max(|c|, |v|)."""
    return max(abs(c), float(np.linalg.norm(v)))


def margin(rho1, rho2, sigma1, sigma2, t: float) -> float:
    """||rho1 - t rho2||_1 - ||sigma1 - t sigma2||_1 for qubit states."""
    r1, r2, s1, s2 = (bloch(m) for m in (rho1, rho2, sigma1, sigma2))
    return _trace_norm(1.0 - t, r1 - t * r2) - _trace_norm(1.0 - t, s1 - t * s2)


def exact_min_margin(rho1, rho2, sigma1, sigma2) -> tuple[float, float]:
    """Infimum of the margin over t >= 0 and where it is reached (inf: the limit).

    With c = |1 - t|, f = |r1 - t r2| and g = |s1 - t s2|, the margin is
    max(c, f) - max(c, g).  Between the breakpoints c = f and c = g it is one of
    f - c, c - g or f - g, whose stationary points solve polynomials of degree
    at most four, so the minimum lies among those roots, t = 0, the kink t = 1,
    or the limit t -> infinity.
    """
    r1, r2, s1, s2 = (bloch(m) for m in (rho1, rho2, sigma1, sigma2))
    # f^2 = a t^2 - 2 b t + c0, likewise g^2 with the primed coefficients
    a, b, c0 = r2 @ r2, r1 @ r2, r1 @ r1
    a_, b_, c0_ = s2 @ s2, s1 @ s2, s1 @ s1
    f2 = np.array([a, -2.0 * b, c0])
    g2 = np.array([a_, -2.0 * b_, c0_])
    one = np.array([1.0, -2.0, 1.0])  # (1 - t)^2
    polys = [
        f2 - one,  # breakpoint f = c
        g2 - one,  # breakpoint g = c
        np.array([a * a - a, 2.0 * b - 2.0 * a * b, b * b - c0]),  # f' = +-1
        np.array([a_ * a_ - a_, 2.0 * b_ - 2.0 * a_ * b_, b_ * b_ - c0_]),  # g' = +-1
        # f' = g': (a t - b)^2 g^2 = (a' t - b')^2 f^2
        np.polysub(
            np.polymul(np.polymul([a, -b], [a, -b]), g2),
            np.polymul(np.polymul([a_, -b_], [a_, -b_]), f2),
        ),
    ]
    candidates = [0.0, 1.0]
    for poly in polys:
        poly = np.trim_zeros(np.asarray(poly, dtype=float), "f")
        if poly.size > 1 and np.any(np.abs(poly) > 1e-14):
            for root in np.roots(poly):
                if abs(root.imag) < 1e-9 and root.real >= 0.0:
                    candidates.append(float(root.real))
    best_t = min(candidates, key=lambda t: margin(rho1, rho2, sigma1, sigma2, t))
    best = margin(rho1, rho2, sigma1, sigma2, best_t)

    # for large t, max(c, f) = t - b when rho2 is pure (a = 1) and t - 1 otherwise
    def offset(a_coef, b_coef):
        return b_coef if abs(a_coef - 1.0) < 1e-12 else 1.0

    limit = offset(a_, b_) - offset(a, b)
    if limit < best:
        return limit, math.inf
    return best, best_t


def orthogonal_pair_marginals(a: float):
    """Marginals of |00> and sqrt(1-2a)|01> + sqrt(a)|10> + sqrt(a)|11>.

    Returns (rho1_a, rho2_a, rho1_b, rho2_b) with the B marginal of the second
    state read in bit-flipped basis order, as in the package's example family.
    """
    psi = np.array([[0.0, math.sqrt(1.0 - 2.0 * a)], [math.sqrt(a), math.sqrt(a)]])
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    flip = PAULI[0].real
    rho2_a = (psi @ psi.T).astype(complex)
    rho2_b = (flip @ psi.T @ psi @ flip).astype(complex)
    return ket0, rho2_a, ket0, rho2_b


def au_inputs(a: float):
    """The (rho1, rho2, sigma1, sigma2) that ``au-check --a`` tests."""
    rho1_a, rho2_a, rho1_b, rho2_b = orthogonal_pair_marginals(a)
    return rho1_b, rho2_b, rho1_a, rho2_a


# ---------------------------------------------------------------------------
# self-tests against values known in closed form
# ---------------------------------------------------------------------------

def _ket(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def trine():
    return [_ket([math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)]) for k in range(3)]


def zero_plus():
    return [_ket([1, 0]), _ket([1, 1])]


def self_test() -> list[str]:
    """Names of the self-tests that fail; empty when the oracles are sound."""
    failures = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    third = [1 / 3] * 3
    anti_trine = [(2 / 3) * (np.eye(2) - s) for s in trine()]
    expect("trine accessible information", mutual_information(third, trine(), anti_trine),
           math.log2(1.5), 1e-12)
    expect("trine Holevo quantity", holevo(third, trine()), 1.0, 1e-12)
    expect("{|0>,|+>} Holevo quantity", holevo([0.5, 0.5], zero_plus()), 0.6008760366928562, 1e-12)
    def h(x):
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    # {|0>,|+>} at n=2: the Gram spectrum of the product states is (3/4, 1/4)
    expect("{|0>,|+>} pure chi_q at n=2",
           pure_chi_q([0.5, 0.5], [np.array([1, 0]), np.array([1, 1]) / math.sqrt(2)], 2),
           h(0.75) - h(math.cos(math.pi / 8) ** 2), 1e-12)

    low, t = exact_min_margin(*au_inputs(0.25))
    expect("au-check --a 0.25 exact minimum", low, 1.0 - math.sqrt(3.0), 1e-12)
    expect("au-check --a 0.25 argmin", t, 2.0, 1e-9)
    expect("au-check --a 0.25 margin at t=2", margin(*au_inputs(0.25), 2.0), 1.0 - math.sqrt(3.0), 1e-12)

    rng = np.random.default_rng(5)
    rho, sigma = (ginibre(rng, 2) for _ in range(2))
    for convention in ("squared", "root"):
        f = fidelity(rho, sigma, convention)
        for n in (2, 3):
            expect(f"F(rho^n, sigma^n) = F^n, {convention}, n={n}",
                   fidelity(power(rho, n), power(sigma, n), convention), f**n, 1e-12)
    expect("F(rho, rho) = 1", fidelity(rho, rho, "root"), 1.0, 1e-12)
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("oracle self-tests:", "FAILED" if problems else "ok")
    raise SystemExit(1 if problems else 0)
