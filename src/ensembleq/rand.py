"""Seeded random generators for states, bases, and channels.

Everything takes an explicit ``numpy.random.Generator`` (or an integer seed)
so that every stochastic path in the package is reproducible.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ._kernel import hermitize

# a string, so that importing this module leaves numpy.random unloaded until a
# generator is first built
SeedLike = Union[int, "np.random.Generator"]


def rng_from(seed: SeedLike) -> np.random.Generator:
    """Pass through a Generator, or build one from an integer seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))


def random_hermitian(dim: int, seed: SeedLike, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix with entries of typical size ``scale``."""
    rng = rng_from(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * hermitize(g)


def random_unitary(dim: int, seed: SeedLike) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    rng = rng_from(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the draw is a deterministic function of the seed
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_density_matrix(dim: int, seed: SeedLike, rank: Optional[int] = None) -> np.ndarray:
    """Random full-rank (or fixed-rank) state from the Ginibre construction."""
    rng = rng_from(seed)
    k = dim if rank is None else int(rank)
    g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure_state(dim: int, seed: SeedLike) -> np.ndarray:
    """Normalized random statevector."""
    rng = rng_from(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_probabilities(count: int, seed: SeedLike) -> np.ndarray:
    """Random probability vector bounded away from zero."""
    rng = rng_from(seed)
    p = rng.uniform(0.2, 1.0, size=count)
    return p / p.sum()


def random_commuting_states(dim: int, count: int, seed: SeedLike) -> list[np.ndarray]:
    """States sharing one random eigenbasis (hence pairwise commuting)."""
    rng = rng_from(seed)
    u = random_unitary(dim, rng)
    out = []
    for _ in range(count):
        lam = rng.uniform(0.05, 1.0, size=dim)
        lam = lam / lam.sum()
        out.append((u * lam) @ u.conj().T)
    return out


def random_kraus(in_dim: int, out_dim: int, count: int, seed: SeedLike) -> list[np.ndarray]:
    """Kraus operators of a random channel, from a Haar-ish random isometry.

    Trace preservation requires ``count * out_dim >= in_dim``.
    """
    if count * out_dim < in_dim:
        raise ValueError(
            f"count*out_dim = {count * out_dim} cannot embed in_dim = {in_dim}"
        )
    rng = rng_from(seed)
    g = rng.normal(size=(out_dim * count, in_dim)) + 1j * rng.normal(
        size=(out_dim * count, in_dim)
    )
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q = q * phases
    return [q[j * out_dim:(j + 1) * out_dim, :] for j in range(count)]
