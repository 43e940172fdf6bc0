"""Raw dense numerics shared by every module.

Nothing here validates: callers pass square complex ndarrays that already meet
each function's contract.  The public, validating forms live in ``densmat``;
the solver loops in ``extopt`` call these directly.

``hermitize``, ``matrix_function``, ``partial_trace`` and ``site_view`` also
accept a stack of matrices, shape ``(..., D, D)``, and act on each one; on a
single matrix they compute exactly what they did before stacks existed, and a
stacked call gives each member the same bits as its own call.
"""

from __future__ import annotations

import math

import numpy as np

#: Eigenvalue floor used for logarithms and pseudo-inverse square roots.
EIG_FLOOR = 1e-12
#: Purity threshold: a state is treated as pure when its top eigenvalue
#: is at least 1 - PURE_TOL.
PURE_TOL = 1e-8

#: Scalar maps that :func:`matrix_function` applies to a Hermitian spectrum.
SPECTRAL_MAPS = {
    "log2": lambda w: np.log2(np.maximum(w, EIG_FLOOR)),
    "log": lambda w: np.log(np.clip(w, 1e-300, None)),
    "exp": np.exp,
    "sqrt": lambda w: np.sqrt(np.clip(w, 0.0, None)),
    "inv_sqrt_on_support": lambda w: np.where(
        w > EIG_FLOOR, 1.0 / np.sqrt(np.maximum(w, EIG_FLOOR)), 0.0
    ),
    "psd_clip": lambda w: np.clip(w, 0.0, None),
}


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2


def matrix_function(a: np.ndarray, fn: str, spectrum=None) -> np.ndarray:
    """Apply ``SPECTRAL_MAPS[fn]`` through one eigendecomposition of hermitize(a).

    ``spectrum`` passes a ready ``(w, v)`` from ``np.linalg.eigh`` instead.
    """
    w, v = np.linalg.eigh(hermitize(a)) if spectrum is None else spectrum
    return (v * SPECTRAL_MAPS[fn](w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def entropy_bits(a: np.ndarray) -> float:
    """-Tr(a log2 a) over the eigenvalues above EIG_FLOOR (not clipped at 0)."""
    w = np.linalg.eigvalsh(hermitize(a))
    w = w[w > EIG_FLOOR]
    return float(-(w * np.log2(w)).sum())


def fidelity_root(a: np.ndarray, b: np.ndarray) -> float:
    """Tr sqrt(sqrt(a) b sqrt(a)), the unsquared Uhlmann fidelity."""
    sqrt_a = matrix_function(a, "sqrt")
    w = np.linalg.eigvalsh(hermitize(sqrt_a @ b @ sqrt_a))
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def pure_vector(a: np.ndarray):
    """Top eigenvector of a pure state (top eigenvalue >= 1 - PURE_TOL), else None."""
    w, v = np.linalg.eigh(hermitize(a))
    return v[:, -1] if float(w[-1]) >= 1.0 - PURE_TOL else None


def is_pure(a: np.ndarray) -> bool:
    return pure_vector(a) is not None


def kron_power(a: np.ndarray, n: int) -> np.ndarray:
    """The n-fold Kronecker power of a vector or a matrix."""
    out = a
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def partial_trace(x: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """Trace out every site not in ``keep``; kept sites stay in order."""
    lead = x.shape[:-2]
    t = x.reshape(lead + dims + dims)
    for site in reversed(range(len(dims))):
        if site not in keep:
            axis = len(lead) + site
            t = np.trace(t, axis1=axis, axis2=axis + (t.ndim - len(lead)) // 2)
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(lead + (d_keep, d_keep))


def site_view(x: np.ndarray, dims: tuple, site: int) -> np.ndarray:
    """Writable (..., L, R, d, d) view of the blocks of ``x`` that I x op x I touches.

    Adding ``op`` through it adds op embedded at ``site``.  ``x`` must be
    C-contiguous: reshaping anything else copies, and the writes would be lost.
    """
    if not x.flags.c_contiguous:
        raise ValueError("site_view needs a C-contiguous array")
    left, right = math.prod(dims[:site]), math.prod(dims[site + 1:])
    d = dims[site]
    return np.einsum("...iajibj->...ijab",
                     x.reshape(x.shape[:-2] + (left, d, right, left, d, right)))


def embed_at_site(op: np.ndarray, dims: tuple, site: int) -> np.ndarray:
    """I x ... x op x ... x I with op on ``site``."""
    big = math.prod(dims)
    out = np.zeros((big, big), dtype=complex)
    site_view(out, dims, site)[...] = op
    return out


def bloch_vector(a: np.ndarray) -> np.ndarray:
    """Real (x, y, z) with a = (tr(a) 1 + (x, y, z) . sigma) / 2 for a 2x2 Hermitian a."""
    return np.array([2.0 * a[0, 1].real, -2.0 * a[0, 1].imag, (a[0, 0] - a[1, 1]).real])
