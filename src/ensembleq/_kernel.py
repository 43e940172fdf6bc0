"""Raw dense numerics shared by every module.

Nothing here validates: callers pass square complex ndarrays that already meet
each function's contract.  The public, validating forms live in ``densmat``;
the solver loops in ``extopt`` call these directly.

Solver loops touch single-site marginals only through ``site_index(d, n)``, a
cached table of the flat positions that each single-site marginal of a
d**n x d**n matrix sums.  ``site_marginals`` gathers marginals through it, bit
for bit the sums ``partial_trace`` makes; ``subtract_at_sites`` subtracts one
operator at every site, in one indexed, in-place call.  On an (m, D, D) stack
both read ``stack_index(d, n, m)``, the same table offset to each matrix; on
b D x b D matrices the sites are the (block, site) pairs of b diagonal
blocks.  ``partial_trace`` and ``site_view`` serve ``densmat`` and
``embed_at_site``.

``site_rows(d, n)``, the table both are built from, groups the rows of a
d**n x d**n matrix by one site's level; ``_newton``'s solver reads each
site's matrix units in an eigenbasis off it.

``copies`` (every sum of weighted n-fold copies), ``holevo_bits`` and
``marginal_residual`` are the one builder of each extension object;
``residual_norms`` is the one residual formula, of every report through
``marginal_residual`` and of the Newton solver's stop test.
``holevo_from_entropies``, the Holevo sum behind ``holevo_bits``, takes
eigenvalues and entropies a caller already has, as ``extopt``'s refine does
with the spectra each of its rounds computes.

``hermitize``, ``matrix_function`` and ``subtract_at_sites`` act on each matrix
of a ``(..., D, D)`` stack, and ``site_marginals`` on each of an ``(m, D, D)``
stack; a stacked call gives each member the same bits as its own call.
"""

from __future__ import annotations

import functools
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
    "log": lambda w: np.log(np.maximum(w, 1e-300)),
    "exp": np.exp,
    "sqrt": lambda w: np.sqrt(np.maximum(w, 0.0)),
    "inv_sqrt_on_support": lambda w: np.where(
        w > EIG_FLOOR, 1.0 / np.sqrt(np.maximum(w, EIG_FLOOR)), 0.0
    ),
    "psd_clip": lambda w: np.maximum(w, 0.0),
}


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2


def matrix_function(a: np.ndarray, fn: str, spectrum=None) -> np.ndarray:
    """Apply ``SPECTRAL_MAPS[fn]`` through one eigendecomposition of hermitize(a).

    ``spectrum`` passes a ready ``(w, v)`` from ``np.linalg.eigh`` instead.
    """
    w, v = np.linalg.eigh(hermitize(a)) if spectrum is None else spectrum
    return (v * SPECTRAL_MAPS[fn](w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def spectral_entropy_bits(w: np.ndarray) -> float:
    """-sum w log2 w over the eigenvalues w above EIG_FLOOR (not clipped at 0)."""
    w = w[w > EIG_FLOOR]
    return float(-(w * np.log2(w)).sum())


def entropy_bits(a: np.ndarray) -> float:
    """-Tr(a log2 a) over the eigenvalues above EIG_FLOOR (not clipped at 0)."""
    return spectral_entropy_bits(np.linalg.eigvalsh(hermitize(a)))


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


def copies(w: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """sum_k w_k |v_k^(x)n><v_k^(x)n| over the columns v_k of ``v``, skipping w_k <= 0.

    The terms are added one at a time in column order.
    """
    big = v.shape[0] ** n
    out = np.zeros((big, big), dtype=complex)
    for k in range(v.shape[1]):
        if w[k] <= 0.0:
            continue
        vec = kron_power(v[:, k], n)
        out += w[k] * np.outer(vec, vec.conj())
    return out


def holevo_bits(probs, mats) -> float:
    """S(sum_i p_i m_i) - sum_i p_i S(m_i) in bits, over the terms with p_i > 0."""
    avg = sum(p * m for p, m in zip(probs, mats))
    bits = [entropy_bits(m) if p > 0.0 else 0.0 for p, m in zip(probs, mats)]
    return holevo_from_entropies(np.linalg.eigvalsh(hermitize(avg)), probs, bits)


def holevo_from_entropies(avg_eigs: np.ndarray, probs, bits) -> float:
    """The Holevo sum from the average's eigenvalues and each member's S in bits.

    Terms with p_i = 0 drop out, whatever their entry in ``bits``.
    """
    return spectral_entropy_bits(avg_eigs) - sum(
        p * b for p, b in zip(probs, bits) if p > 0.0
    )


def partial_trace(x: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """Trace out every site not in ``keep``; kept sites stay in order."""
    t = x.reshape(dims + dims)
    for site in reversed(range(len(dims))):
        if site not in keep:
            t = np.trace(t, axis1=site, axis2=site + t.ndim // 2)
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(d_keep, d_keep)


def site_view(x: np.ndarray, dims: tuple, site: int) -> np.ndarray:
    """Writable (L, R, d, d) view of the blocks of ``x`` that I x op x I touches.

    Adding ``op`` through it adds op embedded at ``site``.  ``x`` must be
    C-contiguous: reshaping anything else copies, and the writes would be lost.
    """
    if not x.flags.c_contiguous:
        raise ValueError("site_view needs a C-contiguous array")
    left, right = math.prod(dims[:site]), math.prod(dims[site + 1:])
    d = dims[site]
    return np.einsum("iajibj->ijab", x.reshape(left, d, right, left, d, right))


def embed_at_site(op: np.ndarray, dims: tuple, site: int) -> np.ndarray:
    """I x ... x op x ... x I with op on ``site``."""
    big = math.prod(dims)
    out = np.zeros((big, big), dtype=complex)
    site_view(out, dims, site)[...] = op
    return out


@functools.lru_cache(maxsize=None)
def site_index(d: int, n: int) -> np.ndarray:
    """Flat positions of a d**n x d**n matrix that its single-site marginals sum.

    Shape (n, d**(n-1), d, d), cached and read-only: entry [k, j, a, b] is the
    j-th of the positions whose sum is entry (a, b) of site k's marginal, with
    j the index of the other n-1 sites in site order, so ``x.ravel()[idx[k]]``
    holds the blocks ``site_view(x, (d,) * n, k)`` exposes.  The summed index
    sits before (a, b): numpy adds a contiguous last axis pairwise, but a
    leading one in index order, the order ``partial_trace`` adds in.
    """
    return stack_index(d, n, 1)[0]


@functools.lru_cache(maxsize=None)
def site_rows(d: int, n: int, blocks: int = 1) -> np.ndarray:
    """Row indices of a d**n x d**n matrix grouped by one site's level.

    Shape (n, d, d**(n-1)), cached and read-only: entry [k, a, j] is the row
    whose site-k level is a and whose other n-1 levels, in site order, are j.
    For a unitary v, ``v[rows[k, a]].conj().T @ v[rows[k, b]]`` is
    I x |a><b| x I, with |a><b| at site k, in the basis of v's columns.  With
    ``blocks`` b, entry [j n + k] is site k of block j of b D x b D matrices.
    """
    levels = np.arange(d**n).reshape((d,) * n)
    rows = np.stack([np.moveaxis(levels, k, 0).reshape(d, -1) + j * d**n
                     for j in range(blocks) for k in range(n)])
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=None)
def stack_index(d: int, n: int, m: int, blocks: int = 1) -> np.ndarray:
    """``site_index(d, n)`` for each diagonal block of an (m, b D, b D) stack.

    Shape (m, b n, d**(n-1), d, d), cached and read-only: flat positions in
    the whole stack, so one flat gather serves all members, with the sites of
    ``site_rows(d, n, b)``.
    """
    rows, big = site_rows(d, n, blocks).swapaxes(-1, -2), blocks * d**n
    offsets = (np.arange(m) * big**2).reshape(m, 1, 1, 1, 1)
    # C order: a gather takes its layout from the table, and its sums their order
    idx = np.ascontiguousarray(rows[..., :, None] * big + rows[..., None, :] + offsets)
    idx.setflags(write=False)
    return idx


def site_marginals(x: np.ndarray, d: int, n: int, site=None) -> np.ndarray:
    """Single-site marginals of one d**n x d**n matrix or of an (m, D, D) stack.

    All n of them, shape ([m,] n, d, d), or with ``site`` that one, shape
    ([m,] d, d).  Each equals ``partial_trace(x, (d,) * n, (k,))`` bit for
    bit: that traces the other sites out one at a time, last site first, and
    the gathered terms are summed over the same sites in the same order.  On
    a stack of b D x b D matrices, its b n sites in ``stack_index`` order.
    """
    idx = site_index(d, n) if x.ndim == 2 else stack_index(d, n, len(x), x.shape[-1] // d**n)
    # a flat gather is several times cheaper than an indexed last axis, and
    # every Newton step and trial step gathers once
    g = x.ravel()[idx if site is None else idx[..., site, :, :, :]]
    g = g.reshape(g.shape[:-3] + (d,) * (n - 1) + (d, d))
    for _ in range(n - 1):
        g = np.add.reduce(g, axis=-3)
    return g


def subtract_at_sites(x: np.ndarray, ops: np.ndarray, d: int, n: int) -> None:
    """In place, x -= sum_k I x ... x ops[k] x ... x I, with ops[k] on site k.

    On an (m, D, D) stack, ops is (m, n, d, d), one set per matrix, or
    (m, b n, d, d) on a stack of b D x b D matrices.  Each entry of x takes
    its terms in site order, as n successive ``site_view(x, dims, k)[...] -=
    ops[k]`` would.  ``x`` must be C-contiguous, as for ``site_view``.
    """
    if not x.flags.c_contiguous:
        raise ValueError("subtract_at_sites needs a C-contiguous array")
    idx = site_index(d, n) if x.ndim == 2 else stack_index(d, n, len(x), x.shape[-1] // d**n)
    np.subtract.at(x.reshape(-1), idx, ops[..., None, :, :])


def marginal_residual(mats, targets, d: int, n: int) -> float:
    """Largest Frobenius deviation of any single-site marginal from its target.

    Each target is one (d, d) marginal for every site or an (n, d, d) stack
    with one per site.  The residual of every report, by ``residual_norms``
    on one gather of each matrix's n marginals.
    """
    # matrix by matrix: stacking the list first costs a copy of every matrix;
    # np.max, unlike the builtin, keeps a NaN wherever it sits
    return float(np.max([residual_norms(site_marginals(m, d, n) - t)
                         for m, t in zip(mats, targets)]))


def residual_norms(r: np.ndarray) -> np.ndarray:
    """sqrt(max_k sum(re**2 + im**2)) over the site deviations r[..., k, :, :].

    The one residual formula: one value per matrix of a ``(..., n, d, d)``
    stack of marginal deviations, as ``marginal_residual`` and the Newton
    solver's stop test read them.
    """
    return np.sqrt((r.real**2 + r.imag**2).sum(axis=(-2, -1)).max(axis=-1))


def bloch_vector(a: np.ndarray) -> np.ndarray:
    """Real (x, y, z) with a = (tr(a) 1 + (x, y, z) . sigma) / 2 for a 2x2 Hermitian a."""
    return np.array([2.0 * a[0, 1].real, -2.0 * a[0, 1].imag, (a[0, 0] - a[1, 1]).real])
