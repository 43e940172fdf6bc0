"""Newton on the site multipliers: the one solver of projections onto extension sets.

An extension set is {X : every single-site marginal of X = its target}, over
d**n x d**n matrices.  ``solve`` projects onto it in the Bregman geometry of a
spectral map phi, by Newton steps on the projection's dual in the n site
multipliers: P+ (``CLIP``) gives the Euclidean projection onto the PSD
matrices of the set, exp (``EXP``) the relative-entropy projection onto its
positive definite matrices.  On a matrix of b diagonal blocks the sites are
the (block, site) pairs.  ``extopt`` calls it through ``_newton_project``,
``_entropic_project`` and ``_prox_linear``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _kernel as _k
from .ensemble import FEAS_TOL
from .errors import NumericalFailure

#: Armijo sufficient-decrease constant.
ARMIJO_C = 1e-4
#: Cap on the steps of every Newton projection.
PROJECTION_STEPS = 500
#: A projection returns once the marginal residual is at most this.
PROJECTION_TOL = 1e-9


def clip_differences(w: np.ndarray) -> np.ndarray:
    """Omega of P+: 1 between positive eigenvalues, 0 between the rest, and
    the difference quotient across the sign change."""
    pos = w > 0.0
    clipped = np.maximum(w, 0.0)
    same = pos[..., :, None] == pos[..., None, :]
    return np.where(same, pos[..., :, None], (clipped[..., :, None] - clipped[..., None, :])
                    / np.where(same, 1.0, w[..., :, None] - w[..., None, :]))


def exp_differences(w: np.ndarray) -> np.ndarray:
    """Gamma of exp between eigenvalues a and b, as e^max(a, b) (1 - e^-|a - b|)
    / |a - b|: no factor exceeds e^max(a, b), so no entry overflows."""
    a, b = w[..., :, None], w[..., None, :]
    gap = np.abs(a - b)
    return np.exp(np.maximum(a, b)) * np.divide(-np.expm1(-gap), gap,
                                                out=np.ones_like(gap), where=gap > 0.0)


def capped_exp(w: np.ndarray) -> np.ndarray:
    """exp(min(w, 300)).  The solution has unit trace: a trial step that
    overshoots reads a dual value of at least e^300, which no line search
    accepts, where it would overflow in exp or in its residual's squares."""
    return np.exp(np.minimum(w, 300.0))


# A spectral map of the solver is a triple: phi on each eigenvalue; the
# dual's spectral term sum Phi(w), Phi' = phi, per matrix of a stack, read
# off phi(w); and the Lowner divided differences of phi.
#: P+, for the Euclidean projection: the dual term is |P+(z)|^2 / 2.
CLIP = (lambda w: np.maximum(w, 0.0),
        lambda p: 0.5 * np.vecdot(p, p),
        clip_differences)
#: exp, for the relative-entropy projection: the dual term is Tr exp(z).
EXP = (capped_exp, lambda p: p.sum(axis=-1), exp_differences)


def dual_point(x: np.ndarray, mults: np.ndarray, target: np.ndarray, d: int, n: int,
               spectral: tuple, basis: Optional[np.ndarray] = None) -> list:
    """The dual's primal points phi(x + sum_k mults[:, k] at site k), per member.

    ``x`` is one (D, D) matrix shared by every member, ``mults`` (m, n, d, d)
    and ``target`` (m, 1, d, d) or (m, n, d, d).  With ``basis`` (orthonormal
    columns B) phi acts on B's span: B phi(B^dag z B) B^dag, eigenvectors
    lifted by B.
    Returns ``[mults, X, w, v, g, f, resid]``: the primal points X, the
    eigenpairs (w, v) of the shifted matrices, the dual gradient
    g[:, k] = target_k - marginal_k(X), the dual objective to minimise,
    f = sum Phi(w) - sum_k <mults[:, k], target_k>, and each residual,
    ``_kernel.residual_norms`` of g.
    """
    z = np.empty(mults.shape[:1] + x.shape, dtype=complex)
    z[...] = x
    _k.subtract_at_sites(z, -mults, d, n)
    if basis is None:
        w, v = np.linalg.eigh(z)
    else:
        w, v = np.linalg.eigh(basis.conj().T @ z @ basis)
        v = basis @ v
    phi = spectral[0](w)
    X = (v * phi[..., None, :]) @ v.conj().swapaxes(-1, -2)
    g = target - _k.site_marginals(X, d, n)
    f = spectral[1](phi) - (mults.conj() * target).real.sum(axis=(-3, -2, -1))
    return [mults, X, w, v, g, f, _k.residual_norms(g)]


def site_hessian(v: np.ndarray, divided: np.ndarray, d: int, n: int) -> np.ndarray:
    """The dual's generalized Hessian in the site matrix units |a><b|, per member.

    Entry [(k, a, b), (l, c, e)] is <U_kab, divided o U_lce>, where U_kab is
    I x |a><b| x I at site k in the eigenbasis v, and ``divided`` holds the
    spectral map's divided differences: Omega for P+, Gamma for exp.
    """
    m, big = v.shape[0], v.shape[-1]
    u = v[:, _k.site_rows(d, n, v.shape[-2] // d**n)]  # (m, b n, d, D/d, D)
    units = (u.conj().swapaxes(-1, -2)[:, :, :, None] @ u[:, :, None]).reshape(m, -1, big * big)
    return units.conj() @ (units * divided.reshape(m, 1, big * big)).swapaxes(-1, -2)


def solve(x: np.ndarray, target: np.ndarray, d: int, n: int, spectral: tuple,
          mults: Optional[np.ndarray] = None, basis: Optional[np.ndarray] = None,
          tol: float = PROJECTION_TOL):
    """Newton on the site multipliers: the projection phi(x + sum_k Y_k) of each member.

    For each member i, minimises the dual sum Phi(eig z_i) - sum_k <Y_ik,
    target_ik> over its site multipliers, z_i = x + sum_k Y_ik at site k;
    its minimiser phi(z_i) meets every site marginal.  With P+ that is the
    Euclidean projection of x onto {X psd, marginals = target}, with exp the
    relative-entropy projection of exp(x) onto {X > 0, marginals = target}.

    Semismooth Newton (Malick, SIAM J. Matrix Anal. Appl. 26, 272 (2004); Qi
    and Sun, ibid. 28, 360 (2006)).  Each step solves the Hessian
    (site_hessian) plus a ridge |g|^2 clipped to [1e-12, 1e-3], by LU.  The
    ridge fixes the directions the Hessian leaves flat (trace shifts that
    cancel across sites, multipliers that vanish on a face or on a set with
    no interior point); as |g|^2 it keeps Newton fast where the Hessian is
    singular at the solution (Yamashita and Fukushima, Computing Suppl. 15,
    239 (2001)), and its floor stays above the rounding of the Hessian's
    diagonal, where LU would meet a singular system.  A step passes
    Armijo backtracking on the dual, or at full length when it at least
    halves the marginal residual, since near the solution the dual's change
    falls below rounding well before the residual reaches ``tol``.  A member
    stops at ``tol``, once no step passes (its sufficient decrease rounds
    away), or after PROJECTION_STEPS steps; an end above max(tol, FEAS_TOL)
    raises NumericalFailure.

    ``x`` is one (D, D) matrix for all members, or one (b D, b D) matrix of b
    diagonal blocks with n sites each, ``target`` (m, 1, d, d) or (m, b n, d,
    d), and ``mults`` (m, b n, d, d) warm-starts the multipliers.
    The members run as one stack, each with its own steps and step sizes, so
    each gets the bits it would get alone.  Returns the primal points, the
    multipliers and the spectra w of the shifted matrices, stacked over
    members.
    """
    m = len(target)
    x = _k.hermitize(x)
    sites = x.shape[-1] // d**n * n
    mults = np.zeros((m, sites, d, d), dtype=complex) if mults is None else mults.copy()
    state = dual_point(x, mults, target, d, n, spectral, basis)
    stuck = [False] * m
    for it in range(PROJECTION_STEPS):
        live = [i for i in range(m) if state[-1][i] > tol and not stuck[i]]
        if not live:
            break
        # while every member runs, the whole arrays stand in for gathers
        everyone = len(live) == m
        mults, _, w, v, g, f, resid = state if everyone else [a[live] for a in state]
        ts = target if everyone else target[live]
        hess = site_hessian(v, spectral[2](w), d, n)
        flat = g.reshape(len(live), -1)
        ridge = np.clip(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag),
                        1e-12, 1e-3)
        hess.reshape(len(live), -1)[:, ::flat.shape[-1] + 1] += ridge[:, None]  # on the diagonal
        step = np.linalg.solve(hess, flat[..., None])
        step = _k.hermitize(step.reshape(g.shape))
        slope = np.vecdot(flat, step.reshape(len(live), -1)).real
        t = [1.0] * len(live)
        todo = range(len(live))
        while todo:
            # one trial for every live member, at mults + t * step (step is
            # rescaled in place); only the members still searching count
            trial = dual_point(x, mults + step, ts, d, n, spectral, basis)
            passed = []
            for j in todo:
                drop = ARMIJO_C * t[j] * slope[j]
                if trial[5][j] <= f[j] - drop or (t[j] == 1.0 and trial[6][j] <= 0.5 * resid[j]):
                    passed.append(j)
                elif f[j] - 0.5 * drop >= f[j]:
                    stuck[live[j]] = True  # the next step's decrease would round away
            if len(passed) == m:
                state = trial
                break
            for a, b in zip(state, trial):
                a[[live[j] for j in passed]] = b[passed]
            todo = [j for j in todo if j not in passed and not stuck[live[j]]]
            for j in todo:
                t[j] *= 0.5
                step[j] *= 0.5
    worst = float(state[-1].max())
    if worst > max(tol, FEAS_TOL):
        raise NumericalFailure(
            f"Newton projection stalled at marginal residual {worst:.3e} "
            f"after {it + 1} steps"
        )
    return state[1], state[0], state[2]
