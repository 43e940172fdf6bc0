"""Validated density-matrix numerics: spectra, entropies, distances, tensor algebra.

All information quantities are in bits (base-2 logarithms).  Matrices stay
small (total dimension <= 64 everywhere in this package), so every spectral
routine goes through a dense Hermitian eigendecomposition.  The functions here
check their inputs and then call the raw forms in ``_kernel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from . import _kernel as _k
from ._kernel import EIG_FLOOR
from .errors import InvalidInput, NumericalFailure, malformed

#: Validity tolerance for constructor-level checks (Hermiticity, trace, PSD).
VALID_TOL = 1e-10

MatrixLike = Union[np.ndarray, "DensityMatrix", Sequence[Sequence[complex]]]

__all__ = [
    "VALID_TOL",
    "EIG_FLOOR",
    "DensityMatrix",
    "DimensionProfile",
    "as_matrix",
    "is_hermitian",
    "eig_hermitian",
    "von_neumann_entropy",
    "relative_entropy",
    "trace_norm",
    "fidelity",
    "partial_trace",
    "tensor",
    "embed_at_site",
    "matrix_function",
    "matrix_to_json",
    "matrix_from_json",
]


def as_matrix(m: MatrixLike) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray (no copy when already one)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got array of shape {a.shape}")
    return a


def is_hermitian(m: MatrixLike, tol: float = VALID_TOL) -> bool:
    """True when the matrix is square and max|M - M^dag| <= tol."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def _require_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``a`` itself, or InvalidInput if any entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise InvalidInput(f"{what} has non-finite entries")
    return a


def _require_hermitian(m: MatrixLike, tol: float = VALID_TOL) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInput(f"matrix is not square: shape {a.shape}")
    _require_finite(a)
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > tol:
        raise InvalidInput(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    return a


class DensityMatrix:
    """A validated quantum state: Hermitian, positive semidefinite, unit trace.

    The wrapped matrix is read-only; ``np.asarray(rho)`` exposes it directly,
    so instances can be passed wherever a plain ndarray is accepted.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat: MatrixLike):
        a = _require_hermitian(mat)
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > VALID_TOL:
            raise InvalidInput(f"trace must be 1, got {tr.real:.12g}{tr.imag:+.3e}j")
        try:
            evals = np.linalg.eigvalsh(_k.hermitize(a))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on <=64 dims
            raise NumericalFailure("eigenvalue computation failed") from exc
        if evals[0] < -VALID_TOL:
            raise InvalidInput(f"matrix has negative eigenvalue {evals[0]:.3e}")
        self._mat = np.array(a, dtype=complex)
        self._mat.setflags(write=False)

    @property
    def mat(self) -> np.ndarray:
        """The underlying (read-only) complex matrix."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @classmethod
    def from_statevector(cls, vec: Iterable[complex]) -> "DensityMatrix":
        """Build the pure-state projector |v><v| / <v|v> from an amplitude vector."""
        v = np.asarray(list(vec) if not isinstance(vec, np.ndarray) else vec,
                       dtype=complex).ravel()
        norm = float(np.linalg.norm(v))
        if norm <= 0.0:
            raise InvalidInput("statevector must be nonzero")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._mat.astype(dtype)
        return self._mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self._mat.shape == other._mat.shape and bool(
            np.array_equal(self._mat, other._mat)
        )

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class DimensionProfile:
    """Factorization of a total Hilbert-space dimension into local site dimensions."""

    local_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_require_int(d, "each local dimension") for d in self.local_dims)
        if len(dims) == 0:
            raise InvalidInput("dimension profile must contain at least one site")
        if any(d < 1 for d in dims):
            raise InvalidInput(f"local dimensions must be positive, got {dims}")
        object.__setattr__(self, "local_dims", dims)

    @property
    def site_count(self) -> int:
        return len(self.local_dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.local_dims))


def _require_int(value, what: str) -> int:
    """``value`` as an int, or InvalidInput unless it is an integral number."""
    try:
        k = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value:
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    return k


def _require_real(value, what: str) -> float:
    """``value`` as a float, or InvalidInput unless it is a real number (no bool or str)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInput(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInput(f"{what} is too large for a float") from None


def _real_array(rows, what: str) -> np.ndarray:
    """Nested lists of real numbers as a float array of their shape, else InvalidInput."""
    a = np.asarray(rows, dtype=object)
    return np.array([_require_real(x, what) for x in a.ravel()], dtype=float).reshape(a.shape)


def _as_profile(profile) -> DimensionProfile:
    if isinstance(profile, DimensionProfile):
        return profile
    return DimensionProfile(tuple(profile))


def _require_density(rho: MatrixLike) -> np.ndarray:
    """Return the validated matrix of a state, accepting ndarray or DensityMatrix."""
    if isinstance(rho, DensityMatrix):
        return rho.mat
    return DensityMatrix(rho).mat


def eig_hermitian(m: MatrixLike, tol: float = VALID_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(evals, evecs)`` with eigenvalues ascending and eigenvectors as
    the columns of a unitary matrix, so ``m == evecs @ diag(evals) @ evecs^dag``.
    """
    a = _require_hermitian(m, tol)
    try:
        evals, evecs = np.linalg.eigh(_k.hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("Hermitian eigendecomposition did not converge") from exc
    return evals, evecs


def von_neumann_entropy(rho: MatrixLike) -> float:
    """Entropy -Tr(rho log2 rho) in bits; eigenvalues below the floor are dropped."""
    return max(_k.entropy_bits(_require_density(rho)), 0.0)


def relative_entropy(rho: MatrixLike, sigma: MatrixLike) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns ``math.inf`` when rho carries weight outside the support of sigma
    (support detected with the eigenvalue floor).
    """
    r = _require_density(rho)
    s = _require_density(sigma)
    if r.shape != s.shape:
        raise InvalidInput(f"dimension mismatch: {r.shape[0]} vs {s.shape[0]}")
    wr, vr = np.linalg.eigh(_k.hermitize(r))
    ws, vs = np.linalg.eigh(_k.hermitize(s))
    wr = np.clip(wr, 0.0, None)
    # overlap[k, l] = |<r_k | s_l>|^2
    overlap = np.abs(vr.conj().T @ vs) ** 2
    kernel = ws <= EIG_FLOOR
    if np.any(kernel):
        mass = float(wr @ overlap[:, kernel].sum(axis=1))
        if mass > 1e-10:
            return math.inf
    keep_r = wr > EIG_FLOOR
    keep_s = ~kernel
    term_r = float((wr[keep_r] * np.log2(wr[keep_r])).sum())
    cross = overlap[np.ix_(keep_r, keep_s)] @ np.log2(ws[keep_s])
    term_s = float((wr[keep_r] * cross).sum())
    return max(term_r - term_s, 0.0)


def trace_norm(m: MatrixLike) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    a = _require_hermitian(m)
    w = np.linalg.eigvalsh(_k.hermitize(a))
    return float(np.abs(w).sum())


def fidelity(rho: MatrixLike, sigma: MatrixLike, convention: str = "squared") -> float:
    """Uhlmann fidelity between two states.

    ``convention="squared"`` (default) returns (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2;
    ``convention="root"`` returns the unsquared trace.
    """
    if convention not in ("squared", "root"):
        raise InvalidInput(f"unknown fidelity convention {convention!r}")
    r = _require_density(rho)
    s = _require_density(sigma)
    if r.shape != s.shape:
        raise InvalidInput(f"dimension mismatch: {r.shape[0]} vs {s.shape[0]}")
    root = min(max(_k.fidelity_root(r, s), 0.0), 1.0)
    return root * root if convention == "squared" else root


def partial_trace(m: MatrixLike, profile, keep) -> np.ndarray:
    """Trace out all sites not listed in ``keep``.

    ``profile`` gives the local dimension of each site; ``keep`` is a site
    index or an iterable of site indices.  Kept sites stay in their original
    order.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInput(f"partial trace needs a square matrix, got {a.shape}")
    prof = _as_profile(profile)
    dims = prof.local_dims
    if prof.total_dim != a.shape[0]:
        raise InvalidInput(
            f"profile {dims} has total dimension {prof.total_dim}, "
            f"matrix has {a.shape[0]}"
        )
    if isinstance(keep, (int, np.integer)):
        keep_set = {int(keep)}
    else:
        keep_set = {int(k) for k in keep}
    n = len(dims)
    if not keep_set:
        raise InvalidInput("keep set must not be empty")
    if not keep_set.issubset(range(n)):
        raise InvalidInput(f"keep set {sorted(keep_set)} out of range for {n} sites")
    return _k.partial_trace(a, dims, keep_set)


def tensor(m1: MatrixLike, m2: MatrixLike) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(m1), as_matrix(m2))


def embed_at_site(op: MatrixLike, profile, site: int) -> np.ndarray:
    """Embed a single-site operator as I x ... x op x ... x I."""
    prof = _as_profile(profile)
    dims = prof.local_dims
    if not 0 <= site < len(dims):
        raise InvalidInput(f"site {site} out of range for {len(dims)} sites")
    a = as_matrix(op)
    if a.shape != (dims[site], dims[site]):
        raise InvalidInput(f"operator shape {a.shape} does not match site dim {dims[site]}")
    return _k.embed_at_site(a, dims, site)


def matrix_function(m: MatrixLike, fn: str) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Supported tags: ``"log2"`` (eigenvalues floored at EIG_FLOOR), ``"sqrt"``
    (requires PSD input), and ``"inv_sqrt_on_support"`` (eigenvalues at or
    below the floor map to 0).
    """
    a = _require_hermitian(m)
    if fn not in ("log2", "sqrt", "inv_sqrt_on_support"):
        raise InvalidInput(f"unknown matrix function tag {fn!r}")
    w, v = np.linalg.eigh(_k.hermitize(a))
    if fn != "log2" and w[0] < -VALID_TOL:
        raise InvalidInput(f"{fn} needs a PSD matrix, min eigenvalue {w[0]:.3e}")
    return _k.matrix_function(a, fn, (w, v))


def matrix_to_json(m: MatrixLike) -> dict:
    """Encode a matrix as {"rows", "cols", "re", "im"} with row-major lists."""
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": [[float(x) for x in row] for row in a.real],
        "im": [[float(x) for x in row] for row in a.imag],
    }


def matrix_from_json(obj) -> np.ndarray:
    """Decode the wire format produced by :func:`matrix_to_json`."""
    if not isinstance(obj, dict):
        raise InvalidInput(f"matrix JSON must be an object, got {type(obj).__name__}")
    missing = {"rows", "cols", "re", "im"} - set(obj)
    if missing:
        raise InvalidInput(f"matrix JSON missing keys {sorted(missing)}")
    with malformed("matrix"):
        rows, cols = _require_int(obj["rows"], "rows"), _require_int(obj["cols"], "cols")
        re = _real_array(obj["re"], "matrix entry")
        im = _real_array(obj["im"], "matrix entry")
    if rows < 1 or cols < 1:
        raise InvalidInput(f"matrix dimensions must be positive, got {rows}x{cols}")
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise InvalidInput(
            f"entry arrays must both have shape ({rows}, {cols}), "
            f"got re {re.shape} and im {im.shape}"
        )
    return re + 1j * im
