"""Graph Fourier analysis for importance-weighted signal spaces.

The Fourier basis diagonalizes the Laplacian variation under the inner
product <x, y> = y^T diag(q) x, i.e. it solves the generalized eigenproblem
L u = lambda * diag(q) * u with modes orthonormal in that inner product.
Because q is diagonal, the problem reduces exactly to a standard symmetric
eigenproblem after scaling by q^(-1/2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _frozen_array

_SYM_TOL = 1e-10
_ZERO_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of the importance-weighted Fourier basis.

    ``lambdas`` ascend and are clipped at zero; ``modes`` holds one Fourier
    mode per column, orthonormal under diag(q); the sign of each mode is
    fixed so its first nonzero entry is positive.
    """

    lambdas: np.ndarray
    modes: np.ndarray
    q: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]


def _check_symmetric(L) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    if np.max(np.abs(L - L.T), initial=0.0) > _SYM_TOL:
        raise ValueError("matrix is not symmetric")
    return (L + L.T) / 2.0


def _check_importances(q, n) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"importance vector must have length {n}, got shape {q.shape}")
    if np.any(~np.isfinite(q)) or np.any(q <= 0):
        raise ValueError("importances must be finite and strictly positive")
    return q


def compute_gft(L, q) -> Spectrum:
    """Solve L u = lambda * diag(q) * u for a full Q-orthonormal basis.

    Deterministic up to machine rounding: the reduction to a standard
    symmetric eigenproblem is exact for diagonal q, and each mode's sign is
    normalized afterwards.
    """
    L = _check_symmetric(L)
    n = L.shape[0]
    q = _check_importances(q, n)

    rootinv = 1.0 / np.sqrt(q)
    M = rootinv[:, None] * L * rootinv[None, :]
    M = (M + M.T) / 2.0
    lam, Y = np.linalg.eigh(M)
    lam = np.maximum(lam, 0.0)
    U = rootinv[:, None] * Y

    first = np.argmax(np.abs(U) > 1e-12, axis=0)
    U[:, U[first, np.arange(n)] < 0] *= -1.0

    return Spectrum(lambdas=_frozen_array(lam), modes=_frozen_array(U), q=_frozen_array(q))


def forward_gft(spectrum: Spectrum, x) -> np.ndarray:
    """Analysis transform: spectral coefficients U^T diag(q) x."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != spectrum.n:
        raise ValueError(f"signal has {x.shape[0]} entries, expected {spectrum.n}")
    weighted = spectrum.q[:, None] * x if x.ndim > 1 else spectrum.q * x
    return spectrum.modes.T @ weighted


def inverse_gft(spectrum: Spectrum, xhat) -> np.ndarray:
    """Synthesis transform: signal U xhat."""
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape[0] != spectrum.n:
        raise ValueError(f"coefficients have {xhat.shape[0]} entries, expected {spectrum.n}")
    return spectrum.modes @ xhat


def model_covariance(L, q) -> np.ndarray:
    """Covariance (diag(q) + L)^(-1) of the smooth stationary signal model.

    diag(q) + L is positive definite whenever q > 0, so the inverse always
    exists; the result is symmetrized exactly.
    """
    L = _check_symmetric(L)
    q = _check_importances(q, L.shape[0])
    sigma = np.linalg.inv(np.diag(q) + L)
    return (sigma + sigma.T) / 2.0


def joint_model_psd(lam) -> np.ndarray:
    """Spectral variance profile 1/(1 + lambda), finite at zero frequency."""
    lam = np.asarray(lam, dtype=float)
    return 1.0 / (1.0 + lam)


def laplacian_model_psd(lam) -> np.ndarray:
    """Spectral variance profile of the pure-Laplacian model: 0 at the DC
    eigenvalue and 1/lambda elsewhere."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    positive = lam > _ZERO_EIGENVALUE_TOL
    out[positive] = 1.0 / lam[positive]
    return out


def sample_stationary_signals(spectrum: Spectrum, psd, count, seed) -> np.ndarray:
    """Draw ``count`` zero-mean signals with uncorrelated spectral components.

    Each signal is U * sqrt(gamma) * z with z standard normal, so the
    model covariance is U diag(gamma) U^T. Output is (count, n), one signal
    per row, fully determined by ``seed``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    gamma = np.asarray(psd(spectrum.lambdas), dtype=float)
    if gamma.shape != spectrum.lambdas.shape or np.any(gamma < 0):
        raise ValueError("psd must map the eigenvalues to nonnegative variances")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((spectrum.n, int(count)))
    return (spectrum.modes @ (np.sqrt(gamma)[:, None] * z)).T
