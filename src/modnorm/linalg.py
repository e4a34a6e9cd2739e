"""Dense complex linear algebra primitives.

Matrices are plain complex ``np.ndarray`` values; every function validates its
input and treats it as immutable.  All spectral machinery reduces to Hermitian
eigendecomposition and SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig


class NonHermitianError(ValueError):
    """Input expected to be Hermitian is not, beyond tolerance."""


class NonSquareError(ValueError):
    """Input expected to be square is not."""


def as_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and return a 2-d finite complex array (no copy if possible)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def real_part(a: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Hermitian part (a + a*) / 2 of a square matrix."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"real_part needs a square matrix, got {m.shape}")
    return (m + m.conj().T) / 2


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(
    h: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Inputs within eps_eq of Hermitian are symmetrized first so floating-point
    drift cannot poison downstream spectral logic.
    """
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"hermitian_eig needs a square matrix, got {m.shape}")
    scale = np.linalg.norm(m, 2) if m.any() else 0.0
    drift = np.linalg.norm(m - m.conj().T, 2)
    if drift > cfg.eps_eq * max(scale, 1e-300) and drift > cfg.eps_eq:
        raise NonHermitianError(f"matrix is not Hermitian (residual {drift:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    order = np.argsort(w)[::-1]
    return SpectralDecomposition(eigenvalues=w[order], eigenvectors=v[:, order])


def spectral_norm(a: np.ndarray) -> float:
    """Operator (largest singular value) norm."""
    m = as_matrix(a)
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def modulus(x: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Positive square root of x*x."""
    m = as_matrix(x)
    dec = hermitian_eig(m.conj().T @ m, cfg)
    w = np.clip(dec.eigenvalues, 0.0, None)
    v = dec.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T


def min_modulus(a: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Smallest eigenvalue of the modulus |a|; the infimum of state values on |a|.

    Equals the smallest singular value of a; strictly positive iff a is invertible.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"min_modulus needs a square matrix, got {m.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1])


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values, descending."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def numeric_rank(a: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> int:
    """Count of singular values above the relative cutoff eps_rank * sigma_max."""
    s = singular_values(a)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > cfg.eps_rank * s[0]))


def psd_check(h: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """True iff the Hermitian matrix h is positive semidefinite within eps_eq."""
    dec = hermitian_eig(h, cfg)
    scale = max(abs(dec.eigenvalues[0]), abs(dec.eigenvalues[-1]))
    return bool(dec.eigenvalues[-1] >= -cfg.eps_eq * max(scale, 1.0))


def top_eigenspace(
    h: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG, rel_tol: float | None = None
) -> np.ndarray:
    """Orthonormal basis of the eigenspace of eigenvalues within tolerance of the top."""
    dec = hermitian_eig(h, cfg)
    tol = (rel_tol if rel_tol is not None else cfg.eps_eq) * max(abs(dec.eigenvalues[0]), 1e-300)
    keep = dec.eigenvalues >= dec.eigenvalues[0] - tol
    return dec.eigenvectors[:, keep]


def top_right_singular_subspace(
    a: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG, rel_tol: float | None = None
) -> np.ndarray:
    """Orthonormal basis of right singular vectors attaining the top singular value."""
    m = as_matrix(a)
    _, s, vh = np.linalg.svd(m)
    if s[0] == 0.0:
        return np.eye(m.shape[1], dtype=np.complex128)
    tol = (rel_tol if rel_tol is not None else cfg.eps_eq) * s[0]
    keep = s >= s[0] - tol
    # a wide matrix has more rows of vh than singular values
    return vh[: s.size][keep].conj().T
