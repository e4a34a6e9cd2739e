"""States on M_n as density matrices, maximizing-state sets, intersections.

A state is phi = tr(rho .) for a density matrix rho.  For a positive matrix p
the states attaining |phi(p)| = ||p|| are exactly the density matrices
supported on the top eigenspace of p, so maximizing sets are carried around as
orthogonal projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import _hermitian_drift, _spectral_norm, as_matrix, hermitian_eig, unit_scaled
from .numrange import chord_through_zero


class ZeroMatrixError(ValueError):
    """The maximizing set of the zero matrix is rejected as degenerate."""


@dataclass(frozen=True)
class DensityState:
    """A positive unit-trace matrix rho representing phi = tr(rho .).

    rho must be Hermitian within 1e-9 * max(||rho||, 1) in the spectral norm.
    The drift is bounded by its Frobenius norm first, and only a bound above
    5e-10 takes the two SVD norms of the exact check.  ``pure`` and ``mix``
    (with nonnegative real weights) build matrices that pass these checks by
    construction, and skip them.
    """

    rho: np.ndarray

    def __post_init__(self) -> None:
        m = as_matrix(self.rho)
        if m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if _hermitian_drift(m, 1e-9) is not None:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh((m + m.conj().T) / 2)[0] < -1e-9:
            raise ValueError("density matrix must be positive semidefinite")

    @staticmethod
    def _unchecked(rho: np.ndarray) -> "DensityState":
        """A state whose rho is a density matrix by construction."""
        state = object.__new__(DensityState)
        object.__setattr__(state, "rho", rho)
        return state

    @staticmethod
    def pure(xi: np.ndarray) -> "DensityState":
        """The pure state of xi: v v^H for v = xi / ||xi||, Hermitian and positive
        up to the rounding of each product and of trace 1 up to rounding, so
        it is not checked again."""
        v = np.asarray(xi, dtype=np.complex128).ravel()
        norm = np.linalg.norm(v)
        if not (np.isfinite(norm) and norm > 0.0):
            raise ValueError("a pure state needs a finite nonzero vector")
        v = v / norm
        return DensityState._unchecked(np.outer(v, v.conj()))

    @staticmethod
    def mix(states: list[tuple[float, "DensityState"]]) -> "DensityState":
        """The normalized combination of the states' rho.  With nonnegative
        real weights it is a convex combination of density matrices, so it
        is not checked again; any other weight takes the checks of the
        constructor."""
        rho = sum(w * s.rho for w, s in states)
        trace = np.trace(rho).real
        if not trace > 0.0:
            raise ValueError("a mixture needs a positive total trace")
        rho = rho / trace
        if all(isinstance(w, Real) and w >= 0 for w, _ in states) and np.isfinite(rho).all():
            return DensityState._unchecked(rho)
        return DensityState(rho=rho)


def evaluate(phi: DensityState, a: np.ndarray) -> complex:
    """phi(a) = tr(rho a)."""
    m = as_matrix(a)
    if m.shape != phi.rho.shape:
        raise ValueError(f"dimension mismatch: state {phi.rho.shape}, matrix {m.shape}")
    return complex(np.trace(phi.rho @ m))


@dataclass(frozen=True)
class SubspaceProjection:
    """Orthonormal basis columns and the orthogonal projection they span."""

    basis: np.ndarray
    projection: np.ndarray

    @staticmethod
    def from_basis(basis: np.ndarray) -> "SubspaceProjection":
        b = np.asarray(basis, dtype=np.complex128)
        if b.ndim != 2:
            raise ValueError("basis must be a matrix of column vectors")
        return SubspaceProjection(basis=b, projection=b @ b.conj().T)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def maximizing_set(
    p: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> SubspaceProjection:
    """Projection onto the top eigenspace of a nonzero positive matrix.

    Every density state supported under the projection evaluates to ||p|| on p.
    The zero test, the positivity test and the eigenspace read one decomposition.
    """
    dec = hermitian_eig(p, cfg)
    if dec.norm <= cfg.eps_eq:
        raise ZeroMatrixError("maximizing set of the zero matrix is rejected")
    if not dec.is_psd(cfg):
        raise ValueError("maximizing_set needs a positive semidefinite matrix")
    return SubspaceProjection.from_basis(dec.top_space(cfg))


def _maximizers(g: np.ndarray, norm: float, cfg: ToleranceConfig) -> SubspaceProjection:
    """Maximizing set of the Gram g = |m|^2 of a matrix m of norm ``norm`` > eps_eq.

    The set is homogeneous in g, so g is read at unit scale: a matrix the
    pair does not count as zero is never rejected as the zero matrix.
    """
    return maximizing_set(unit_scaled(g, norm**2), cfg)


def subspace_intersection(
    p: SubspaceProjection,
    q: SubspaceProjection,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Orthonormal basis of the (numerical) intersection of two subspaces.

    Vectors are eigenvectors of P Q P with eigenvalue within eps_opt of 1
    (squared cosines of principal angles), the largest first.
    """
    if p.projection.shape != q.projection.shape:
        raise ValueError("subspaces live in different ambient dimensions")
    pqp = p.projection @ q.projection @ p.projection
    dec = hermitian_eig(pqp, cfg)
    keep = dec.eigenvalues >= 1.0 - cfg.eps_opt
    return dec.eigenvectors[:, keep]


def sets_intersect(
    p: SubspaceProjection,
    q: SubspaceProjection,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> tuple[bool, DensityState | None]:
    """Whether the subspaces meet, by ``subspace_intersection``, and a pure
    witness state on the first vector of the intersection."""
    inter = subspace_intersection(p, q, cfg)
    if inter.shape[1] == 0:
        return False, None
    return True, DensityState.pure(inter[:, 0])


def witness_in_set_with_zero(
    p: SubspaceProjection,
    c: np.ndarray,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> DensityState | None:
    """A density state supported under P with tr(rho c) ~ 0, or None.

    Exists iff 0 lies in the numerical range of c compressed to ran(P); the
    witness is a convex combination of at most two pure states built from the
    chord of the compressed range through the origin.  On a one-dimensional
    ran(P) the range is the point z of the 1 x 1 compression, and the witness
    is the pure state of the basis vector when the chord would accept it:
    |z| <= eps_opt (1 + |z|), or, on the chord's near-zero branch,
    |z| <= eps_eq and |z| <= eps_opt (1 + ||c||), which only a config with
    eps_opt < eps_eq reaches.
    """
    m = as_matrix(c)
    if m.shape != p.projection.shape:
        raise ValueError(f"dimension mismatch: projection {p.projection.shape}, matrix {m.shape}")
    if p.dim == 0:
        return None
    comp = p.basis.conj().T @ m @ p.basis
    if p.dim == 1:
        z = abs(comp[0, 0])
        if z <= cfg.eps_opt * (1.0 + z) or (
            z <= cfg.eps_eq and z <= cfg.eps_opt * (1.0 + _spectral_norm(m))
        ):
            return DensityState.pure(p.basis[:, 0])
        return None
    chord = chord_through_zero(comp, cfg)
    if chord is None:
        return None
    xi1, xi2, t, resid = chord
    if resid > cfg.eps_opt * (1.0 + _spectral_norm(m)):
        return None
    v1 = p.basis @ xi1
    v2 = p.basis @ xi2
    # the chord weight t interpolates from the first point toward the second
    if t >= 1.0 - 1e-15:
        return DensityState.pure(v2)
    if t <= 1e-15:
        return DensityState.pure(v1)
    return DensityState.mix([(1.0 - t, DensityState.pure(v1)), (t, DensityState.pure(v2))])
