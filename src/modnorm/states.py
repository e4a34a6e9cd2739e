"""States on M_n as density matrices, maximizing-state sets, intersections.

A state is phi = tr(rho .) for a density matrix rho.  For a positive matrix p
the states attaining |phi(p)| = ||p|| are exactly the density matrices
supported on the top eigenspace of p, so maximizing sets are carried around as
orthogonal projections.  Every witness state is pure: the numerical range of
a compression is convex, so a state under P that kills c exists iff a unit
vector in ran(P) does, which ``_compressed_zero`` finds.  The maximizing sets
of |x|^2 and |y|^2 of a ``Pair`` and their meet are kept on it, read-only,
under ("maximizers", side, cfg) and ("meet", cfg), each built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import (
    Pair,
    _hermitian_drift,
    _hermitian_eig,
    as_matrix,
    hermitian_eig,
    read_only,
    unit_scaled,
)
from .numrange import zero_unit_vector


class ZeroMatrixError(ValueError):
    """The maximizing set of the zero matrix is rejected as degenerate."""


@dataclass(frozen=True)
class DensityState:
    """A positive unit-trace matrix rho representing phi = tr(rho .).

    rho must be Hermitian within 1e-9 * max(||rho||, 1) in the spectral norm.
    The drift is bounded by its Frobenius norm first, and only a bound above
    5e-10 takes the two SVD norms of the exact check.  ``pure`` builds a
    matrix that passes these checks by construction, and skips them.
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
    def pure(xi: np.ndarray) -> "DensityState":
        """The pure state of xi: v v^H for v = xi / ||xi||, Hermitian and positive
        up to the rounding of each product and of trace 1 up to rounding, so
        it is not checked again."""
        v = np.asarray(xi, dtype=np.complex128).ravel()
        norm = np.linalg.norm(v)
        if not (np.isfinite(norm) and norm > 0.0):
            raise ValueError("a pure state needs a finite nonzero vector")
        v = v / norm
        state = object.__new__(DensityState)
        object.__setattr__(state, "rho", np.outer(v, v.conj()))
        return state


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


def _maximizers(pair: Pair, side: str, cfg: ToleranceConfig) -> SubspaceProjection:
    """Maximizing set of the Gram g of x (``side`` "x") or of y ("y").

    The set is homogeneous in g, so g is read at unit scale, where its norm
    is at least 1 unless g = 0, whose set is the whole space.  A Gram is
    positive, so neither check of ``maximizing_set`` applies to it.
    """

    def build() -> SubspaceProjection:
        g, norm = (pair.gx, pair.nx) if side == "x" else (pair.gy, pair.ny)
        basis = read_only(_hermitian_eig(unit_scaled(g, norm**2), cfg).top_space(cfg))
        return SubspaceProjection(basis, read_only(basis @ basis.conj().T))

    return pair.memo(("maximizers", side, cfg), build)


def _meet(pair: Pair, cfg: ToleranceConfig) -> np.ndarray:
    """Orthonormal basis of the meet of the two maximizing sets of the pair."""
    sets = (_maximizers(pair, side, cfg) for side in "xy")  # read on a miss only
    return pair.memo(("meet", cfg), lambda: read_only(subspace_intersection(*sets, cfg)))


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
    dec = _hermitian_eig(pqp, cfg)
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
    """A pure state supported under P with tr(rho c) ~ 0, or None.

    A density state supported under P kills c iff 0 lies in the numerical
    range of c compressed to ran(P), which is convex; then the pure state of
    ``_compressed_zero`` is one: on a one-dimensional ran(P), that of the basis
    vector when the 1 x 1 compression z has |z| <= eps_opt (1 + |z|).
    """
    m = as_matrix(c)
    if m.shape != p.projection.shape:
        raise ValueError(f"dimension mismatch: projection {p.projection.shape}, matrix {m.shape}")
    xi = _compressed_zero(p.basis, m, cfg)
    return None if xi is None else DensityState.pure(xi)


def _compressed_zero(basis: np.ndarray, c: np.ndarray, cfg: ToleranceConfig) -> np.ndarray | None:
    """A unit xi spanned by the orthonormal columns of ``basis`` with <xi, c xi> ~ 0,
    or None: the ``zero_unit_vector`` of c compressed to them, carried back."""
    if basis.shape[1] == 0:
        return None
    zero = zero_unit_vector(basis.conj().T @ c @ basis, cfg)
    return None if zero is None else basis @ zero[0]
