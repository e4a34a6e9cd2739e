"""Vector states on M_n, maximizing sets as orthonormal bases, and their meets.

A state here is a vector state phi = <xi, . xi> of a unit vector xi.  In
finite dimension the numerical range is convex, so a state that kills c on a
subspace exists iff a unit vector in it does, which ``_compressed_zero``
finds; every witness is therefore a vector state.  For a positive matrix p the
states attaining |phi(p)| = ||p|| are those supported on the top eigenspace of
p, so a maximizing set is carried as an orthonormal basis of that eigenspace,
and the meet of two sets is read from their principal angles.  The maximizing
sets of |x|^2 and |y|^2 of a ``Pair`` and their meet are kept on it,
read-only, under ("maximizers", side, cfg) and ("meet", cfg), each built on
first read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import Pair, _hermitian_eig, as_matrix, hermitian_eig, read_only, unit_scaled
from .numrange import zero_unit_vector


class ZeroMatrixError(ValueError):
    """The maximizing set of the zero matrix is rejected as degenerate."""


@dataclass(frozen=True)
class VectorState:
    """The vector state phi = <xi, . xi>; xi is normalized on construction."""

    xi: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.xi, dtype=np.complex128).ravel()
        norm = np.linalg.norm(v)
        if not (np.isfinite(norm) and norm > 0.0):
            raise ValueError("a vector state needs a finite nonzero vector")
        object.__setattr__(self, "xi", v / norm)

    @property
    def rho(self) -> np.ndarray:
        """The density matrix xi xi^H of the state.

        Nothing in the package reads it: it is kept only because the
        benchmark's witness check (``bench/workloads.py``) evaluates a
        witness as tr(rho a).
        """
        return np.outer(self.xi, self.xi.conj())


def evaluate(phi: VectorState, a: np.ndarray) -> complex:
    """phi(a) = <xi, a xi>."""
    m = as_matrix(a)
    n = phi.xi.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"dimension mismatch: state of dimension {n}, matrix {m.shape}")
    return complex(np.vdot(phi.xi, m @ phi.xi))


def maximizing_set(p: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Read-only orthonormal basis of the top eigenspace of a nonzero positive matrix.

    Every vector state on a unit vector it spans evaluates to ||p|| on p.
    The zero test, the positivity test and the eigenspace read one decomposition.
    """
    dec = hermitian_eig(p, cfg)
    if dec.norm <= cfg.eps_eq:
        raise ZeroMatrixError("maximizing set of the zero matrix is rejected")
    if not dec.is_psd(cfg):
        raise ValueError("maximizing_set needs a positive semidefinite matrix")
    return read_only(dec.top_space(cfg))


def _maximizers(pair: Pair, side: str, cfg: ToleranceConfig) -> np.ndarray:
    """Maximizing set of the Gram g of x (``side`` "x") or of y ("y").

    The set is homogeneous in g, so g is read at unit scale, where its norm
    is at least 1 unless g = 0, whose set is the whole space.  A Gram is
    positive, so neither check of ``maximizing_set`` applies to it.
    """

    def build() -> np.ndarray:
        g, norm = (pair.gx, pair.nx) if side == "x" else (pair.gy, pair.ny)
        return read_only(_hermitian_eig(unit_scaled(g, norm**2), cfg).top_space(cfg))

    return pair.memo(("maximizers", side, cfg), build)


def _meet(pair: Pair, cfg: ToleranceConfig) -> np.ndarray:
    """Orthonormal basis of the meet of the two maximizing sets of the pair."""
    sets = (_maximizers(pair, side, cfg) for side in "xy")  # read on a miss only
    return pair.memo(("meet", cfg), lambda: read_only(subspace_intersection(*sets, cfg)))


def subspace_intersection(
    p: np.ndarray, q: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Orthonormal basis of the (numerical) intersection of the column spans of
    the orthonormal bases p and q.

    The singular values s of p^H q are the cosines of the principal angles
    (Bjorck & Golub, 1973).  The meet is spanned by p times the left singular
    vectors with s^2 >= 1 - eps_opt, the largest first: the eigenvectors of
    P Q P with eigenvalue within eps_opt of 1.
    """
    if p.shape[0] != q.shape[0]:
        raise ValueError("subspaces live in different ambient dimensions")
    u, s, _ = np.linalg.svd(p.conj().T @ q, full_matrices=False)
    return p @ u[:, s**2 >= 1.0 - cfg.eps_opt]


def witness_in_set_with_zero(
    basis: np.ndarray, c: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> VectorState | None:
    """A vector state on a unit vector spanned by the orthonormal ``basis`` with
    <xi, c xi> ~ 0, or None.

    A state supported on the span kills c iff 0 lies in the numerical range
    of c compressed to it, which is convex; then the vector state of
    ``_compressed_zero`` is one: on a one-dimensional span, that of the basis
    vector when the 1 x 1 compression z has |z| <= eps_opt (1 + |z|).
    """
    m = as_matrix(c)
    if m.shape != (basis.shape[0],) * 2:
        raise ValueError(f"dimension mismatch: basis {basis.shape}, matrix {m.shape}")
    xi = _compressed_zero(basis, m, cfg)
    return None if xi is None else VectorState(xi)


def _compressed_zero(basis: np.ndarray, c: np.ndarray, cfg: ToleranceConfig) -> np.ndarray | None:
    """A unit xi spanned by the orthonormal columns of ``basis`` with <xi, c xi> ~ 0,
    or None: the ``zero_unit_vector`` of c compressed to them, carried back."""
    if basis.shape[1] == 0:
        return None
    zero = zero_unit_vector(basis.conj().T @ c @ basis, cfg)
    return None if zero is None else basis @ zero[0]
