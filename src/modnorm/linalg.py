"""Dense complex linear algebra primitives.

Matrices are plain complex ``np.ndarray`` values, treated as immutable.  The
public functions validate their input with ``as_matrix``.  ``_spectral_norm``,
``_hermitian_eig`` and ``_top_right_subspace`` are the cores of
``spectral_norm``, ``hermitian_eig`` and ``top_right_singular_subspace``: they
skip the validation, and package code calls them on arrays it has validated
or built from validated ones.  All spectral machinery reduces to Hermitian
eigendecomposition and SVD, one LAPACK call per quantity.
``shared_pair`` reads each normalized ``Pair`` through one process-wide table.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, EPS_RANK, ToleranceConfig


class NonHermitianError(ValueError):
    """Input expected to be Hermitian is not, beyond tolerance."""


class ShapeError(ValueError):
    """Matrix shapes do not fit the operation."""


class NonSquareError(ShapeError):
    """Input expected to be square is not."""


def as_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and return a 2-d finite complex array (no copy if possible)."""
    m = _two_d(a)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _two_d(a: np.ndarray) -> np.ndarray:
    """a as a complex array, checked to be a nonempty 2-d matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def read_only(m: np.ndarray) -> np.ndarray:
    """m with its writeable flag cleared, so it can be shared between callers."""
    m.setflags(write=False)
    return m


# Pairs the shared table keeps.  A few cover the calls a caller makes back to
# back on one pair.
_SHARED_ENTRIES = 16


class _SharedTable:
    """Values built once per key and shared, least recently used evicted first.

    A build must be a deterministic function of its key, and whatever a value
    computes later must be too: a hit then returns what a fresh build would.
    Two threads that miss together both build, and either value may be kept.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], object]) -> object:
        """The value kept for ``key``, built by ``build()`` on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                return value
        value = build()
        with self._lock:
            self._entries[key] = value
            if len(self._entries) > _SHARED_ENTRIES:
                self._entries.popitem(last=False)
        return value


def _parts(m: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of a complex matrix, as one float view."""
    return np.ascontiguousarray(m).view(np.float64)


def _times_power_of_two(m: np.ndarray, e: int) -> np.ndarray:
    """m * 2^e, exact: the factor 2^e itself is never formed, so it cannot overflow."""
    return np.ldexp(_parts(m), e).view(np.complex128)


def unit_exponent(norm: float) -> int:
    """The k with norm * 2^k in [1, 2); 0 when ``norm`` is 0."""
    return 1 - int(np.frexp(norm)[1]) if norm > 0.0 else 0


def unit_scaled(m: np.ndarray, norm: float) -> np.ndarray:
    """m times 2^unit_exponent(norm), where ``norm`` is the norm of m.

    The scaling is exact.  A quantity homogeneous in m (a maximizing set, or
    whether 0 lies in a numerical range) then reads m at one scale, so an
    absolute zero cut or tolerance downstream acts relative to ``norm``.
    """
    return _times_power_of_two(m, unit_exponent(norm))


class Pair:
    """A validated pair (x, y) of equal shape, divided by one power of two.

    ``x`` and ``y`` are the caller's matrices times 2^-exponent, where the
    exponent puts the largest |Re| or |Im| entry of either in [1, 2); the
    zero pair keeps exponent 0.  Scaling by a power of two is exact, so
    (2^k x, 2^k y) gives bit-identical normalized matrices and every verdict
    read from them is scale-free.  ||x||, ||y||, x^H x, y^H y and x^H y of
    the normalized pair, bases of its joint column and row spaces, and
    whatever a decider keeps with ``memo`` (the lattice pencil split into
    joint blocks, lattice profiles, the min-lambda solution, maximizing
    sets) are computed on first read and kept, so a caller that needs only
    the normalized bits pays for none of them.  Every array is read-only, so
    a ``Pair`` and what is built from it can be shared.
    """

    __slots__ = ("x", "y", "exponent", "_known")

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        xm, ym = _two_d(x), _two_d(y)
        if xm.shape != ym.shape:
            raise ShapeError(f"shape mismatch: {xm.shape} vs {ym.shape}")
        # both matrices in one contiguous stack: one finiteness test, read off
        # the largest |Re| or |Im| entry (inf or NaN when some entry is not
        # finite), and one exact scaling
        stack = np.empty((2, *xm.shape), dtype=np.complex128)
        stack[0], stack[1] = xm, ym
        parts = stack.view(np.float64)
        top = float(np.abs(parts).max())
        if not math.isfinite(top):
            raise ValueError("matrix entries must be finite")
        self.exponent = math.frexp(top)[1] - 1 if top > 0.0 else 0
        stack = read_only(np.ldexp(parts, -self.exponent, out=parts).view(np.complex128))
        self.x, self.y = stack
        self._known: dict[Hashable, object] = {}

    def memo(self, key: Hashable, compute: Callable[[], object]) -> object:
        """The value kept under ``key``, ``compute()`` on first read: never None,
        a deterministic function of the normalized bits and of ``key``."""
        value = self._known.get(key)
        if value is None:
            # threads that miss together compute identical values; one is kept
            value = self._known.setdefault(key, compute())
        return value

    @property
    def nx(self) -> float:
        return self.memo("nx", lambda: _spectral_norm(self.x))

    @property
    def ny(self) -> float:
        return self.memo("ny", lambda: _spectral_norm(self.y))

    @property
    def gx(self) -> np.ndarray:
        return self.memo("gx", lambda: read_only(self.x.conj().T @ self.x))

    @property
    def gy(self) -> np.ndarray:
        return self.memo("gy", lambda: read_only(self.y.conj().T @ self.y))

    @property
    def inner(self) -> np.ndarray:
        """x^H y."""
        return self.memo("inner", lambda: read_only(self.x.conj().T @ self.y))

    @property
    def column_space(self) -> np.ndarray:
        """Orthonormal basis of range([x, y]), the pair's joint column space."""
        return self.memo("column_space", lambda: _joint_range(self.x, self.y, self.nx, self.ny))

    @property
    def row_space(self) -> np.ndarray:
        """Orthonormal basis of range([x^H, y^H]), the pair's joint row space."""
        return self.memo(
            "row_space",
            lambda: _joint_range(self.x.conj().T, self.y.conj().T, self.nx, self.ny),
        )


def _joint_range(x: np.ndarray, y: np.ndarray, nx: float, ny: float) -> np.ndarray:
    """Orthonormal basis of range([x / nx, y / ny]) from one SVD, a zero block
    left out.

    Each block is divided by its own norm, and only singular values at
    rounding level, max(m, n) eps s_0, are cut.  So the basis is the same for
    (alpha x, beta y), and a direction that either matrix uses is kept
    however small that matrix is beside the other.
    """
    blocks = [m / norm for m, norm in ((x, nx), (y, ny)) if norm > 0.0]
    if not blocks:
        return read_only(np.zeros((x.shape[0], 0), dtype=np.complex128))
    u, s, _ = np.linalg.svd(np.hstack(blocks), full_matrices=False)
    kept = np.count_nonzero(s > max(x.shape) * 2.0**-52 * s[0])
    return read_only(u[:, :kept])


# The recently read pairs, each with what it keeps, keyed by normalized bits.
_shared_pairs = _SharedTable()


def shared_pair(x: np.ndarray, y: np.ndarray) -> Pair:
    """``Pair(x, y)`` with the caller's ``exponent``, keeping what it computes
    with the recent pair of the same shape and normalized bits: (2^k x, 2^k y)
    reads what (x, y) computed, while a write into the caller's arrays, or
    (y, x), is another key."""
    pair = Pair(x, y)
    key = (pair.x.shape, pair.x.tobytes(), pair.y.tobytes())
    pair._known = _shared_pairs.get(key, lambda: pair)._known
    return pair


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def real_part(a: np.ndarray) -> np.ndarray:
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

    @property
    def norm(self) -> float:
        """Spectral norm: the largest eigenvalue modulus."""
        return float(max(abs(self.eigenvalues[0]), abs(self.eigenvalues[-1])))

    def is_psd(self, cfg: ToleranceConfig = DEFAULT_CONFIG) -> bool:
        """True iff no eigenvalue lies below -eps_eq * max(||h||, 1)."""
        return bool(self.eigenvalues[-1] >= -cfg.eps_eq * max(self.norm, 1.0))

    def top_space(
        self, cfg: ToleranceConfig = DEFAULT_CONFIG, rel_tol: float | None = None
    ) -> np.ndarray:
        """Eigenvectors of the eigenvalues within rel_tol (default eps_eq) of the top."""
        top = self.eigenvalues[0]
        tol = (rel_tol if rel_tol is not None else cfg.eps_eq) * max(abs(top), 1e-300)
        return self.eigenvectors[:, self.eigenvalues >= top - tol]


def hermitian_eig(
    h: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Inputs within eps_eq of Hermitian are symmetrized first so floating-point
    drift cannot poison downstream spectral logic.  The drift is bounded by
    its Frobenius norm first, and only a bound above eps_eq / 2 takes the two
    SVD norms of the exact gate (see ``_hermitian_drift``).
    """
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"hermitian_eig needs a square matrix, got {m.shape}")
    return _hermitian_eig(m, cfg)


def _hermitian_eig(m: np.ndarray, cfg: ToleranceConfig) -> SpectralDecomposition:
    """``hermitian_eig`` on a validated square matrix."""
    drift = _hermitian_drift(m, cfg.eps_eq)
    if drift is not None:
        raise NonHermitianError(f"matrix is not Hermitian (residual {drift:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    order = np.argsort(w)[::-1]
    return SpectralDecomposition(eigenvalues=w[order], eigenvectors=v[:, order])


def _hermitian_drift(m: np.ndarray, tol: float) -> float | None:
    """||m - m^H||_2 when it exceeds tol * max(||m||_2, 1), else None.

    Since ||K||_2 <= ||K||_F, a Frobenius drift within tol / 2 passes without
    an SVD; the margin of one half keeps the verdict that of the two SVD
    norms despite the rounding of either.  Any other drift takes both.
    """
    k = m - m.conj().T
    if np.linalg.norm(k) <= 0.5 * tol:
        return None
    drift = _spectral_norm(k)
    return drift if drift > tol * max(_spectral_norm(m), 1.0) else None


def spectral_norm(a: np.ndarray) -> float:
    """Operator (largest singular value) norm."""
    return _spectral_norm(as_matrix(a))


def _spectral_norm(m: np.ndarray) -> float:
    """``spectral_norm`` on a validated matrix: one SVD without vectors.

    ``np.linalg.norm(m, 2)`` takes the same SVD behind a ``moveaxis`` and an
    ``amax``, so the two agree bit for bit.
    """
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.any() else 0.0


def modulus(x: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Positive square root of x*x."""
    m = as_matrix(x)
    dec = _hermitian_eig(m.conj().T @ m, cfg)
    w = np.clip(dec.eigenvalues, 0.0, None)
    v = dec.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T


def numeric_rank(a: np.ndarray) -> int:
    """Count of singular values above the relative cutoff EPS_RANK * sigma_max."""
    s = np.linalg.svd(as_matrix(a), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > EPS_RANK * s[0]))


def top_right_singular_subspace(
    a: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG, rel_tol: float | None = None
) -> np.ndarray:
    """Orthonormal basis of right singular vectors attaining the top singular value."""
    return _top_right_subspace(as_matrix(a), cfg, rel_tol)


def _top_right_subspace(
    m: np.ndarray, cfg: ToleranceConfig, rel_tol: float | None = None
) -> np.ndarray:
    """``top_right_singular_subspace`` on a validated matrix."""
    _, s, vh = np.linalg.svd(m)
    return top_right_space(s, vh, cfg, rel_tol)


def top_right_space(
    s: np.ndarray,
    vh: np.ndarray,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    rel_tol: float | None = None,
) -> np.ndarray:
    """``top_right_singular_subspace`` read from the singular values s and the
    V^H of a full SVD already taken."""
    if s[0] == 0.0:
        return np.eye(vh.shape[1], dtype=np.complex128)
    tol = (rel_tol if rel_tol is not None else cfg.eps_eq) * s[0]
    keep = s >= s[0] - tol
    # a wide matrix has more rows of vh than singular values
    return vh[: s.size][keep].conj().T
