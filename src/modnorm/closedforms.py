"""Closed-form norm formulas and fixture families.

These exact values serve as independent oracles for the numerical deciders:
a two-parameter block-matrix norm, rank-one pairs, corner-block pairs, a
weighted-shift truncation with a certified error bound, and a diagonal
realization of a pair of hat functions on [0, 1].  The seeded generators at
the end draw the random families the suites and the acceptance gate share.

Conventions: <a, b> = b^H a (linear in the first slot here, matching the
rank-one operator (x (x) y) z = <z, y> x with matrix x y^H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import as_matrix, numeric_rank, spectral_norm
from .normopt import HypothesisViolation


def fkm_norm(a: complex, b: complex, c: complex, d: complex, norm_x: float) -> float:
    """Norm of the block matrix [[a I, b X], [c X^H, d I]], via (sqrt(r-s)+sqrt(r+s))/2.

    Depends on X only through its norm; r = |a|^2+|d|^2+(|b|^2+|c|^2)||X||^2
    and s = 2 |a d - b c ||X||^2| (the per-singular-value norm is nondecreasing,
    so the top singular value of X decides).
    """
    if norm_x < 0:
        raise ValueError("norm_x must be nonnegative")
    r = abs(a) ** 2 + abs(d) ** 2 + (abs(b) ** 2 + abs(c) ** 2) * norm_x**2
    s = 2.0 * abs(a * d - b * c * norm_x**2)
    if r < s - 1e-9 * (1.0 + r):
        raise ValueError(f"invalid block-norm parameters: r={r} < s={s}")
    return (np.sqrt(max(r - s, 0.0)) + np.sqrt(r + s)) / 2.0


def fkm_block(
    a: complex, b: complex, c: complex, d: complex, x: np.ndarray
) -> np.ndarray:
    """Assemble the block matrix [[a I, b X], [c X^H, d I]]."""
    xm = as_matrix(x)
    if xm.shape[0] != xm.shape[1]:
        raise ValueError("block parameter X must be square")
    eye = np.eye(xm.shape[0], dtype=np.complex128)
    return np.block([[a * eye, b * xm], [c * xm.conj().T, d * eye]])


@dataclass(frozen=True)
class RankOnePair:
    """A = x (x) y and B = u (x) v as rank-one (or degenerate) operators."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        vecs = [np.asarray(w, dtype=np.complex128).ravel() for w in (self.x, self.y, self.u, self.v)]
        if len({w.shape[0] for w in vecs}) != 1:
            raise ValueError("all four vectors must share one dimension")
        object.__setattr__(self, "x", vecs[0])
        object.__setattr__(self, "y", vecs[1])
        object.__setattr__(self, "u", vecs[2])
        object.__setattr__(self, "v", vecs[3])

    def first(self) -> np.ndarray:
        return np.outer(self.x, self.y.conj())

    def second(self) -> np.ndarray:
        return np.outer(self.u, self.v.conj())


def rank_one_norm(p: RankOnePair, lam: complex) -> float:
    """||x (x) y + lam u (x) v|| from the quadratic for the squared singular values."""
    nx2 = float(np.vdot(p.x, p.x).real)
    ny2 = float(np.vdot(p.y, p.y).real)
    nu2 = float(np.vdot(p.u, p.u).real)
    nv2 = float(np.vdot(p.v, p.v).real)
    ip_xu = complex(np.vdot(p.u, p.x))  # <x, u>, linear in x
    ip_yv = complex(np.vdot(p.v, p.y))  # <y, v>
    cross = lam * np.conj(ip_xu) * ip_yv
    trace = nx2 * ny2 + abs(lam) ** 2 * nu2 * nv2 + 2 * cross.real
    disc = (
        trace**2
        - 4 * abs(lam) ** 2 * nx2 * ny2 * nu2 * nv2
        - 4 * abs(lam) ** 2 * abs(ip_xu * ip_yv) ** 2
        + 4 * abs(lam) ** 2 * nx2 * nu2 * abs(ip_yv) ** 2
        + 4 * abs(lam) ** 2 * ny2 * nv2 * abs(ip_xu) ** 2
    )
    return float(np.sqrt((trace + np.sqrt(max(disc, 0.0))) / 2.0))


@dataclass(frozen=True)
class RankOneVerdicts:
    """Exact orthogonality classification of a rank-one pair."""

    bj_forward: bool
    bj_reverse: bool
    roberts: bool
    pythagoras: bool
    parallelogram: bool
    inner_zero: bool
    degenerate: bool


def _dependent(a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig) -> bool:
    """Scale-invariant Gram-determinant linear-dependence test."""
    na2 = float(np.vdot(a, a).real)
    nb2 = float(np.vdot(b, b).real)
    if na2 * nb2 <= cfg.eps_eq:
        return True
    gram = na2 * nb2 - abs(np.vdot(a, b)) ** 2
    return gram <= cfg.eps_eq * na2 * nb2


def _orthogonal(a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig) -> bool:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return abs(np.vdot(a, b)) <= cfg.eps_eq * max(na * nb, 1e-300)


def rank_one_classify(
    p: RankOnePair, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> RankOneVerdicts:
    """Classify a rank-one pair by inner products and dependence tests alone."""
    a_zero = np.linalg.norm(p.x) * np.linalg.norm(p.y) <= cfg.eps_eq
    b_zero = np.linalg.norm(p.u) * np.linalg.norm(p.v) <= cfg.eps_eq
    degenerate = a_zero or b_zero
    orth_xu = _orthogonal(p.x, p.u, cfg)
    orth_yv = _orthogonal(p.y, p.v, cfg)
    inner_zero = abs(np.vdot(p.u, p.x)) * np.linalg.norm(p.y) * np.linalg.norm(
        p.v
    ) <= cfg.eps_eq * max(
        np.linalg.norm(p.x) * np.linalg.norm(p.u) * np.linalg.norm(p.y) * np.linalg.norm(p.v),
        1e-300,
    )
    if degenerate:
        return RankOneVerdicts(True, True, True, True, True, True, True)
    bj = orth_xu or orth_yv
    pyth = (_dependent(p.x, p.u, cfg) and orth_yv) or (_dependent(p.y, p.v, cfg) and orth_xu)
    par = _dependent(p.x, p.u, cfg) or _dependent(p.y, p.v, cfg)
    return RankOneVerdicts(
        bj_forward=bj,
        bj_reverse=bj,
        roberts=bj,
        pythagoras=pyth,
        parallelogram=par,
        inner_zero=inner_zero,
        degenerate=False,
    )


def corner_block_pair(
    s: np.ndarray, t: np.ndarray, lam: complex
) -> tuple[np.ndarray, np.ndarray, float]:
    """A = [[S,0],[0,0]], B = [[0,T],[0,0]] and the exact ||A + lam B||.

    The closed form is ||A + lam B||^2 = ||S S^H + |lam|^2 T T^H||.
    """
    sm, tm = as_matrix(s), as_matrix(t)
    if sm.shape != tm.shape or sm.shape[0] != sm.shape[1]:
        raise ValueError("S and T must be square with equal shapes")
    n = sm.shape[0]
    zero = np.zeros((n, n), dtype=np.complex128)
    a = np.block([[sm, zero], [zero, zero]])
    b = np.block([[zero, tm], [zero, zero]])
    norm2 = spectral_norm(sm @ sm.conj().T + abs(lam) ** 2 * (tm @ tm.conj().T))
    return a, b, float(np.sqrt(norm2))


def weighted_shift_pair(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(2m+2)-dimensional truncation of the weighted-shift pair.

    A keeps e_1 -> e_1/2 and e_{2k} -> 2^{-k/2} e_2, B keeps e_1 -> e_1/2 and
    e_{2k+1} -> 2^{-k/2} e_2 (k = 1..m); rows 1 and 2 have disjoint column
    supports, so ||A + lam B||^2 = max(|1+lam|^2/4, (1-2^{-m})(1+|lam|^2)),
    within 2^{-m} (1+|lam|^2) of the untruncated value 1 + |lam|^2.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    n = 2 * m + 2
    a = np.zeros((n, n), dtype=np.complex128)
    b = np.zeros((n, n), dtype=np.complex128)
    a[0, 0] = 0.5
    b[0, 0] = 0.5
    for k in range(1, m + 1):
        w = 2.0 ** (-k / 2.0)
        a[1, 2 * k - 1] = w
        b[1, 2 * k] = w
    return a, b


def weighted_shift_norm(m: int, lam: complex) -> float:
    """Exact ||A + lam B|| for the (2m+2)-dimensional truncation."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    branch1 = abs(1 + lam) ** 2 / 4.0
    branch2 = (1.0 - 2.0**-m) * (1.0 + abs(lam) ** 2)
    return float(np.sqrt(max(branch1, branch2)))


def hat_function_pair(n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal samples of the two hat functions on a uniform grid of [0, 1].

    f falls linearly from 1/2 to 0 on [0, 1/2], g rises from 0 to 1/2 on
    [1/2, 1]; their supremum norms are attained at the endpoints of [0, 1],
    which every grid contains, so ||f + lam g|| = max(1/2, |lam|/2) exactly.
    """
    if n_grid < 2:
        raise ValueError("need at least two grid points")
    xs = np.linspace(0.0, 1.0, n_grid)
    f = np.diag(np.maximum(0.5 - xs, 0.0)).astype(np.complex128)
    g = np.diag(np.maximum(xs - 0.5, 0.0)).astype(np.complex128)
    return f, g


def rank_persistence(
    a: np.ndarray,
    b: np.ndarray,
    alpha1: complex,
    alpha2: complex,
    alpha3: complex,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> bool:
    """Rank one at three distinct shifts persists at every shift.

    Requires numeric_rank(A + alpha_i B) = 1 for three pairwise distinct
    alpha_i; then samples 50 seeded random alpha and confirms the rank stays
    one (a False return certifies a bug, not a property of the inputs).
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    alphas = (alpha1, alpha2, alpha3)
    if len({complex(al) for al in alphas}) != 3:
        raise ValueError("the three shifts must be pairwise distinct")
    for al in alphas:
        if numeric_rank(am + al * bm) != 1:
            raise HypothesisViolation(f"rank at shift {al} is not one")
    rng = cfg.rng(0x9A5F)
    for _ in range(50):
        al = complex(rng.standard_normal(), rng.standard_normal()) * 2.0
        if numeric_rank(am + al * bm) != 1:
            return False
    return True


def case_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for case ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, index]))


def rand_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary (QR with the phases of diag R divided out)."""
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rand_complex(rng, n)
    return v / np.linalg.norm(v)


def shared_top_pair(
    rng: np.random.Generator, n: int, shared: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Pair whose squared-modulus top eigenspaces meet (shared) or are disjoint."""
    v = rand_unitary(rng, n)
    sx = np.sort(rng.uniform(0.2, 0.9, n))[::-1]
    sy = np.sort(rng.uniform(0.2, 0.9, n))[::-1]
    sx[0], sy[0] = 1.0, 1.0
    if not shared:
        sy = np.roll(sy, 1)  # y attains its norm on a different column of v
    x = rand_unitary(rng, n) @ np.diag(sx) @ v.conj().T
    y = rand_unitary(rng, n) @ np.diag(sy) @ v.conj().T
    return x, y


def triangle_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Norm-one pair, not colinear, sharing its top singular pair u0 v0^H:
    x = U diag(1, sx) V^H and y = U diag(1, sy) V^H, so ||x + y|| = 2."""
    u, v = rand_unitary(rng, n), rand_unitary(rng, n)
    sx, sy = (np.concatenate([[1.0], rng.uniform(0.1, 0.8, n - 1)]) for _ in range(2))
    return u @ np.diag(sx) @ v.conj().T, u @ np.diag(sy) @ v.conj().T


def bj_engineered_true(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invertible x with a two-dimensional norming subspace and traceless cross block."""
    u = rand_unitary(rng, n)
    v = rand_unitary(rng, n)
    s = np.concatenate([[1.0, 1.0], rng.uniform(0.3, 0.8, n - 2)])
    x = u @ np.diag(s) @ v.conj().T
    # choose x^H y = v k v^H with k traceless on the norming 2x2 corner, so the
    # compression of the cross block to the norming subspace is exactly traceless
    k = rand_complex(rng, n, n)
    k[1, 1] = -k[0, 0]
    y = np.linalg.solve(x.conj().T, v @ k @ v.conj().T)
    return x, y


def gate_pair(
    rng: np.random.Generator, n: int, want_true: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Pair with orthogonal ranges (inner product zero) passing both gates.

    With <A, B> = 0 the positivity gate holds trivially; Pythagoras then
    reduces to whether the top norming subspaces of |A| and |B| meet.
    """
    if n < 4:
        raise ValueError(f"gate pairs need n >= 4, got {n}")
    u = rand_unitary(rng, n)
    v = rand_unitary(rng, n)
    half = n // 2
    sa = np.zeros((n, n), dtype=np.complex128)
    sb = np.zeros((n, n), dtype=np.complex128)
    # ran A inside u[:, :half], ran B inside u[:, half:]: A^H B = 0
    sa += np.outer(u[:, 0], v[:, 0].conj())
    sa += 0.5 * np.outer(u[:, 1], v[:, 1].conj())
    scale_b = float(rng.uniform(0.5, 1.5))
    top_b = 0 if want_true else 1
    sb += scale_b * np.outer(u[:, half], v[:, top_b].conj())
    sb += 0.4 * scale_b * np.outer(u[:, half + 1], v[:, 2].conj())
    return sa, sb
