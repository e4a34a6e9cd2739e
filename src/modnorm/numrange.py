"""Classical numerical range W(A): support functions, boundary, membership.

W(A) = { <xi, A xi> : ||xi|| = 1 } is compact and convex, so membership and
witness construction reduce to support-function scans over rotation angles.
Conventions: <a, b> = a^H b (conjugate-linear in the first slot, matching
``np.vdot``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import NonSquareError, as_matrix, spectral_norm

_REFINE_WIDTH = 1e-6


def _require_square(a: np.ndarray) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"numerical range needs a square matrix, got {m.shape}")
    return m


def _rotated_hermitian(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Stack of Re(e^{-i theta} a) over all angles."""
    rot = np.exp(-1j * thetas)[:, None, None] * a[None, :, :]
    return (rot + rot.conj().transpose(0, 2, 1)) / 2


def support_values(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """h(theta) = lambda_max(Re(e^{-i theta} a)) for a batch of angles."""
    m = _require_square(a)
    w = np.linalg.eigvalsh(_rotated_hermitian(m, np.atleast_1d(np.asarray(thetas, float))))
    return w[:, -1]


def support_function(a: np.ndarray, theta: float) -> tuple[float, np.ndarray]:
    """Support value h(theta) and a maximizing unit eigenvector."""
    m = _require_square(a)
    h = _rotated_hermitian(m, np.array([theta]))[0]
    w, v = np.linalg.eigh(h)
    return float(w[-1]), v[:, -1]


@dataclass(frozen=True)
class RangeBoundary:
    """Sampled boundary of W(a): extreme_points[k] = <vectors[k], a vectors[k]> at angles[k]."""

    angles: np.ndarray
    support_values: np.ndarray
    extreme_points: np.ndarray
    vectors: np.ndarray


def range_boundary(
    a: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> RangeBoundary:
    """Sample the boundary at cfg.phase_grid equispaced angles."""
    m = _require_square(a)
    thetas = 2 * np.pi * np.arange(cfg.phase_grid) / cfg.phase_grid
    w, v = np.linalg.eigh(_rotated_hermitian(m, thetas))
    vecs = v[:, :, -1]
    pts = np.einsum("ki,ij,kj->k", vecs.conj(), m, vecs)
    return RangeBoundary(angles=thetas, support_values=w[:, -1], extreme_points=pts, vectors=vecs)


def range_contains(
    a: np.ndarray,
    z: complex,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    tol: float | None = None,
) -> bool:
    """Support-function membership test for z in W(a), with adaptive angle refinement.

    A single violated direction certifies non-membership; acceptance requires
    every sampled direction (refined down to angular width 1e-6 around verdict
    changes) to pass with slack tol, default eps_eq * (1 + ||a||).
    """
    m = _require_square(a)
    if tol is None:
        tol = cfg.eps_eq * (1.0 + spectral_norm(m))
    thetas = 2 * np.pi * np.arange(cfg.phase_grid) / cfg.phase_grid
    zc = complex(z)

    def margins(ths: np.ndarray) -> np.ndarray:
        return support_values(m, ths) - np.real(np.exp(-1j * ths) * zc)

    marg = margins(thetas)
    while True:
        if np.min(marg) < -tol:
            return False
        ok = marg >= -tol
        flips = ok != np.roll(ok, -1)
        widths = np.diff(np.append(thetas, thetas[0] + 2 * np.pi))
        to_split = np.nonzero(flips & (widths > _REFINE_WIDTH))[0]
        if to_split.size == 0:
            # refine around the globally tightest direction as a safety net
            k = int(np.argmin(marg))
            if widths[k] <= _REFINE_WIDTH and widths[k - 1] <= _REFINE_WIDTH:
                return bool(np.min(marg) >= -tol)
            to_split = np.array([k - 1 if k > 0 else len(thetas) - 1, k])
            to_split = to_split[widths[to_split] > _REFINE_WIDTH]
            if to_split.size == 0:
                return bool(np.min(marg) >= -tol)
        mids = thetas[to_split] + widths[to_split] / 2
        mid_marg = margins(mids)
        thetas = np.concatenate([thetas, mids])
        marg = np.concatenate([marg, mid_marg])
        order = np.argsort(thetas)
        thetas, marg = thetas[order], marg[order]


def _segment_weight(z1: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Weight t in [0, 1] of the point z1 + t d nearest 0 on each segment."""
    return np.clip(-np.real(z1 * np.conj(d)) / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)


def _ray_exit(pts: np.ndarray, on_ray: float) -> tuple[int, int, float, float]:
    """(k, i, s, x): the ray from the vertex pts[k] farthest from 0, through 0, leaves
    the polygon at pts[i] + s (pts[i+1] - pts[i]), x past 0 (x < 0: 0 is outside).
    Vertices within on_ray of the ray are exits, which covers a collinear boundary.
    """
    nxt = np.roll(np.arange(pts.size), -1)
    k = int(np.argmax(np.abs(pts)))
    # rotate so the ray runs along the positive real axis, with 0 fixed
    w = pts * (-np.conj(pts[k]) / abs(pts[k]))
    re, im = w.real, w.imag
    off = np.abs(im) > on_ray
    edges = np.nonzero(off & off[nxt] & (np.signbit(im) != np.signbit(im[nxt])))[0]
    s = im[edges] / (im[edges] - im[nxt[edges]])
    verts = np.nonzero(~off)[0]
    exits = np.concatenate([re[edges] + s * (re[nxt[edges]] - re[edges]), re[verts]])
    best = int(np.argmax(exits))
    i = np.concatenate([edges, verts])[best]
    return k, int(i), float(np.concatenate([s, np.zeros(verts.size)])[best]), float(exits[best])


def _zero_in_span(m: np.ndarray, xi1: np.ndarray, xi2: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit v in span{xi1, xi2} with the smallest |<v, m v>| found, and that value.

    On v = cos(s) e1 + sin(s) e^{i phi} e2, <v, m v> = 0 is a quadratic in tan(s);
    the relative phase phi is found by a scalar scan and a Brent refinement.
    """
    def residual(v: np.ndarray) -> float:
        return float(abs(np.vdot(v, m @ v)))

    # orthonormal basis of span{xi1, xi2}
    e1 = xi1
    w = xi2 - np.vdot(e1, xi2) * e1
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return xi1, residual(xi1)
    e2 = w / nw
    basis = np.stack([e1, e2], axis=1)
    c2 = basis.conj().T @ m @ basis

    def eval_phi(phi: float) -> tuple[float, np.ndarray]:
        cross = np.exp(1j * phi) * c2[0, 1] + np.exp(-1j * phi) * c2[1, 0]
        # c11 + u*cross + u^2*c22 = 0, u = tan(s) real
        roots = []
        if abs(c2[1, 1]) > 1e-300:
            disc = np.sqrt(cross**2 - 4 * c2[0, 0] * c2[1, 1])
            roots = [(-cross + disc) / (2 * c2[1, 1]), (-cross - disc) / (2 * c2[1, 1])]
        elif abs(cross) > 1e-300:
            roots = [-c2[0, 0] / cross]
        cands = [(np.inf, e1)]
        for r in roots:
            u = float(np.real(r))
            s = np.arctan(u) if np.isfinite(u) else np.pi / 2
            v = np.cos(s) * e1 + np.sin(s) * np.exp(1j * phi) * e2
            v = v / np.linalg.norm(v)
            cands.append((residual(v), v))
        return min(cands, key=lambda cand: cand[0])

    def f(phi: float) -> float:
        return eval_phi(phi)[0]

    best_phi = float(min(np.linspace(0, 2 * np.pi, 256, endpoint=False), key=f))
    best = eval_phi(best_phi)
    lo, hi = best_phi - 0.05, best_phi + 0.05
    if best[0] < f(lo) and best[0] < f(hi):
        res = minimize_scalar(f, bracket=(lo, best_phi, hi), method="brent", options={"xtol": 1e-12})
    else:
        # the scan minimum is not strict (a flat or tied residual), so Brent's
        # bracket is invalid; the bounded search needs no interior minimum
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    cand = eval_phi(float(res.x))
    if cand[0] < best[0]:
        best = cand
    return best[1], best[0]


def chord_through_zero(
    c: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[np.ndarray, np.ndarray, float, float] | None:
    """Two unit vectors xi1, xi2 and weight t with z1 + t (z2 - z1) ~ 0, z_k = <xi_k, c xi_k>.

    Returns (xi1, xi2, t, residual), or None when 0 is outside W(c).  Used to
    rebuild zero-trace density states from at most two pure states.  On the
    sampled boundary polygon of W(c), xi1 attains the vertex p farthest from 0 and
    xi2, in the span of the exit edge's vertex vectors, the point where the ray
    from p through 0 leaves the polygon.  While 0 lies outside the polygon by more
    than eps_opt * (1 + ||c||), the edge nearest 0 is bisected in angle.
    """
    m = _require_square(c)
    scale = spectral_norm(m)
    if scale <= cfg.eps_eq:
        e = np.zeros(m.shape[0], dtype=np.complex128)
        e[0] = 1.0
        return e, e, 1.0, float(abs(np.vdot(e, m @ e)))
    tol = cfg.eps_opt * (1.0 + scale)
    if not range_contains(m, 0.0, cfg, tol=tol):
        return None

    bound = range_boundary(m, cfg)
    thetas, pts, vecs = bound.angles, bound.extreme_points, bound.vectors
    on_ray = cfg.eps_eq * (1.0 + scale)
    while True:
        k, i, s, x = _ray_exit(pts, on_ray)
        if x >= 0.0:
            break
        d = np.roll(pts, -1) - pts
        ts = _segment_weight(pts, d)
        dist = np.abs(pts + ts * d)
        i = int(np.argmin(dist))
        s = float(ts[i])
        width = (thetas[(i + 1) % pts.size] - thetas[i]) % (2 * np.pi)
        if dist[i] <= tol or width <= _REFINE_WIDTH:
            break
        mid = thetas[i] + width / 2
        _, xi = support_function(m, mid)
        thetas = np.insert(thetas, i + 1, mid)
        pts = np.insert(pts, i + 1, np.vdot(xi, m @ xi))
        vecs = np.insert(vecs, i + 1, xi, axis=0)

    j = (i + 1) % pts.size
    if s in (0.0, 1.0):  # the exit is a vertex, as on a collinear boundary
        xi2 = vecs[i] if s == 0.0 else vecs[j]
    else:
        q = pts[i] + s * (pts[j] - pts[i])
        xi2 = _zero_in_span(m - q * np.eye(m.shape[0]), vecs[i], vecs[j])[0]
    d = complex(np.vdot(xi2, m @ xi2)) - pts[k]
    t = float(_segment_weight(pts[k], d))
    return vecs[k], xi2, t, float(abs(pts[k] + t * d))


def zero_unit_vector(
    c: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[np.ndarray, float] | None:
    """A single unit vector xi with <xi, c xi> ~ 0, or None if 0 is outside W(c).

    The chord through 0 lies in the numerical range of the 2x2 compression to
    the span of its two vectors, where the quadratic form has an exact zero.
    """
    m = _require_square(c)
    chord = chord_through_zero(m, cfg)
    if chord is None:
        return None
    xi1, xi2, _, _ = chord
    tol = cfg.eps_opt * (1.0 + spectral_norm(m))
    for xi in (xi1, xi2):
        res = float(abs(np.vdot(xi, m @ xi)))
        if res <= tol:
            return xi, res
    xi, res = _zero_in_span(m, xi1, xi2)
    return (xi, res) if res <= tol else None
