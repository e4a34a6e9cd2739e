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


def extreme_point(a: np.ndarray, theta: float) -> complex:
    """Boundary point <xi, a xi> at a maximizing eigenvector for angle theta."""
    m = _require_square(a)
    _, xi = support_function(m, theta)
    return complex(np.vdot(xi, m @ xi))


@dataclass(frozen=True)
class RangeBoundary:
    """Sampled boundary of the numerical range."""

    angles: np.ndarray
    support_values: np.ndarray
    extreme_points: np.ndarray


def range_boundary(
    a: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> RangeBoundary:
    """Sample the boundary at cfg.phase_grid equispaced angles."""
    m = _require_square(a)
    thetas = 2 * np.pi * np.arange(cfg.phase_grid) / cfg.phase_grid
    stacks = _rotated_hermitian(m, thetas)
    w, v = np.linalg.eigh(stacks)
    vals = w[:, -1]
    vecs = v[:, :, -1]
    pts = np.einsum("ki,ij,kj->k", vecs.conj(), m, vecs)
    return RangeBoundary(angles=thetas, support_values=vals, extreme_points=pts)


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


def chord_through_zero(
    c: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[np.ndarray, np.ndarray, float, float] | None:
    """Two unit vectors xi1, xi2 and weight t with t<xi1,c xi1> + (1-t)<xi2,c xi2> ~ 0.

    Returns (xi1, xi2, t, residual), or None when 0 is outside W(c).  Used to
    rebuild zero-trace density states from at most two pure states.
    """
    m = _require_square(c)
    scale = spectral_norm(m)
    if scale <= cfg.eps_eq:
        e = np.zeros(m.shape[0], dtype=np.complex128)
        e[0] = 1.0
        return e, e, 1.0, float(abs(np.vdot(e, m @ e)))
    if not range_contains(m, 0.0, cfg, tol=cfg.eps_opt * (1.0 + scale)):
        return None

    n_angles = max(cfg.phase_grid, 90)
    thetas = 2 * np.pi * np.arange(n_angles) / n_angles
    bound = range_boundary(m, cfg) if n_angles == cfg.phase_grid else None
    if bound is not None:
        pts = bound.extreme_points
    else:
        pts = np.array([extreme_point(m, t) for t in thetas])

    def seg_dist(z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = z2 - z1
        dd = np.abs(d) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(dd > 0, np.clip(-np.real(z1 * d.conj()) / np.where(dd > 0, dd, 1.0), 0, 1), 0.0)
        return np.abs(z1 + t * d), t

    z1g, z2g = np.meshgrid(pts, pts, indexing="ij")
    dist, tmat = seg_dist(z1g, z2g)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)

    def pair_objective(th: np.ndarray) -> float:
        za = extreme_point(m, th[0])
        zb = extreme_point(m, th[1])
        d, _ = seg_dist(np.array(za), np.array(zb))
        return float(d)

    from scipy.optimize import minimize

    res = minimize(
        pair_objective,
        x0=np.array([thetas[i], thetas[j]]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14 * scale, "maxiter": 400},
    )
    th1, th2 = res.x
    _, xi1 = support_function(m, th1)
    _, xi2 = support_function(m, th2)
    za = complex(np.vdot(xi1, m @ xi1))
    zb = complex(np.vdot(xi2, m @ xi2))
    d, t = seg_dist(np.array(za), np.array(zb))
    t = float(t)
    return xi1, xi2, t, float(d)


def zero_unit_vector(
    c: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[np.ndarray, float] | None:
    """A single unit vector xi with <xi, c xi> ~ 0, or None if 0 is outside W(c).

    The chord construction reduces to a 2x2 compression where the quadratic
    form has an exact zero; the relative phase is found by a scalar scan.
    """
    m = _require_square(c)
    chord = chord_through_zero(m, cfg)
    if chord is None:
        return None
    xi1, xi2, t, _ = chord
    scale = 1.0 + spectral_norm(m)

    def residual(v: np.ndarray) -> float:
        return float(abs(np.vdot(v, m @ v)))

    if residual(xi1) <= cfg.eps_opt * scale:
        return xi1, residual(xi1)
    if residual(xi2) <= cfg.eps_opt * scale:
        return xi2, residual(xi2)

    # orthonormal basis of span{xi1, xi2}
    e1 = xi1
    w = xi2 - np.vdot(e1, xi2) * e1
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return (xi1, residual(xi1)) if residual(xi1) <= cfg.eps_opt * scale else None
    e2 = w / nw
    basis = np.stack([e1, e2], axis=1)
    c2 = basis.conj().T @ m @ basis

    best: tuple[float, np.ndarray] | None = None

    def eval_phi(phi: float) -> tuple[float, np.ndarray]:
        cross = np.exp(1j * phi) * c2[0, 1] + np.exp(-1j * phi) * c2[1, 0]
        # c11 + u*cross + u^2*c22 = 0, u = tan(s) real
        if abs(c2[1, 1]) > 1e-300:
            disc = np.sqrt(cross**2 - 4 * c2[0, 0] * c2[1, 1])
            roots = [(-cross + disc) / (2 * c2[1, 1]), (-cross - disc) / (2 * c2[1, 1])]
        elif abs(cross) > 1e-300:
            roots = [-c2[0, 0] / cross]
        else:
            roots = []
        loc_best = (np.inf, e1)
        for r in roots:
            u = float(np.real(r))
            s = np.arctan(u) if np.isfinite(u) else np.pi / 2
            v = np.cos(s) * e1 + np.sin(s) * np.exp(1j * phi) * e2
            v = v / np.linalg.norm(v)
            res = residual(v)
            if res < loc_best[0]:
                loc_best = (res, v)
        return loc_best

    phis = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    for phi in phis:
        cand = eval_phi(float(phi))
        if best is None or cand[0] < best[0]:
            best = cand
            best_phi = float(phi)
    lo, hi = best_phi - 0.05, best_phi + 0.05
    f_best = eval_phi(best_phi)[0]
    if f_best < eval_phi(lo)[0] and f_best < eval_phi(hi)[0]:
        res = minimize_scalar(
            lambda p: eval_phi(p)[0],
            bracket=(lo, best_phi, hi),
            method="brent",
            options={"xtol": 1e-12},
        )
    else:
        # the scan minimum is not strict (a flat or tied residual), so Brent's
        # bracket is invalid; the bounded search needs no interior minimum
        res = minimize_scalar(
            lambda p: eval_phi(p)[0],
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
    cand = eval_phi(float(res.x))
    if cand[0] < best[0]:
        best = cand
    if best[0] <= cfg.eps_opt * scale:
        return best[1], best[0]
    return None
