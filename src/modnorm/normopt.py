"""Optimization core: min over lambda of ||A + lambda B||, the dual sphere
functional, and Birkhoff-James decisions.

f(lambda) = ||A + lambda B|| is convex on C ~ R^2.  The minimizer starts from
the best point of a coarse grid (one batched SVD) and runs damped Newton on f
over (Re lambda, Im lambda); one full SVD per iterate gives the gradient
u^H B v and the exact Hessian of a simple top singular value.  The Newton point
is returned only with a certificate: a simple top singular value at which the
gradient vanishes, which for a convex f is global optimality.  At a kink, where
the top singular value is multiple (as for A = I and normal B), Nelder-Mead
runs from the best point seen.  The dual side is read off the minimizer
lambda*: in min_lambda ||A + lambda B||^2 = sup_{|xi|=1} M(xi) with
M(xi) = min_mu ||(A + mu B) xi||^2, the supremum is attained in the top singular
subspace of A + lambda* B at a unit vector whose quadratic form against
B^H (A + lambda* B) vanishes, and weak duality makes the gap a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import (
    as_matrix,
    min_modulus,
    spectral_norm,
    top_right_singular_subspace,
)
from .numrange import zero_unit_vector
from .states import DensityState, maximizing_set, witness_in_set_with_zero

_START_GRID = 5  # points per axis; odd, so lambda = 0 is on the grid
_SIMPLE_GAP = 1e-7  # relative gap below which the top singular value is multiple
_STATIONARY = 1e-10  # |u^H B v| <= _STATIONARY * ||B|| certifies lambda*
_NEWTON_SVDS = 30  # SVDs one Newton run may spend
_BACKTRACKS = 5  # trial points per Newton step
_ROUNDING = 16 * np.finfo(float).eps


class HypothesisViolation(ValueError):
    """A decider's standing hypothesis fails for the given inputs."""


@dataclass(frozen=True)
class MinLambdaResult:
    """Minimizer of lambda -> ||A + lambda B|| over the complex plane.

    iterations counts the Newton steps plus any Nelder-Mead iterations.
    """

    lambda_star: complex
    value: float
    iterations: int


@dataclass(frozen=True)
class _NewtonRun:
    lam: complex
    value: float
    steps: int
    certified: bool


def _batched_norms(a: np.ndarray, b: np.ndarray, lams: np.ndarray) -> np.ndarray:
    stack = a[None, :, :] + lams[:, None, None] * b[None, :, :]
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _hessian(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Hessian of a simple sigma_1(A + lambda B) in (Re lambda, Im lambda).

    d = U^H B V for the full SVD A + lambda B = U diag(s) V^H.  sigma_1 is the
    top eigenvalue of the Hermitian dilation [[0, M], [M^H, 0]], whose other
    eigenvectors are (u_j, v_j)/sqrt(2) at s_j, (u_j, -v_j)/sqrt(2) at -s_j and
    the unpaired columns of U or V at 0.  Second-order perturbation theory sums
    2 Re c_a conj(c_b) / (sigma_1 - eigenvalue) over them, c_a being the
    coupling of the direction B (a = Re) or iB (a = Im) to the top eigenvector.
    """
    r = s.size
    col = np.stack([d[:, 0], 1j * d[:, 0]])
    row = np.stack([d[0, :], 1j * d[0, :]]).conj()
    c = np.concatenate(
        [
            (col[:, 1:r] + row[:, 1:r]) / 2,
            (col[:, :r] - row[:, :r]) / 2,
            col[:, r:] / np.sqrt(2),
            row[:, r:] / np.sqrt(2),
        ],
        axis=1,
    )
    gap = np.concatenate([s[0] - s[1:], s[0] + s, np.full(c.shape[1] - 2 * r + 1, s[0])])
    return 2.0 * np.real((c / gap) @ c.conj().T)


def _newton(
    am: np.ndarray, bm: np.ndarray, lam: complex, na: float, nb: float
) -> _NewtonRun:
    """Damped Newton on f(lambda) = sigma_1(A + lambda B) from lam.

    The certificate holds where f = 0, or where the top singular value is
    simple (relative gap _SIMPLE_GAP) and |u^H B v| <= _STATIONARY ||B||.  From
    the first certified point one more full step is tried, which takes
    u^H B v from the threshold to rounding (M in sup_m divides it by
    ||B xi||^2); it is kept if the certificate still holds there.  The run
    ends uncertified at a multiple top, a singular Hessian, a failed line
    search or after _NEWTON_SVDS SVDs.  A trial point is accepted when f falls
    by the Armijo amount, up to rounding in forming A + lambda B; a rejected
    step shrinks to the minimizer of the quadratic through f, its slope and
    the rejected value.
    """
    u, s, vh = np.linalg.svd(am + lam * bm)
    svds, steps, reach = 1, 0, 2.0 * (1.0 + na / nb)
    certified = None  # the first point where the certificate held
    while True:
        here = _NewtonRun(lam, float(s[0]), steps, True)
        if s[0] == 0.0:
            return here
        d = u.conj().T @ bm @ vh.conj().T
        w = d[0, 0]
        simple = s.size == 1 or s[1] < s[0] * (1.0 - _SIMPLE_GAP)
        if simple and abs(w) <= _STATIONARY * nb:
            if certified is not None or w == 0.0:
                return here
            certified = here
        elif certified is not None:
            return certified
        stop = replace(here, certified=certified is not None)
        if not simple:
            return stop
        grad = np.array([w.real, -w.imag])
        try:
            p = np.linalg.solve(_hessian(d, s), -grad)
        except np.linalg.LinAlgError:
            return stop
        step, slope = complex(p[0], p[1]), float(grad @ p)
        slack = _ROUNDING * (na + (abs(lam) + abs(step)) * nb)
        # the minimizer lies within 2 ||A|| / ||B|| of 0, so no step need be longer
        t = min(1.0, reach / abs(step))
        for _ in range(_BACKTRACKS):
            if svds >= _NEWTON_SVDS:
                return stop
            trial = lam + t * step
            ut, st, vht = np.linalg.svd(am + trial * bm)
            svds += 1
            if st[0] <= s[0] + 1e-4 * t * slope + slack:
                break
            if certified is not None:  # only a full step polishes
                return stop
            curv = (st[0] - s[0] - t * slope) / t**2
            t = float(np.clip(-slope / (2 * curv), 0.1 * t, 0.5 * t)) if curv > 0 else 0.5 * t
        else:
            return stop
        lam, u, s, vh = trial, ut, st, vht
        steps += 1


def min_lambda_norm(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> MinLambdaResult:
    """Global minimum of the convex map lambda -> ||A + lambda B||.

    Damped Newton from the best point of a 5 x 5 grid returns lambda* once the
    top singular value there is simple and u^H B v vanishes (both relative to
    the scale of the pair).  Otherwise, at a kink, Nelder-Mead with one restart
    runs from the best point seen, and Newton polishes its point; the simplex
    point is kept if the polish raises the value beyond rounding.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    nb = spectral_norm(bm)
    if nb <= cfg.eps_rank:
        return MinLambdaResult(lambda_star=0.0, value=spectral_norm(am), iterations=0)
    na = spectral_norm(am)
    radius = 1.0 + na / nb
    grid = np.linspace(-radius, radius, _START_GRID)
    re, im = np.meshgrid(grid, grid)
    lams = (re + 1j * im).ravel()
    run = _newton(am, bm, lams[int(np.argmin(_batched_norms(am, bm, lams)))], na, nb)
    if run.certified:
        return MinLambdaResult(lambda_star=run.lam, value=run.value, iterations=run.steps)

    def objective(x: np.ndarray) -> float:
        return float(np.linalg.norm(am + (x[0] + 1j * x[1]) * bm, 2))

    res = minimize(
        objective,
        x0=np.array([run.lam.real, run.lam.imag]),
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 600},
    )
    # one restart from the polished point guards against simplex collapse
    res2 = minimize(
        objective,
        x0=res.x,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 400},
    )
    best = res2 if res2.fun <= res.fun else res
    lam, value = complex(best.x[0], best.x[1]), float(best.fun)
    polish = _newton(am, bm, lam, na, nb)
    # with no step taken, the polish would only swap in another SVD's rounding
    if polish.steps and polish.value <= value * (1.0 + 1e-14):
        lam, value = polish.lam, polish.value
    return MinLambdaResult(
        lambda_star=lam,
        value=value,
        iterations=run.steps + int(res.nit + res2.nit) + polish.steps,
    )


def m_functional(
    a: np.ndarray,
    b: np.ndarray,
    xi: np.ndarray,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> float:
    """||A xi||^2 - |<A xi, B xi>|^2 / ||B xi||^2, with the B xi = 0 branch.

    Equals min over mu of ||(A + mu B) xi||^2 for the unit vector xi.
    """
    am, bm = as_matrix(a), as_matrix(b)
    v = np.asarray(xi, dtype=np.complex128).ravel()
    if abs(np.linalg.norm(v) - 1.0) > cfg.eps_eq * 10:
        raise ValueError("xi must be a unit vector")
    av, bv = am @ v, bm @ v
    nbv = np.linalg.norm(bv)
    if nbv <= cfg.eps_rank * max(spectral_norm(bm), 1e-300):
        return float(np.linalg.norm(av) ** 2)
    return float(np.linalg.norm(av) ** 2 - abs(np.vdot(av, bv)) ** 2 / nbv**2)


def sup_m(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[float, np.ndarray]:
    """Dual value M(xi*) and the unit vector xi* built from the primal optimum.

    xi* zeroes the quadratic form of D^H B on the top right singular subspace of
    D = A + lambda* B (its first basis vector if no zero is found).  Weak duality,
    M(xi) <= ||A + lambda B||^2 for every unit xi and lambda, makes the bracket
    [M(xi*), ||A + lambda* B||^2] a certificate however xi* was found.
    """
    am, bm = as_matrix(a), as_matrix(b)
    d = am + min_lambda_norm(am, bm, cfg).lambda_star * bm
    sub = top_right_singular_subspace(d, cfg, rel_tol=1e-7)
    zero = zero_unit_vector(sub.conj().T @ (d.conj().T @ bm) @ sub, cfg)
    xi = sub @ zero[0] if zero is not None else sub[:, 0]
    return m_functional(am, bm, xi, cfg), xi


def bj_orthogonal(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[bool, DensityState | None]:
    """Birkhoff-James decision: a maximizing state of |x|^2 killing <x,y>.

    x = 0 is declared orthogonal to everything (the defining inequality is
    trivial); any pure state witnesses it.
    """
    xm, ym = as_matrix(x), as_matrix(y)
    if xm.shape != ym.shape:
        raise ValueError(f"shape mismatch: {xm.shape} vs {ym.shape}")
    if spectral_norm(xm) <= cfg.eps_eq:
        e = np.zeros(xm.shape[1], dtype=np.complex128)
        e[0] = 1.0
        return True, DensityState.pure(e)
    p = maximizing_set(xm.conj().T @ xm, cfg)
    witness = witness_in_set_with_zero(p, xm.conj().T @ ym, cfg)
    return witness is not None, witness


def bj_lower_bound_check(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> bool:
    """Lattice check of ||x + lam y||^2 >= ||x||^2 + |lam|^2 m(|y|^2)."""
    xm, ym = as_matrix(x), as_matrix(y)
    nx = spectral_norm(xm)
    my = float(np.linalg.svd(ym, compute_uv=False)[-1]) ** 2
    lams = np.asarray(cfg.lambda_lattice)
    norms = _batched_norms(xm, ym, lams)
    lhs = norms**2
    rhs = nx**2 + np.abs(lams) ** 2 * my
    slack = cfg.eps_opt * (1.0 + rhs)
    return bool(np.all(lhs >= rhs - slack))


def unique_alpha0(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[complex, float]:
    """The unique argmin alpha0 of alpha -> ||x + alpha y|| when m(|y|^2) > 0.

    Uniqueness follows from strict convexity under the invertibility
    hypothesis; it is certified a posteriori by the shifted lower bound on the
    lambda lattice.
    """
    xm, ym = as_matrix(x), as_matrix(y)
    my = min_modulus(ym) ** 2
    if my <= cfg.eps_opt:
        raise HypothesisViolation("unique_alpha0 requires m(|y|^2) > 0")
    opt = min_lambda_norm(xm, ym, cfg)
    shifted = xm + opt.lambda_star * ym
    if not bj_lower_bound_check(shifted, ym, cfg):
        raise AssertionError("shifted lower bound failed; minimizer is inaccurate")
    return opt.lambda_star, opt.value
