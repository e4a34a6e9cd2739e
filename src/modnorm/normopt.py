"""Optimization core: min over lambda of ||A + lambda B||, the dual sphere
functional, and Birkhoff-James decisions.

lambda -> ||A + lambda B|| is convex on C ~ R^2, so a coarse grid plus local
simplex refinement reaches the global minimum, and Newton steps on the gradient
polish it when the top singular value is simple.  The dual side is read off the
minimizer lambda*: in min_lambda ||A + lambda B||^2 = sup_{|xi|=1} M(xi) with
M(xi) = min_mu ||(A + mu B) xi||^2, the supremum is attained in the top singular
subspace of A + lambda* B at a unit vector whose quadratic form against
B^H (A + lambda* B) vanishes, and weak duality makes the gap a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class HypothesisViolation(ValueError):
    """A decider's standing hypothesis fails for the given inputs."""


@dataclass(frozen=True)
class MinLambdaResult:
    """Minimizer of lambda -> ||A + lambda B|| over the complex plane."""

    lambda_star: complex
    value: float
    iterations: int


def _batched_norms(a: np.ndarray, b: np.ndarray, lams: np.ndarray) -> np.ndarray:
    stack = a[None, :, :] + lams[:, None, None] * b[None, :, :]
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def min_lambda_norm(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> MinLambdaResult:
    """Global minimum of the convex map lambda -> ||A + lambda B||.

    When the top singular value at the simplex point is simple (relative gap
    1e-7), Newton steps on the gradient u^H B v = 0 polish lambda*; the simplex
    point is kept if the polish raises the value beyond rounding.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    nb = spectral_norm(bm)
    if nb <= cfg.eps_rank:
        return MinLambdaResult(lambda_star=0.0, value=spectral_norm(am), iterations=0)
    radius = 1.0 + spectral_norm(am) / max(nb, cfg.eps_rank)
    grid = np.linspace(-radius, radius, 17)
    re, im = np.meshgrid(grid, grid)
    lams = (re + 1j * im).ravel()
    vals = _batched_norms(am, bm, lams)
    start = lams[int(np.argmin(vals))]

    def objective(x: np.ndarray) -> float:
        return float(np.linalg.norm(am + (x[0] + 1j * x[1]) * bm, 2))

    res = minimize(
        objective,
        x0=np.array([start.real, start.imag]),
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
    s = np.linalg.svd(am + lam * bm, compute_uv=False)
    if s.size == 1 or s[1] < s[0] * (1.0 - 1e-7):
        polished = _stationary_lambda(am, bm, lam)
        polished_value = objective(np.array([polished.real, polished.imag]))
        if polished_value <= value * (1.0 + 1e-14):
            lam, value = polished, polished_value
    return MinLambdaResult(
        lambda_star=lam,
        value=value,
        iterations=int(res.nit + res2.nit),
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


def _stationary_lambda(am: np.ndarray, bm: np.ndarray, lam: complex) -> complex:
    """Newton steps on u^H B v = 0, the gradient of a simple sigma_max(A + lam B).

    That gradient is the cross term of the top vector v, which M divides by
    ||B v||^2; the simplex leaves it near 1e-7, these steps near rounding.
    """
    def grad(z: complex) -> np.ndarray:
        u, _, vh = np.linalg.svd(am + z * bm)
        g = np.vdot(u[:, 0], bm @ vh[0].conj())
        return np.array([g.real, -g.imag])

    for _ in range(3):
        g0, h = grad(lam), 1e-7 * (1.0 + abs(lam))
        jac = np.column_stack([grad(lam + h) - g0, grad(lam + 1j * h) - g0]) / h
        lam += complex(*np.linalg.lstsq(jac, -g0, rcond=None)[0])
    return lam


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
