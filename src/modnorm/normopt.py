"""Optimization core: min over lambda of ||A + lambda B||, the dual sphere
functional, and Birkhoff-James decisions.

f(lambda) = ||A + lambda B|| is convex on C ~ R^2.  The minimizer starts from
the Frobenius minimizer lambda_F = -tr(B^H A) / ||B||_F^2, where f is within a
factor sqrt(min(m, n)) of its minimum, and runs damped Newton on f over
(Re lambda, Im lambda); one full SVD per iterate gives the gradient u^H B v
and the exact Hessian of a simple top singular value, and the 2 x 2 Newton
system is solved by Cramer's rule.  The Newton point is returned only with a
certificate: a simple top singular value at which the gradient vanishes, which
for a convex f is global optimality.  At a kink, where the top singular value
is multiple (as for A = I and normal B), Nelder-Mead runs from the best point
seen; it takes the steps of scipy's, in numpy, so no solve loads scipy.  The
dual side is read off the minimizer lambda*: in
min_lambda ||A + lambda B||^2 = sup_{|xi|=1} M(xi) with
M(xi) = min_mu ||(A + mu B) xi||^2, the supremum is attained in the top singular
subspace of A + lambda* B at a unit vector whose quadratic form against
B^H (A + lambda* B) vanishes, and weak duality makes the gap a certificate.

Both solvers read the shared ``Pair`` of (A, B) and solve on its normalized
matrices, so (2^k A, 2^k B) gives the same lambda* bit for bit, and the value
and M come back scaled by 2^k and 4^k exactly.  The solution is kept on the
pair; it needs no config, so min_lambda_norm and sup_m make one solve between
them under any config, and at any power-of-two scale of the pair.  It keeps
||B|| and, where the solve factored it, the SVD of A + lambda* B, which sup_m
reads instead of factoring again.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_CONFIG, EPS_RANK, ToleranceConfig
from .linalg import (
    Pair,
    _spectral_norm,
    _top_right_subspace,
    as_matrix,
    read_only,
    shared_pair,
    top_right_space,
    unit_scaled,
)
from .states import DensityState, _compressed_zero, _maximizers, witness_in_set_with_zero

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
    svd: tuple[np.ndarray, np.ndarray]  # (s, V^H) of A + lam B


@dataclass(frozen=True)
class _Simplex:
    x: np.ndarray  # best vertex
    fun: float
    nit: int


@dataclass(frozen=True)
class _Solution:
    """A solve on a normalized pair: the result, ||B||, and (s, V^H) of
    A + lambda* B when the solve factored that matrix (None otherwise)."""

    result: MinLambdaResult
    nb: float
    svd: tuple[np.ndarray, np.ndarray] | None

    def __post_init__(self) -> None:
        for m in self.svd or ():
            read_only(m)


def _hessian(d: np.ndarray, s: np.ndarray) -> tuple[float, float, float]:
    """Hessian (H_rr, H_ri, H_ii) of a simple sigma_1(A + lambda B) in
    (Re lambda, Im lambda).

    d = U^H B V for the full SVD A + lambda B = U diag(s) V^H.  sigma_1 is the
    top eigenvalue of the Hermitian dilation [[0, M], [M^H, 0]], whose other
    eigenvectors are (u_j, v_j)/sqrt(2) at s_j, (u_j, -v_j)/sqrt(2) at -s_j and
    the unpaired columns of U or V at 0.  Second-order perturbation theory sums
    2 Re c_a conj(c_b) / (sigma_1 - eigenvalue) over them, c_a being the
    coupling of the direction B (a = r) or iB (a = i) to the top eigenvector.
    With p_j = d[j, 0] and q_j = conj(d[0, j]), index j adds to H_rr
    |p_j + q_j|^2 / 2 over s_1 - s_j (for j >= 1) and |p_j - q_j|^2 / 2 over
    s_1 + s_j, to H_ii the same with the two numerators swapped, and to H_ri
    Im(q_j conj p_j) over s_1 - s_j minus the same over s_1 + s_j; an unpaired
    p_j or q_j (of a tall or wide matrix) adds its squared modulus over s_1 to
    H_rr and H_ii.  The r terms (r <= 8 at the sizes modnorm targets) are
    summed as Python scalars, which costs less than numpy's per-call overhead.
    """
    p, q = d[:, 0].tolist(), d[0, :].conjugate().tolist()
    sv = s.tolist()
    top, r = sv[0], len(sv)
    hrr = hri = hii = 0.0
    for j in range(r):
        pj, qj = p[j], q[j]
        plus, minus = abs(pj + qj) ** 2 / 2, abs(pj - qj) ** 2 / 2
        cross = (qj * pj.conjugate()).imag
        out = top + sv[j]
        hrr, hri, hii = hrr + minus / out, hri - cross / out, hii + plus / out
        if j:
            near = top - sv[j]
            hrr, hri, hii = hrr + plus / near, hri + cross / near, hii + minus / near
    unpaired = sum(abs(z) ** 2 for z in p[r:] + q[r:]) / top
    return hrr + unpaired, hri, hii + unpaired


def _newton(
    am: np.ndarray, bm: np.ndarray, lam: complex, na: float, nb: float
) -> _NewtonRun:
    """Damped Newton on f(lambda) = sigma_1(A + lambda B) from lam.

    The certificate holds where f is at most the rounding of forming
    A + lambda B, _ROUNDING (||A|| + |lambda| ||B||): f >= 0, so lambda then
    minimizes f up to rounding, as at the vertex lambda = -c of the cone f
    for A = c B.  It also holds where the top singular value is simple
    (relative gap _SIMPLE_GAP) and |u^H B v| <= _STATIONARY ||B||.  From
    the first certified point one more full step is tried, which takes
    u^H B v from the threshold to rounding (M in sup_m divides it by
    ||B xi||^2); it is kept if the certificate still holds there.  The run
    ends uncertified at a multiple top, a singular Hessian, a failed line
    search or after _NEWTON_SVDS SVDs.  The step solves the 2 x 2 Newton
    system by Cramer's rule.  A trial point is accepted when f falls by the
    Armijo amount, up to rounding in forming A + lambda B; a rejected step
    shrinks to the minimizer of the quadratic through f, its slope and the
    rejected value.
    """
    u, s, vh = np.linalg.svd(am + lam * bm)
    svds, steps, reach = 1, 0, 2.0 * (1.0 + na / nb)
    certified = None  # the run at the first point where the certificate held

    def stop() -> _NewtonRun:
        # after the certificate held, every stop is at that point
        return certified or _NewtonRun(lam, float(s[0]), steps, False, (s, vh))

    while True:
        top = float(s[0])
        if top <= _ROUNDING * (na + abs(lam) * nb):
            return _NewtonRun(lam, top, steps, True, (s, vh))
        d = u.conj().T @ bm @ vh.conj().T
        w = complex(d[0, 0])
        simple = s.size == 1 or s[1] < top * (1.0 - _SIMPLE_GAP)
        if simple and abs(w) <= _STATIONARY * nb:
            if certified is not None or w == 0.0:
                return _NewtonRun(lam, top, steps, True, (s, vh))
            certified = _NewtonRun(lam, top, steps, True, (s, vh))
        elif certified is not None:
            return certified
        if not simple:
            return stop()
        hrr, hri, hii = _hessian(d, s)
        det = hrr * hii - hri * hri
        if det == 0.0:
            return stop()
        gr, gi = w.real, -w.imag
        step = complex((hri * gi - hii * gr) / det, (hri * gr - hrr * gi) / det)
        slope = gr * step.real + gi * step.imag
        slack = _ROUNDING * (na + (abs(lam) + abs(step)) * nb)
        # the minimizer lies within 2 ||A|| / ||B|| of 0, so no step need be longer
        t = min(1.0, reach / abs(step))
        for _ in range(_BACKTRACKS):
            if svds >= _NEWTON_SVDS:
                return stop()
            trial = lam + t * step
            ut, st, vht = np.linalg.svd(am + trial * bm)
            svds += 1
            if st[0] <= top + 1e-4 * t * slope + slack:
                break
            if certified is not None:  # only a full step polishes
                return certified
            curv = (st[0] - top - t * slope) / t**2
            t = min(max(-slope / (2 * curv), 0.1 * t), 0.5 * t) if curv > 0 else 0.5 * t
        else:
            return stop()
        lam, u, s, vh = trial, ut, st, vht
        steps += 1


def _nelder_mead(
    f: Callable[[np.ndarray], float],
    simplex: np.ndarray,
    xatol: float,
    fatol: float,
    maxiter: int,
) -> _Simplex:
    """Nelder-Mead from ``simplex`` (N + 1 vertices in R^N) with the standard
    coefficients: reflection 1, expansion 2, contraction 1/2, shrink 1/2.

    The run stops when every vertex is within xatol of the best in each
    coordinate and every value within fatol of the best, or when the
    iteration count, which starts at 1, reaches maxiter.  The steps, their
    order, the tie-breaking sort and the count are those of the non-adaptive
    ``scipy.optimize.minimize(method="Nelder-Mead")``, so both return the
    same point, value and iteration count from the same simplex.
    """
    sim = np.array(simplex, dtype=float)
    fsim = np.array([f(v) for v in sim])
    # sorted twice, as scipy does: argsort need not be stable, so on tied
    # values the second sort can reorder the first
    sim, fsim = _by_value(*_by_value(sim, fsim))
    nit = 1
    while nit < maxiter:
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / (len(sim) - 1)
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # outside contraction if the reflection improved on the worst
            # vertex, inside contraction otherwise; shrink if that fails
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accepted = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accepted = fxc < fsim[-1]
            if accepted:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, len(sim)):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        nit += 1
        sim, fsim = _by_value(sim, fsim)
    return _Simplex(sim[0], float(np.min(fsim)), nit)


def _by_value(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(fsim)
    return sim[order], fsim[order]


def min_lambda_norm(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> MinLambdaResult:
    """Global minimum of the convex map lambda -> ||A + lambda B||.

    Damped Newton from the Frobenius minimizer -tr(B^H A) / ||B||_F^2 returns
    lambda* once the top singular value there is simple and u^H B v vanishes
    (both relative to the scale of the pair).  Otherwise, at a kink,
    Nelder-Mead with one restart runs from the best point seen, and Newton
    polishes its point; the simplex point is kept if the polish raises the
    value beyond rounding.

    The solve runs on the normalized pair and is shared with ``sup_m`` and
    any later call on the same normalized pair (see ``_solution``); the value
    is scaled back to the caller's units exactly.
    """
    pair = shared_pair(a, b)
    result = _solution(pair).result
    return replace(result, value=float(np.ldexp(result.value, pair.exponent)))


def _solution(pair: Pair) -> _Solution:
    """``_solve`` on the normalized matrices of ``pair``, kept with the pair."""
    return pair.memo("min_lambda", lambda: _solve(pair.x, pair.y))


def _solve(am: np.ndarray, bm: np.ndarray) -> _Solution:
    """The solver behind ``min_lambda_norm``, on a validated pair."""
    na, nb = _spectral_norm(am), _spectral_norm(bm)
    # B counts as zero relative to A; exact B = 0 always does
    if nb <= EPS_RANK * na:
        return _Solution(MinLambdaResult(lambda_star=0.0, value=na, iterations=0), nb, None)
    # the Frobenius minimizer: ||M||_2 <= ||M||_F <= sqrt(r) ||M||_2 for rank
    # r <= min(m, n) puts f there within sqrt(r) of min f; 0.0 - keeps lambda = +0
    # when tr(B^H A) = 0, as for A = 0
    start = 0.0 - complex(np.vdot(bm, am)) / float(np.vdot(bm, bm).real)
    run = _newton(am, bm, start, na, nb)
    if run.certified:
        result = MinLambdaResult(lambda_star=run.lam, value=run.value, iterations=run.steps)
        return _Solution(result, nb, run.svd)

    def objective(x: np.ndarray) -> float:
        return _spectral_norm(am + (x[0] + 1j * x[1]) * bm)

    # from a start with Im lambda at rounding level, a simplex scaled to the
    # start's coordinates searches the real axis alone; the steps here are
    # (1 + ||A|| / ||B||) / 2, then a thousandth of it for the restart
    spacing = (1.0 + na / nb) / 2
    edges = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x0 = np.array([run.lam.real, run.lam.imag])
    res = _nelder_mead(objective, x0 + spacing * edges, 1e-11, 1e-14, 600)
    # one restart from the polished point guards against simplex collapse
    res2 = _nelder_mead(objective, res.x + 1e-3 * spacing * edges, 1e-12, 1e-15, 400)
    best = res2 if res2.fun <= res.fun else res
    lam, value, svd = complex(best.x[0], best.x[1]), best.fun, None
    polish = _newton(am, bm, lam, na, nb)
    # with no step taken, the polish would only swap in another SVD's rounding
    if polish.steps and polish.value <= value * (1.0 + 1e-14):
        lam, value, svd = polish.lam, polish.value, polish.svd
    result = MinLambdaResult(
        lambda_star=lam,
        value=value,
        iterations=run.steps + res.nit + res2.nit + polish.steps,
    )
    return _Solution(result, nb, svd)


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
    return _m_value(am, bm, v, _spectral_norm(bm), cfg)


def _m_value(
    am: np.ndarray, bm: np.ndarray, v: np.ndarray, nb: float, cfg: ToleranceConfig
) -> float:
    """``m_functional`` at a unit v, given ||B|| = nb."""
    av, bv = am @ v, bm @ v
    nbv = np.linalg.norm(bv)
    if nbv <= EPS_RANK * max(nb, 1e-300):
        return float(np.linalg.norm(av) ** 2)
    return float(np.linalg.norm(av) ** 2 - abs(np.vdot(av, bv)) ** 2 / nbv**2)


def sup_m(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[float, np.ndarray]:
    """Dual value M(xi*) and the unit vector xi* built from the primal optimum.

    xi* zeroes the quadratic form of D^H B on the top right singular subspace of
    D = A + lambda* B (its first basis vector if no zero is found, or if the
    subspace is one-dimensional).  Weak duality,
    M(xi) <= ||A + lambda B||^2 for every unit xi and lambda, makes the bracket
    [M(xi*), ||A + lambda* B||^2] a certificate however xi* was found.
    lambda* is the shared solution of ``min_lambda_norm``, so this call and
    ``min_lambda_norm`` on the same pair solve for it once between them; ||B||
    and, where the solve factored it, the SVD of D come with that solution.
    M is read on the normalized pair and scaled back by 4^exponent, exactly.
    """
    pair = shared_pair(a, b)
    am, bm = pair.x, pair.y
    solution = _solution(pair)
    d = am + solution.result.lambda_star * bm
    if solution.svd is None:
        sub = _top_right_subspace(d, cfg, rel_tol=1e-7)
    else:
        sub = top_right_space(*solution.svd, cfg, rel_tol=1e-7)
    xi = sub[:, 0]
    if sub.shape[1] > 1:
        # on a one-dimensional subspace W of the 1 x 1 compression is a point,
        # and xi is the basis vector whether or not that point is 0
        zero = _compressed_zero(sub, d.conj().T @ bm, cfg)
        if zero is not None:
            xi = zero
    return float(np.ldexp(_m_value(am, bm, xi, solution.nb, cfg), 2 * pair.exponent)), xi


def bj_orthogonal(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[bool, DensityState | None]:
    """Birkhoff-James decision: a maximizing state of |x|^2 killing <x,y>.

    x = 0 (below eps_eq times the scale of the pair) is declared orthogonal
    to everything (the defining inequality is trivial); any pure state
    witnesses it.
    """
    return _bj_orthogonal(shared_pair(x, y), "x", cfg)


def _bj_orthogonal(
    pair: Pair, side: str, cfg: ToleranceConfig
) -> tuple[bool, DensityState | None]:
    """``bj_orthogonal`` of x to y (``side`` "x") or of y to x ("y"), from the
    maximizing set of |x|^2 (or |y|^2) that the pair keeps."""
    norm, other = (pair.nx, pair.ny) if side == "x" else (pair.ny, pair.nx)
    if norm <= cfg.eps_eq:
        return True, DensityState.pure(np.eye(pair.x.shape[1], 1)[:, 0])
    inner = pair.inner if side == "x" else pair.inner.conj().T
    # the verdict is homogeneous in x and in y separately, so <x, y> is read
    # at unit scale, as the maximizing set is
    witness = witness_in_set_with_zero(
        _maximizers(pair, side, cfg), unit_scaled(inner, norm * other), cfg
    )
    return witness is not None, witness


def bj_lower_bound_check(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> bool:
    """Lattice check of ||x + lam y||^2 >= ||x||^2 + |lam|^2 m(|y|^2).

    The squared norms are read from the pair's shared ``LatticeProfile``.
    """
    # orthogonality imports this module, so its profile is imported here
    from .orthogonality import _lattice_profile

    pair = shared_pair(x, y)
    my = float(np.linalg.svd(pair.y, compute_uv=False)[-1]) ** 2
    profile = _lattice_profile(pair, cfg)
    lhs = profile.norms2
    rhs = pair.nx**2 + np.abs(profile.lams) ** 2 * my
    slack = cfg.eps_opt * (1.0 + rhs)
    return bool(np.all(lhs >= rhs - slack))
