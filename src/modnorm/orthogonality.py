"""Deciders for triangle equalities, Pythagoras identities, and the
orthogonality notions (Birkhoff-James, Roberts, Pythagoras, parallelogram law).

Each decider evaluates every statement of the characterization it implements
and aggregates verdicts, residuals, and witnesses into an
``OrthogonalityReport`` whose ``consistent`` flag asserts the required
agreement between the statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import (
    as_matrix,
    hermitian_eig,
    numeric_rank,
    psd_check,
    real_part,
    spectral_norm,
    top_eigenspace,
    top_right_singular_subspace,
)
from .normopt import HypothesisViolation, bj_orthogonal
from .numrange import range_contains, support_values, zero_unit_vector
from .states import (
    DensityState,
    SubspaceProjection,
    evaluate,
    maximizing_set,
    sets_intersect,
    subspace_intersection,
)


@dataclass(frozen=True)
class StatementResult:
    verdict: bool
    residual: float


@dataclass(frozen=True)
class OrthogonalityReport:
    """Verdicts, witnesses, and residuals for one analyzed pair."""

    pair_id: str
    statements: dict[str, StatementResult]
    witnesses: list[tuple[str, object]]
    consistent: bool
    tolerances: ToleranceConfig = field(repr=False, default=DEFAULT_CONFIG)

    def verdict(self, label: str) -> bool:
        return self.statements[label].verdict

    def to_dict(self) -> dict:
        return {
            "pair_id": self.pair_id,
            "consistent": self.consistent,
            "statements": {
                k: {"verdict": v.verdict, "residual": v.residual}
                for k, v in sorted(self.statements.items())
            },
            "witness_labels": sorted(label for label, _ in self.witnesses),
        }


def _check_consistent(
    statements: dict[str, StatementResult],
    groups: list[list[str]],
    implications: list[tuple[str, str]] = (),
) -> bool:
    for group in groups:
        verdicts = {statements[label].verdict for label in group}
        if len(verdicts) > 1:
            return False
    for premise, conclusion in implications:
        if statements[premise].verdict and not statements[conclusion].verdict:
            return False
    return True


def _eq(lhs: float, rhs: float, tol: float, scale: float) -> StatementResult:
    resid = abs(lhs - rhs) / (1.0 + scale)
    return StatementResult(verdict=resid <= tol, residual=resid)


def _pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xm, ym = as_matrix(x), as_matrix(y)
    if xm.shape != ym.shape:
        raise ValueError(f"shape mismatch: {xm.shape} vs {ym.shape}")
    return xm, ym


def _gram(x: np.ndarray) -> np.ndarray:
    return x.conj().T @ x


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x.conj().T @ y


def _modulus_product_norm(x: np.ndarray, y: np.ndarray) -> float:
    """|| |x| |y| || as ||x y^*||: || |x| z || = ||x z|| for every z, applied twice."""
    return spectral_norm(x @ y.conj().T)


# ---------------------------------------------------------------------------
# triangle equalities
# ---------------------------------------------------------------------------

def triangle_equality(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """||x+y|| = ||x|| + ||y|| and its two numerical-range characterizations."""
    xm, ym = _pair(x, y)
    nx, ny = spectral_norm(xm), spectral_norm(ym)
    nsum = spectral_norm(xm + ym)
    tol = cfg.eps_opt
    scale2 = (nx + ny) ** 2

    statements = {
        "norm_sum": _eq(nsum, nx + ny, tol, nx + ny),
        "sum_square_in_range": StatementResult(
            range_contains(
                _gram(xm + ym), (nx + ny) ** 2, cfg, tol=tol * (1.0 + scale2)
            ),
            0.0,
        ),
        "product_in_inner_range": StatementResult(
            range_contains(_inner(xm, ym), nx * ny, cfg, tol=tol * (1.0 + nx * ny)),
            0.0,
        ),
    }
    witnesses: list[tuple[str, object]] = []
    if statements["norm_sum"].verdict and nsum > cfg.eps_eq:
        # top eigenvector of |x+y|^2 realizes the shared maximizing state
        basis = top_eigenspace(_gram(xm + ym), cfg)
        phi = DensityState.pure(basis[:, 0])
        ok = (
            abs(evaluate(phi, _gram(xm)) - nx**2) <= 10 * tol * (1.0 + nx**2)
            and abs(evaluate(phi, _gram(ym)) - ny**2) <= 10 * tol * (1.0 + ny**2)
            and abs(evaluate(phi, _inner(xm, ym)) - nx * ny) <= 10 * tol * (1.0 + nx * ny)
        )
        if ok:
            witnesses.append(("shared_maximizing_state", phi))

    consistent = _check_consistent(
        statements, [["norm_sum", "sum_square_in_range", "product_in_inner_range"]]
    )
    return OrthogonalityReport("triangle", statements, witnesses, consistent, cfg)


def scaled_triangle_persistence(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float,
    beta: float,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> bool:
    """Whether ||a x + b y|| = a ||x|| + b ||y|| for nonnegative weights.

    Must hold whenever the unscaled triangle equality does.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("weights must be nonnegative")
    xm, ym = _pair(x, y)
    lhs = spectral_norm(alpha * xm + beta * ym)
    rhs = alpha * spectral_norm(xm) + beta * spectral_norm(ym)
    return abs(lhs - rhs) <= cfg.eps_eq * (1.0 + rhs)


def unimodular_reduction(
    x: np.ndarray,
    y: np.ndarray,
    alpha: complex,
    beta: complex,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> tuple[bool, complex, complex]:
    """Reduce ||a x + b y|| = |a| ||x|| + |b| ||y|| to unimodular coefficients."""
    if alpha == 0 or beta == 0:
        raise ValueError("coefficients must be nonzero")
    xm, ym = _pair(x, y)
    nx, ny = spectral_norm(xm), spectral_norm(ym)
    rhs = abs(alpha) * nx + abs(beta) * ny
    holds = abs(spectral_norm(alpha * xm + beta * ym) - rhs) <= cfg.eps_eq * (1.0 + rhs)
    u, v = alpha / abs(alpha), beta / abs(beta)
    if holds:
        reduced = spectral_norm(u * xm + v * ym)
        if abs(reduced - (nx + ny)) > 10 * cfg.eps_eq * (1.0 + nx + ny):
            raise AssertionError("unimodular reduction failed to preserve the equality")
    return holds, u, v


def norm_additivity_report(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Five equivalent statements around || |x|^2 + |y|^2 || = ||x||^2 + ||y||^2."""
    xm, ym = _pair(x, y)
    nx, ny = spectral_norm(xm), spectral_norm(ym)
    gx, gy = _gram(xm), _gram(ym)
    tol = cfg.eps_opt
    witnesses: list[tuple[str, object]] = []

    if nx <= cfg.eps_eq or ny <= cfg.eps_eq:
        statements = {
            label: StatementResult(True, 0.0)
            for label in (
                "gram_sum_norm",
                "modulus_product_norm",
                "maximizers_meet",
                "product_in_range",
                "sum_in_range",
            )
        }
        return OrthogonalityReport(
            "norm-additivity", statements, witnesses, True, cfg
        )

    meet, witness = sets_intersect(maximizing_set(gx, cfg), maximizing_set(gy, cfg), cfg)
    if witness is not None:
        witnesses.append(("joint_maximizing_state", witness))

    statements = {
        "gram_sum_norm": _eq(spectral_norm(gx + gy), nx**2 + ny**2, tol, nx**2 + ny**2),
        "modulus_product_norm": _eq(_modulus_product_norm(xm, ym), nx * ny, tol, nx * ny),
        "maximizers_meet": StatementResult(meet, 0.0),
        "product_in_range": StatementResult(
            range_contains(gx @ gy, nx**2 * ny**2, cfg, tol=tol * (1.0 + nx**2 * ny**2)),
            0.0,
        ),
        "sum_in_range": StatementResult(
            range_contains(gx + gy, nx**2 + ny**2, cfg, tol=tol * (1.0 + nx**2 + ny**2)),
            0.0,
        ),
    }
    consistent = _check_consistent(statements, [list(statements)])
    return OrthogonalityReport("norm-additivity", statements, witnesses, consistent, cfg)


def product_norm_check(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[bool, bool]:
    """(||a*a + b*b|| = ||a||^2 + ||b||^2, ||a b*|| = ||a|| ||b||); the two agree."""
    am, bm = _pair(a, b)
    if am.shape[0] != am.shape[1]:
        raise ValueError("product_norm_check needs square matrices")
    na, nb = spectral_norm(am), spectral_norm(bm)
    tol = cfg.eps_opt
    first = abs(spectral_norm(_gram(am) + _gram(bm)) - (na**2 + nb**2)) <= tol * (
        1.0 + na**2 + nb**2
    )
    second = abs(_modulus_product_norm(am, bm) - na * nb) <= tol * (1.0 + na * nb)
    return first, second


def _meet_or_degenerate(
    g: np.ndarray, h: np.ndarray, cfg: ToleranceConfig
) -> tuple[bool, DensityState | None]:
    """Intersection of maximizing sets, treating the zero matrix as 'all states'."""
    gz = spectral_norm(g) <= cfg.eps_eq
    hz = spectral_norm(h) <= cfg.eps_eq
    if gz and hz:
        return True, None
    if gz or hz:
        p = maximizing_set(h if gz else g, cfg)
        return True, DensityState.pure(p.basis[:, 0])
    return sets_intersect(maximizing_set(g, cfg), maximizing_set(h, cfg), cfg)


def parallelogram_two_imply_third(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Parallelogram identity at lambda = 1 and the two maximizing-set meets.

    Any two of the three statements imply the third; ``consistent`` is false
    exactly when two hold and one fails.
    """
    xm, ym = _pair(x, y)
    nx, ny = spectral_norm(xm), spectral_norm(ym)
    np_, nm = spectral_norm(xm + ym), spectral_norm(xm - ym)
    rhs = 2 * (nx**2 + ny**2)

    meet_xy, w1 = _meet_or_degenerate(_gram(xm), _gram(ym), cfg)
    meet_pm, w2 = _meet_or_degenerate(_gram(xm + ym), _gram(xm - ym), cfg)

    statements = {
        "parallelogram_at_one": _eq(np_**2 + nm**2, rhs, cfg.eps_opt, rhs),
        "maximizers_meet": StatementResult(meet_xy, 0.0),
        "sum_diff_maximizers_meet": StatementResult(meet_pm, 0.0),
    }
    witnesses = [
        (label, w) for label, w in (("joint_state", w1), ("sum_diff_joint_state", w2)) if w
    ]
    trues = sum(s.verdict for s in statements.values())
    return OrthogonalityReport(
        "parallelogram3", statements, witnesses, trues != 2, cfg
    )


def triangle_witness(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[DensityState, np.ndarray] | None:
    """Constructive witness (phi, c) with phi(c*c) = 1, phi(c* a* b c) = ||a|| ||b||.

    Exists exactly when ||a+b|| = ||a|| + ||b||; built from a maximizing unit
    vector of a + b (compactness replaces limit sequences in finite dimension).
    """
    am, bm = _pair(a, b)
    if am.shape[0] != am.shape[1]:
        raise ValueError("triangle_witness needs square matrices")
    na, nb = spectral_norm(am), spectral_norm(bm)
    if abs(spectral_norm(am + bm) - (na + nb)) > cfg.eps_opt * (1.0 + na + nb):
        return None
    xi = top_right_singular_subspace(am + bm, cfg)[:, 0]
    n = am.shape[0]
    e1 = np.zeros(n, dtype=np.complex128)
    e1[0] = 1.0
    c = np.outer(xi, e1.conj())
    phi = DensityState.pure(e1)
    val = evaluate(phi, c.conj().T @ am.conj().T @ bm @ c)
    if abs(val - na * nb) > 10 * cfg.eps_opt * (1.0 + na * nb):
        raise AssertionError("triangle witness failed to certify the equality")
    return phi, c


# ---------------------------------------------------------------------------
# Pythagoras identities
# ---------------------------------------------------------------------------

def _real_ratio_pairs(cfg: ToleranceConfig, count: int = 20) -> list[tuple[complex, complex]]:
    """Seeded nonzero pairs (alpha, beta) with conj(alpha) * beta real."""
    rng = cfg.rng(0x5CA1E5)
    pairs = []
    for _ in range(count):
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        while abs(alpha) < 1e-3:
            alpha = complex(rng.standard_normal(), rng.standard_normal())
        s = float(rng.standard_normal())
        while abs(s) < 1e-3:
            s = float(rng.standard_normal())
        pairs.append((alpha, s * alpha / abs(alpha)))
    return pairs


def _scaled_residuals(
    xm: np.ndarray,
    ym: np.ndarray,
    nx: float,
    ny: float,
    pairs: list[tuple[complex, complex]],
) -> np.ndarray:
    """Signed residuals (rhs - lhs) / (1 + rhs) of the scaled identity
    ||alpha x + beta y||^2 = |alpha|^2 ||x||^2 + |beta|^2 ||y||^2, one per pair."""
    out = []
    for alpha, beta in pairs:
        lhs = spectral_norm(alpha * xm + beta * ym) ** 2
        rhs = abs(alpha) ** 2 * nx**2 + abs(beta) ** 2 * ny**2
        out.append((rhs - lhs) / (1.0 + rhs))
    return np.array(out)


def pythagoras_identity(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Pythagoras identity characterizations under Re(<x,y>) <= 0."""
    xm, ym = _pair(x, y)
    re_inner = real_part(_inner(xm, ym))
    if not psd_check(-re_inner, cfg):
        raise HypothesisViolation("pythagoras_identity requires Re(<x,y>) <= 0")

    nx, ny = spectral_norm(xm), spectral_norm(ym)
    gx, gy = _gram(xm), _gram(ym)
    rhs = nx**2 + ny**2
    tol = cfg.eps_opt
    witnesses: list[tuple[str, object]] = []

    statements = {
        "pythagoras": _eq(spectral_norm(xm + ym) ** 2, rhs, tol, rhs),
        "sum_in_range": StatementResult(
            range_contains(_gram(xm + ym), rhs, cfg, tol=tol * (1.0 + rhs)), 0.0
        ),
    }

    # joint maximizing state with vanishing real inner part
    exists = False
    if nx <= cfg.eps_eq or ny <= cfg.eps_eq:
        exists = True
        if max(nx, ny) > cfg.eps_eq:
            basis = top_eigenspace(gy if nx <= cfg.eps_eq else gx, cfg)
            witnesses.append(("zero_real_joint_state", DensityState.pure(basis[:, 0])))
    else:
        inter = subspace_intersection(
            maximizing_set(gx, cfg), maximizing_set(gy, cfg), cfg
        )
        if inter.shape[1] > 0:
            comp = inter.conj().T @ re_inner @ inter
            dec = hermitian_eig(comp, cfg)
            lo, hi = dec.eigenvalues[-1], dec.eigenvalues[0]
            slack = tol * (1.0 + nx * ny)
            if lo <= slack and hi >= -slack:
                exists = True
                if hi <= slack and lo >= -slack:
                    phi = DensityState.pure(inter @ dec.eigenvectors[:, 0])
                else:
                    t = hi / (hi - lo)
                    phi = DensityState.mix(
                        [
                            (1.0 - t, DensityState.pure(inter @ dec.eigenvectors[:, 0])),
                            (t, DensityState.pure(inter @ dec.eigenvectors[:, -1])),
                        ]
                    )
                witnesses.append(("zero_real_joint_state", phi))
    statements["zero_real_joint_state"] = StatementResult(exists, 0.0)

    decomposed_first = abs(
        spectral_norm(gx + 2 * re_inner + gy) - spectral_norm(gx + gy)
    ) <= tol * (1.0 + rhs)
    decomposed_second = abs(_modulus_product_norm(xm, ym) - nx * ny) <= tol * (1.0 + nx * ny)
    statements["decomposed"] = StatementResult(decomposed_first and decomposed_second, 0.0)

    if statements["pythagoras"].verdict:
        worst = float(_scaled_residuals(xm, ym, nx, ny, _real_ratio_pairs(cfg)).max())
        statements["scaled_lower_bound"] = StatementResult(worst <= tol, max(worst, 0.0))
    else:
        statements["scaled_lower_bound"] = StatementResult(True, 0.0)

    consistent = _check_consistent(
        statements,
        [["pythagoras", "sum_in_range", "zero_real_joint_state", "decomposed"]],
        [("pythagoras", "scaled_lower_bound")],
    )
    return OrthogonalityReport("pythagoras-identity", statements, witnesses, consistent, cfg)


def scaled_pythagoras_report(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Scaling-invariant Pythagoras characterizations under Re(<x,y>) = 0.

    When additionally <x,y> = 0, the scaled identity is probed at arbitrary
    nonzero coefficient pairs as well.
    """
    xm, ym = _pair(x, y)
    nx, ny = spectral_norm(xm), spectral_norm(ym)
    inner = _inner(xm, ym)
    if spectral_norm(real_part(inner)) > cfg.eps_eq * (1.0 + nx * ny):
        raise HypothesisViolation("scaled_pythagoras_report requires Re(<x,y>) = 0")
    zero_inner = spectral_norm(inner) <= cfg.eps_eq * (1.0 + nx * ny)

    gx, gy = _gram(xm), _gram(ym)
    rhs = nx**2 + ny**2
    tol = cfg.eps_opt
    witnesses: list[tuple[str, object]] = []

    if nx <= cfg.eps_eq or ny <= cfg.eps_eq:
        labels = ["pythagoras", "scaled_real_ratio", "modulus_product_norm", "maximizer_equality"]
        if zero_inner:
            labels.append("scaled_any_ratio")
        statements = {label: StatementResult(True, 0.0) for label in labels}
        return OrthogonalityReport("scaled-pythagoras", statements, witnesses, True, cfg)

    real_worst = float(np.abs(_scaled_residuals(xm, ym, nx, ny, _real_ratio_pairs(cfg))).max())
    statements = {
        "pythagoras": _eq(spectral_norm(xm + ym) ** 2, rhs, tol, rhs),
        "scaled_real_ratio": StatementResult(real_worst <= tol, real_worst),
        "modulus_product_norm": _eq(_modulus_product_norm(xm, ym), nx * ny, tol, nx * ny),
    }

    # maximizing-set equality S_{|x+y|^2} = S_{|x|^2} cap S_{|y|^2}
    p_x, p_y = maximizing_set(gx, cfg), maximizing_set(gy, cfg)
    inter = subspace_intersection(p_x, p_y, cfg)
    sum_basis = top_eigenspace(_gram(xm + ym), cfg)
    if inter.shape[1] != sum_basis.shape[1]:
        equal_sets = False
    elif inter.shape[1] == 0:
        equal_sets = True
    else:
        cosines = np.linalg.svd(sum_basis.conj().T @ inter, compute_uv=False)
        equal_sets = bool(cosines[-1] >= 1.0 - cfg.eps_opt)
    statements["maximizer_equality"] = StatementResult(equal_sets, 0.0)

    groups = [["pythagoras", "scaled_real_ratio", "modulus_product_norm", "maximizer_equality"]]
    if zero_inner:
        rng = cfg.rng(0xBE7A)
        pairs = []
        for _ in range(20):
            pair = []
            for _ in range(2):
                z = complex(rng.standard_normal(), rng.standard_normal())
                while abs(z) < 1e-3:
                    z = complex(rng.standard_normal(), rng.standard_normal())
                pair.append(z)
            pairs.append(tuple(pair))
        any_worst = float(np.abs(_scaled_residuals(xm, ym, nx, ny, pairs)).max())
        statements["scaled_any_ratio"] = StatementResult(any_worst <= tol, any_worst)
        groups[0].append("scaled_any_ratio")

    if equal_sets and inter.shape[1] > 0:
        witnesses.append(("joint_maximizing_state", DensityState.pure(inter[:, 0])))
    consistent = _check_consistent(statements, groups)
    return OrthogonalityReport("scaled-pythagoras", statements, witnesses, consistent, cfg)


# ---------------------------------------------------------------------------
# lattice-quantified orthogonality notions
# ---------------------------------------------------------------------------

class LatticeProfile:
    """Every singular value of x + lam y over the lambda lattice, from one
    batched SVD, plus ||x|| and ||y||.

    Each lattice-quantified statement about the pair reads this one profile.
    The lattice is closed under negation, so sigma_max(x - lam_i y) is row
    ``cfg.lattice_negation[i]`` of the same profile.  ``norms`` passes in
    (||x||, ||y||) when the caller already has them.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        cfg: ToleranceConfig = DEFAULT_CONFIG,
        norms: tuple[float, float] | None = None,
    ) -> None:
        xm, ym = _pair(x, y)
        self.cfg = cfg
        self.lams = np.asarray(cfg.lambda_lattice)
        stack = xm[None, :, :] + self.lams[:, None, None] * ym[None, :, :]
        self.svals = np.linalg.svd(stack, compute_uv=False)
        self.nx, self.ny = norms if norms is not None else (spectral_norm(xm), spectral_norm(ym))

    @property
    def norms(self) -> np.ndarray:
        """||x + lam y|| at each lattice point."""
        return self.svals[:, 0]

    def definition(self) -> StatementResult:
        """Pythagoras: ||x + lam y||^2 = ||x||^2 + |lam|^2 ||y||^2 on the lattice."""
        lhs = self.norms**2
        rhs = self.nx**2 + np.abs(self.lams) ** 2 * self.ny**2
        resid = float(np.max(np.abs(lhs - rhs) / (1.0 + rhs)))
        return StatementResult(resid <= self.cfg.eps_opt, resid)

    def roberts(self) -> bool:
        """Roberts: ||x + lam y|| = ||x - lam y|| on the lattice."""
        plus = self.norms
        minus = plus[self.cfg.lattice_negation]
        scale = self.nx + np.abs(self.lams) * self.ny
        return bool(np.all(np.abs(plus - minus) <= self.cfg.eps_eq * (1.0 + scale)))

    def parallelogram(self) -> bool:
        """||x+lam y||^2 + ||x-lam y||^2 = 2(||x||^2 + |lam|^2 ||y||^2) on the lattice."""
        plus = self.norms**2
        minus = plus[self.cfg.lattice_negation]
        rhs = 2 * (self.nx**2 + np.abs(self.lams) ** 2 * self.ny**2)
        return bool(np.all(np.abs(plus + minus - rhs) <= self.cfg.eps_eq * (1.0 + rhs)))

    def rank_gate(self) -> bool:
        """Some x + lam y on the four innermost magnitude rings has numeric rank > 1."""
        svals = self.svals[: 4 * self.cfg.lattice_phases]
        ranks = (svals > self.cfg.eps_rank * np.maximum(svals[:, :1], 1e-300)).sum(axis=1)
        return bool(np.any(ranks > 1))


def roberts_check(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> bool:
    """||x + lam y|| = ||x - lam y|| at every lattice point."""
    return LatticeProfile(x, y, cfg).roberts()


def parallelogram_law_check(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> bool:
    """||x+lam y||^2 + ||x-lam y||^2 = 2(||x||^2 + |lam|^2 ||y||^2) on the lattice."""
    return LatticeProfile(x, y, cfg).parallelogram()


def pythagoras_witness_vector(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> np.ndarray | None:
    """Unit xi with ||x xi|| = ||x||, ||y xi|| = ||y||, <x xi, y xi> = 0, or None.

    Such a vector must live in the intersection of the top right singular
    subspaces; within it the cross terms form a numerical range that has to
    contain zero.
    """
    xm, ym = _pair(x, y)
    nx, ny = spectral_norm(xm), spectral_norm(ym)
    if nx <= cfg.eps_eq or ny <= cfg.eps_eq:
        zm = xm if nx > cfg.eps_eq else ym
        sub = top_right_singular_subspace(zm, cfg)
        return np.asarray(sub[:, 0])
    p = SubspaceProjection.from_basis(top_right_singular_subspace(xm, cfg))
    q = SubspaceProjection.from_basis(top_right_singular_subspace(ym, cfg))
    inter = subspace_intersection(p, q, cfg)
    if inter.shape[1] == 0:
        return None
    comp = inter.conj().T @ _inner(xm, ym) @ inter
    zero = zero_unit_vector(comp, cfg)
    if zero is None:
        return None
    return inter @ zero[0]


def pythagoras_orthogonal(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Pythagoras orthogonality: lattice definition, operator characterization,
    and the derived property chain.

    When the rank and positivity gates hold, the definition must agree with
    "parallelogram law plus attained norming vector with vanishing cross term".
    """
    xm, ym = _pair(x, y)
    statements: dict[str, StatementResult] = {}
    witnesses: list[tuple[str, object]] = []
    groups: list[list[str]] = []
    implications: list[tuple[str, str]] = []

    profile = LatticeProfile(xm, ym, cfg)
    definition = profile.definition()
    statements["definition"] = definition
    parallelogram = profile.parallelogram()

    square = xm.shape[0] == xm.shape[1]
    rank_gate = False
    positivity_gate = False
    if square:
        rank_gate = profile.rank_gate()

        # lambda_min(Re(e^{i phi} C)) = -h(pi - phi), so a rotation of C = <x, y>
        # is positive iff a support value of C is at most 0
        inner = _inner(xm, ym)
        thetas = 2 * np.pi * np.arange(cfg.phase_grid) / cfg.phase_grid
        scale = max(spectral_norm(inner), 1.0)
        positivity_gate = bool(np.any(support_values(inner, thetas) <= cfg.eps_eq * scale))

    statements["rank_gate"] = StatementResult(rank_gate, 0.0)
    statements["positivity_gate"] = StatementResult(positivity_gate, 0.0)

    if square and rank_gate and positivity_gate:
        xi = pythagoras_witness_vector(xm, ym, cfg)
        statements["witness_form"] = StatementResult(parallelogram and xi is not None, 0.0)
        if xi is not None:
            witnesses.append(("norming_vector", xi))
        groups.append(["definition", "witness_form"])

    # derived property chain: Pythagoras implies Roberts, BJ both ways, and
    # the parallelogram law
    statements["roberts"] = StatementResult(profile.roberts(), 0.0)
    statements["parallelogram"] = StatementResult(parallelogram, 0.0)
    bj_xy, w_xy = bj_orthogonal(xm, ym, cfg)
    bj_yx, w_yx = bj_orthogonal(ym, xm, cfg)
    statements["bj_forward"] = StatementResult(bj_xy, 0.0)
    statements["bj_reverse"] = StatementResult(bj_yx, 0.0)
    if w_xy is not None:
        witnesses.append(("bj_forward_state", w_xy))
    if w_yx is not None:
        witnesses.append(("bj_reverse_state", w_yx))
    for label in ("roberts", "parallelogram", "bj_forward", "bj_reverse"):
        implications.append(("definition", label))

    swapped = LatticeProfile(ym, xm, cfg, norms=(profile.ny, profile.nx))
    statements["symmetric"] = StatementResult(
        swapped.definition().verdict == definition.verdict, 0.0
    )
    rng = cfg.rng(0x4075)
    homogeneous = True
    for _ in range(3):
        alpha = complex(rng.standard_normal(), rng.standard_normal()) + 0.2
        beta = complex(rng.standard_normal(), rng.standard_normal()) + 0.2
        norms = (abs(alpha) * profile.nx, abs(beta) * profile.ny)
        scaled = LatticeProfile(alpha * xm, beta * ym, cfg, norms=norms).definition()
        if scaled.verdict != definition.verdict:
            homogeneous = False
    statements["homogeneous"] = StatementResult(homogeneous, 0.0)
    groups.append(["symmetric"])
    implications.append(("definition", "homogeneous"))

    consistent = _check_consistent(statements, groups, implications) and statements[
        "symmetric"
    ].verdict
    return OrthogonalityReport("pythagoras", statements, witnesses, consistent, cfg)


def pythagoras_via_bj_parallelogram(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[bool, bool]:
    """For |y|^2 a positive scalar multiple of the identity: Pythagoras
    orthogonality against (parallelogram law AND Birkhoff-James).

    The two returned verdicts must coincide.
    """
    xm, ym = _pair(x, y)
    gy = _gram(ym)
    alpha = float(np.trace(gy).real) / gy.shape[0]
    if alpha <= cfg.eps_eq or spectral_norm(gy - alpha * np.eye(gy.shape[0])) > cfg.eps_eq * (
        1.0 + alpha
    ):
        raise HypothesisViolation("requires |y|^2 to be a positive scalar multiple of I")
    profile = LatticeProfile(xm, ym, cfg)
    bj, _ = bj_orthogonal(xm, ym, cfg)
    return profile.definition().verdict, bj and profile.parallelogram()


def limit_relations_check(
    a: np.ndarray,
    b: np.ndarray,
    lambda0: float,
    alpha: complex,
    a_lim: float,
    b_lim: float,
    c_lim: complex,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> tuple[bool, float]:
    """Check the limit relations tying (a, b, c) to the scaled norm equality,
    and evaluate the induced lower bound for ||A + lam B||^2 on the lattice.

    Returns (relations hold, worst scale-normalized bound violation).  The
    violation must stay below eps_opt whenever the relations hold.
    """
    am, bm = _pair(a, b)
    if abs(lambda0) < 1e-12 or abs(lambda0 + 1.0) < 1e-12:
        raise ValueError("lambda0 must avoid 0 and -1")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    na, nb = spectral_norm(am), spectral_norm(bm)
    target = (1 + lambda0) ** 2 * na**2 + lambda0**2 * abs(alpha) ** 2 * nb**2
    hyp = spectral_norm((1 + lambda0) * am + lambda0 * alpha * bm) ** 2
    if abs(hyp - target) > cfg.eps_opt * (1.0 + target):
        raise HypothesisViolation("scaled norm equality hypothesis fails")

    ac = np.conj(alpha)
    first = a_lim**2 * (lambda0 + 1) + c_lim * ac * lambda0
    second = -(b_lim**2) * abs(alpha) ** 2 * lambda0 - c_lim * ac * (lambda0 + 1)
    tol = cfg.eps_opt * (1.0 + target)
    relations = abs(first - target) <= tol and abs(second - target) <= tol

    profile = LatticeProfile(am, bm, cfg, norms=(na, nb))
    lams = profile.lams
    norms2 = profile.norms**2
    numer = target * (lambda0 * abs(alpha) ** 2 - (lambda0 + 1) * np.abs(lams) ** 2)
    numer = numer - np.real(ac * c_lim) * np.abs(lambda0 * alpha - (lambda0 + 1) * lams) ** 2
    bound = numer / (abs(alpha) ** 2 * lambda0 * (lambda0 + 1))
    violation = float(np.max((bound - norms2) / (1.0 + np.abs(bound) + norms2)))
    return relations, max(violation, 0.0)
