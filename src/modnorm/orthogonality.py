"""Deciders for triangle equalities, Pythagoras identities, and the
orthogonality notions (Birkhoff-James, Roberts, Pythagoras, parallelogram law).

Each decider evaluates every statement of the characterization it implements
and aggregates verdicts, residuals, and witnesses into an
``OrthogonalityReport`` whose ``consistent`` flag asserts the required
agreement between the statements.

Every decider reads the shared ``Pair`` of its inputs (``shared_pair``): the
inputs divided by a power of two, with what is computed from them.  The "for
all lambda" notions read the ``LatticeProfile`` the pair keeps per config:
the squared norms ||x + lam y||^2 at every lattice point, from one stacked
top-eigenvalue solve of the Gram pencil compressed to the pair's joint row
or column space.  The upper half of the Pythagoras definition is decided off
the lattice as well, by an eta certificate confirmed with one norm.  The characterizations are homogeneous, so the verdicts do not depend
on the units of (x, y), and a matrix below eps_eq times the pair's scale
counts as zero.  Statements homogeneous in x and in y separately (maximizing
sets, || |x| |y| || = ||x|| ||y||) are read at their own unit scale, so a
small but nonzero partner is judged relatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_CONFIG, EPS_RANK, ToleranceConfig, seeded_rng
from .linalg import (
    NonSquareError,
    Pair,
    _hermitian_eig,
    _spectral_norm,
    read_only,
    shared_pair,
    spectral_norm,
    top_right_space,
    unit_exponent,
    unit_scaled,
)
from .normopt import HypothesisViolation, _bj_orthogonal
from .numrange import _contains, _dips_below
from .states import VectorState, _compressed_zero, _maximizers, _meet, evaluate


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


def _modulus_product(pair: Pair, tol: float) -> StatementResult:
    """|| |x| |y| || = ||x|| ||y||, with || |x| |y| || = ||x y^*|| (|| |x| z || =
    ||x z|| for every z, applied twice).

    The statement is homogeneous in x and in y separately, so both sides are
    read at unit scale: the tolerance stays relative when one matrix is much
    smaller than the other.
    """
    k = unit_exponent(pair.nx * pair.ny)
    rhs = float(np.ldexp(pair.nx * pair.ny, k))
    return _eq(float(np.ldexp(_spectral_norm(pair.x @ pair.y.conj().T), k)), rhs, tol, rhs)


def _product_in_range(pair: Pair, cfg: ToleranceConfig) -> bool:
    """||x||^2 ||y||^2 in W(|x|^2 |y|^2), read at unit scale like ``_modulus_product``."""
    target = pair.nx**2 * pair.ny**2
    k = unit_exponent(target)
    scaled = float(np.ldexp(target, k))
    return _contains(unit_scaled(pair.gx @ pair.gy, target), scaled, cfg.eps_opt * (1.0 + scaled))


def _re_inner(pair: Pair) -> np.ndarray:
    """Re<x, y> = (x^H y + y^H x) / 2."""
    return (pair.inner + pair.inner.conj().T) / 2


def _sum_gram(pair: Pair) -> np.ndarray:
    """|x + y|^2 = |x|^2 + |y|^2 + 2 Re<x, y>."""
    return pair.gx + pair.gy + 2 * _re_inner(pair)


# ---------------------------------------------------------------------------
# triangle equalities
# ---------------------------------------------------------------------------

def triangle_equality(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """||x+y|| = ||x|| + ||y|| and its numerical-range characterization."""
    pair = shared_pair(x, y)
    nx, ny = pair.nx, pair.ny
    nsum = _spectral_norm(pair.x + pair.y)
    tol = cfg.eps_opt

    statements = {
        "norm_sum": _eq(nsum, nx + ny, tol, nx + ny),
        "product_in_inner_range": StatementResult(
            _contains(pair.inner, nx * ny, tol * (1.0 + nx * ny)),
            0.0,
        ),
    }
    witnesses: list[tuple[str, object]] = []
    if statements["norm_sum"].verdict and nsum > cfg.eps_eq:
        # top eigenvector of |x+y|^2 realizes the shared maximizing state
        v = _hermitian_eig(_sum_gram(pair), cfg).top_space(cfg)[:, 0]
        ok = (
            abs(np.vdot(v, pair.gx @ v) - nx**2) <= 10 * tol * (1.0 + nx**2)
            and abs(np.vdot(v, pair.gy @ v) - ny**2) <= 10 * tol * (1.0 + ny**2)
            and abs(np.vdot(v, pair.inner @ v) - nx * ny) <= 10 * tol * (1.0 + nx * ny)
        )
        if ok:
            witnesses.append(("shared_maximizing_state", VectorState(v)))

    consistent = _check_consistent(
        statements, [["norm_sum", "product_in_inner_range"]]
    )
    return OrthogonalityReport("triangle", statements, witnesses, consistent)


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
    pair = shared_pair(x, y)
    lhs = spectral_norm(alpha * pair.x + beta * pair.y)
    rhs = alpha * pair.nx + beta * pair.ny
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
    pair = shared_pair(x, y)
    nx, ny = pair.nx, pair.ny
    rhs = abs(alpha) * nx + abs(beta) * ny
    holds = abs(spectral_norm(alpha * pair.x + beta * pair.y) - rhs) <= cfg.eps_eq * (1.0 + rhs)
    u, v = alpha / abs(alpha), beta / abs(beta)
    if holds:
        reduced = spectral_norm(u * pair.x + v * pair.y)
        if abs(reduced - (nx + ny)) > 10 * cfg.eps_eq * (1.0 + nx + ny):
            raise AssertionError("unimodular reduction failed to preserve the equality")
    return holds, u, v


def norm_additivity_report(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Five equivalent statements around || |x|^2 + |y|^2 || = ||x||^2 + ||y||^2."""
    pair = shared_pair(x, y)
    nx, ny, gx, gy = pair.nx, pair.ny, pair.gx, pair.gy
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
        return OrthogonalityReport("norm-additivity", statements, witnesses, True)

    meet, witness = _meet_or_degenerate(pair, cfg)
    if witness is not None:
        witnesses.append(("joint_maximizing_state", witness))

    statements = {
        "gram_sum_norm": _eq(_spectral_norm(gx + gy), nx**2 + ny**2, tol, nx**2 + ny**2),
        "modulus_product_norm": _modulus_product(pair, tol),
        "maximizers_meet": StatementResult(meet, 0.0),
        "product_in_range": StatementResult(_product_in_range(pair, cfg), 0.0),
        "sum_in_range": StatementResult(
            _contains(gx + gy, nx**2 + ny**2, tol * (1.0 + nx**2 + ny**2)),
            0.0,
        ),
    }
    consistent = _check_consistent(statements, [list(statements)])
    return OrthogonalityReport("norm-additivity", statements, witnesses, consistent)


def product_norm_check(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[bool, bool]:
    """(||a*a + b*b|| = ||a||^2 + ||b||^2, ||a b*|| = ||a|| ||b||); the two agree."""
    pair = shared_pair(a, b)
    if pair.x.shape[0] != pair.x.shape[1]:
        raise NonSquareError("product_norm_check needs square matrices")
    na, nb = pair.nx, pair.ny
    tol = cfg.eps_opt
    first = abs(_spectral_norm(pair.gx + pair.gy) - (na**2 + nb**2)) <= tol * (
        1.0 + na**2 + nb**2
    )
    second = _modulus_product(pair, tol).verdict
    return first, second


def _meet_or_degenerate(pair: Pair, cfg: ToleranceConfig) -> tuple[bool, VectorState | None]:
    """Whether the maximizing sets of |x|^2 and |y|^2 of the pair meet, and a
    vector state on the first vector of the meet, a zero matrix's set being all
    states."""
    xz = pair.nx <= cfg.eps_eq
    yz = pair.ny <= cfg.eps_eq
    if xz and yz:
        return True, None
    if xz or yz:
        return True, VectorState(_maximizers(pair, "y" if xz else "x", cfg)[:, 0])
    meet = _meet(pair, cfg)
    return meet.shape[1] > 0, VectorState(meet[:, 0]) if meet.shape[1] else None


def parallelogram_two_imply_third(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Parallelogram identity at lambda = 1 and the two maximizing-set meets.

    Any two of the three statements imply the third; ``consistent`` is false
    exactly when two hold and one fails.
    """
    pair = shared_pair(x, y)
    # (x + y, x - y) divided by 1 or 2, so its norms are scaled back exactly
    sums = Pair(pair.x + pair.y, pair.x - pair.y)
    np_, nm = (float(np.ldexp(n, sums.exponent)) for n in (sums.nx, sums.ny))
    rhs = 2 * (pair.nx**2 + pair.ny**2)

    meet_xy, w1 = _meet_or_degenerate(pair, cfg)
    meet_pm, w2 = _meet_or_degenerate(sums, cfg)

    statements = {
        "parallelogram_at_one": _eq(np_**2 + nm**2, rhs, cfg.eps_opt, rhs),
        "maximizers_meet": StatementResult(meet_xy, 0.0),
        "sum_diff_maximizers_meet": StatementResult(meet_pm, 0.0),
    }
    witnesses = [
        (label, w) for label, w in (("joint_state", w1), ("sum_diff_joint_state", w2)) if w
    ]
    trues = sum(s.verdict for s in statements.values())
    return OrthogonalityReport("parallelogram3", statements, witnesses, trues != 2)


def triangle_witness(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[VectorState, np.ndarray] | None:
    """Constructive witness (phi, c) with phi(c*c) = 1, phi(c* a* b c) = ||a|| ||b||.

    Exists exactly when ||a+b|| = ||a|| + ||b||; built from a maximizing unit
    vector of a + b (compactness replaces limit sequences in finite dimension).
    """
    pair = shared_pair(a, b)
    if pair.x.shape[0] != pair.x.shape[1]:
        raise NonSquareError("triangle_witness needs square matrices")
    na, nb = pair.nx, pair.ny
    total = pair.x + pair.y
    _, s, vh = np.linalg.svd(total)
    if abs(float(s[0]) - (na + nb)) > cfg.eps_opt * (1.0 + na + nb):
        return None
    xi = top_right_space(s, vh, cfg)[:, 0]
    e1 = np.eye(total.shape[0], 1, dtype=np.complex128)[:, 0]
    c = np.outer(xi, e1.conj())
    phi = VectorState(e1)
    val = evaluate(phi, c.conj().T @ pair.inner @ c)
    if abs(val - na * nb) > 10 * cfg.eps_opt * (1.0 + na * nb):
        raise AssertionError("triangle witness failed to certify the equality")
    return phi, c


# ---------------------------------------------------------------------------
# Pythagoras identities
# ---------------------------------------------------------------------------

def _nonzero_complex(rng: np.random.Generator) -> complex:
    """A complex draw (real part first) from the standard normal, redrawn
    while its modulus is below 1e-3."""
    z = complex(rng.standard_normal(), rng.standard_normal())
    while abs(z) < 1e-3:
        z = complex(rng.standard_normal(), rng.standard_normal())
    return z


# Coefficient pairs (alpha, beta) that probe the scaled Pythagoras identity.
_PROBES = 20


@lru_cache(maxsize=16)
def _coefficients(seed: int, real_ratio: bool) -> tuple[np.ndarray, ...]:
    """Read-only alpha, beta, |alpha|^2 and |beta|^2 of the seeded nonzero
    coefficient pairs: with conj(alpha) * beta real, or any.  They depend on
    the seed alone, so they are drawn once per seed."""
    if real_ratio:
        rng = seeded_rng(seed, 0x5CA1E5)
        pairs = []
        for _ in range(_PROBES):
            alpha = _nonzero_complex(rng)
            s = float(rng.standard_normal())
            while abs(s) < 1e-3:
                s = float(rng.standard_normal())
            pairs.append((alpha, s * alpha / abs(alpha)))
    else:
        rng = seeded_rng(seed, 0xBE7A)
        pairs = [(_nonzero_complex(rng), _nonzero_complex(rng)) for _ in range(_PROBES)]
    alphas, betas = zip(*pairs)
    return tuple(
        read_only(np.array(values))
        for values in (alphas, betas, [abs(a) ** 2 for a in alphas], [abs(b) ** 2 for b in betas])
    )


def _scaled_residuals(pair: Pair, coefficients: tuple[np.ndarray, ...]) -> np.ndarray:
    """Signed residuals (rhs - lhs) / (1 + rhs) of the scaled identity
    ||alpha x + beta y||^2 = |alpha|^2 ||x||^2 + |beta|^2 ||y||^2, one per
    coefficient pair of ``_coefficients``.

    Every alpha x + beta y comes from one broadcast, bit-identical to forming
    each on its own as a single norm would read it, and all their norms come
    from one batched SVD.
    """
    alphas, betas, alpha2, beta2 = coefficients
    stack = alphas[:, None, None] * pair.x + betas[:, None, None] * pair.y
    norms = np.linalg.svd(stack, compute_uv=False)[:, 0]
    # squared as Python floats, as one norm at a time was, for the same bits
    lhs = np.array([norm**2 for norm in norms.tolist()])
    rhs = alpha2 * pair.nx**2 + beta2 * pair.ny**2
    return (rhs - lhs) / (1.0 + rhs)


def pythagoras_identity(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Pythagoras identity characterizations under Re(<x,y>) <= 0."""
    pair = shared_pair(x, y)
    re_inner = _re_inner(pair)
    # Re<x, y> is Hermitian bit for bit, so its eigenvalues are read directly,
    # by the rule of SpectralDecomposition.is_psd
    w = np.linalg.eigvalsh(-re_inner)
    if w[0] < -cfg.eps_eq * max(abs(w[0]), abs(w[-1]), 1.0):
        raise HypothesisViolation("pythagoras_identity requires Re(<x,y>) <= 0")

    nx, ny = pair.nx, pair.ny
    rhs = nx**2 + ny**2
    tol = cfg.eps_opt
    witnesses: list[tuple[str, object]] = []

    # ||x + y||^2 is also || |x + y|^2 ||, which the decomposed form reads
    sum_norm2 = _spectral_norm(pair.x + pair.y) ** 2
    statements = {"pythagoras": _eq(sum_norm2, rhs, tol, rhs)}

    # joint maximizing state with vanishing real inner part
    if nx <= cfg.eps_eq or ny <= cfg.eps_eq:
        exists, state = _meet_or_degenerate(pair, cfg)
    else:
        # Re<x, y> is read at unit scale, as _bj_orthogonal reads <x, y>
        xi = _compressed_zero(_meet(pair, cfg), unit_scaled(re_inner, nx * ny), cfg)
        exists, state = xi is not None, None if xi is None else VectorState(xi)
    if state is not None:
        witnesses.append(("zero_real_joint_state", state))
    statements["zero_real_joint_state"] = StatementResult(exists, 0.0)

    decomposed_first = abs(sum_norm2 - _spectral_norm(pair.gx + pair.gy)) <= tol * (1.0 + rhs)
    decomposed_second = _modulus_product(pair, tol).verdict
    statements["decomposed"] = StatementResult(decomposed_first and decomposed_second, 0.0)

    if statements["pythagoras"].verdict:
        worst = float(_scaled_residuals(pair, _coefficients(cfg.rng_seed, True)).max())
        statements["scaled_lower_bound"] = StatementResult(worst <= tol, max(worst, 0.0))
    else:
        statements["scaled_lower_bound"] = StatementResult(True, 0.0)

    consistent = _check_consistent(
        statements,
        [["pythagoras", "zero_real_joint_state", "decomposed"]],
        [("pythagoras", "scaled_lower_bound")],
    )
    return OrthogonalityReport("pythagoras-identity", statements, witnesses, consistent)


def scaled_pythagoras_report(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Scaling-invariant Pythagoras characterizations under Re(<x,y>) = 0.

    When additionally <x,y> = 0, the scaled identity is probed at arbitrary
    nonzero coefficient pairs as well.
    """
    pair = shared_pair(x, y)
    nx, ny = pair.nx, pair.ny
    if _spectral_norm(_re_inner(pair)) > cfg.eps_eq * (1.0 + nx * ny):
        raise HypothesisViolation("scaled_pythagoras_report requires Re(<x,y>) = 0")
    zero_inner = _spectral_norm(pair.inner) <= cfg.eps_eq * (1.0 + nx * ny)

    rhs = nx**2 + ny**2
    tol = cfg.eps_opt
    witnesses: list[tuple[str, object]] = []

    if nx <= cfg.eps_eq or ny <= cfg.eps_eq:
        labels = ["pythagoras", "scaled_real_ratio", "modulus_product_norm", "maximizer_equality"]
        if zero_inner:
            labels.append("scaled_any_ratio")
        statements = {label: StatementResult(True, 0.0) for label in labels}
        return OrthogonalityReport("scaled-pythagoras", statements, witnesses, True)

    real_worst = float(np.abs(_scaled_residuals(pair, _coefficients(cfg.rng_seed, True))).max())
    statements = {
        "pythagoras": _eq(_spectral_norm(pair.x + pair.y) ** 2, rhs, tol, rhs),
        "scaled_real_ratio": StatementResult(real_worst <= tol, real_worst),
        "modulus_product_norm": _modulus_product(pair, tol),
    }

    # maximizing-set equality S_{|x+y|^2} = S_{|x|^2} cap S_{|y|^2}
    inter = _meet(pair, cfg)
    sum_basis = _hermitian_eig(_sum_gram(pair), cfg).top_space(cfg)
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
        any_ratio = _coefficients(cfg.rng_seed, False)
        any_worst = float(np.abs(_scaled_residuals(pair, any_ratio)).max())
        statements["scaled_any_ratio"] = StatementResult(any_worst <= tol, any_worst)
        groups[0].append("scaled_any_ratio")

    if equal_sets and inter.shape[1] > 0:
        witnesses.append(("joint_maximizing_state", VectorState(inter[:, 0])))
    consistent = _check_consistent(statements, groups)
    return OrthogonalityReport("scaled-pythagoras", statements, witnesses, consistent)


# ---------------------------------------------------------------------------
# lattice-quantified orthogonality notions
# ---------------------------------------------------------------------------

_ETA_SEEDS = 8  # lattice points whose right singular vectors are candidate etas
# Largest temporary, in bytes, that ``_gram_pencil`` forms for its cross terms.
_PENCIL_BLOCK_BYTES = 1 << 16


def _gram_pencil(
    gx: np.ndarray, gy: np.ndarray, inner: np.ndarray, lams: np.ndarray
) -> np.ndarray:
    """G(lam) = gx + |lam|^2 gy + lam inner + conj(lam) inner^H, stacked over
    ``lams``, bit-identical to summing the four terms in that order.  With
    x^H x, y^H y and x^H y it is the Gram matrix (x + lam y)^H (x + lam y).

    The stack is the only lattice-sized array allocated: the cross terms are
    formed a block of lattice points at a time.  Formed whole, the terms would
    keep three stacks live at once (1.5 MB at n = 8), enough for the C
    allocator to hand the memory back after every profile and fault it in
    again on the next, about 200 page faults per profile.
    """
    lams = lams[:, None, None]
    gram = np.multiply(np.abs(lams) ** 2, gy)
    gram += gx
    step = max(1, _PENCIL_BLOCK_BYTES // max(inner.nbytes, 1))
    for start in range(0, lams.shape[0], step):
        block = slice(start, start + step)
        cross = lams[block] * inner
        gram[block] += cross
        # conj(lam M) = conj(lam) conj(M) exactly; transposed it is the last
        # term.  The top eigenvalue is read from the lower triangle only, so
        # G need not be Hermitian bit for bit.
        gram[block] += np.conjugate(cross, out=cross).swapaxes(1, 2)
    return gram


def _compressed_pencil(pair: Pair, lams: np.ndarray) -> np.ndarray:
    """The Gram pencil of the pair compressed to the smaller of its joint row
    and column spaces, stacked over ``lams``.

    On the row space Q, (x + lam y) Q has the nonzero singular values of
    x + lam y, so its Gram matrix has the top eigenvalue of G(lam).  On the
    column space Q, Q^H (x + lam y) has them, and its left Gram matrix is the
    Gram matrix of (x^H + conj(lam) y^H) Q.  Where the row space is taken
    and is the whole domain, G is formed from the Grams the pair holds.
    """
    rows, cols = pair.row_space, pair.column_space
    if rows.shape[1] <= cols.shape[1]:
        if rows.shape[1] == pair.x.shape[1]:
            return _gram_pencil(pair.gx, pair.gy, pair.inner, lams)
        a, b = pair.x @ rows, pair.y @ rows
    else:
        a, b, lams = pair.x.conj().T @ cols, pair.y.conj().T @ cols, np.conjugate(lams)
    ah = a.conj().T
    return _gram_pencil(ah @ a, b.conj().T @ b, ah @ b, lams)


def _top_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """The largest eigenvalue of each Hermitian matrix in the stack, read from
    its lower triangle as ``eigvalsh`` reads it: in closed form for a 1 x 1
    or 2 x 2 matrix, from one stacked ``eigvalsh`` otherwise."""
    k = gram.shape[-1]
    if k == 0:
        return np.zeros(gram.shape[0])
    if k == 1:
        return gram[:, 0, 0].real
    if k == 2:
        a, d = gram[:, 0, 0].real, gram[:, 1, 1].real
        return (a + d) / 2 + np.hypot((a - d) / 2, np.abs(gram[:, 1, 0]))
    return np.linalg.eigvalsh(gram)[:, -1]


class LatticeProfile:
    """||x + lam y||^2 over the lambda lattice, the top eigenvalues of the
    Gram pencil of the normalized ``Pair`` compressed to its joint row or
    column space.

    ||x + lam y||^2 is the largest eigenvalue of
    G(lam) = x^H x + |lam|^2 y^H y + lam x^H y + conj(lam) y^H x.  A common
    kernel of the pair is a zero block of every G(lam), so the pencil is
    formed on the smaller of the pair's joint row space and joint column
    space (``_compressed_pencil``), of dimension k.  The whole lattice then
    costs four broadcast adds and one stacked top-eigenvalue solve
    (``_top_eigenvalues``): closed forms at k <= 2, one batched ``eigvalsh``
    otherwise.  A pair whose row space is the whole domain, and no larger
    than its column space, forms G from the three Gram matrices it already
    holds.  ``norms2`` keeps those eigenvalues, clipped at 0, and ``norms``
    their square roots.
    Each lattice-quantified statement about the pair reads this one profile.
    The lattice is closed under negation, so ||x - lam_i y|| is entry
    ``cfg.lattice_negation[i]`` of the same profile.

    ``definition`` decides the upper half of the Pythagoras definition off the
    lattice too.  For a unit eta let a = ||x||^2 - ||x eta||^2,
    b = ||y||^2 - ||y eta||^2 and c = <x eta, y eta>.  Then
    ||(x + lam y) eta||^2 - ||x||^2 - |lam|^2 ||y||^2 = -a + 2 Re(lam c) - |lam|^2 b,
    whose supremum over lam is |c|^2 / b - a; so ||x + lam y||^2 <= ||x||^2 +
    |lam|^2 ||y||^2 holds for every lam iff |c|^2 <= a b for every unit eta.
    The candidate etas are the right singular vectors at the lattice points
    nearest to violating it, and the best one is confirmed by one norm.
    ``rank_gate`` takes the SVDs of its own lattice points.

    ``LatticeProfile(pair, cfg)`` builds a profile; the deciders read the one
    a shared ``Pair`` keeps per config (``_lattice_profile``).  A kept profile
    answers bit for bit as a new one, since every answer is a deterministic
    function of the normalized bits and the config, and its arrays are
    read-only, so no decider can change it under another.
    """

    def __init__(self, pair: Pair, cfg: ToleranceConfig = DEFAULT_CONFIG) -> None:
        self.x, self.y, self.nx, self.ny = pair.x, pair.y, pair.nx, pair.ny
        self.cfg = cfg
        self.lams = cfg.lambda_lattice
        gram = _compressed_pencil(pair, self.lams)
        self.norms2 = read_only(np.maximum(_top_eigenvalues(gram), 0.0))
        self.norms = read_only(np.sqrt(self.norms2))
        self._definition: tuple[StatementResult, complex] | None = None
        self._rank_gate: bool | None = None

    def _stack(self, lams: np.ndarray) -> np.ndarray:
        return self.x[None, :, :] + lams[:, None, None] * self.y[None, :, :]

    def _residual(self, lhs: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Signed (||x + lam y||^2 - ||x||^2 - |lam|^2 ||y||^2) / (1 + rhs)."""
        rhs = self.nx**2 + np.abs(lams) ** 2 * self.ny**2
        return (lhs - rhs) / (1.0 + rhs)

    def _eta_candidate(self, signed: np.ndarray) -> complex:
        """The lam of largest predicted residual over the candidate etas, taken
        at the lattice points of largest signed residual ``signed``.

        At each eta the residual -a + 2 t |c| - t^2 b over (p + t^2 q), with
        lam = t conj(c) / |c|, p = 1 + ||x||^2 and q = ||y||^2, peaks at the
        positive root of |c| q t^2 + (b p - a q) t - |c| p = 0.  That t is
        finite even where b = 0, and the residual there is positive exactly
        when |c|^2 > a b.
        """
        count = min(_ETA_SEEDS, signed.size)
        lams = self.lams[np.argpartition(signed, -count)[-count:]]
        _, _, vh = np.linalg.svd(self._stack(lams))
        etas = vh.reshape(-1, vh.shape[-1]).conj()
        xe, ye = etas @ self.x.T, etas @ self.y.T
        a = np.maximum(self.nx**2 - np.sum(np.abs(xe) ** 2, axis=1), 0.0)
        b = np.maximum(self.ny**2 - np.sum(np.abs(ye) ** 2, axis=1), 0.0)
        c = np.sum(xe.conj() * ye, axis=1)
        mod = np.abs(c)
        p, q = 1.0 + self.nx**2, self.ny**2
        lin = b * p - a * q
        root = np.sqrt(lin**2 + 4.0 * mod**2 * p * q)
        # each branch of the quadratic formula written without cancellation
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(lin >= 0.0, 2.0 * mod * p / (lin + root), (root - lin) / (2.0 * mod * q))
        t = np.where(mod > 0.0, t, 0.0)
        best = int(np.argmax((2.0 * t * mod - a - t**2 * b) / (p + t**2 * q)))
        return complex(t[best] * np.conj(c[best]) / mod[best]) if mod[best] > 0.0 else 0j

    def _decide_definition(self) -> tuple[StatementResult, complex]:
        signed = self._residual(self.norms2, self.lams)
        worst = int(np.argmax(np.abs(signed)))
        resid, lam = float(abs(signed[worst])), complex(self.lams[worst])
        eta_lam = self._eta_candidate(signed)
        confirmed = float(
            self._residual(_spectral_norm(self.x + eta_lam * self.y) ** 2, np.array(eta_lam))
        )
        if confirmed > resid:
            resid, lam = confirmed, eta_lam
        return StatementResult(resid <= self.cfg.eps_opt, resid), lam

    def definition(self) -> StatementResult:
        """Pythagoras: ||x + lam y||^2 = ||x||^2 + |lam|^2 ||y||^2 for every lam.

        Both halves are read on the lattice; the upper half is also decided
        from the eta certificate.  The residual is the worst of the two.
        """
        if self._definition is None:
            self._definition = self._decide_definition()
        return self._definition[0]

    @property
    def definition_lambda(self) -> complex:
        """The lam at which ``definition`` read its residual; a violating lam
        when the definition fails."""
        self.definition()
        return self._definition[1]

    def roberts(self) -> bool:
        """Roberts: ||x + lam y|| = ||x - lam y|| on the lattice."""
        plus = self.norms
        minus = plus[self.cfg.lattice_negation]
        scale = self.nx + np.abs(self.lams) * self.ny
        return bool(np.all(np.abs(plus - minus) <= self.cfg.eps_eq * (1.0 + scale)))

    def parallelogram(self) -> bool:
        """||x+lam y||^2 + ||x-lam y||^2 = 2(||x||^2 + |lam|^2 ||y||^2) on the lattice."""
        plus = self.norms2
        minus = plus[self.cfg.lattice_negation]
        rhs = 2 * (self.nx**2 + np.abs(self.lams) ** 2 * self.ny**2)
        return bool(np.all(np.abs(plus + minus - rhs) <= self.cfg.eps_eq * (1.0 + rhs)))

    def rank_gate(self) -> bool:
        """Some x + lam y on the four innermost magnitude rings has numeric rank > 1.

        The rings are read from SVDs of their own, the innermost point first:
        the other points are factored only when it has rank at most 1.
        """
        if self._rank_gate is None:
            rings = self.lams[: 4 * self.cfg.lattice_phases]
            self._rank_gate = self._rank_above_one(rings[:1]) or self._rank_above_one(rings[1:])
        return self._rank_gate

    def _rank_above_one(self, lams: np.ndarray) -> bool:
        svals = np.linalg.svd(self._stack(lams), compute_uv=False)
        ranks = (svals > EPS_RANK * np.maximum(svals[:, :1], 1e-300)).sum(axis=1)
        return bool(np.any(ranks > 1))


def _lattice_profile(pair: Pair, cfg: ToleranceConfig) -> LatticeProfile:
    """The profile ``pair`` keeps for configs equal to ``cfg``, built on first read."""
    return pair.memo(("lattice", cfg), lambda: LatticeProfile(pair, cfg))


def roberts_check(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> bool:
    """||x + lam y|| = ||x - lam y|| at every lattice point."""
    return _lattice_profile(shared_pair(x, y), cfg).roberts()


def parallelogram_law_check(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> bool:
    """||x+lam y||^2 + ||x-lam y||^2 = 2(||x||^2 + |lam|^2 ||y||^2) on the lattice."""
    return _lattice_profile(shared_pair(x, y), cfg).parallelogram()


def pythagoras_witness_vector(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> np.ndarray | None:
    """Unit xi with ||x xi|| = ||x||, ||y xi|| = ||y||, <x xi, y xi> = 0, or None.

    Such a vector must live in the meet of the maximizing sets of |x|^2 and
    |y|^2 (the top right singular subspaces of x and y) that the pair keeps;
    within it the cross terms form a numerical range that has to contain zero.
    """
    return _witness_vector(shared_pair(x, y), cfg)


def _witness_vector(pair: Pair, cfg: ToleranceConfig) -> np.ndarray | None:
    """``pythagoras_witness_vector`` on a pair already built by the caller."""
    if pair.nx <= cfg.eps_eq or pair.ny <= cfg.eps_eq:
        # a zero matrix asks nothing of xi
        return _maximizers(pair, "x" if pair.nx > cfg.eps_eq else "y", cfg)[:, 0].copy()
    return _compressed_zero(_meet(pair, cfg), pair.inner, cfg)


def pythagoras_orthogonal(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> OrthogonalityReport:
    """Pythagoras orthogonality: the definition, operator characterization,
    and the derived property chain.  The definition, rank gate, Roberts and
    parallelogram statements read one ``LatticeProfile``.

    When the rank and positivity gates hold, the definition must agree with
    "parallelogram law plus attained norming vector with vanishing cross term".
    A failed definition carries its certificate, the witness
    ``violating_lambda``.  Symmetry in (x, y) and invariance under
    (alpha x, beta y) are properties of the eta certificate itself, so they
    are not probed here.
    """
    pair = shared_pair(x, y)
    statements: dict[str, StatementResult] = {}
    witnesses: list[tuple[str, object]] = []
    groups: list[list[str]] = []
    implications: list[tuple[str, str]] = []

    profile = _lattice_profile(pair, cfg)
    definition = profile.definition()
    statements["definition"] = definition
    if not definition.verdict:
        witnesses.append(("violating_lambda", profile.definition_lambda))
    parallelogram = profile.parallelogram()

    square = pair.x.shape[0] == pair.x.shape[1]
    rank_gate = False
    positivity_gate = False
    if square:
        rank_gate = profile.rank_gate()

        # lambda_min(Re(e^{i phi} C)) = -h(pi - phi), so a rotation of C = <x, y>
        # is positive iff a support value of C is at most 0
        inner = pair.inner
        scale = max(_spectral_norm(inner), 1.0)
        positivity_gate = _dips_below(inner, cfg.eps_eq * scale)

    statements["rank_gate"] = StatementResult(rank_gate, 0.0)
    statements["positivity_gate"] = StatementResult(positivity_gate, 0.0)

    if square and rank_gate and positivity_gate:
        xi = _witness_vector(pair, cfg)
        statements["witness_form"] = StatementResult(parallelogram and xi is not None, 0.0)
        if xi is not None:
            witnesses.append(("norming_vector", xi))
        groups.append(["definition", "witness_form"])

    # derived property chain: Pythagoras implies Roberts, BJ both ways, and
    # the parallelogram law
    statements["roberts"] = StatementResult(profile.roberts(), 0.0)
    statements["parallelogram"] = StatementResult(parallelogram, 0.0)
    bj_xy, w_xy = _bj_orthogonal(pair, "x", cfg)
    bj_yx, w_yx = _bj_orthogonal(pair, "y", cfg)
    statements["bj_forward"] = StatementResult(bj_xy, 0.0)
    statements["bj_reverse"] = StatementResult(bj_yx, 0.0)
    if w_xy is not None:
        witnesses.append(("bj_forward_state", w_xy))
    if w_yx is not None:
        witnesses.append(("bj_reverse_state", w_yx))
    for label in ("roberts", "parallelogram", "bj_forward", "bj_reverse"):
        implications.append(("definition", label))

    consistent = _check_consistent(statements, groups, implications)
    return OrthogonalityReport("pythagoras", statements, witnesses, consistent)


def pythagoras_via_bj_parallelogram(
    x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[bool, bool]:
    """For |y|^2 a positive scalar multiple of the identity: Pythagoras
    orthogonality against (parallelogram law AND Birkhoff-James).

    The two returned verdicts must coincide.
    """
    pair = shared_pair(x, y)
    gy = pair.gy
    alpha = float(np.trace(gy).real) / gy.shape[0]
    if alpha <= cfg.eps_eq or _spectral_norm(gy - alpha * np.eye(gy.shape[0])) > cfg.eps_eq * (
        1.0 + alpha
    ):
        raise HypothesisViolation("requires |y|^2 to be a positive scalar multiple of I")
    profile = _lattice_profile(pair, cfg)
    bj, _ = _bj_orthogonal(pair, "x", cfg)
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
    violation must stay below eps_opt whenever the relations hold.  The limits
    are given in the units of (a, b), so the norms read from the normalized
    pair are scaled back by its power of two, which is exact.
    """
    pair = shared_pair(a, b)
    if abs(lambda0) < 1e-12 or abs(lambda0 + 1.0) < 1e-12:
        raise ValueError("lambda0 must avoid 0 and -1")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    e = pair.exponent
    na, nb = np.ldexp(pair.nx, e), np.ldexp(pair.ny, e)
    target = (1 + lambda0) ** 2 * na**2 + lambda0**2 * abs(alpha) ** 2 * nb**2
    hyp = np.ldexp(spectral_norm((1 + lambda0) * pair.x + lambda0 * alpha * pair.y), e) ** 2
    if abs(hyp - target) > cfg.eps_opt * (1.0 + target):
        raise HypothesisViolation("scaled norm equality hypothesis fails")

    ac = np.conj(alpha)
    first = a_lim**2 * (lambda0 + 1) + c_lim * ac * lambda0
    second = -(b_lim**2) * abs(alpha) ** 2 * lambda0 - c_lim * ac * (lambda0 + 1)
    tol = cfg.eps_opt * (1.0 + target)
    relations = abs(first - target) <= tol and abs(second - target) <= tol

    profile = _lattice_profile(pair, cfg)
    lams = profile.lams
    norms2 = np.ldexp(profile.norms2, 2 * e)
    numer = target * (lambda0 * abs(alpha) ** 2 - (lambda0 + 1) * np.abs(lams) ** 2)
    numer = numer - np.real(ac * c_lim) * np.abs(lambda0 * alpha - (lambda0 + 1) * lams) ** 2
    bound = numer / (abs(alpha) ** 2 * lambda0 * (lambda0 + 1))
    violation = float(np.max((bound - norms2) / (1.0 + np.abs(bound) + norms2)))
    return relations, max(violation, 0.0)
