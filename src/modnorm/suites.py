"""Randomized verification suites.

Each suite generates seeded pairs (mixing engineered true/false families with
generic draws), runs the relevant deciders, and records any violated
agreement as a failure.  Suites are deterministic functions of (name, seed,
count) and are sized to finish within a desk-scale time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closedforms import (
    RankOnePair,
    bj_engineered_true,
    case_rng,
    corner_block_pair,
    fkm_block,
    fkm_norm,
    gate_pair,
    hat_function_pair,
    rand_complex,
    rand_unit,
    rand_unitary,
    rank_one_classify,
    rank_one_norm,
    rank_persistence,
    shared_top_pair,
    triangle_pair,
    weighted_shift_norm,
    weighted_shift_pair,
)
from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import (
    adjoint,
    modulus,
    numeric_rank,
    real_part,
    shared_pair,
    spectral_norm,
)
from .normopt import (
    bj_lower_bound_check,
    bj_orthogonal,
    m_functional,
    min_lambda_norm,
    sup_m,
)
from .orthogonality import (
    _lattice_profile,
    norm_additivity_report,
    pythagoras_identity,
    pythagoras_orthogonal,
    pythagoras_witness_vector,
    scaled_triangle_persistence,
    triangle_equality,
    triangle_witness,
    unimodular_reduction,
)
from .states import evaluate


@dataclass
class SuiteReport:
    """Outcome of one suite run; failures empty iff every case is consistent."""

    suite_name: str
    seed: int
    cases: list[dict]
    failures: list[tuple[str, str, float]]

    def to_dict(self) -> dict:
        return {
            "suite_name": self.suite_name,
            "seed": self.seed,
            "case_count": len(self.cases),
            "cases": self.cases,
            "failures": [
                {"pair_id": p, "statement": s, "residual": float(r)}
                for p, s, r in self.failures
            ],
        }


@dataclass
class _Recorder:
    cases: list[dict] = field(default_factory=list)
    failures: list[tuple[str, str, float]] = field(default_factory=list)

    def case(self, pair_id: str, **info: object) -> None:
        self.cases.append({"pair_id": pair_id, **info})

    def check(self, pair_id: str, statement: str, ok: bool, residual: float = 0.0) -> None:
        if not ok:
            self.failures.append((pair_id, statement, float(residual)))


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _suite_minmax_duality(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """min over lambda of ||A + lambda B||^2 equals sup of the sphere functional."""
    rec = _Recorder()
    dims = (2, 3, 4, 5)
    for i in range(count):
        rng = case_rng(seed, i)
        n = dims[i % len(dims)]
        a = rand_complex(rng, n, n)
        b = rand_complex(rng, n, n)
        if i % 7 == 3:
            b = np.zeros_like(b)  # degenerate branch
        opt = min_lambda_norm(a, b, cfg)
        sup, xi = sup_m(a, b, cfg)
        gap = abs(opt.value**2 - sup) / (1.0 + spectral_norm(a) ** 2)
        pid = f"duality-{i}"
        rec.case(pid, dim=n, gap=gap)
        rec.check(pid, "minmax_duality", gap <= cfg.eps_opt, gap)
        mv = m_functional(a, b, xi, cfg)
        rec.check(
            pid,
            "maximizer_attains",
            abs(mv - sup) <= cfg.eps_opt * (1.0 + abs(sup)),
            abs(mv - sup),
        )
    return rec


def _suite_norm_additivity(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Five-way agreement for || |x|^2 + |y|^2 || = ||x||^2 + ||y||^2."""
    rec = _Recorder()
    for i in range(count):
        rng = case_rng(seed, i)
        n = 2 + i % 3
        shared = i % 2 == 0
        x, y = shared_top_pair(rng, n, shared)
        rep = norm_additivity_report(x, y, cfg)
        pid = f"norm-additivity-{i}"
        rec.case(pid, report=rep.to_dict(), shared_construction=shared)
        rec.check(pid, "report_consistent", rep.consistent)
        if shared:
            rec.check(pid, "true_by_construction", rep.verdict("gram_sum_norm"))
        for label, witness in rep.witnesses:
            val = evaluate(witness, x.conj().T @ x)
            resid = abs(val - spectral_norm(x) ** 2)
            rec.check(pid, f"witness_{label}", resid <= 1e-5 * (1.0 + abs(val)), resid)

        # the triangle equality machinery on a colinear and a generic pair
        if i % 5 == 0:
            t = float(rng.uniform(0.5, 2.0))
            rep_tri = triangle_equality(x, t * x, cfg)
            rec.check(pid, "triangle_colinear", rep_tri.verdict("norm_sum"))
            rec.check(pid, "triangle_consistent", rep_tri.consistent)
            # 2x + 3j tx has norm |2 + 3jt| ||x|| < (2 + 3t) ||x||; 2j and 3j share a phase
            holds, _, _ = unimodular_reduction(x, t * x, 2.0, 3.0j, cfg)
            rec.check(pid, "unimodular_reduction_false", not holds)
            holds, u, v = unimodular_reduction(x, t * x, 2.0j, 3.0j, cfg)
            rec.check(pid, "unimodular_reduction_true", holds and u == v == 1j)
            # the operator certificate: a state phi and c with phi(c*c) = 1
            # and phi(c* x* (t x) c) = ||x|| ||t x||
            cert = triangle_witness(x, t * x, cfg)
            rec.check(pid, "triangle_witness_colinear", cert is not None)
            if cert is not None:
                phi, c = cert
                target = spectral_norm(x) * spectral_norm(t * x)
                for label, val, want in (
                    ("unit", evaluate(phi, c.conj().T @ c), 1.0),
                    ("attains", evaluate(phi, c.conj().T @ x.conj().T @ (t * x) @ c), target),
                ):
                    resid = abs(val - want)
                    rec.check(pid, f"triangle_witness_{label}", resid <= 1e-5 * (1.0 + want), resid)
            # nonnegative weights keep the equality
            s1, s2 = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
            rec.check(
                pid, "triangle_scaled_persists", scaled_triangle_persistence(x, t * x, s1, s2, cfg)
            )
            # a witness exists exactly when the equality holds: on the generic
            # pair, where it fails, and on a pair that attains it without
            # being colinear
            top = triangle_pair(rng, n)
            rec.check(pid, "triangle_shared_top", triangle_equality(*top, cfg).verdict("norm_sum"))
            for a, b in ((x, y), top):
                rec.check(
                    pid,
                    "triangle_witness_iff_norm_sum",
                    (triangle_witness(a, b, cfg) is not None)
                    == triangle_equality(a, b, cfg).verdict("norm_sum"),
                )
    return rec


def _suite_weighted_shift(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Truncated weighted-shift pair: closed form, error bound, limit identity."""
    rec = _Recorder()
    m = 20
    a, b = weighted_shift_pair(m)
    for k, lam in enumerate(cfg.lambda_lattice[:50]):
        pid = f"shift-m20-{k}"
        exact = weighted_shift_norm(m, complex(lam))
        measured = spectral_norm(a + lam * b)
        resid = abs(exact - measured) / (1.0 + exact)
        rec.check(pid, "closed_form", resid <= cfg.eps_eq, resid)
        limit = 1.0 + abs(lam) ** 2
        err = abs(measured**2 - limit)
        rec.case(pid, lam=[lam.real, lam.imag], truncation_error=err)
        rec.check(pid, "limit_identity", err <= 2.0**-m * limit, err)
    for i in range(min(count, 20)):
        rng = case_rng(seed, 1000 + i)
        mm = int(rng.integers(1, 12))
        lam = complex(*rng.standard_normal(2))
        am, bm = weighted_shift_pair(mm)
        resid = abs(weighted_shift_norm(mm, lam) - spectral_norm(am + lam * bm))
        rec.check(f"shift-rand-{i}", "closed_form", resid <= cfg.eps_eq * 10, resid)
    # the untruncated pair has overlapping ranges, so the product never vanishes
    rec.check("shift-inner", "inner_product_nonzero", spectral_norm(adjoint(a) @ b) > 0.1)
    return rec


def _suite_corner_block(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Corner-block pairs: closed norm and the Pythagoras criterion ||S^H T|| = ||S|| ||T||."""
    rec = _Recorder()
    for i in range(count):
        rng = case_rng(seed, i)
        n = 2 + i % 2
        kind = i % 3
        if kind == 0:
            s = rand_complex(rng, n, n)
            t = rand_complex(rng, n, n)
        elif kind == 1:
            # scalar multiple of a unitary (hence coisometric): criterion holds
            s = float(rng.uniform(0.5, 2.0)) * rand_unitary(rng, n)
            t = rand_complex(rng, n, n)
        else:
            # projection onto a range containing ran T: criterion holds
            u = rand_unitary(rng, n)
            p = u[:, :1] @ u[:, :1].conj().T
            s = p
            t = p @ rand_complex(rng, n, n)
        lam = complex(*rng.standard_normal(2))
        a, b, closed = corner_block_pair(s, t, lam)
        pid = f"corner-{i}"
        resid = abs(closed - spectral_norm(a + lam * b)) / (1.0 + closed)
        rec.check(pid, "closed_form", resid <= cfg.eps_eq, resid)

        crit = abs(
            spectral_norm(s.conj().T @ t) - spectral_norm(s) * spectral_norm(t)
        ) <= cfg.eps_opt * (1.0 + spectral_norm(s) * spectral_norm(t))
        profile = _lattice_profile(shared_pair(a, b), cfg)
        pyth = profile.definition().verdict
        par = profile.parallelogram()
        rec.case(pid, kind=kind, criterion=crit, pythagoras=pyth, parallelogram=par)
        rec.check(pid, "pythagoras_iff_criterion", pyth == crit)
        rec.check(pid, "parallelogram_iff_pythagoras", par == pyth)
        bj_ab, _ = bj_orthogonal(a, b, cfg)
        bj_ba, _ = bj_orthogonal(b, a, cfg)
        rec.check(pid, "bj_both_ways", bj_ab and bj_ba)
        rec.check(pid, "roberts", profile.roberts())
        inner_zero = spectral_norm(adjoint(a) @ b) <= cfg.eps_eq
        ranges_orth = spectral_norm(s.conj().T @ t) <= cfg.eps_eq * (
            1.0 + spectral_norm(s) * spectral_norm(t)
        )
        rec.check(pid, "inner_zero_iff_orthogonal_ranges", inner_zero == ranges_orth)
    # engineered orthogonal-range false case
    e1 = np.zeros((2, 2), dtype=np.complex128)
    e1[0, 0] = 1.0
    e2 = np.zeros((2, 2), dtype=np.complex128)
    e2[1, 1] = 1.0
    a, b, _ = corner_block_pair(e1, e2, 1.0)
    pyth = _lattice_profile(shared_pair(a, b), cfg).definition().verdict
    rec.check("corner-rank-one", "pythagoras_false", not pyth)
    return rec


def _suite_scalar_block(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Scalar-block pairs: closed-form norm and the full verdict table."""
    rec = _Recorder()
    for i in range(count):
        rng = case_rng(seed, i)
        n = 2 + i % 2
        a0, b0, c0, d0 = (complex(*rng.standard_normal(2)) for _ in range(4))
        kind = i % 4
        if kind == 1:
            a0, c0 = 0.0, 0.0  # ad = 0, bc = 0 -> Pythagoras
        elif kind == 2:
            d0, b0 = 0.0, 0.0
        elif kind == 3:
            c0 = 0.0  # bc = 0 only
        x = rand_unitary(rng, n) * float(rng.uniform(0.5, 2.0))
        nx = spectral_norm(x)
        a = fkm_block(a0, 0.0, 0.0, d0, x)
        b = fkm_block(0.0, b0, c0, 0.0, x)
        pid = f"scalar-block-{i}"

        lam = complex(*rng.standard_normal(2))
        closed = fkm_norm(a0, lam * b0, lam * c0, d0, nx)
        resid = abs(closed - spectral_norm(a + lam * b)) / (1.0 + closed)
        rec.check(pid, "closed_form", resid <= cfg.eps_eq, resid)

        profile = _lattice_profile(shared_pair(a, b), cfg)
        pyth = profile.definition().verdict
        par = profile.parallelogram()
        cond = abs(a0 * d0) <= cfg.eps_eq and abs(b0 * c0) <= cfg.eps_eq
        rec.case(pid, kind=kind, pythagoras=pyth, parallelogram=par, zero_products=cond)
        rec.check(pid, "pythagoras_iff_zero_products", pyth == cond)
        rec.check(pid, "parallelogram_iff_pythagoras", par == pyth)
        bj_ab, _ = bj_orthogonal(a, b, cfg)
        rec.check(pid, "bj_forward_always", bj_ab)
        rec.check(pid, "roberts_always", profile.roberts())
        # the reverse orthogonality holds for every parameter choice: the top
        # eigenspace of |B|^2 sits on one diagonal block while B^H A is
        # strictly off-diagonal there, so a vanishing-state witness exists
        bj_ba, _ = bj_orthogonal(b, a, cfg)
        rec.check(pid, "bj_reverse_always", bj_ba)
        inner_zero = spectral_norm(adjoint(a) @ b) <= cfg.eps_eq * (
            1.0 + spectral_norm(a) * spectral_norm(b)
        )
        rec.check(
            pid,
            "inner_zero_iff_ab_cd_zero",
            inner_zero == (abs(a0 * b0) <= cfg.eps_eq and abs(c0 * d0) <= cfg.eps_eq),
        )
    return rec


def _suite_rank_one(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Rank-one pairs: closed-form norm and classification vs. generic deciders."""
    rec = _Recorder()
    for i in range(count):
        rng = case_rng(seed, i)
        n = 2 + i % 3
        x, y, u, v = (rand_complex(rng, n) for _ in range(4))
        kind = i % 5
        if kind == 1:
            u = u - (np.vdot(x, u) / np.vdot(x, x)) * x  # <x,u> = 0
        elif kind == 2:
            v = v - (np.vdot(y, v) / np.vdot(y, y)) * y  # <y,v> = 0
        elif kind == 3:
            u = complex(*rng.standard_normal(2)) * x  # dependent pair
            v = v - (np.vdot(y, v) / np.vdot(y, y)) * y  # -> Pythagoras
        elif kind == 4:
            v = complex(*rng.standard_normal(2)) * y
            u = u - (np.vdot(x, u) / np.vdot(x, x)) * x
        p = RankOnePair(x, y, u, v)
        a, b = p.first(), p.second()
        pid = f"rank-one-{i}"

        lam = complex(*rng.standard_normal(2))
        resid = abs(rank_one_norm(p, lam) - spectral_norm(a + lam * b))
        rec.check(pid, "closed_form", resid <= cfg.eps_eq * (1.0 + rank_one_norm(p, lam)), resid)

        verdicts = rank_one_classify(p, cfg)
        bj_ab, _ = bj_orthogonal(a, b, cfg)
        bj_ba, _ = bj_orthogonal(b, a, cfg)
        rec.case(pid, kind=kind, pythagoras=verdicts.pythagoras)
        rec.check(pid, "bj_forward_agreement", bj_ab == verdicts.bj_forward)
        rec.check(pid, "bj_reverse_agreement", bj_ba == verdicts.bj_reverse)
        profile = _lattice_profile(shared_pair(a, b), cfg)
        rec.check(pid, "roberts_agreement", profile.roberts() == verdicts.roberts)
        rec.check(
            pid, "pythagoras_agreement", profile.definition().verdict == verdicts.pythagoras
        )
        rec.check(
            pid, "parallelogram_agreement", profile.parallelogram() == verdicts.parallelogram
        )
        inner_zero = spectral_norm(adjoint(a) @ b) <= cfg.eps_eq * (
            1.0 + spectral_norm(a) * spectral_norm(b)
        )
        rec.check(pid, "inner_zero_agreement", inner_zero == verdicts.inner_zero)
    return rec


def _suite_pythagoras_identity(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Identity ||x+y||^2 = ||x||^2 + ||y||^2 under Re(<x,y>) <= 0."""
    rec = _Recorder()
    # the canonical true fixture
    x0 = np.eye(2, dtype=np.complex128)
    y0 = np.diag([0.0, 1j])
    rep0 = pythagoras_identity(x0, y0, cfg)
    rec.case("identity-fixture", report=rep0.to_dict())
    rec.check("identity-fixture", "all_true", rep0.verdict("pythagoras") and rep0.consistent)

    for i in range(count):
        rng = case_rng(seed, i)
        n = 2 + i % 3
        w = rand_unitary(rng, n)
        u = rand_unitary(rng, n)
        make_true = i % 2 == 0
        av = rng.uniform(0.3, 0.9, n).astype(np.complex128)
        av[0] = 1.0
        if make_true:
            # shared top index, purely imaginary ratio there: equality attained
            bv = 1j * rng.uniform(0.1, 0.6, n) * av
            bv[0] = 1j * float(rng.uniform(0.7, 1.2))
            bv[1:] *= 0.3
        else:
            # nonpositive real cross terms, norms attained at different indices
            bv = -rng.uniform(0.1, 0.6, n).astype(np.complex128) * av
            bv[1] = -1.0 * av[1] / abs(av[1])
            bv[0] *= 0.1
        x = w @ np.diag(av) @ u.conj().T
        y = w @ np.diag(bv) @ u.conj().T
        rep = pythagoras_identity(x, y, cfg)
        pid = f"pyth-identity-{i}"
        rec.case(pid, engineered_true=make_true, report=rep.to_dict())
        rec.check(pid, "report_consistent", rep.consistent)
        if make_true:
            rec.check(pid, "true_by_construction", rep.verdict("pythagoras"))
        else:
            rec.check(pid, "false_by_construction", not rep.verdict("pythagoras"))
        for label, witness in rep.witnesses:
            gram_val = evaluate(witness, x.conj().T @ x).real
            resid = abs(gram_val - spectral_norm(x) ** 2)
            rec.check(pid, f"witness_{label}_norms", resid <= 1e-5 * (1.0 + gram_val), resid)
            cross = evaluate(witness, real_part(x.conj().T @ y)).real
            rec.check(pid, f"witness_{label}_cross", abs(cross) <= 1e-5, abs(cross))
    return rec


def _suite_birkhoff_james(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Three-way agreement: witness state, norm inequality, lower bound."""
    rec = _Recorder()
    for i in range(count):
        rng = case_rng(seed, i)
        n = 2 + i % 3
        if i % 2 == 0 and n >= 2:
            x, y = bj_engineered_true(rng, n)
        else:
            x = rand_complex(rng, n, n)
            y = rand_complex(rng, n, n)
        pid = f"bj-{i}"
        has_witness, witness = bj_orthogonal(x, y, cfg)
        opt = min_lambda_norm(x, y, cfg)
        norm_ineq = opt.value >= spectral_norm(x) - cfg.eps_opt * (1.0 + spectral_norm(x))
        lower = bj_lower_bound_check(x, y, cfg)
        rec.case(pid, witness=has_witness, norm_inequality=norm_ineq, lower_bound=lower)
        rec.check(pid, "witness_iff_norm_inequality", has_witness == norm_ineq)
        rec.check(pid, "witness_iff_lower_bound", has_witness == lower)
        if witness is not None:
            val = evaluate(witness, x.conj().T @ x).real
            resid = abs(val - spectral_norm(x) ** 2)
            rec.check(pid, "witness_attains_norm", resid <= 1e-5 * (1.0 + val), resid)
            cross = abs(evaluate(witness, x.conj().T @ y))
            rec.check(pid, "witness_kills_inner", cross <= 1e-5 * (1.0 + val), cross)
    return rec


def _suite_pythagoras_operator(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Definition vs. witness characterization on gate-satisfying pairs, plus
    the three counterexample families showing each hypothesis is needed."""
    rec = _Recorder()
    for i in range(count):
        rng = case_rng(seed, i)
        n = 4 + i % 2
        kind = i % 3
        if kind < 2:
            a, b = gate_pair(rng, n, want_true=(kind == 0))
        else:
            # invertible A with PSD cross product: gates hold, generically not orthogonal
            a = rand_complex(rng, n, n) + 2.0 * np.eye(n)
            h = rand_complex(rng, n, n - 1)
            b = np.linalg.solve(a.conj().T, h @ h.conj().T)
        rep = pythagoras_orthogonal(a, b, cfg)
        pid = f"pyth-op-{i}"
        rec.case(pid, kind=kind, report=rep.to_dict())
        rec.check(pid, "gates_hold", rep.verdict("rank_gate") and rep.verdict("positivity_gate"))
        rec.check(pid, "report_consistent", rep.consistent)
        if kind == 0:
            rec.check(pid, "true_by_construction", rep.verdict("definition"))
        elif kind == 1:
            rec.check(pid, "false_by_construction", not rep.verdict("definition"))

    rng = case_rng(seed, 10_000)

    # family 1: everywhere-rank-one pairs sharing the left vector; the witness
    # characterization is unavailable (rank gate fails) even when orthogonal
    x = rand_unit(rng, 3)
    ya = rand_unit(rng, 3)
    yb = rand_unit(rng, 3)
    yb = yb - np.vdot(ya, yb) * ya
    yb /= np.linalg.norm(yb)
    a1 = np.outer(x, ya.conj())
    b1 = np.outer(x, yb.conj())
    rep1 = pythagoras_orthogonal(a1, b1, cfg)
    rec.case("rank-one-left", report=rep1.to_dict())
    rec.check("rank-one-left", "pythagoras_true", rep1.verdict("definition"))
    rec.check("rank-one-left", "rank_gate_fails", not rep1.verdict("rank_gate"))
    rec.check("rank-one-left", "parallelogram_true", rep1.verdict("parallelogram"))
    rec.check(
        "rank-one-left", "no_single_norming_vector", pythagoras_witness_vector(a1, b1, cfg) is None
    )

    # family 2: rank-one pairs sharing the right vector; a norming vector with
    # vanishing cross term exists exactly when the pair is orthogonal, but the
    # adjoint pair (equally orthogonal) falls back to family 1
    xa, xb = rand_unit(rng, 3), rand_unit(rng, 3)
    xb = xb - np.vdot(xa, xb) * xa
    xb /= np.linalg.norm(xb)
    y = rand_unit(rng, 3)
    a2 = np.outer(xa, y.conj())
    b2 = np.outer(xb, y.conj())
    rep2 = pythagoras_orthogonal(a2, b2, cfg)
    rec.case("rank-one-right", report=rep2.to_dict())
    rec.check("rank-one-right", "pythagoras_true", rep2.verdict("definition"))
    rec.check(
        "rank-one-right", "norming_vector_exists", pythagoras_witness_vector(a2, b2, cfg) is not None
    )
    rep2adj = pythagoras_orthogonal(a2.conj().T, b2.conj().T, cfg)
    rec.check("rank-one-right", "adjoint_pythagoras_true", rep2adj.verdict("definition"))
    rec.check(
        "rank-one-right",
        "adjoint_no_norming_vector",
        pythagoras_witness_vector(a2.conj().T, b2.conj().T, cfg) is None,
    )

    # family 3: identity vs. the symmetry flip: a norming vector with zero
    # cross term exists but the parallelogram law (hence orthogonality) fails
    a3 = np.eye(4, dtype=np.complex128)
    b3 = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    ).astype(np.complex128)
    rep3 = pythagoras_orthogonal(a3, b3, cfg)
    rec.case("flip-block", report=rep3.to_dict())
    rec.check("flip-block", "pythagoras_false", not rep3.verdict("definition"))
    rec.check("flip-block", "parallelogram_false", not rep3.verdict("parallelogram"))
    xi = np.zeros(4, dtype=np.complex128)
    xi[0] = 1.0
    rec.check(
        "flip-block",
        "norming_vector_with_zero_cross",
        abs(np.vdot(a3 @ xi, b3 @ xi)) <= cfg.eps_eq
        and abs(np.linalg.norm(a3 @ xi) - 1.0) <= cfg.eps_eq
        and abs(np.linalg.norm(b3 @ xi) - 1.0) <= cfg.eps_eq,
    )
    rec.check("flip-block", "report_consistent", rep3.consistent)

    # family 4: positivity-gate failure with orthogonality still true
    xv = np.array([1.0, 0.0], dtype=np.complex128)
    yv = np.array([0.0, 1.0], dtype=np.complex128)
    s4 = np.outer(xv, xv.conj()) + np.outer(yv, yv.conj())
    t4 = np.outer(xv, yv.conj())
    a4, b4, _ = corner_block_pair(s4, t4, 1.0)
    rep4 = pythagoras_orthogonal(a4, b4, cfg)
    rec.case("sign-family", report=rep4.to_dict())
    rec.check("sign-family", "pythagoras_true", rep4.verdict("definition"))
    rec.check("sign-family", "positivity_gate_fails", not rep4.verdict("positivity_gate"))
    rec.check(
        "sign-family",
        "rank_two_everywhere",
        all(
            numeric_rank(a4 + al * b4) == 2
            for al in (0.0, 1.0, -2.3 + 1.1j, 0.5j)
        ),
    )
    return rec


def _suite_rank_persistence(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Rank one at three shifts implies rank one everywhere."""
    rec = _Recorder()
    for i in range(count):
        rng = case_rng(seed, i)
        n = 2 + i % 3
        shifts = []
        while len({complex(s) for s in shifts}) != 3:
            shifts = [complex(*rng.standard_normal(2)) for _ in range(3)]
        if i % 2 == 0:
            # shared right vector
            y = rand_complex(rng, n)
            a = np.outer(rand_complex(rng, n), y.conj())
            b = np.outer(rand_complex(rng, n), y.conj())
        else:
            # shared left vector
            x = rand_complex(rng, n)
            a = np.outer(x, rand_complex(rng, n).conj())
            b = np.outer(x, rand_complex(rng, n).conj())
        pid = f"rank-persist-{i}"
        try:
            ok = rank_persistence(a, b, *shifts, cfg)
        except ValueError:
            # a random shift annihilated the pair; skip the degenerate draw
            rec.case(pid, skipped=True)
            continue
        rec.case(pid, skipped=False)
        rec.check(pid, "rank_stays_one", ok)
    # error path: full-rank input must be rejected
    try:
        rank_persistence(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 1.0, 2.0, 3.0, cfg)
        rec.check("rank-persist-errors", "precondition_enforced", False)
    except ValueError:
        rec.check("rank-persist-errors", "precondition_enforced", True)
    return rec


def _suite_properties(seed: int, count: int, cfg: ToleranceConfig) -> _Recorder:
    """Cross-cutting invariants: C*-identity, modulus, rank, property chain."""
    rec = _Recorder()
    for i in range(count):
        rng = case_rng(seed, i)
        n = 2 + i % 4
        a = rand_complex(rng, n, n)
        pid = f"props-{i}"
        na = spectral_norm(a)
        rec.check(pid, "involution_isometry", abs(spectral_norm(adjoint(a)) - na) <= cfg.eps_eq * na)
        rec.check(
            pid,
            "cstar_identity",
            abs(spectral_norm(adjoint(a) @ a) - na**2) <= cfg.eps_eq * (1.0 + na**2),
        )
        rec.check(
            pid,
            "modulus_norm",
            abs(spectral_norm(modulus(a, cfg)) - na) <= cfg.eps_eq * (1.0 + na),
        )
        u = rand_unitary(rng, n)
        r = int(rng.integers(1, n + 1))
        low = rand_complex(rng, n, r) @ rand_complex(rng, r, n)
        chain = n >= 4 and i % 3 == 0
        rec.case(pid, dim=n, rank=r, chain=chain)
        rec.check(
            pid,
            "rank_unitary_invariant",
            numeric_rank(low) == numeric_rank(u @ low @ u.conj().T),
        )

        # nondegeneracy: x is orthogonal to itself only when x = 0
        self_pyth = _lattice_profile(shared_pair(a, a), cfg).definition().verdict
        rec.check(pid, "self_orthogonality_fails", not self_pyth)
        zero = np.zeros_like(a)
        zero_pyth = _lattice_profile(shared_pair(zero, zero), cfg).definition().verdict
        rec.check(pid, "zero_self_orthogonal", zero_pyth)

        # property chain on an engineered orthogonal pair
        if chain:
            x, y = gate_pair(rng, n, want_true=True)
            rep = pythagoras_orthogonal(x, y, cfg)
            rec.check(pid, "chain_definition", rep.verdict("definition"))
            for label in ("roberts", "parallelogram", "bj_forward", "bj_reverse"):
                rec.check(pid, f"chain_{label}", rep.verdict(label))
            swapped = pythagoras_orthogonal(y, x, cfg)
            rec.check(
                pid, "chain_symmetric", swapped.verdict("definition") == rep.verdict("definition")
            )
            alpha, beta = (complex(*rng.standard_normal(2)) + 0.2 for _ in range(2))
            scaled = pythagoras_orthogonal(alpha * x, beta * y, cfg)
            rec.check(
                pid, "chain_homogeneous", scaled.verdict("definition") == rep.verdict("definition")
            )
            # scalar-shift minimum for an orthogonal pair
            opt = min_lambda_norm(x, x + y, cfg)
            nx2, ny2 = spectral_norm(x) ** 2, spectral_norm(y) ** 2
            expected = nx2 * ny2 / (nx2 + ny2)
            resid = abs(opt.value**2 - expected) / (1.0 + expected)
            rec.check(pid, "orthogonal_min_shift", resid <= cfg.eps_opt, resid)

    # the diagonal hat-function pair: full verdict table
    for ngrid in (3, 11, 101):
        f, g = hat_function_pair(ngrid)
        pid = f"hat-{ngrid}"
        rec.case(pid, grid=ngrid)
        bj_fg, _ = bj_orthogonal(f, g, cfg)
        bj_gf, _ = bj_orthogonal(g, f, cfg)
        rec.check(pid, "bj_both_ways", bj_fg and bj_gf)
        profile = _lattice_profile(shared_pair(f, g), cfg)
        rec.check(pid, "roberts", profile.roberts())
        rec.check(pid, "pythagoras_false", not profile.definition().verdict)
        rec.check(pid, "parallelogram_false", not profile.parallelogram())
        rec.check(pid, "inner_product_zero", spectral_norm(adjoint(f) @ g) == 0.0)
    return rec


_SUITES = {
    "minmax-duality": _suite_minmax_duality,
    "norm-additivity": _suite_norm_additivity,
    "weighted-shift": _suite_weighted_shift,
    "corner-block": _suite_corner_block,
    "scalar-block": _suite_scalar_block,
    "rank-one": _suite_rank_one,
    "pythagoras-identity": _suite_pythagoras_identity,
    "birkhoff-james": _suite_birkhoff_james,
    "pythagoras-operator": _suite_pythagoras_operator,
    "rank-persistence": _suite_rank_persistence,
    "properties": _suite_properties,
}

SUITE_NAMES = ("all", *_SUITES)


def run_suite(
    name: str,
    seed: int | None = None,
    count: int = 50,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
) -> SuiteReport:
    """Run one named suite (or all of them) with per-case derived seeds."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if count < 1:
        raise ValueError("count must be positive")
    actual_seed = cfg.rng_seed if seed is None else int(seed)
    cases: list[dict] = []
    failures: list[tuple[str, str, float]] = []
    selected = _SUITES.values() if name == "all" else [_SUITES[name]]
    for fn in selected:
        rec = fn(actual_seed, count, cfg)
        prefix = fn.__name__.removeprefix("_suite_").replace("_", "-")
        for case in rec.cases:
            cases.append({**case, "pair_id": f"{prefix}/{case['pair_id']}"})
        failures.extend((f"{prefix}/{p}", s, r) for p, s, r in rec.failures)
    return SuiteReport(suite_name=name, seed=actual_seed, cases=cases, failures=failures)
