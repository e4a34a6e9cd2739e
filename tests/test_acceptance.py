"""Acceptance gate: ten cross-certification criteria, one pass/fail line each.

Each test prints a single summary line so the acceptance status is readable
from the pytest output (run with -s or check captured output on failure).
"""

import numpy as np
import pytest

from modnorm import (
    DEFAULT_CONFIG,
    LatticeProfile,
    RankOnePair,
    bj_orthogonal,
    canonical_json,
    corner_block_pair,
    evaluate,
    fkm_block,
    fkm_norm,
    hat_function_pair,
    m_functional,
    min_lambda_norm,
    norm_additivity_report,
    parallelogram_law_check,
    pythagoras_identity,
    pythagoras_orthogonal,
    pythagoras_witness_vector,
    rank_one_norm,
    roberts_check,
    run_suite,
    spectral_norm,
    sup_m,
    weighted_shift_norm,
    weighted_shift_pair,
)
from modnorm.linalg import adjoint, numeric_rank
from modnorm.suites import (
    _bj_engineered_true,
    _case_rng,
    _gate_pair,
    _rand_complex,
    _rand_unit,
    _rand_unitary,
    _shared_top_pair,
)

CFG = DEFAULT_CONFIG
SEED = 20260823


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:2d}] {status}: {label}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {label}{suffix}"


def test_criterion_01_minmax_duality():
    worst = 0.0
    for n in (2, 3, 4, 5):
        for i in range(200):
            rng = _case_rng(SEED + n, i)
            a = _rand_complex(rng, n, n)
            b = _rand_complex(rng, n, n)
            primal = min_lambda_norm(a, b, CFG).value ** 2
            dual, _ = sup_m(a, b, CFG)
            gap = abs(primal - dual) / (1.0 + spectral_norm(a) ** 2)
            worst = max(worst, gap)
    _verdict(
        1,
        "minimax duality gap <= 1e-6 on 200 pairs per dim 2-5",
        worst <= 1e-6,
        f"worst normalized gap {worst:.3e}",
    )


def test_criterion_02_closed_form_oracles():
    worst = 0.0
    rng = _case_rng(SEED, 777)
    for _ in range(200):
        a0, b0, c0, d0 = (complex(*rng.standard_normal(2)) for _ in range(4))
        n = int(rng.integers(1, 4))
        x = _rand_complex(rng, n, n)
        block = fkm_block(a0, b0, c0, d0, x)
        oracle = spectral_norm(block)
        val = fkm_norm(a0, b0, c0, d0, float(np.linalg.norm(x, 2)))
        worst = max(worst, abs(val - oracle) / (1.0 + oracle))
    for _ in range(200):
        n = int(rng.integers(2, 6))
        p = RankOnePair(*(_rand_complex(rng, n) for _ in range(4)))
        lam = complex(*rng.standard_normal(2))
        oracle = spectral_norm(p.first() + lam * p.second())
        worst = max(worst, abs(rank_one_norm(p, lam) - oracle) / (1.0 + oracle))
    for _ in range(200):
        n = int(rng.integers(2, 4))
        s, t = _rand_complex(rng, n, n), _rand_complex(rng, n, n)
        lam = complex(*rng.standard_normal(2))
        a, b, val = corner_block_pair(s, t, lam)
        oracle = spectral_norm(a + lam * b)
        worst = max(worst, abs(val - oracle) / (1.0 + oracle))
    for _ in range(200):
        m = int(rng.integers(1, 12))
        lam = complex(*rng.standard_normal(2))
        a, b = weighted_shift_pair(m)
        oracle = spectral_norm(a + lam * b)
        worst = max(worst, abs(weighted_shift_norm(m, lam) - oracle) / (1.0 + oracle))
    _verdict(
        2,
        "four closed-form oracles match SVD within 1e-9 relative, 200 draws each",
        worst <= 1e-9,
        f"worst relative error {worst:.3e}",
    )


def test_criterion_03_weighted_shift_limit():
    m = 20
    a, b = weighted_shift_pair(m)
    worst = 0.0
    for lam in CFG.lambda_lattice[:50]:
        measured = spectral_norm(a + lam * b) ** 2
        limit = 1.0 + abs(lam) ** 2
        worst = max(worst, abs(measured - limit) / limit)
    _verdict(
        3,
        "truncated shift pair reproduces ||A+lam B||^2 = 1+|lam|^2 within 2^-20",
        worst <= 2.0**-20,
        f"worst relative truncation error {worst:.3e}",
    )


def test_criterion_04_hat_function_verdicts():
    ok = True
    for n in (3, 11, 101):
        f, g = hat_function_pair(n)
        bj_fg, _ = bj_orthogonal(f, g, CFG)
        bj_gf, _ = bj_orthogonal(g, f, CFG)
        ok &= bj_fg and bj_gf
        ok &= roberts_check(f, g, CFG)
        ok &= not LatticeProfile(f, g, CFG).definition().verdict
        ok &= not parallelogram_law_check(f, g, CFG)
        ok &= spectral_norm(adjoint(f) @ g) == 0.0  # exactly zero
    _verdict(
        4,
        "hat-function pair: BJ both ways and Roberts true, Pythagoras and "
        "parallelogram false, inner product exactly zero (N = 3, 11, 101)",
        ok,
    )


def test_criterion_05_norm_additivity_five_way():
    inconsistent = 0
    wrong = 0
    for i in range(500):
        rng = _case_rng(SEED + 5, i)
        n = 2 + i % 3
        shared = i % 2 == 0
        x, y = _shared_top_pair(rng, n, shared)
        rep = norm_additivity_report(x, y, CFG)
        if not rep.consistent:
            inconsistent += 1
        if shared and not rep.verdict("gram_sum_norm"):
            wrong += 1
    _verdict(
        5,
        "norm-additivity five-way agreement on 500 mixed pairs",
        inconsistent == 0 and wrong == 0,
        f"{inconsistent} inconsistent, {wrong} engineered-true misses",
    )


def _identity_pair(rng, n: int, make_true: bool):
    """Hypothesis-satisfying pair, engineered true or false (suite family)."""
    w = _rand_unitary(rng, n)
    u = _rand_unitary(rng, n)
    av = rng.uniform(0.3, 0.9, n).astype(np.complex128)
    av[0] = 1.0
    if make_true:
        bv = 1j * rng.uniform(0.1, 0.6, n) * av
        bv[0] = 1j * float(rng.uniform(0.7, 1.2))
        bv[1:] *= 0.3
    else:
        bv = -rng.uniform(0.1, 0.6, n).astype(np.complex128) * av
        bv[1] = -1.0 * av[1] / abs(av[1])
        bv[0] *= 0.1
    return w @ np.diag(av) @ u.conj().T, w @ np.diag(bv) @ u.conj().T


def test_criterion_06_pythagoras_identity_agreement():
    bad = 0
    witness_bad = 0
    labels = ("pythagoras", "zero_real_joint_state", "decomposed")
    fixture = pythagoras_identity(np.eye(2, dtype=complex), np.diag([0.0, 1j]), CFG)
    if not (fixture.consistent and fixture.verdict("pythagoras")):
        bad += 1
    for i in range(200):
        rng = _case_rng(SEED + 6, i)
        n = 2 + i % 3
        make_true = i % 2 == 0
        x, y = _identity_pair(rng, n, make_true)
        rep = pythagoras_identity(x, y, CFG)
        verdicts = {rep.verdict(label) for label in labels}
        if len(verdicts) != 1 or not rep.consistent:
            bad += 1
            continue
        if make_true != rep.verdict("pythagoras"):
            bad += 1
        for _, witness in rep.witnesses:
            gram = evaluate(witness, x.conj().T @ x).real
            if abs(gram - spectral_norm(x) ** 2) > 1e-5 * (1.0 + gram):
                witness_bad += 1
            cross = evaluate(witness, (x.conj().T @ y + y.conj().T @ x) / 2).real
            if abs(cross) > 1e-5:
                witness_bad += 1
    _verdict(
        6,
        "Pythagoras-identity statements agree and witnesses revalidate at 1e-5 "
        "on 200 hypothesis-satisfying pairs",
        bad == 0 and witness_bad == 0,
        f"{bad} disagreements, {witness_bad} witness failures",
    )


def test_criterion_07_operator_orthogonality_and_counterexamples():
    disagreements = 0
    for i in range(300):
        rng = _case_rng(SEED + 7, i)
        n = 4 + i % 2
        kind = i % 3
        if kind < 2:
            a, b = _gate_pair(rng, n, want_true=(kind == 0))
        else:
            a = _rand_complex(rng, n, n) + 2.0 * np.eye(n)
            h = _rand_complex(rng, n, n - 1)
            b = np.linalg.solve(a.conj().T, h @ h.conj().T)
        rep = pythagoras_orthogonal(a, b, CFG)
        gates = rep.verdict("rank_gate") and rep.verdict("positivity_gate")
        if not gates or not rep.consistent:
            disagreements += 1
            continue
        if rep.verdict("definition") != rep.verdict("witness_form"):
            disagreements += 1
        if kind == 0 and not rep.verdict("definition"):
            disagreements += 1
        if kind == 1 and rep.verdict("definition"):
            disagreements += 1

    # three-way BJ agreement on engineered and generic pairs
    for i in range(60):
        rng = _case_rng(SEED + 70, i)
        n = 2 + i % 3
        if i % 2 == 0:
            x, y = _bj_engineered_true(rng, n)
        else:
            x, y = _rand_complex(rng, n, n), _rand_complex(rng, n, n)
        has_witness, _ = bj_orthogonal(x, y, CFG)
        floor = min_lambda_norm(x, y, CFG).value
        nx = spectral_norm(x)
        if has_witness != (floor >= nx - 1e-6 * (1.0 + nx)):
            disagreements += 1

    # counterexample family: everywhere-rank-one pair, orthogonal but no
    # single norming vector (rank hypothesis is necessary)
    rng = _case_rng(SEED + 7, 10_000)
    x = _rand_unit(rng, 3)
    ya, yb = _rand_unit(rng, 3), _rand_unit(rng, 3)
    yb = yb - np.vdot(ya, yb) * ya
    yb /= np.linalg.norm(yb)
    a1, b1 = np.outer(x, ya.conj()), np.outer(x, yb.conj())
    rep1 = pythagoras_orthogonal(a1, b1, CFG)
    fam1 = (
        rep1.verdict("definition")
        and not rep1.verdict("rank_gate")
        and pythagoras_witness_vector(a1, b1, CFG) is None
    )

    # counterexample family: identity vs. the block flip -- norming vector with
    # zero cross term exists yet the parallelogram law fails
    a3 = np.eye(4, dtype=complex)
    b3 = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]).astype(complex)
    rep3 = pythagoras_orthogonal(a3, b3, CFG)
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    fam2 = (
        not rep3.verdict("definition")
        and not rep3.verdict("parallelogram")
        and abs(np.vdot(a3 @ e1, b3 @ e1)) <= 1e-12
    )

    # counterexample family: orthogonal corner-block pair failing the
    # positivity gate while staying rank two at every shift
    xv = np.array([1.0, 0.0], dtype=complex)
    yv = np.array([0.0, 1.0], dtype=complex)
    s4 = np.outer(xv, xv.conj()) + np.outer(yv, yv.conj())
    t4 = np.outer(xv, yv.conj())
    a4, b4, _ = corner_block_pair(s4, t4, 1.0)
    rep4 = pythagoras_orthogonal(a4, b4, CFG)
    fam3 = (
        rep4.verdict("definition")
        and not rep4.verdict("positivity_gate")
        and all(numeric_rank(a4 + al * b4, CFG) == 2 for al in (0.0, 1.0, 0.5j, -2.3 + 1.1j))
    )

    _verdict(
        7,
        "operator-orthogonality equivalences on 300 gate-satisfying pairs plus "
        "the three hypothesis-necessity families",
        disagreements == 0 and fam1 and fam2 and fam3,
        f"{disagreements} disagreements, families {fam1}/{fam2}/{fam3}",
    )


def test_criterion_08_scalar_block_classification():
    bad = 0
    for i in range(200):
        rng = _case_rng(SEED + 8, i)
        n = 2 + i % 2
        a0, b0, c0, d0 = (complex(*rng.standard_normal(2)) for _ in range(4))
        kind = i % 4
        if kind == 1:
            a0, c0 = 0.0, 0.0
        elif kind == 2:
            d0, b0 = 0.0, 0.0
        elif kind == 3:
            c0 = 0.0
        x = _rand_unitary(rng, n) * float(rng.uniform(0.5, 2.0))
        a = fkm_block(a0, 0.0, 0.0, d0, x)
        b = fkm_block(0.0, b0, c0, 0.0, x)

        pyth = LatticeProfile(a, b, CFG).definition().verdict
        par = parallelogram_law_check(a, b, CFG)
        zero_products = abs(a0 * d0) <= 1e-9 and abs(b0 * c0) <= 1e-9
        if pyth != zero_products or par != pyth:
            bad += 1
        inner_zero = spectral_norm(adjoint(a) @ b) <= 1e-9 * (
            1.0 + spectral_norm(a) * spectral_norm(b)
        )
        if inner_zero != (abs(a0 * b0) <= 1e-9 and abs(c0 * d0) <= 1e-9):
            bad += 1
        bj_ab, _ = bj_orthogonal(a, b, CFG)
        bj_ba, _ = bj_orthogonal(b, a, CFG)
        if not (bj_ab and roberts_check(a, b, CFG)):
            bad += 1
        # the reverse Birkhoff-James relation holds for every parameter choice
        # (in particular whenever bc = 0); see the decisions ledger
        if not bj_ba:
            bad += 1
    _verdict(
        8,
        "scalar-block pairs: Pythagoras <=> parallelogram <=> ad = bc = 0, "
        "inner product zero <=> ab = cd = 0, forward and reverse BJ and "
        "Roberts always (200 draws)",
        bad == 0,
        f"{bad} misclassifications",
    )


def test_criterion_09_property_chain():
    bad = 0
    for i in range(40):
        rng = _case_rng(SEED + 9, i)
        n = 4 + i % 2
        x, y = _gate_pair(rng, n, want_true=True)
        rep = pythagoras_orthogonal(x, y, CFG)
        if not rep.verdict("definition"):
            bad += 1
            continue
        for label in ("roberts", "parallelogram", "bj_forward", "bj_reverse"):
            if not rep.verdict(label):
                bad += 1
        # symmetry and homogeneity of the definition itself
        if not pythagoras_orthogonal(y, x, CFG).verdict("definition"):
            bad += 1
        alpha, beta = (complex(*rng.standard_normal(2)) + 0.2 for _ in range(2))
        if not pythagoras_orthogonal(alpha * x, beta * y, CFG).verdict("definition"):
            bad += 1
    # self-orthogonality forces the zero matrix
    for i in range(40):
        rng = _case_rng(SEED + 90, i)
        a = _rand_complex(rng, 3, 3)
        if LatticeProfile(a, a, CFG).definition().verdict and spectral_norm(a) > 1e-9:
            bad += 1
    zero = np.zeros((3, 3), dtype=complex)
    if not LatticeProfile(zero, zero, CFG).definition().verdict:
        bad += 1
    _verdict(
        9,
        "property chain: orthogonality implies Roberts, BJ both ways, "
        "parallelogram, symmetry, homogeneity; self-orthogonality only at zero",
        bad == 0,
        f"{bad} violations",
    )


def test_criterion_10_determinism():
    rep1 = run_suite("all", seed=1, count=50, cfg=CFG)
    rep2 = run_suite("all", seed=1, count=50, cfg=CFG)
    bytes1 = canonical_json(rep1.to_dict()).encode()
    bytes2 = canonical_json(rep2.to_dict()).encode()
    _verdict(
        10,
        "suite all --seed 1 --count 50 twice: byte-identical, zero failures",
        bytes1 == bytes2 and not rep1.failures,
        f"{len(rep1.failures)} failures, identical={bytes1 == bytes2}",
    )
