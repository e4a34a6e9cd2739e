"""Acceptance gate: ten cross-certification criteria, one pass/fail line each.

Each test prints a single summary line so the acceptance status is readable
from the pytest output (run with -s or check captured output on failure).
"""

import numpy as np

from modnorm import (
    DEFAULT_CONFIG,
    RankOnePair,
    canonical_json,
    corner_block_pair,
    fkm_block,
    fkm_norm,
    min_lambda_norm,
    rank_one_norm,
    run_suite,
    spectral_norm,
    sup_m,
    weighted_shift_norm,
    weighted_shift_pair,
)
from modnorm.closedforms import case_rng, rand_complex

CFG = DEFAULT_CONFIG
SEED = 20260823


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:2d}] {status}: {label}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {label}{suffix}"


def _suite_verdict(num: int, label: str, *runs: tuple[str, int, int, int]) -> None:
    """Run each (suite, seed, count, cases) and require exactly that many
    cases and no failure."""
    ok, details = True, []
    for name, seed, count, cases in runs:
        rep = run_suite(name, seed=seed, count=count, cfg=CFG)
        ok &= len(rep.cases) == cases and not rep.failures
        shown = "".join(f"; {p} {s}" for p, s, _ in rep.failures[:3])
        details.append(
            f"suite {name} at SEED+{seed - SEED}: {len(rep.cases)} of {cases} cases, "
            f"{len(rep.failures)} failures{shown}"
        )
    _verdict(num, label, ok, " | ".join(details))


def test_criterion_01_minmax_duality():
    worst = 0.0
    for n in (2, 3, 4, 5):
        for i in range(200):
            rng = case_rng(SEED + n, i)
            a = rand_complex(rng, n, n)
            b = rand_complex(rng, n, n)
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
    rng = case_rng(SEED, 777)
    for _ in range(200):
        a0, b0, c0, d0 = (complex(*rng.standard_normal(2)) for _ in range(4))
        n = int(rng.integers(1, 4))
        x = rand_complex(rng, n, n)
        block = fkm_block(a0, b0, c0, d0, x)
        oracle = spectral_norm(block)
        val = fkm_norm(a0, b0, c0, d0, float(np.linalg.norm(x, 2)))
        worst = max(worst, abs(val - oracle) / (1.0 + oracle))
    for _ in range(200):
        n = int(rng.integers(2, 6))
        p = RankOnePair(*(rand_complex(rng, n) for _ in range(4)))
        lam = complex(*rng.standard_normal(2))
        oracle = spectral_norm(p.first() + lam * p.second())
        worst = max(worst, abs(rank_one_norm(p, lam) - oracle) / (1.0 + oracle))
    for _ in range(200):
        n = int(rng.integers(2, 4))
        s, t = rand_complex(rng, n, n), rand_complex(rng, n, n)
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
    _suite_verdict(
        3,
        "truncated shift pair matches its closed form and reproduces "
        "||A+lam B||^2 = 1+|lam|^2 within 2^-20 at 50 lattice points",
        ("weighted-shift", SEED + 3, 20, 50),
    )


def test_criterion_04_hat_function_verdicts():
    _suite_verdict(
        4,
        "hat-function pair: BJ both ways and Roberts true, Pythagoras and "
        "parallelogram false, inner product exactly zero (N = 3, 11, 101)",
        ("properties", SEED + 4, 1, 4),
    )


def test_criterion_05_norm_additivity_five_way():
    _suite_verdict(
        5,
        "norm-additivity five-way agreement and witness revalidation on 500 mixed pairs",
        ("norm-additivity", SEED + 5, 500, 500),
    )


def test_criterion_06_pythagoras_identity_agreement():
    _suite_verdict(
        6,
        "Pythagoras-identity statements agree, engineered verdicts hold and "
        "witnesses revalidate at 1e-5 on the fixture plus 200 hypothesis-satisfying pairs",
        ("pythagoras-identity", SEED + 6, 200, 201),
    )


def test_criterion_07_operator_orthogonality_and_counterexamples():
    _suite_verdict(
        7,
        "operator-orthogonality equivalences on 300 gate-satisfying pairs, the "
        "four hypothesis-necessity families, and three-way Birkhoff-James "
        "agreement on 60 pairs",
        ("pythagoras-operator", SEED + 7, 300, 304),
        ("birkhoff-james", SEED + 70, 60, 60),
    )


def test_criterion_08_scalar_block_classification():
    _suite_verdict(
        8,
        "scalar-block pairs: Pythagoras <=> parallelogram <=> ad = bc = 0, "
        "inner product zero <=> ab = cd = 0, forward and reverse BJ and "
        "Roberts always (200 draws)",
        ("scalar-block", SEED + 8, 200, 200),
    )


def test_criterion_09_property_chain():
    _suite_verdict(
        9,
        "property chain on 40 orthogonal pairs: orthogonality implies Roberts, BJ "
        "both ways, parallelogram, symmetry, homogeneity; self-orthogonality only "
        "at zero on 240 draws",
        ("properties", SEED + 9, 240, 243),
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
