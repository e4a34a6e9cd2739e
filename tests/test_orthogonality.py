"""Tests for the orthogonality and norm-equality deciders."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnorm import (
    DEFAULT_CONFIG,
    HypothesisViolation,
    LatticeProfile,
    Pair,
    ToleranceConfig,
    bj_orthogonal,
    canonical_json,
    evaluate,
    limit_relations_check,
    min_lambda_norm,
    norm_additivity_report,
    numeric_rank,
    parallelogram_law_check,
    parallelogram_two_imply_third,
    product_norm_check,
    pythagoras_identity,
    pythagoras_orthogonal,
    pythagoras_via_bj_parallelogram,
    pythagoras_witness_vector,
    roberts_check,
    run_suite,
    scaled_pythagoras_report,
    spectral_norm,
    sup_m,
    triangle_equality,
    triangle_witness,
    unimodular_reduction,
)
from modnorm.closedforms import (
    bj_engineered_true,
    corner_block_pair,
    gate_pair,
    rand_unitary,
    triangle_pair,
)
from modnorm.config import EPS_RANK
from modnorm.linalg import shared_pair
from modnorm.orthogonality import scaled_triangle_persistence

CFG = DEFAULT_CONFIG

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _outer(i, j, n=2):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _gate_true_pair():
    """4-dim pair with zero inner product, full rank gate, Pythagoras true."""
    a = _outer(0, 0, 4) + _outer(2, 2, 4)
    b = _outer(1, 0, 4) + _outer(3, 2, 4)
    return a, b


def _gate_false_pair():
    """Zero inner product, gates pass, top norming subspaces disjoint."""
    a = _outer(0, 0, 4) + _outer(2, 2, 4)
    b = _outer(1, 1, 4)
    return a, b


# ---------------------------------------------------------------------------
# triangle equalities
# ---------------------------------------------------------------------------

def test_triangle_equality_true():
    rep = triangle_equality(E11, 2 * E11, CFG)
    assert rep.verdict("norm_sum")
    assert rep.verdict("product_in_inner_range")
    assert rep.consistent
    labels = dict(rep.witnesses)
    phi = labels["shared_maximizing_state"]
    assert abs(evaluate(phi, E11)) == pytest.approx(1.0, abs=1e-6)


def test_triangle_equality_false():
    rep = triangle_equality(E11, E22, CFG)
    assert not rep.verdict("norm_sum")
    assert not rep.verdict("product_in_inner_range")
    assert rep.consistent


def test_triangle_equality_random_consistency():
    rng = np.random.default_rng(0)
    for _ in range(15):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert triangle_equality(x, y, CFG).consistent


def test_scaled_triangle_persistence():
    # equality persists under nonnegative rescaling of an aligned pair
    assert scaled_triangle_persistence(E11, 2 * E11, 0.7, 3.1, CFG)
    with pytest.raises(ValueError):
        scaled_triangle_persistence(E11, E11, -1.0, 1.0, CFG)


def test_unimodular_reduction():
    holds, u, v = unimodular_reduction(E11, E11, 2j, 3j, CFG)
    assert holds
    assert abs(u - 1j) <= 1e-12 and abs(v - 1j) <= 1e-12
    holds, _, _ = unimodular_reduction(E11, 2 * E11, 2j, 3.0, CFG)
    assert not holds
    with pytest.raises(ValueError):
        unimodular_reduction(E11, E11, 0.0, 1.0, CFG)


def test_triangle_witness_exists_iff_equality():
    out = triangle_witness(E11, 3 * E11, CFG)
    assert out is not None
    phi, c = out
    assert abs(evaluate(phi, c.conj().T @ c)) == pytest.approx(1.0, abs=1e-6)
    val = evaluate(phi, c.conj().T @ E11.conj().T @ (3 * E11) @ c)
    assert val.real == pytest.approx(3.0, abs=1e-5)
    assert triangle_witness(E11, E22, CFG) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangle_witness_on_a_shared_top_pair_that_is_not_colinear(n):
    x, y = triangle_pair(np.random.default_rng(60 + n), n)
    assert numeric_rank(np.stack([x.ravel(), y.ravel()])) == 2
    assert triangle_equality(x, y, CFG).verdict("norm_sum")
    phi, c = triangle_witness(x, y, CFG)
    val = evaluate(phi, c.conj().T @ x.conj().T @ y @ c)
    assert val == pytest.approx(spectral_norm(x) * spectral_norm(y), abs=1e-9)


def test_suite_catches_a_triangle_witness_that_misses_pairs_not_colinear(monkeypatch):
    import modnorm.suites

    real = modnorm.suites.triangle_witness

    def colinear_only(a, b, cfg):
        colinear = numeric_rank(np.stack([a.ravel(), b.ravel()])) <= 1
        return real(a, b, cfg) if colinear else None

    assert not run_suite("norm-additivity", seed=1, count=10).failures
    monkeypatch.setattr(modnorm.suites, "triangle_witness", colinear_only)
    failed = run_suite("norm-additivity", seed=1, count=10).failures
    assert {statement for _, statement, _ in failed} == {"triangle_witness_iff_norm_sum"}


# ---------------------------------------------------------------------------
# norm additivity
# ---------------------------------------------------------------------------

def test_norm_additivity_true():
    rep = norm_additivity_report(np.diag([1.0, 0.5]), np.diag([1.0, 0.3]), CFG)
    assert all(s.verdict for s in rep.statements.values())
    assert rep.consistent
    phi = dict(rep.witnesses)["joint_maximizing_state"]
    assert evaluate(phi, np.diag([1.0, 0.25])).real == pytest.approx(1.0, abs=1e-6)


def test_norm_additivity_false():
    rep = norm_additivity_report(E11, E22, CFG)
    assert not any(s.verdict for s in rep.statements.values())
    assert rep.consistent


def test_norm_additivity_zero_matrix():
    rep = norm_additivity_report(np.zeros((2, 2)), E11, CFG)
    assert all(s.verdict for s in rep.statements.values())
    assert rep.consistent


def test_product_norm_check():
    assert product_norm_check(np.eye(2), E11, CFG) == (True, True)
    assert product_norm_check(E11, E22, CFG) == (False, False)
    rng = np.random.default_rng(1)
    for _ in range(15):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        first, second = product_norm_check(x, y, CFG)
        assert first == second


def test_parallelogram_two_imply_third():
    rep = parallelogram_two_imply_third(E11, E11, CFG)
    assert all(s.verdict for s in rep.statements.values())
    assert rep.consistent

    rep = parallelogram_two_imply_third(E11, E22, CFG)
    assert not rep.verdict("parallelogram_at_one")
    assert not rep.verdict("maximizers_meet")
    assert rep.verdict("sum_diff_maximizers_meet")
    assert rep.consistent

    rng = np.random.default_rng(2)
    for _ in range(15):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert parallelogram_two_imply_third(x, y, CFG).consistent


# ---------------------------------------------------------------------------
# Pythagoras identities
# ---------------------------------------------------------------------------

def test_pythagoras_identity_true():
    x = np.diag([1.0, 1.0]).astype(complex)
    y = np.diag([0.0, 1j])
    rep = pythagoras_identity(x, y, CFG)
    for label in ("pythagoras", "zero_real_joint_state", "decomposed"):
        assert rep.verdict(label), label
    assert rep.verdict("scaled_lower_bound")
    assert rep.consistent
    phi = dict(rep.witnesses)["zero_real_joint_state"]
    re_inner = (x.conj().T @ y + (x.conj().T @ y).conj().T) / 2
    assert abs(evaluate(phi, re_inner)) <= 1e-5


def test_pythagoras_identity_false():
    rep = pythagoras_identity(E11, 1j * E22, CFG)
    for label in ("pythagoras", "zero_real_joint_state", "decomposed"):
        assert not rep.verdict(label), label
    assert rep.consistent


def test_pythagoras_identity_hypothesis():
    with pytest.raises(HypothesisViolation):
        pythagoras_identity(np.eye(2), np.eye(2), CFG)


def test_scaled_pythagoras_true():
    # shared-column rank ones: || alpha x + beta y ||^2 = |alpha|^2 + |beta|^2
    x = _outer(0, 0)
    y = _outer(1, 0)
    rep = scaled_pythagoras_report(x, y, CFG)
    assert all(s.verdict for s in rep.statements.values())
    assert "scaled_any_ratio" in rep.statements  # inner product is exactly zero
    assert rep.consistent


def test_scaled_pythagoras_false():
    rep = scaled_pythagoras_report(E11, 1j * E22, CFG)
    for label in ("pythagoras", "scaled_real_ratio", "modulus_product_norm", "maximizer_equality"):
        assert not rep.verdict(label), label
    assert rep.consistent


def test_scaled_pythagoras_hypothesis():
    with pytest.raises(HypothesisViolation):
        scaled_pythagoras_report(np.eye(2), np.eye(2), CFG)


# ---------------------------------------------------------------------------
# lattice-quantified orthogonality
# ---------------------------------------------------------------------------

def test_roberts_check():
    # diag(1,-1) vs the flip: conjugation by diag(1,-1) maps x+ly to x-ly
    assert roberts_check(np.diag([1.0, -1.0]), FLIP, CFG)
    assert not roberts_check(np.eye(2), np.eye(2), CFG)


def test_parallelogram_law_check():
    a, b = _gate_true_pair()
    assert parallelogram_law_check(a, b, CFG)
    assert not parallelogram_law_check(E11, E22, CFG)


def test_pythagoras_witness_vector():
    a, b = _gate_true_pair()
    xi = pythagoras_witness_vector(a, b, CFG)
    assert xi is not None
    assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(a @ xi) == pytest.approx(spectral_norm(a), abs=1e-6)
    assert np.linalg.norm(b @ xi) == pytest.approx(spectral_norm(b), abs=1e-6)
    assert abs(np.vdot(a @ xi, b @ xi)) <= 1e-5

    a2, b2 = _gate_false_pair()
    assert pythagoras_witness_vector(a2, b2, CFG) is None


def test_pythagoras_orthogonal_true():
    a, b = _gate_true_pair()
    rep = pythagoras_orthogonal(a, b, CFG)
    assert rep.verdict("definition")
    assert rep.verdict("rank_gate") and rep.verdict("positivity_gate")
    assert rep.verdict("witness_form")
    for label in ("roberts", "parallelogram", "bj_forward", "bj_reverse"):
        assert rep.verdict(label), label
    assert pythagoras_orthogonal(b, a, CFG).verdict("definition")
    assert pythagoras_orthogonal((0.3 - 1.2j) * a, 2.1j * b, CFG).verdict("definition")
    assert rep.consistent
    assert "violating_lambda" not in dict(rep.witnesses)
    xi = dict(rep.witnesses)["norming_vector"]
    assert abs(np.vdot(a @ xi, b @ xi)) <= 1e-5


def test_pythagoras_orthogonal_false():
    a, b = _gate_false_pair()
    rep = pythagoras_orthogonal(a, b, CFG)
    assert not rep.verdict("definition")
    assert rep.verdict("rank_gate") and rep.verdict("positivity_gate")
    assert not rep.verdict("witness_form")
    assert rep.consistent
    # here ||x + lam y||^2 falls short of the sum, the lower half of the definition
    assert -_violation(a, b, dict(rep.witnesses)["violating_lambda"]) > CFG.eps_opt


def test_pythagoras_orthogonal_rank_gate_blocks_witness_clause():
    # shared-column rank ones stay rank one at every shift: rank gate fails,
    # so the witness-form equivalence is not asserted even though the
    # definition holds
    rep = pythagoras_orthogonal(_outer(0, 0), _outer(1, 0), CFG)
    assert rep.verdict("definition")
    assert not rep.verdict("rank_gate")
    assert "witness_form" not in rep.statements
    assert rep.consistent
    # e1 e1^T and e1 e2^T (shared row) are orthogonal too, yet no unit vector
    # attains both norms with a vanishing cross term: a witness vector proves
    # the lower half of the definition but is not necessary for it
    x, y = _outer(0, 0, 3), _outer(0, 1, 3)
    rep = pythagoras_orthogonal(x, y, CFG)
    assert rep.verdict("definition") and not rep.verdict("rank_gate")
    assert pythagoras_witness_vector(x, y, CFG) is None


LATTICE = len(CFG.lambda_lattice)


def _count_stacks(monkeypatch):
    """From now on, the function name and size of every batched SVD and of
    every stack of Gram matrices turned into top eigenvalues, in call order."""
    import modnorm.orthogonality

    stacked = []
    for owner, name in ((np.linalg, "svd"), (modnorm.orthogonality, "_top_eigenvalues")):
        real = getattr(owner, name)

        def counting(m, *args, _name=name.strip("_"), _real=real, **kwargs):
            if np.ndim(m) == 3:
                stacked.append((_name, len(m)))
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return stacked


def _fresh_gate_pair(seed):
    """``_gate_true_pair`` moved by seeded unitaries: still Pythagoras
    orthogonal with both gates, and no other test builds it."""
    rng = np.random.default_rng(seed)
    u, v = rand_unitary(rng, 4), rand_unitary(rng, 4)
    a, b = _gate_true_pair()
    return u @ a @ v, u @ b @ v


def test_pythagoras_orthogonal_one_lattice_pass(monkeypatch):
    # the definition, Roberts and parallelogram statements, and the Roberts
    # and parallelogram deciders run after it, share one lattice-sized
    # top-eigenvalue solve; the eta certificate adds the SVDs of 8 of its
    # points and the rank gate those of at most the four innermost rings
    x, y = _fresh_gate_pair(101)
    stacked = _count_stacks(monkeypatch)
    rep = pythagoras_orthogonal(x, y, CFG)
    assert "witness_form" in rep.statements  # the gated parallelogram check ran
    assert roberts_check(x, y, CFG) and parallelogram_law_check(x, y, CFG)
    assert [s for s in stacked if s[1] == LATTICE] == [("top_eigenvalues", LATTICE)]
    svds = [size for name, size in stacked if name == "svd"]
    assert sum(svds) <= 4 * CFG.lattice_phases + 8


def test_shared_profile_matches_a_fresh_build(monkeypatch):
    rng = np.random.default_rng(102)
    x, y = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    first = pythagoras_orthogonal(x, y, CFG)
    stacked = _count_stacks(monkeypatch)
    again = pythagoras_orthogonal(2.0**-20 * x, 2.0**-20 * y, CFG)
    # (2^k x, 2^k y) normalizes to the same bits: no lattice stack, no SVD
    assert [s for s in stacked if s[0] == "svd" or s[1] == LATTICE] == []
    assert canonical_json(again.to_dict()) == canonical_json(first.to_dict())
    fresh = LatticeProfile(Pair(x, y), CFG)
    assert again.statements["definition"] == fresh.definition()
    assert roberts_check(x, y, CFG) == fresh.roberts()
    assert parallelogram_law_check(x, y, CFG) == fresh.parallelogram()


def test_shared_profile_follows_the_config(monkeypatch):
    x, y = _fresh_gate_pair(103)
    coarse = ToleranceConfig(lattice_phases=12)
    assert roberts_check(x, y, CFG)
    stacked = _count_stacks(monkeypatch)
    assert roberts_check(x, y, ToleranceConfig())  # an equal config reads the same profile
    assert stacked == []
    assert roberts_check(x, y, coarse)
    assert stacked == [("top_eigenvalues", len(coarse.lambda_lattice))]


def test_shared_profile_follows_in_place_writes():
    x, y = np.diag([1.0, -1.0]).astype(complex), FLIP.copy()
    assert roberts_check(x, y, CFG)
    x[...] = np.eye(2)
    y[...] = np.eye(2)  # written into x alone, the pair stays Roberts orthogonal
    assert not roberts_check(x, y, CFG)
    y[...] = FLIP  # only y changes
    assert roberts_check(x, y, CFG)
    x[...] = FLIP  # only x changes
    assert not roberts_check(x, y, CFG)


def test_shared_profile_is_per_order(monkeypatch):
    rng = np.random.default_rng(104)
    x, y = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    forward = pythagoras_orthogonal(x, y, CFG)
    stacked = _count_stacks(monkeypatch)
    reverse = pythagoras_orthogonal(y, x, CFG)
    assert stacked.count(("top_eigenvalues", LATTICE)) == 1
    fresh = LatticeProfile(Pair(y, x), CFG)
    assert reverse.statements["definition"] == fresh.definition()
    # x + i y = i (y - i x): the worst residuals agree, at lam = i forward and
    # lam = -i in reverse
    lam = dict(reverse.witnesses)["violating_lambda"]
    assert lam == fresh.definition_lambda != dict(forward.witnesses)["violating_lambda"]


def test_shared_profiles_under_threads():
    # more threads than cores and more pairs than the table keeps, with a short
    # switch interval, so lookups, insertions and evictions interleave; each
    # read takes the pair's profile or its min-lambda solve
    rng = np.random.default_rng(106)
    pairs = [_fresh_gate_pair(200 + i) for i in range(12)]
    pairs += [
        tuple(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
        for _ in range(12)
    ]
    want = []
    for x, y in pairs:
        value, xi = sup_m(x, y, CFG)
        opt = min_lambda_norm(x, y, CFG)
        want.append((roberts_check(x, y, CFG), parallelogram_law_check(x, y, CFG),
                     opt.lambda_star, opt.value, value, xi.tobytes()))
    assert [w[:2] for w in want] == [(i < 12, i < 12) for i in range(len(pairs))]
    got = [[] for _ in range(4)]

    def work(k):
        order = [(k * 7 + 5 * i) % len(pairs) for i in range(2 * len(pairs))]
        for i in order:
            x, y = pairs[i]
            roberts = roberts_check(x, y, CFG)
            opt = min_lambda_norm(x, y, CFG)
            parallelogram = parallelogram_law_check(x, y, CFG)
            value, xi = sup_m(x, y, CFG)
            got[k].append((i, (roberts, parallelogram, opt.lambda_star, opt.value,
                               value, xi.tobytes())))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for results in got:
        assert len(results) == 2 * len(pairs)
        assert all(read == want[i] for i, read in results)


def test_shared_tables_keep_the_most_recent_entries(monkeypatch):
    import modnorm.linalg
    import modnorm.orthogonality

    pairs_kept = modnorm.linalg._SharedTable()
    monkeypatch.setattr(modnorm.linalg, "_shared_pairs", pairs_kept)
    keep = modnorm.linalg._SHARED_ENTRIES
    assert keep == 16
    rng = np.random.default_rng(107)
    pairs = [
        tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
        for _ in range(keep + 4)
    ]

    def profile(x, y):
        return modnorm.orthogonality._lattice_profile(shared_pair(x, y), CFG)

    built = []
    for x, y in pairs:
        built.append(profile(x, y))
        min_lambda_norm(x, y, CFG)
        assert len(pairs_kept) <= keep
    assert len(pairs_kept) == keep
    # the kept profiles are returned again; an evicted one is built afresh
    assert profile(*pairs[-1]) is built[-1]
    stacked = _count_stacks(monkeypatch)
    again = profile(*pairs[0])
    assert again is not built[0] and stacked == [("top_eigenvalues", LATTICE)]
    assert again.norms2.tobytes() == built[0].norms2.tobytes()
    assert len(pairs_kept) == keep


def test_lattice_profile_arrays_are_read_only():
    profile = LatticeProfile(Pair(*_gate_true_pair()), CFG)
    with pytest.raises(ValueError):
        profile.norms2[0] = 0.0
    with pytest.raises(ValueError):
        profile.norms[0] = 0.0
    with pytest.raises(ValueError):
        profile.lams[0] = 0.0


def _agreement_pairs():
    """Seeded pairs, n = 2-8, on which the Gram pencil must read as an SVD
    does: random, colinear (x + lam0 y = 0 at a lattice point), rank one,
    rank one at the innermost lattice point only, ||y|| / ||x|| near 2^20
    and 2^-20, tall and wide."""
    rng = np.random.default_rng(108)
    lattice = np.asarray(CFG.lambda_lattice)

    def rand(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    for n in range(2, 9):
        x = rand(n, n)
        yield x, rand(n, n)
        yield x, -x / lattice[rng.integers(lattice.size)]
        yield rand(n, 1) @ rand(1, n), rand(n, n)
        column = rand(n, 1)
        yield column @ rand(1, n), column @ rand(1, n)
        yield _rank_one_at_innermost(rng, n)
        yield x, 2.0**20 * rand(n, n)
        yield x, 2.0**-20 * rand(n, n)
        yield rand(n + 2, n), rand(n + 2, n)
        yield rand(n, n + 2), rand(n, n + 2)


def _rank_one_at_innermost(rng, n):
    """x + lam y of rank one at lam = lambda_lattice[0] and of full rank elsewhere."""
    u, v, y = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for shape in ((n, 1), (1, n), (n, n))
    )
    return u @ v - CFG.lambda_lattice[0] * y, y


def _svd_reference(x, y, cfg):
    """sigma_1(x + lam y)^2 at the lattice points, the lattice definition
    residual, and the Roberts, parallelogram and rank-gate verdicts, from one
    SVD per point of the pair divided by the power of two that puts its
    largest |Re| or |Im| entry in [1, 2)."""
    top = max(np.abs(part).max() for m in (x, y) for part in (m.real, m.imag))
    scale = 2.0 ** (int(np.frexp(top)[1]) - 1)
    x, y = x / scale, y / scale
    lams = np.asarray(cfg.lambda_lattice)
    svals = np.linalg.svd(x[None] + lams[:, None, None] * y[None], compute_uv=False)
    nx, ny = np.linalg.norm(x, 2), np.linalg.norm(y, 2)
    plus = svals[:, 0]
    minus = plus[cfg.lattice_negation]
    rhs = nx**2 + np.abs(lams) ** 2 * ny**2

    def residual(lam):
        rhs = nx**2 + abs(lam) ** 2 * ny**2
        return abs(np.linalg.norm(x + lam * y, 2) ** 2 - rhs) / (1.0 + rhs)

    rings = svals[: 4 * cfg.lattice_phases]
    return {
        "squares": plus**2,
        "rhs": rhs,
        "lattice_residual": float(np.max(np.abs(plus**2 - rhs) / (1.0 + rhs))),
        "residual_at": residual,
        "roberts": bool(
            np.all(np.abs(plus - minus) <= cfg.eps_eq * (1.0 + nx + np.abs(lams) * ny))
        ),
        "parallelogram": bool(
            np.all(np.abs(plus**2 + minus**2 - 2 * rhs) <= cfg.eps_eq * (1.0 + 2 * rhs))
        ),
        "rank_gate": bool(np.any((rings > EPS_RANK * rings[:, :1]).sum(axis=1) > 1)),
    }


def test_lattice_profile_agrees_with_a_batched_svd():
    verdicts, gates = set(), set()
    for x, y in _agreement_pairs():
        ref = _svd_reference(x, y, CFG)
        profile = LatticeProfile(Pair(x, y), CFG)
        assert np.all(np.abs(profile.norms2 - ref["squares"]) <= 1e-13 * (1.0 + ref["rhs"]))
        # the definition reads its residual at a lattice point or at the lam
        # of the eta certificate, confirmed by one norm
        definition = profile.definition()
        want = max(ref["lattice_residual"], ref["residual_at"](profile.definition_lambda))
        assert definition.residual == pytest.approx(want, rel=1e-9, abs=1e-13)
        assert definition.verdict == (want <= CFG.eps_opt)
        assert profile.roberts() == ref["roberts"]
        assert profile.parallelogram() == ref["parallelogram"]
        assert profile.rank_gate() == ref["rank_gate"]
        verdicts.add(definition.verdict)
        gates.add(ref["rank_gate"])
    assert verdicts == gates == {False, True}


def _deflation_pairs():
    """Seeded pairs with a common kernel or a small joint range, each with the
    compressed size the lattice pencil must take: corner blocks
    [[S, 0], [0, 0]], [[0, T], [0, 0]], gate pairs, rank-one pairs, pairs
    padded with zero rows and columns, tall and wide pairs, y = 0, and the
    zero pair."""
    rng = np.random.default_rng(111)

    def rand(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    for n in (2, 4, 8):
        x, y, _ = corner_block_pair(rand(n // 2, n // 2), rand(n // 2, n // 2), 1.0)
        yield x, y, n // 2
    for n in (4, 6, 8):
        yield (*gate_pair(rng, n, True), 3)
        yield (*gate_pair(rng, n, False), 3)
    for n in (2, 5, 8):
        yield rand(n, 1) @ rand(1, n), rand(n, 1) @ rand(1, n), 2
        column = rand(n, 1)
        yield column @ rand(1, n), column @ rand(1, n), 1
        padded = [np.zeros((n + 3, n + 2), dtype=complex) for _ in range(2)]
        for m in padded:
            m[1 : n + 1, 2:] = rand(n, n)
        yield (*padded, n)
        yield rand(n + 3, n), rand(n + 3, n), n
        yield rand(n, n + 3), rand(n, n + 3), n
        yield rand(2 * n, 1) @ rand(1, n), rand(2 * n, 1) @ rand(1, n), 2
        yield rand(n, n), np.zeros((n, n), dtype=complex), n
        yield rand(n, 1) @ rand(1, n + 1), np.zeros((n, n + 1), dtype=complex), 1
        yield np.zeros((n + 1, n), dtype=complex), np.zeros((n + 1, n), dtype=complex), 0


def _compressed_profile(monkeypatch, x, y):
    """The lattice profile of (x, y) and the size of the Gram matrices whose
    top eigenvalues it took."""
    import modnorm.orthogonality

    sizes = []
    real = modnorm.orthogonality._top_eigenvalues

    def recording(gram):
        sizes.append(gram.shape[-1])
        return real(gram)

    monkeypatch.setattr(modnorm.orthogonality, "_top_eigenvalues", recording)
    profile = LatticeProfile(Pair(x, y), CFG)
    monkeypatch.undo()
    assert len(sizes) == 1
    return profile, sizes[0]


def test_deflated_lattice_profile_matches_the_full_gram(monkeypatch):
    # the top eigenvalue of the compressed pencil is that of the full Gram
    # matrix (x + lam y)^H (x + lam y), and the compressed size does not
    # depend on the scale of x beside y
    for x, y, k in _deflation_pairs():
        for scale in (1.0, 2.0**30, 2.0**-30):
            pair = Pair(scale * x, y)
            stack = pair.x[None] + CFG.lambda_lattice[:, None, None] * pair.y[None]
            full = np.linalg.eigvalsh(stack.conj().swapaxes(1, 2) @ stack)[:, -1]
            full = np.maximum(full, 0.0)
            profile, size = _compressed_profile(monkeypatch, scale * x, y)
            assert size == k
            assert np.all(np.abs(profile.norms2 - full) <= 1e-14 * (1.0 + full))


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (8, 8), (7, 4)])
def test_a_pair_without_a_common_kernel_keeps_the_full_pencil(monkeypatch, shape):
    # no common kernel on the right and n >= 3: the profile is the stacked
    # eigvalsh of x^H x + |lam|^2 y^H y + lam x^H y + conj(lam) y^H x, bit for bit
    rng = np.random.default_rng(112)
    x, y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    pair = Pair(x, y)
    lams = CFG.lambda_lattice[:, None, None]
    cross = lams * pair.inner
    gram = np.abs(lams) ** 2 * pair.gy + pair.gx + cross + np.conjugate(cross).swapaxes(1, 2)
    full = np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)
    profile, size = _compressed_profile(monkeypatch, x, y)
    assert size == shape[1]
    assert profile.norms2.tobytes() == full.tobytes()


def test_rank_gate_reads_the_other_rings_only_after_a_rank_one_point(monkeypatch):
    # e1 e1^T + lam e1 e2^T has rank one at every lam: all four innermost
    # rings are read and the gate stays closed
    x, y = _outer(0, 0, 3), _outer(0, 1, 3)
    generic = LatticeProfile(Pair(*_fresh_gate_pair(109)), CFG)
    rank_one = LatticeProfile(Pair(x, y), CFG)
    innermost = LatticeProfile(Pair(*_rank_one_at_innermost(np.random.default_rng(110), 4)), CFG)
    others = ("svd", 4 * CFG.lattice_phases - 1)
    assert not _svd_reference(x, y, CFG)["rank_gate"]
    stacked = _count_stacks(monkeypatch)
    assert generic.rank_gate() and stacked == [("svd", 1)]
    stacked.clear()
    assert not rank_one.rank_gate()
    assert stacked == [("svd", 1), others]
    stacked.clear()
    assert not rank_one.rank_gate() and stacked == []  # read once per profile
    assert innermost.rank_gate() and stacked == [("svd", 1), others]


def _violation(x, y, lam):
    """Signed (||x + lam y||^2 - ||x||^2 - |lam|^2 ||y||^2) / (1 + rhs), from numpy."""
    rhs = np.linalg.norm(x, 2) ** 2 + abs(lam) ** 2 * np.linalg.norm(y, 2) ** 2
    return (np.linalg.norm(x + lam * y, 2) ** 2 - rhs) / (1.0 + rhs)


def _off_grid_pair(delta, ratio, phase):
    """x = e1 e1^T + a e3 e3^T, y = e1 e2^T + b e^{i phase} e3 e3^T with
    a^2 + b^2 = 1 + delta and b / a = ratio: ||x + lam y||^2 exceeds
    1 + |lam|^2 by up to delta / (1 - b^2), in a window around
    lam = (b / a) e^{-i phase} that falls between lattice points."""
    a = np.sqrt((1.0 + delta) / (1.0 + ratio**2))
    x = np.diag([1.0, 0.0, a]).astype(complex)
    y = np.zeros((3, 3), dtype=complex)
    y[0, 1] = 1.0
    y[2, 2] = ratio * a * np.exp(1j * phase)
    return x, y


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("ratio", [0.7, 1.41, 2.8])
def test_pythagoras_definition_fails_between_lattice_points(delta, ratio):
    x, y = _off_grid_pair(delta, ratio, np.pi / 24)
    rep = pythagoras_orthogonal(x, y, CFG)
    assert not rep.verdict("definition")
    assert rep.consistent
    lam = dict(rep.witnesses)["violating_lambda"]
    assert _violation(x, y, lam) > CFG.eps_opt
    assert rep.statements["definition"].residual == pytest.approx(_violation(x, y, lam))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pythagoras_definition_off_grid_family(seed):
    rng = np.random.default_rng(seed)
    delta = 10.0 ** rng.uniform(-4.0, -2.0)
    x, y = _off_grid_pair(delta, rng.uniform(0.4, 3.0), rng.uniform(0.0, 2 * np.pi))
    u, v = rand_unitary(rng, 3), rand_unitary(rng, 3)
    x, y = u @ x @ v, u @ y @ v
    profile = LatticeProfile(Pair(x, y), CFG)
    assert not profile.definition().verdict
    assert _violation(x, y, profile.definition_lambda) > CFG.eps_opt


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["random", "true", "false"]))
def test_pythagoras_definition_symmetric_and_homogeneous(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        n = int(rng.integers(2, 5))
        x, y = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    else:
        x, y = gate_pair(rng, 4, kind == "true")
    verdict = LatticeProfile(Pair(x, y), CFG).definition().verdict
    if kind != "random":
        assert verdict == (kind == "true")
    assert LatticeProfile(Pair(y, x), CFG).definition().verdict == verdict
    # unequal moduli stay in [1/4, 4]: the residual's scale still flips
    # verdicts when |alpha| / |beta| is far from 1, a separate, open defect;
    # a joint power of two is divided out exactly
    alpha, beta = 2.0 ** rng.uniform(-2, 2, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
    joint = 2.0 ** int(rng.integers(-40, 41))
    profile = LatticeProfile(Pair(joint * alpha * x, joint * beta * y), CFG)
    assert profile.definition().verdict == verdict


def _per_lambda_verdicts(x, y, cfg):
    """Roberts and parallelogram verdicts from one norm pair per lattice point."""
    nx, ny = spectral_norm(x), spectral_norm(y)
    roberts = parallelogram = True
    for lam in cfg.lambda_lattice:
        plus, minus = spectral_norm(x + lam * y), spectral_norm(x - lam * y)
        roberts &= abs(plus - minus) <= cfg.eps_eq * (1.0 + nx + abs(lam) * ny)
        rhs = 2 * (nx**2 + abs(lam) ** 2 * ny**2)
        parallelogram &= abs(plus**2 + minus**2 - rhs) <= cfg.eps_eq * (1.0 + rhs)
    return roberts, parallelogram


def test_lattice_checks_match_per_lambda_reference():
    rng = np.random.default_rng(7)
    pairs = [
        _gate_true_pair(),
        _gate_false_pair(),
        (np.diag([1.0, -1.0]), FLIP),
        (E11, E22),
    ]
    for n in (2, 3, 4):
        pairs.append(
            tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        )
    seen = set()
    for x, y in pairs:
        got = (roberts_check(x, y, CFG), parallelogram_law_check(x, y, CFG))
        assert got == _per_lambda_verdicts(x, y, CFG)
        seen.update(got)
    assert seen == {True, False}


def test_pythagoras_via_bj_parallelogram():
    both = pythagoras_via_bj_parallelogram(np.zeros((2, 2)), 1j * np.eye(2), CFG)
    assert both == (True, True)
    both = pythagoras_via_bj_parallelogram(E11, 1j * np.eye(2), CFG)
    assert both == (False, False)
    with pytest.raises(HypothesisViolation):
        pythagoras_via_bj_parallelogram(E11, E11, CFG)  # |y|^2 not scalar


def test_limit_relations_check():
    a, b = _gate_true_pair()
    lam0 = -0.5
    ok, violation = limit_relations_check(a, b, lam0, 1.0, 1.0, 1.0, 0.0, CFG)
    assert ok
    assert violation <= 1e-6

    # perturbing the limit triple breaks the relations
    ok, _ = limit_relations_check(a, b, lam0, 1.0, 1.0, 1.0, 0.3, CFG)
    assert not ok

    with pytest.raises(ValueError):
        limit_relations_check(a, b, 0.0, 1.0, 1.0, 1.0, 0.0, CFG)
    with pytest.raises(ValueError):
        limit_relations_check(a, b, -1.0, 1.0, 1.0, 1.0, 0.0, CFG)
    with pytest.raises(ValueError):
        limit_relations_check(a, b, -0.5, 0.0, 1.0, 1.0, 0.0, CFG)
    with pytest.raises(HypothesisViolation):
        limit_relations_check(np.eye(2), np.eye(2), -0.5, 1.0, 1.0, 1.0, 0.0, CFG)


def test_reports_serialize():
    rep = triangle_equality(E11, E22, CFG)
    d = rep.to_dict()
    assert d["pair_id"] == "triangle"
    assert set(d) == {"pair_id", "consistent", "statements", "witness_labels"}
    for entry in d["statements"].values():
        assert set(entry) == {"verdict", "residual"}


def test_shape_mismatch():
    with pytest.raises(ValueError):
        triangle_equality(np.eye(2), np.eye(3), CFG)


# ---------------------------------------------------------------------------
# scale and basis invariance
# ---------------------------------------------------------------------------

REPORT_DECIDERS = (
    triangle_equality,
    norm_additivity_report,
    parallelogram_two_imply_third,
    pythagoras_identity,
    scaled_pythagoras_report,
    pythagoras_orthogonal,
)


def _rng0_pair():
    """The complex Gaussian 3x3 pair drawn from default_rng(0), x then y."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return x, y


def _verdicts(report):
    return {label: s.verdict for label, s in report.statements.items()}, report.consistent


@pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-6])
def test_small_scales_keep_the_unit_verdicts(t):
    # each scale used to flip a verdict or an agreement flag, or to raise
    x, y = _rng0_pair()
    for decider in (norm_additivity_report, triangle_equality, pythagoras_orthogonal):
        unit = _verdicts(decider(x, y, CFG))
        assert unit[1]
        assert _verdicts(decider(t * x, t * y, CFG)) == unit, decider.__name__
    assert bj_orthogonal(t * x, t * y, CFG)[0] == bj_orthogonal(x, y, CFG)[0]


def test_unequal_moduli_are_decided():
    # ||y|| / ||x|| ~ 1e-6: y is not zero at the pair's scale, so no decider
    # may reject |y|^2 as the zero matrix, and the statements homogeneous in
    # x and y separately (maximizing sets, BJ, || |x||y| ||) read as they do
    # on unit-scale inputs
    x, y = _rng0_pair()
    big = 1e6 * x
    for a, b in ((big, y), (y, big)):
        assert _verdicts(norm_additivity_report(a, b, CFG)) == (
            {"gram_sum_norm": True, "modulus_product_norm": False, "maximizers_meet": False,
             "product_in_range": False, "sum_in_range": True},
            False,
        )
        assert _verdicts(triangle_equality(a, b, CFG)) == (
            {"norm_sum": True, "product_in_inner_range": False},
            False,
        )
        assert _verdicts(parallelogram_two_imply_third(a, b, CFG)) == (
            {"parallelogram_at_one": True, "maximizers_meet": False,
             "sum_diff_maximizers_meet": True},
            False,
        )
        for decider in (pythagoras_identity, scaled_pythagoras_report):
            with pytest.raises(HypothesisViolation):
                decider(a, b, CFG)
        assert not bj_orthogonal(a, b, CFG)[0]
        verdicts, consistent = _verdicts(pythagoras_orthogonal(a, b, CFG))
        assert consistent
        assert not any(verdicts[label] for label in ("definition", "roberts", "bj_forward", "bj_reverse"))
    # the lattice parallelogram law is left out for (y, big): its tolerance
    # eps_eq (1 + rhs) is absolute where rhs < 1, at the small lattice points
    assert not pythagoras_orthogonal(big, y, CFG).verdict("parallelogram")


def test_extreme_magnitudes():
    tiny = np.array([[1e-300]], dtype=complex)
    assert not pythagoras_orthogonal(tiny, tiny, CFG).verdict("definition")
    one = np.array([[1.0]], dtype=complex)
    huge = np.array([[1e300]], dtype=complex)
    for decider in REPORT_DECIDERS:
        assert _verdicts(decider(huge, 1j * huge, CFG)) == _verdicts(decider(one, 1j * one, CFG))
    assert bj_orthogonal(huge, huge, CFG)[0] == bj_orthogonal(one, one, CFG)[0]


def _shared_top(rng, n):
    """|x|^2 and |y|^2 share their top eigenvector."""
    v = rand_unitary(rng, n)
    sx, sy = (np.concatenate([[1.0], rng.uniform(0.2, 0.9, n - 1)]) for _ in range(2))
    return rand_unitary(rng, n) @ np.diag(sx) @ v, rand_unitary(rng, n) @ np.diag(sy) @ v


def _colinear(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x, rng.uniform(0.5, 2.0) * x


def _identity_true(rng, n):
    """Common singular bases with a purely imaginary ratio: Re<x, y> = 0 and
    the Pythagoras identity holds."""
    w, u = rand_unitary(rng, n), rand_unitary(rng, n)
    av = np.concatenate([[1.0], rng.uniform(0.3, 0.9, n - 1)])
    bv = 1j * np.concatenate([[rng.uniform(0.7, 1.2)], 0.3 * rng.uniform(0.1, 0.6, n - 1) * av[1:]])
    return w @ np.diag(av) @ u, w @ np.diag(bv) @ u


def _family_pair(rng, family):
    n = int(rng.integers(2, 5))
    if family == "gate":
        return gate_pair(rng, 4, bool(rng.integers(2)))
    if family == "shared_top":
        return _shared_top(rng, n)
    if family == "colinear":
        return _colinear(rng, n)
    if family == "identity_true":
        return _identity_true(rng, n)
    return tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))


FAMILIES = st.sampled_from(["gate", "shared_top", "colinear", "identity_true", "generic"])


def _outcome(decider, x, y):
    try:
        return decider(x, y, CFG)
    except HypothesisViolation:
        return None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), FAMILIES, st.integers(min_value=-40, max_value=40))
def test_reports_are_byte_identical_under_a_power_of_two(seed, family, e):
    x, y = _family_pair(np.random.default_rng(seed), family)
    t = 2.0**e
    for decider in REPORT_DECIDERS:
        unit, scaled = _outcome(decider, x, y), _outcome(decider, t * x, t * y)
        assert (unit is None) == (scaled is None), decider.__name__
        if unit is not None:
            assert canonical_json(scaled.to_dict()) == canonical_json(unit.to_dict())
    assert bj_orthogonal(t * x, t * y, CFG)[0] == bj_orthogonal(x, y, CFG)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), FAMILIES)
def test_verdicts_are_unitarily_invariant(seed, family):
    rng = np.random.default_rng(seed)
    x, y = _family_pair(rng, family)
    u, v = rand_unitary(rng, x.shape[0]), rand_unitary(rng, x.shape[1])
    for decider in REPORT_DECIDERS:
        plain, rotated = _outcome(decider, x, y), _outcome(decider, u @ x @ v, u @ y @ v)
        assert (plain is None) == (rotated is None), decider.__name__
        if plain is not None:
            assert _verdicts(rotated) == _verdicts(plain), decider.__name__
    assert bj_orthogonal(u @ x @ v, u @ y @ v, CFG)[0] == bj_orthogonal(x, y, CFG)[0]


def _check_pure_witness(phi, x, y, cross, target):
    """phi is rank one, attains ||x||^2 on |x|^2 and takes ``target`` on
    ``cross``, a product of x or y with y, relative to ||x|| ||y|| + |target|."""
    w = np.linalg.eigvalsh(phi.rho)
    assert w[-1] == pytest.approx(1.0, abs=1e-12) and np.all(np.abs(w[:-1]) <= 1e-12)
    nx, ny = np.linalg.norm(x, 2), np.linalg.norm(y, 2)
    assert abs(np.trace(phi.rho @ x.conj().T @ x) - nx**2) <= 1e-8 * nx**2
    assert abs(np.trace(phi.rho @ cross) - target) <= 1e-8 * (nx * ny + abs(target))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_every_witness_is_a_pure_state_that_attains_and_kills(seed, a, b):
    # on families where each decider holds by construction, every witness
    # state is the pure state of one vector: it attains ||x||^2 and kills the
    # cross term (x^H y for BJ, Re<x, y> for the Pythagoras identity), or
    # attains ||y||^2 (norm additivity) or ||x|| ||y|| on x^H y (triangle).
    # Below eps_eq of the pair's scale x counts as zero, and BJ's witness is
    # then any pure state
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    x, y = bj_engineered_true(rng, n)
    x, y = 2.0**a * x, 2.0**b * y
    holds, phi = bj_orthogonal(x, y, CFG)
    assert holds
    if shared_pair(x, y).nx <= CFG.eps_eq:
        assert np.array_equal(phi.rho, np.diag(np.eye(n)[0]).astype(complex))
    else:
        _check_pure_witness(phi, x, y, x.conj().T @ y, 0.0)

    x, y = _identity_true(rng, n)
    report = pythagoras_identity(x, y, CFG)
    assert report.verdict("zero_real_joint_state") and report.witnesses
    for _, phi in report.witnesses:
        _check_pure_witness(phi, x, y, (x.conj().T @ y + y.conj().T @ x) / 2, 0.0)

    x, y = _shared_top(rng, n)
    report = norm_additivity_report(x, y, CFG)
    assert report.verdict("maximizers_meet") and report.witnesses
    for _, phi in report.witnesses:
        _check_pure_witness(phi, x, y, y.conj().T @ y, np.linalg.norm(y, 2) ** 2)

    x, y = _colinear(rng, n)
    report = triangle_equality(x, y, CFG)
    assert report.verdict("norm_sum") and report.witnesses
    for _, phi in report.witnesses:
        _check_pure_witness(phi, x, y, x.conj().T @ y, np.linalg.norm(x, 2) * np.linalg.norm(y, 2))


# ---------------------------------------------------------------------------
# operation counts
# ---------------------------------------------------------------------------

def test_scaled_identity_norms_are_one_stacked_svd(monkeypatch):
    # x = W diag(1, 0, .3, .2) U, y = W diag(.5i, .5 + 1e-8, .03i, .02i) U: the
    # identity holds within eps_opt, while every real-ratio combination reads
    # a positive residual of about 1e-8, so the worst one depends on every bit
    # of the 20 scaled norms
    rng = np.random.default_rng(41)
    w, u = rand_unitary(rng, 4), rand_unitary(rng, 4)
    x = w @ np.diag([1.0, 0.0, 0.3, 0.2]) @ u
    y = w @ np.diag([0.5j, 0.5 + 1e-8, 0.03j, 0.02j]) @ u
    stacked = _count_stacks(monkeypatch)
    batched = pythagoras_identity(x, y, CFG)
    assert stacked == [("svd", 20)]
    assert batched.verdict("pythagoras")
    assert batched.statements["scaled_lower_bound"].residual > 0.0
    monkeypatch.undo()
    svd = np.linalg.svd

    def looping_svd(m, *args, **kwargs):
        if np.ndim(m) == 3:
            return np.array([svd(a, *args, **kwargs) for a in m])
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", looping_svd)
    looped = pythagoras_identity(x, y, CFG)
    assert looped.statements == batched.statements
    assert canonical_json(looped.to_dict()) == canonical_json(batched.to_dict())


def _scaled_residuals_by_loop(x, y, cfg, real_ratio):
    """Residuals (rhs - lhs) / (1 + rhs) of the scaled identity over the
    seeded coefficient pairs, each alpha x + beta y of the normalized pair
    formed and normed on its own: the reference for the deciders' one
    broadcast and batched SVD.  The pairs are drawn as the deciders draw
    them: conj(alpha) * beta real, or any."""
    pair = shared_pair(x, y)
    rng = cfg.rng(0x5CA1E5 if real_ratio else 0xBE7A)

    def nonzero():
        z = complex(rng.standard_normal(), rng.standard_normal())
        while abs(z) < 1e-3:
            z = complex(rng.standard_normal(), rng.standard_normal())
        return z

    residuals = []
    for _ in range(20):
        alpha = nonzero()
        if real_ratio:
            s = float(rng.standard_normal())
            while abs(s) < 1e-3:
                s = float(rng.standard_normal())
            beta = s * alpha / abs(alpha)
        else:
            beta = nonzero()
        lhs = float(np.linalg.svd(alpha * pair.x + beta * pair.y, compute_uv=False)[0]) ** 2
        rhs = abs(alpha) ** 2 * pair.nx**2 + abs(beta) ** 2 * pair.ny**2
        residuals.append((rhs - lhs) / (1.0 + rhs))
    return residuals


@pytest.mark.parametrize("seed", [41, 42])
def test_scaled_identity_residuals_match_a_loop_bit_for_bit(seed):
    # Re<x, y> = 0 on both pairs, and <x, y> = 0 on the gate pair, so every
    # scaled statement is read; the coefficients are drawn once per seed and
    # the combinations formed in one broadcast, with the same bits as a loop
    rng = np.random.default_rng(seed)
    identity, gate = _identity_true(rng, 4), gate_pair(rng, 4, want_true=True)
    for x, y in (identity, gate):
        real = _scaled_residuals_by_loop(x, y, CFG, True)
        report = pythagoras_identity(x, y, CFG)
        if report.verdict("pythagoras"):
            assert report.statements["scaled_lower_bound"].residual == max(max(real), 0.0)
        report = scaled_pythagoras_report(x, y, CFG)
        assert report.statements["scaled_real_ratio"].residual == max(map(abs, real))
        if "scaled_any_ratio" in report.statements:
            anyr = _scaled_residuals_by_loop(x, y, CFG, False)
            assert report.statements["scaled_any_ratio"].residual == max(map(abs, anyr))
    assert "scaled_any_ratio" in scaled_pythagoras_report(*gate, CFG).statements


def _count_factorizations(monkeypatch):
    """From now on, the number of LAPACK factorizations by kind, each batched
    call counting once: the SVDs (those behind ``np.linalg.norm`` too), the
    Hermitian eigensolves, and the arc test's ``solve`` and ``eigvals``."""
    counts = dict.fromkeys(("svd", "eigh", "eigvalsh", "eigvals", "solve"), 0)
    modules = [np.linalg, sys.modules.get("numpy.linalg._linalg")]
    for name in counts:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if module is not None and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


# One seeded 4x4 pair on which each decider's primary statement holds, and
# the most LAPACK factorizations, of all kinds together, the decider may make
# on it.
COUNTED = {
    "bj_orthogonal": (bj_orthogonal, bj_engineered_true, 4),
    "norm_additivity_report": (norm_additivity_report, _shared_top, 9),
    "triangle_equality": (triangle_equality, _colinear, 5),
    "pythagoras_identity": (pythagoras_identity, _identity_true, 10),
    "pythagoras_orthogonal": (
        pythagoras_orthogonal,
        lambda rng, n: gate_pair(rng, n, want_true=True),
        12,
    ),
}


# Of those, the most Hermitian eigensolves with eigenvectors (``eigh``):
# a gate that reads eigenvalues alone takes ``eigvalsh``, and a 2x2
# compression with 0 inside its numerical range takes none.
EIGENVECTOR_SOLVES = {
    "bj_orthogonal": 1,
    "norm_additivity_report": 4,
    "triangle_equality": 2,
    "pythagoras_identity": 3,
    "pythagoras_orthogonal": 3,
}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_factorization_counts_stay_bounded(monkeypatch, name):
    # counts do not depend on the machine, so a decider that starts to
    # factor one matrix twice fails here even when no timing notices
    decider, family, max_total = COUNTED[name]
    x, y = family(np.random.default_rng(7), 4)
    counts = _count_factorizations(monkeypatch)
    out = decider(x, y, CFG)
    holds = out[0] if name == "bj_orthogonal" else next(iter(out.statements.values())).verdict
    assert holds
    assert sum(counts.values()) <= max_total, counts
    assert counts["eigh"] <= EIGENVECTOR_SOLVES[name], counts


# The most calls into functions of the package (Python frames, generator
# expressions included) that each witness-hold decider may make on its
# COUNTED pair, read on a fresh shared table after one call has drawn what is
# kept per seed.
PYTHON_CALLS = {
    "bj_orthogonal": 62,
    "norm_additivity_report": 118,
    "pythagoras_identity": 115,
    "triangle_equality": 63,
}


def _package_calls(call):
    """How many calls ``call()`` makes into functions defined in the package,
    counted by ``sys.setprofile``."""
    files = {
        module.__file__
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "modnorm" and getattr(module, "__file__", None)
    }
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename in files:
            calls += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name", sorted(PYTHON_CALLS))
def test_python_calls_stay_bounded(monkeypatch, name):
    # Python is most of a witness-hold op, and the number of calls it makes
    # does not depend on the machine, so a decider that starts to take a
    # general path where a closed form did, or to draw its seeded
    # coefficients again, fails here even when no timing notices
    import modnorm.linalg

    decider, family, _ = COUNTED[name]
    x, y = family(np.random.default_rng(7), 4)
    decider(x, y, CFG)
    monkeypatch.setattr(modnorm.linalg, "_shared_pairs", modnorm.linalg._SharedTable())
    calls = _package_calls(lambda: decider(x, y, CFG))
    assert 0 < calls <= PYTHON_CALLS[name], calls


def test_maximizing_sets_and_their_meet_are_kept_once_per_pair(monkeypatch):
    # every eigensolve in states builds S_{|x|^2}, S_{|y|^2} or their meet
    import modnorm.linalg
    import modnorm.states

    monkeypatch.setattr(modnorm.linalg, "_shared_pairs", modnorm.linalg._SharedTable())
    solves = []
    eig = modnorm.states._hermitian_eig

    def counting(m, cfg):
        solves.append(m.shape)
        return eig(m, cfg)

    monkeypatch.setattr(modnorm.states, "_hermitian_eig", counting)
    x, y = _identity_true(np.random.default_rng(7), 4)
    bj_orthogonal(x, y, CFG)
    assert len(solves) == 1  # S_{|x|^2} alone: neither S_{|y|^2} nor the meet
    norm_additivity_report(x, y, CFG)
    assert len(solves) == 3
    assert pythagoras_identity(x, y, CFG).verdict("zero_real_joint_state")
    assert len(solves) == 3
    pair = shared_pair(x, y)
    kept = [modnorm.states._maximizers(pair, side, CFG) for side in "xy"]
    arrays = [m for p in kept for m in (p.basis, p.projection)]
    arrays.append(modnorm.states._meet(pair, CFG))
    assert len(solves) == 3
    assert not any(m.flags.writeable for m in arrays)
