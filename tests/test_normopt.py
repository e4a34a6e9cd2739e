"""Tests for the shifted-norm minimizer, dual sphere functional, and
Birkhoff-James decisions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modnorm import (
    DEFAULT_CONFIG,
    HypothesisViolation,
    bj_lower_bound_check,
    bj_orthogonal,
    evaluate,
    m_functional,
    min_lambda_norm,
    pythagoras_witness_vector,
    spectral_norm,
    sup_m,
    unique_alpha0,
)

CFG = DEFAULT_CONFIG


def _rand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_min_lambda_diagonal_oracle():
    # ||diag(1, 0) + lam diag(0, 1)|| = max(1, |lam|), minimized on |lam| <= 1
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    res = min_lambda_norm(a, b, CFG)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert abs(res.lambda_star) <= 1.0 + 1e-6


def test_min_lambda_scalar_oracle():
    # ||I + lam I|| = |1 + lam|, minimum 0 at lam = -1
    a = np.eye(2, dtype=complex)
    res = min_lambda_norm(a, a, CFG)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    assert res.lambda_star == pytest.approx(-1.0, abs=1e-6)


def test_min_lambda_complex_shift_oracle():
    # A = diag(1, i), B = I: min over lam of max(|1 + lam|, |i + lam|)
    # attained on the bisector, value |1 - i|/2 = sqrt(2)/2
    a = np.diag([1.0, 1j])
    b = np.eye(2, dtype=complex)
    res = min_lambda_norm(a, b, CFG)
    assert res.value == pytest.approx(np.sqrt(2) / 2, abs=1e-7)
    assert res.lambda_star == pytest.approx(-(1 + 1j) / 2, abs=1e-5)


def test_min_lambda_zero_b():
    a = np.diag([2.0, 1.0]).astype(complex)
    res = min_lambda_norm(a, np.zeros((2, 2)), CFG)
    assert res.lambda_star == 0.0
    assert res.value == pytest.approx(2.0)


def test_min_lambda_beats_dense_grid():
    rng = np.random.default_rng(0)
    a, b = _rand(rng, 3), _rand(rng, 3)
    res = min_lambda_norm(a, b, CFG)
    grid = np.linspace(-4, 4, 81)
    for re in grid:
        for im in grid:
            lam = complex(re, im)
            assert res.value <= np.linalg.norm(a + lam * b, 2) + 1e-9


def test_m_functional_branches():
    a = np.diag([2.0, 1.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    # B e1 = 0 branch: value is ||A e1||^2 = 4
    assert m_functional(a, b, e1, CFG) == pytest.approx(4.0)
    # B e2 = e2: A e2 parallel to B e2, fully compensated
    assert m_functional(a, b, e2, CFG) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        m_functional(a, b, 2 * e1, CFG)


def test_m_functional_is_min_over_mu():
    rng = np.random.default_rng(1)
    a, b = _rand(rng, 3), _rand(rng, 3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    val = m_functional(a, b, v, CFG)
    for re in np.linspace(-3, 3, 25):
        for im in np.linspace(-3, 3, 25):
            mu = complex(re, im)
            assert val <= np.linalg.norm((a + mu * b) @ v) ** 2 + 1e-9


def test_minimax_duality_random_pairs():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        a, b = _rand(rng, n), _rand(rng, n)
        primal = min_lambda_norm(a, b, CFG).value ** 2
        dual, xi = sup_m(a, b, CFG)
        assert abs(primal - dual) <= 1e-6 * (1.0 + primal)
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-9)
        assert m_functional(a, b, xi, CFG) == pytest.approx(dual, abs=1e-9)


def test_sup_m_attained_at_returned_vector():
    rng = np.random.default_rng(3)
    a, b = _rand(rng, 4), _rand(rng, 4)
    val, xi = sup_m(a, b, CFG)
    # no random perturbation of xi does better
    for _ in range(200):
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = xi + 0.05 * d
        v /= np.linalg.norm(v)
        assert m_functional(a, b, v, CFG) <= val + 1e-7


@pytest.mark.parametrize("eps", [0.0, 1e-5, 1e-7, 1e-9])
def test_sup_m_rank_one_and_nearly_rank_one_b(eps):
    # M divides the cross term of xi* by ||B xi*||^2, which is about eps^2 here,
    # and jumps up on ker B when eps = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        a = _rand(rng, 3)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = np.outer(u, v.conj()) + eps * _rand(rng, 3)
        primal = min_lambda_norm(a, b, CFG).value ** 2
        dual, xi = sup_m(a, b, CFG)
        assert (primal - dual) / (1.0 + primal) <= 1e-6, seed
        assert m_functional(a, b, xi, CFG) == dual


def test_sup_m_identity_against_normal_matrices():
    # ||I + lam y|| has a multiple top singular value at its minimum, so the dual
    # vector comes from a k x k compression with k > 1
    for n in range(3, 7):
        for seed in range(15):
            rng = np.random.default_rng(100 * n + seed)
            q, r = np.linalg.qr(_rand(rng, n))
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            mu = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            y = q @ np.diag(mu) @ q.conj().T
            x = np.eye(n, dtype=complex)
            primal = min_lambda_norm(x, y, CFG).value ** 2
            dual, xi = sup_m(x, y, CFG)
            assert abs(primal - dual) <= 1e-6 * (1.0 + primal), (n, seed)
            assert m_functional(x, y, xi, CFG) == dual


def test_bj_orthogonal_diagonal():
    # x = diag(1, 0): maximizing set is e1; <x, y> = diag(y11, 0)
    x = np.diag([1.0, 0.0]).astype(complex)
    y_orth = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    verdict, w = bj_orthogonal(x, y_orth, CFG)
    assert verdict and w is not None
    assert abs(evaluate(w, x.conj().T @ y_orth)) <= 1e-5

    y_not = np.diag([1.0, 0.0]).astype(complex)
    verdict, w = bj_orthogonal(x, y_not, CFG)
    assert not verdict and w is None


def test_bj_identity_against_cube_roots_of_unity():
    # W(diag(1, w, w^2)) is a triangle around 0, so min_lam ||I + lam y|| = 1 = ||I||
    w = np.exp(2j * np.pi / 3)
    y = np.diag([1.0, w, w * w])
    verdict, witness = bj_orthogonal(np.eye(3), y, CFG)
    assert verdict and witness is not None
    assert abs(evaluate(witness, y)) <= 1e-9


def test_wide_pair_through_sup_m_and_witness_vector():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    primal = min_lambda_norm(a, b, CFG).value ** 2
    dual, xi = sup_m(a, b, CFG)
    assert abs(primal - dual) <= 1e-6 * (1.0 + primal)
    assert xi.shape == (3,)

    x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    y = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex)
    xi = pythagoras_witness_vector(x, y, CFG)
    assert xi is not None
    assert np.linalg.norm(x @ xi) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(y @ xi) == pytest.approx(1.0, abs=1e-9)
    assert abs(np.vdot(x @ xi, y @ xi)) <= 1e-9


def test_bj_zero_x_is_orthogonal_to_everything():
    verdict, w = bj_orthogonal(np.zeros((2, 2)), np.eye(2), CFG)
    assert verdict and w is not None


def test_bj_matches_norm_inequality():
    # BJ orthogonality iff ||x + lam y|| >= ||x|| for all lam; check both verdicts
    rng = np.random.default_rng(4)
    hits = {True: 0, False: 0}
    for k in range(30):
        x, y = _rand(rng, 3), _rand(rng, 3)
        if k % 2 == 0:
            # engineer orthogonality: subtract the compression on the norming vector
            opt = min_lambda_norm(x, y, CFG)
            x = x + opt.lambda_star * y
        verdict, _ = bj_orthogonal(x, y, CFG)
        floor = min_lambda_norm(x, y, CFG).value
        nx = spectral_norm(x)
        numeric = floor >= nx - 1e-6 * (1.0 + nx)
        assert verdict == numeric
        hits[verdict] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_bj_lower_bound_check():
    x = np.diag([1.0, 0.0]).astype(complex)
    y = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    # min modulus of |y| is 1; the bound ||x + lam y||^2 >= 1 + |lam|^2 holds
    assert bj_lower_bound_check(x, y, CFG)
    # x = y = I violates it immediately at lam = -1
    assert not bj_lower_bound_check(np.eye(2), np.eye(2), CFG)


def test_unique_alpha0():
    x = np.diag([1.0, 0.0]).astype(complex)
    y = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    alpha0, value = unique_alpha0(x, y, CFG)
    assert abs(alpha0) <= 1e-5
    assert value == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(HypothesisViolation):
        unique_alpha0(x, np.diag([1.0, 0.0]).astype(complex), CFG)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        min_lambda_norm(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        bj_orthogonal(np.eye(2), np.eye(3))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=4))
def test_duality_gap_property(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    primal = min_lambda_norm(a, b, CFG).value ** 2
    dual, _ = sup_m(a, b, CFG)
    # weak duality is exact here; equality within optimization tolerance
    assert dual <= primal + 1e-8 * (1.0 + primal)
    assert primal - dual <= 1e-6 * (1.0 + primal)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=102)  # an unpolished lambda* left |u^H y v| near 3e-7
@example(seed=965)
@example(seed=1082)
@example(seed=1699)
def test_bj_shifted_pair_is_orthogonal(seed):
    # x + lambda* y is always BJ-orthogonal to y
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    opt = min_lambda_norm(x, y, CFG)
    verdict, w = bj_orthogonal(x + opt.lambda_star * y, y, CFG)
    assert verdict
    assert w is not None
    shifted = x + opt.lambda_star * y
    assert abs(evaluate(w, shifted.conj().T @ y)) <= 1e-5 * (1.0 + spectral_norm(y))


def _normal(rng, n):
    q, r = np.linalg.qr(_rand(rng, n))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    mu = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return q @ np.diag(mu) @ q.conj().T


def _simple_top_pairs():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for _ in range(4):
            yield _rand(rng, n), _rand(rng, n)
    for shape in ((5, 3), (3, 5)):
        for _ in range(4):
            yield (rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                   rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for n in (3, 5, 8):
        for _ in range(4):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            yield _rand(rng, n), np.outer(u, v.conj())


def test_no_optimizer_runs_at_a_simple_top(monkeypatch):
    # where sigma_max is smooth at the minimum, Newton's certificate ends the
    # solve: no simplex search and at most 60 SVD matrices
    import modnorm.normopt

    def refuse(*args, **kwargs):
        raise AssertionError("general optimizer called at a simple top")

    svd, norm = np.linalg.svd, np.linalg.norm
    count = [0]

    def counting_svd(m, *args, **kwargs):
        count[0] += m.shape[0] if m.ndim == 3 else 1
        return svd(m, *args, **kwargs)

    def counting_norm(m, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(m) == 2:
            count[0] += 1
        return norm(m, ord, *args, **kwargs)

    monkeypatch.setattr(modnorm.normopt, "minimize", refuse)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    for a, b in _simple_top_pairs():
        count[0] = 0
        res = min_lambda_norm(a, b, CFG)
        assert count[0] <= 60, (a.shape, count[0])
        s = svd(a + res.lambda_star * b, compute_uv=False)
        assert s[1] < s[0] * (1.0 - 1e-7)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=8),
    st.booleans(),
)
def test_min_lambda_is_a_local_minimum(seed, n, kink):
    # no point on two small circles around lambda* does better, whichever
    # solver produced it; x = I with normal y puts a kink at the minimum
    rng = np.random.default_rng(seed)
    if kink:
        a, b = np.eye(n, dtype=complex), _normal(rng, n)
    else:
        a, b = _rand(rng, n), _rand(rng, n)
    res = min_lambda_norm(a, b, CFG)
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    for h in (1e-3, 1e-6):
        lams = res.lambda_star + h * ring
        stack = a[None] + lams[:, None, None] * b[None]
        around = np.linalg.svd(stack, compute_uv=False)[:, 0].min()
        assert res.value <= around * (1.0 + 1e-14)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_min_lambda_scale_and_unitary_invariance(seed, n, exponent):
    # the certificate's thresholds are relative: (tA, tB) has the same lambda*
    # and t times the value, and (UAV, UBV) has the same value
    rng = np.random.default_rng(seed)
    a, b = _rand(rng, n), _rand(rng, n)
    base = min_lambda_norm(a, b, CFG)
    t = 2.0**exponent
    scaled = min_lambda_norm(t * a, t * b, CFG)
    assert abs(scaled.lambda_star - base.lambda_star) <= 1e-9 * (1.0 + abs(base.lambda_star))
    assert scaled.value == pytest.approx(t * base.value, rel=1e-12)
    u, _ = np.linalg.qr(_rand(rng, n))
    v, _ = np.linalg.qr(_rand(rng, n))
    rotated = min_lambda_norm(u @ a @ v, u @ b @ v, CFG)
    assert rotated.value == pytest.approx(base.value, rel=1e-12)
