"""Tests for the shifted-norm minimizer, dual sphere functional, and
Birkhoff-James decisions."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modnorm import (
    DEFAULT_CONFIG,
    ShapeError,
    ToleranceConfig,
    bj_lower_bound_check,
    bj_orthogonal,
    evaluate,
    m_functional,
    min_lambda_norm,
    pythagoras_witness_vector,
    roberts_check,
    spectral_norm,
    sup_m,
)
from modnorm.closedforms import case_rng, rand_complex

CFG = DEFAULT_CONFIG


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


def test_min_lambda_small_pair_is_not_zero_b():
    # at t = 2^-36, ||t B|| is 3.3e-11, below EPS_RANK but far above 0
    rng = np.random.default_rng(0)
    a, b = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
    unit = min_lambda_norm(a, b, CFG)
    t = 2.0**-36
    small = min_lambda_norm(t * a, t * b, CFG)
    assert small.lambda_star == pytest.approx(unit.lambda_star, abs=1e-9)
    assert small.value == pytest.approx(t * unit.value, rel=1e-12)
    assert abs(unit.lambda_star) > 0.5


def test_min_lambda_beats_dense_grid():
    rng = np.random.default_rng(0)
    a, b = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
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
    a, b = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
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
        a, b = rand_complex(rng, n, n), rand_complex(rng, n, n)
        primal = min_lambda_norm(a, b, CFG).value ** 2
        dual, xi = sup_m(a, b, CFG)
        assert abs(primal - dual) <= 1e-6 * (1.0 + primal)
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-9)
        assert m_functional(a, b, xi, CFG) == pytest.approx(dual, abs=1e-9)


def test_sup_m_attained_at_returned_vector():
    rng = np.random.default_rng(3)
    a, b = rand_complex(rng, 4, 4), rand_complex(rng, 4, 4)
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
        a = rand_complex(rng, 3, 3)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = np.outer(u, v.conj()) + eps * rand_complex(rng, 3, 3)
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
            q, r = np.linalg.qr(rand_complex(rng, n, n))
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


def test_bj_identity_against_a_thin_triangle_in_any_basis():
    # W(y) is a thin triangle with 0 at its centroid: the identity is BJ
    # orthogonal to y and to every unitary conjugate of it
    ev = np.array([1.03482584 + 0.85205943j, 0.24028732 + 0.19833095j, -1.27511316 - 1.05039038j])
    y = np.diag(ev - ev.mean())
    assert bj_orthogonal(np.eye(3), y, CFG)[0]
    for seed in (0, 1, 2):
        q, _ = np.linalg.qr(rand_complex(np.random.default_rng(seed), 3, 3))
        assert bj_orthogonal(np.eye(3), q @ y @ q.conj().T, CFG)[0], seed


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
        x, y = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
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


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        min_lambda_norm(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        bj_orthogonal(np.eye(2), np.eye(3))
    # a shape error, not a numpy broadcast failure inside the lattice stack
    with pytest.raises(ShapeError):
        bj_lower_bound_check(np.eye(2), np.eye(3))


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
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    mu = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return q @ np.diag(mu) @ q.conj().T


def _simple_top_pairs():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for _ in range(4):
            yield rand_complex(rng, n, n), rand_complex(rng, n, n)
    for shape in ((5, 3), (3, 5)):
        for _ in range(4):
            yield (rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                   rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for n in (3, 5, 8):
        for _ in range(4):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            yield rand_complex(rng, n, n), np.outer(u, v.conj())


def _refuse_simplex_search(monkeypatch):
    from modnorm import normopt

    def refuse(*args, **kwargs):
        raise AssertionError("general optimizer called at a simple top")

    monkeypatch.setattr(normopt, "_nelder_mead", refuse)


def test_no_optimizer_runs_at_a_simple_top(monkeypatch):
    # where sigma_max is smooth at the minimum, Newton's certificate ends the
    # solve: no simplex search and at most 60 SVD matrices.  Counts do not
    # depend on the machine: from the Frobenius minimizer a solve here takes
    # 2 SVDs for ||A|| and ||B|| and about 7 Newton SVDs on average, and a
    # start grid would show as many more
    svd, norm = np.linalg.svd, np.linalg.norm
    count = [0]

    def counting_svd(m, *args, **kwargs):
        count[0] += m.shape[0] if m.ndim == 3 else 1
        return svd(m, *args, **kwargs)

    def counting_norm(m, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(m) == 2:
            count[0] += 1
        return norm(m, ord, *args, **kwargs)

    _refuse_simplex_search(monkeypatch)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    pairs, total = list(_simple_top_pairs()), 0
    for a, b in pairs:
        count[0] = 0
        res = min_lambda_norm(a, b, CFG)
        assert count[0] <= 60, (a.shape, count[0])
        total += count[0]
        s = svd(a + res.lambda_star * b, compute_uv=False)
        assert s[1] < s[0] * (1.0 - 1e-7)
    assert total / len(pairs) <= 10.0, total / len(pairs)


def test_a_multiple_of_b_is_certified_at_the_cone_vertex(monkeypatch):
    # for A = c B, f(lambda) = |c + lambda| ||B|| is a cone with its vertex at
    # lambda = -c, the Frobenius start up to rounding; f there is rounding
    # noise, so the start is certified with no step and no simplex search.
    # A perturbation well above rounding is not certified at the start.
    from modnorm import normopt

    runs = []
    newton = normopt._newton
    monkeypatch.setattr(normopt, "_newton", lambda *args: runs.append(newton(*args)) or runs[-1])
    simplex = normopt._nelder_mead
    refused = [True]

    def search(*args):
        assert not refused[0], "simplex search at the vertex of a cone"
        return simplex(*args)

    monkeypatch.setattr(normopt, "_nelder_mead", search)
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for _ in range(10):
            b = rand_complex(rng, n, n)
            c = complex(rng.standard_normal(), rng.standard_normal())
            runs.clear()
            refused[0] = True
            res = min_lambda_norm(c * b, b, CFG)
            assert runs[0].certified and runs[0].steps == 0
            assert abs(res.lambda_star + c) <= 1e-14 * abs(c)
            assert res.value <= 1e-14 * spectral_norm(c * b)
            runs.clear()
            refused[0] = False
            min_lambda_norm(c * b + 1e-8 * rand_complex(rng, n, n), b, CFG)
            assert not (runs[0].certified and runs[0].steps == 0)


def test_criterion_01_pairs_certify_without_the_simplex_search(monkeypatch):
    # the pairs of acceptance criterion 01 (seed 20260823 + n, n = 2-5)
    _refuse_simplex_search(monkeypatch)
    for n in (2, 3, 4, 5):
        for i in range(200):
            rng = case_rng(20260823 + n, i)
            a, b = rand_complex(rng, n, n), rand_complex(rng, n, n)
            min_lambda_norm(a, b, CFG)


def _solve_families():
    # random, rank-one B, tall and wide (n = 2-8), A = c B, and A = 0
    rng = np.random.default_rng(31)
    for n in range(2, 9):
        yield "random", rand_complex(rng, n, n), rand_complex(rng, n, n)
        yield "rank-one", rand_complex(rng, n, n), rand_complex(rng, n, 1) @ rand_complex(rng, 1, n)
        yield "tall", rand_complex(rng, n + 2, n), rand_complex(rng, n + 2, n)
        yield "wide", rand_complex(rng, n, n + 3), rand_complex(rng, n, n + 3)
        b = rand_complex(rng, n, n)
        yield "multiple", complex(*rng.standard_normal(2)) * b, b
        yield "zero", np.zeros((n, n), dtype=complex), rand_complex(rng, n, n)


def test_min_lambda_is_not_improved_by_a_search_from_it():
    # Nelder-Mead from a small simplex at lambda* must not find a value lower
    # by more than 1e-12 relative, up to the rounding in forming A + lambda B
    from modnorm import normopt

    edges = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for family, a, b in _solve_families():
        res = min_lambda_norm(a, b, CFG)
        lam = res.lambda_star

        def f(x, a=a, b=b):
            return spectral_norm(a + (x[0] + 1j * x[1]) * b)

        x0 = np.array([lam.real, lam.imag])
        check = normopt._nelder_mead(f, x0 + 1e-3 * (1.0 + abs(lam)) * edges, 1e-13, 1e-16, 300)
        rounding = 16 * np.finfo(float).eps * (spectral_norm(a) + abs(lam) * spectral_norm(b))
        assert res.value <= check.fun * (1.0 + 1e-12) + rounding, (family, a.shape)
        if family == "zero":
            # lambda* = +0, as the command line prints it
            assert res.value == 0.0 and lam == 0.0, a.shape
            assert not (np.signbit(lam.real) or np.signbit(lam.imag)), a.shape


def _dense_hessian(d, s):
    """The Hessian of a simple sigma_1 as one 2 x 2 matrix product over the
    eigenpairs of the dilation (see ``normopt._hessian``): an oracle for the
    scalar sums."""
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


def _hessian_cases():
    # square, tall and wide; a generic top, and a second singular value
    # 1e-2 below the first, where the s_1 - s_2 term dominates
    rng = np.random.default_rng(23)
    for m, n in ((2, 2), (5, 5), (8, 8), (6, 3), (3, 6), (2, 7), (8, 2)):
        for near in (False, True):
            a, b = rand_complex(rng, m, n), rand_complex(rng, m, n)
            if near:
                u, s, vh = np.linalg.svd(a)
                s[1] = s[0] * (1.0 - 1e-2)
                a = (u[:, : s.size] * s) @ vh[: s.size]
            yield a, b


def _matrix(h):
    hrr, hri, hii = h
    return np.array([[hrr, hri], [hri, hii]])


def test_scalar_hessian_matches_the_dense_form_and_finite_differences():
    from modnorm import normopt

    for a, b in _hessian_cases():
        u, s, vh = np.linalg.svd(a)
        d = u.conj().T @ b @ vh.conj().T
        got = _matrix(normopt._hessian(d, s))
        dense = _dense_hessian(d, s)
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max(), a.shape
        # central second differences of sigma_1(A + lambda B) along 1, i, 1 + i,
        # at a step h ||B|| well inside the gap s_1 - s_2
        h = 1e-5

        def f(lam):
            return np.linalg.svd(a + lam * b, compute_uv=False)[0]

        def second(e):
            return (f(h * e) - 2 * f(0.0) + f(-h * e)) / h**2

        drr, dii, dsum = second(1.0), second(1j), second(1.0 + 1j)
        fd = np.array([[drr, (dsum - drr - dii) / 2], [(dsum - drr - dii) / 2, dii]])
        assert np.abs(got - fd).max() <= 1e-4 * np.abs(got).max(), a.shape


def test_simplex_search_matches_scipy_nelder_mead():
    # the kink fallback's Nelder-Mead takes scipy's steps, so it returns the
    # same point, value and iteration count bit for bit; scipy is the oracle
    # here only: on the kink objective, from starts on and off the real axis,
    # and on a piecewise-constant function whose ties exercise the sort
    from scipy.optimize import minimize

    from modnorm import normopt

    rng = np.random.default_rng(17)
    edges = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cases = []
    for t in range(60):
        n = 2 + t % 7
        a, b = np.eye(n, dtype=complex), _normal(rng, n)
        x0 = np.array([rng.standard_normal(), 0.0 if t % 2 else 4e-16])
        simplex = x0 + rng.uniform(0.01, 2.0) * edges
        cases.append((lambda x, a=a, b=b: spectral_norm(a + (x[0] + 1j * x[1]) * b), simplex))
    for _ in range(40):
        cases.append((lambda x: float(np.floor(4 * np.abs(x).max())), rng.standard_normal((3, 2))))
    for i, (f, simplex) in enumerate(cases):
        for xatol, fatol, maxiter in ((1e-11, 1e-14, 600), (1e-12, 1e-15, 400), (1e-4, 1e-4, 7)):
            ref = minimize(
                f, x0=simplex[0], method="Nelder-Mead",
                options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter,
                         "initial_simplex": simplex},
            )
            got = normopt._nelder_mead(f, simplex, xatol, fatol, maxiter)
            assert np.array_equal(got.x, ref.x), (i, got.x, ref.x)
            assert (got.fun, got.nit) == (float(ref.fun), ref.nit), i


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=8),
    st.booleans(),
)
# Nelder-Mead started at Im lambda ~ 4e-16 with scipy's default simplex kept
# to the real axis and stopped at 0.2337; the minimum is 0.0792, off the axis
@example(seed=2946, n=2, kink=True)
def test_min_lambda_is_a_local_minimum(seed, n, kink):
    # no point on two small circles around lambda* does better, whichever
    # solver produced it; x = I with normal y puts a kink at the minimum
    rng = np.random.default_rng(seed)
    if kink:
        a, b = np.eye(n, dtype=complex), _normal(rng, n)
    else:
        a, b = rand_complex(rng, n, n), rand_complex(rng, n, n)
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
    a, b = rand_complex(rng, n, n), rand_complex(rng, n, n)
    base = min_lambda_norm(a, b, CFG)
    t = 2.0**exponent
    scaled = min_lambda_norm(t * a, t * b, CFG)
    assert abs(scaled.lambda_star - base.lambda_star) <= 1e-9 * (1.0 + abs(base.lambda_star))
    assert scaled.value == pytest.approx(t * base.value, rel=1e-12)
    u, _ = np.linalg.qr(rand_complex(rng, n, n))
    v, _ = np.linalg.qr(rand_complex(rng, n, n))
    rotated = min_lambda_norm(u @ a @ v, u @ b @ v, CFG)
    assert rotated.value == pytest.approx(base.value, rel=1e-12)


# ---------------------------------------------------------------------------
# the shared min-lambda solve
# ---------------------------------------------------------------------------


def _count_solves(monkeypatch):
    """From now on, a fresh table of shared pairs, and the count of solves
    (one Newton run from the Frobenius minimizer each at a simple top)."""
    import modnorm.linalg
    import modnorm.normopt

    newton = modnorm.normopt._newton
    runs = [0]

    def counting_newton(*args, **kwargs):
        runs[0] += 1
        return newton(*args, **kwargs)

    monkeypatch.setattr(modnorm.linalg, "_shared_pairs", modnorm.linalg._SharedTable())
    monkeypatch.setattr(modnorm.normopt, "_newton", counting_newton)
    return runs


def _same_bits(first, second):
    def bits(res):
        return np.array([res.lambda_star, res.value]).tobytes(), res.iterations

    return bits(first) == bits(second)


def test_min_lambda_then_sup_m_solve_once(monkeypatch):
    rng = np.random.default_rng(1201)
    a, b = rand_complex(rng, 4, 4), rand_complex(rng, 4, 4)
    runs = _count_solves(monkeypatch)
    primal = min_lambda_norm(a, b, CFG)
    dual, _ = sup_m(a, b, CFG)
    assert runs[0] == 1
    assert dual <= primal.value**2 * (1.0 + 1e-12)
    assert dual >= primal.value**2 * (1.0 - 1e-9)


def test_sup_m_reads_norm_and_factorization_from_the_shared_solve(monkeypatch):
    # ||B|| and the SVD of A + lambda* B come with a certified solve, so sup_m
    # factors no n x n matrix of its own (np.linalg.norm(., 2) is an SVD too)
    rng = np.random.default_rng(1205)
    a, b = rand_complex(rng, 4, 4), rand_complex(rng, 4, 4)
    _count_solves(monkeypatch)
    min_lambda_norm(a, b, CFG)
    shapes = []
    svd = np.linalg.svd

    def counting_svd(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    monkeypatch.setattr(inner, "svd", counting_svd)
    sup_m(a, b, CFG)
    assert (4, 4) not in shapes


def test_shared_solve_matches_a_fresh_build(monkeypatch):
    import modnorm.linalg

    rng = np.random.default_rng(1202)
    a, b = rand_complex(rng, 5, 5), rand_complex(rng, 5, 5)
    kink = np.eye(3, dtype=complex), _normal(rng, 3)  # Nelder-Mead runs here
    for x, y in ((a, b), kink):
        built = min_lambda_norm(x, y, CFG)
        hit, (value, xi) = min_lambda_norm(x, y, CFG), sup_m(x, y, CFG)
        assert _same_bits(hit, built)
        monkeypatch.setattr(modnorm.linalg, "_shared_pairs", modnorm.linalg._SharedTable())
        fresh_value, fresh_xi = sup_m(x, y, CFG)
        assert _same_bits(min_lambda_norm(x, y, CFG), hit)
        assert value == fresh_value and xi.tobytes() == fresh_xi.tobytes()


def test_shared_solve_hits_an_equal_config_and_scale_and_misses_on_writes_and_order(
    monkeypatch,
):
    rng = np.random.default_rng(1203)
    a, b = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
    runs = _count_solves(monkeypatch)
    base = min_lambda_norm(a, b, CFG)
    other = ToleranceConfig()  # equal to CFG, but another object
    assert other == CFG and _same_bits(min_lambda_norm(a, b, other), base)
    value, xi = sup_m(a, b, other)
    # (2^k a, 2^k b) normalizes to the same bits: the solve is read, and the
    # value and M are scaled back exactly
    for k in (-20, 30):
        scaled = min_lambda_norm(2.0**k * a, 2.0**k * b, CFG)
        assert scaled.lambda_star == base.lambda_star and scaled.value == np.ldexp(base.value, k)
        scaled_value, scaled_xi = sup_m(2.0**k * a, 2.0**k * b, CFG)
        assert scaled_value == np.ldexp(value, 2 * k) and scaled_xi.tobytes() == xi.tobytes()
    assert runs[0] == 1
    reverse = min_lambda_norm(b, a, CFG)
    assert runs[0] == 2 and reverse.value != base.value
    a[0, 0] += 1.0  # the caller writes into its own array
    moved = min_lambda_norm(a, b, CFG)
    assert runs[0] == 3 and moved.value != base.value
    assert _same_bits(moved, min_lambda_norm(a.copy(), b.copy(), CFG))
    assert runs[0] == 3


@pytest.mark.parametrize("seed", [1304, 1305, 1306, 1307])
def test_kink_solve_is_scale_free(seed):
    # x = I and y normal put a multiple top singular value at lambda*, where
    # the simplex search decides; its absolute stopping rules would read the
    # caller's units, so the solve runs on the normalized pair
    rng = np.random.default_rng(seed)
    n = 2 + seed % 4
    x, y = np.eye(n, dtype=complex), _normal(rng, n)
    base = min_lambda_norm(x, y, CFG)
    for k in (-6, 8):
        scaled = min_lambda_norm(2.0**k * x, 2.0**k * y, CFG)
        assert scaled.lambda_star == base.lambda_star
        assert scaled.value == np.ldexp(base.value, k)


def test_shared_solves_under_threads():
    # more threads than cores and more pairs than the table keeps, with a short
    # switch interval, so lookups, insertions and evictions interleave
    rng = np.random.default_rng(1204)
    pairs = [(rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)) for _ in range(24)]
    want = []
    for x, y in pairs:
        value, xi = sup_m(x, y, CFG)
        want.append((min_lambda_norm(x, y, CFG), value, xi.tobytes()))
    got = [[] for _ in range(4)]

    def work(k):
        order = [(k * 7 + 5 * i) % len(pairs) for i in range(2 * len(pairs))]
        for i in order:
            x, y = pairs[i]
            opt = min_lambda_norm(x, y, CFG)
            value, xi = sup_m(x, y, CFG)
            got[k].append((i, opt, value, xi.tobytes()))

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
        for i, opt, value, xi in results:
            assert _same_bits(opt, want[i][0]) and (value, xi) == want[i][1:]


def test_bj_lower_bound_check_reads_the_shared_profile(monkeypatch):
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pairs = [(np.diag([1.0, 0.0]).astype(complex), flip, True), (np.eye(2), 2 * np.eye(2), False)]
    for x, y, _ in pairs:
        roberts_check(x, y, CFG)  # builds the shared lattice profile of the pair
    svd, stacked = np.linalg.svd, []

    def counting_svd(m, *args, **kwargs):
        if np.ndim(m) == 3:
            stacked.append(len(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert [bj_lower_bound_check(x, y, CFG) for x, y, _ in pairs] == [p[2] for p in pairs]
    assert stacked == []
