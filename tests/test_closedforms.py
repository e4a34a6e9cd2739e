"""Closed-form oracles checked against direct SVD computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnorm import (
    DEFAULT_CONFIG,
    HypothesisViolation,
    RankOnePair,
    bj_orthogonal,
    corner_block_pair,
    fkm_block,
    fkm_norm,
    hat_function_pair,
    parallelogram_law_check,
    rank_one_classify,
    rank_one_norm,
    rank_persistence,
    roberts_check,
    weighted_shift_norm,
    weighted_shift_pair,
)
from modnorm.closedforms import rand_complex

CFG = DEFAULT_CONFIG


# ---------------------------------------------------------------------------
# two-parameter block norm
# ---------------------------------------------------------------------------

def test_fkm_norm_diagonal_case():
    # b = c = 0: the block matrix is diag(aI, dI)
    assert fkm_norm(3.0, 0.0, 0.0, 2.0, 5.0) == pytest.approx(3.0)
    assert fkm_norm(0.0, 0.0, 0.0, -4.0, 1.0) == pytest.approx(4.0)


def test_fkm_norm_offdiagonal_case():
    # a = d = 0: the norm is max(|b|, |c|) ||X||
    assert fkm_norm(0.0, 2.0, 1.0, 0.0, 3.0) == pytest.approx(6.0)


def test_fkm_norm_rejects_negative():
    with pytest.raises(ValueError):
        fkm_norm(1.0, 0.0, 0.0, 1.0, -1.0)


def test_fkm_block_assembly():
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    m = fkm_block(1.0, 2.0, 3.0, 4.0, x)
    assert m.shape == (4, 4)
    np.testing.assert_allclose(m[:2, :2], np.eye(2))
    np.testing.assert_allclose(m[:2, 2:], 2.0 * x)
    np.testing.assert_allclose(m[2:, :2], 3.0 * x.conj().T)
    np.testing.assert_allclose(m[2:, 2:], 4.0 * np.eye(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fkm_norm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
    n = int(rng.integers(1, 4))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    block = fkm_block(a, b, c, d, x)
    oracle = float(np.linalg.norm(block, 2))
    nx = float(np.linalg.norm(x, 2))
    assert fkm_norm(a, b, c, d, nx) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# rank-one pairs
# ---------------------------------------------------------------------------

def test_rank_one_norm_single():
    p = RankOnePair(x=[1.0, 0.0], y=[0.0, 2.0], u=[0.0, 1.0], v=[1.0, 0.0])
    # ||x (x) y|| = ||x|| ||y|| at lam = 0
    assert rank_one_norm(p, 0.0) == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_one_norm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p = RankOnePair(*(rand_complex(rng, n) for _ in range(4)))
    lam = complex(*rng.standard_normal(2))
    oracle = float(np.linalg.norm(p.first() + lam * p.second(), 2))
    assert rank_one_norm(p, lam) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_rank_one_classify_orthogonal_columns():
    # x (x) y vs u (x) y with x perp u: the sum is (x + lam u) (x) y, so
    # Pythagoras (and everything weaker) holds
    rng = np.random.default_rng(0)
    y = rand_complex(rng, 3)
    p = RankOnePair(x=[1, 0, 0], y=y, u=[0, 1, 0], v=y)
    verdicts = rank_one_classify(p, CFG)
    assert verdicts.bj_forward and verdicts.bj_reverse and verdicts.roberts
    assert verdicts.pythagoras
    assert verdicts.parallelogram
    assert verdicts.inner_zero


def test_rank_one_classify_bj_without_pythagoras():
    # x perp u but second factors generic: BJ holds, Pythagoras fails
    rng = np.random.default_rng(7)
    p = RankOnePair(x=[1, 0, 0], y=rand_complex(rng, 3), u=[0, 1, 0], v=rand_complex(rng, 3))
    verdicts = rank_one_classify(p, CFG)
    assert verdicts.bj_forward
    assert not verdicts.pythagoras
    assert not verdicts.parallelogram


def test_rank_one_classify_shared_left():
    p = RankOnePair(x=[1, 0], y=[1, 0], u=[1, 0], v=[0, 1])
    verdicts = rank_one_classify(p, CFG)
    assert verdicts.pythagoras  # x dependent on u, y perp v
    assert verdicts.parallelogram
    assert not verdicts.inner_zero


def test_rank_one_classify_degenerate():
    p = RankOnePair(x=[0, 0], y=[1, 0], u=[1, 0], v=[0, 1])
    assert rank_one_classify(p, CFG).degenerate


def test_rank_one_classify_matches_generic_deciders():
    rng = np.random.default_rng(1)
    for k in range(10):
        n = 3
        if k % 3 == 0:
            x = u = rand_complex(rng, n)
            y, v = rand_complex(rng, n), rand_complex(rng, n)
        elif k % 3 == 1:
            x, u = rand_complex(rng, n), rand_complex(rng, n)
            u = u - np.vdot(x, u) / np.vdot(x, x) * x  # x perp u
            y, v = rand_complex(rng, n), rand_complex(rng, n)
        else:
            x, y, u, v = (rand_complex(rng, n) for _ in range(4))
        p = RankOnePair(x=x, y=y, u=u, v=v)
        verdicts = rank_one_classify(p, CFG)
        a, b = p.first(), p.second()
        assert roberts_check(a, b, CFG) == verdicts.roberts
        assert parallelogram_law_check(a, b, CFG) == verdicts.parallelogram
        assert bj_orthogonal(a, b, CFG)[0] == verdicts.bj_forward


# ---------------------------------------------------------------------------
# corner blocks
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_corner_block_norm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lam = complex(*rng.standard_normal(2))
    a, b, value = corner_block_pair(s, t, lam)
    oracle = float(np.linalg.norm(a + lam * b, 2))
    assert value == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_corner_block_shapes():
    a, b, _ = corner_block_pair(np.eye(2), np.eye(2), 1.0)
    assert a.shape == b.shape == (4, 4)
    with pytest.raises(ValueError):
        corner_block_pair(np.eye(2), np.eye(3), 1.0)


# ---------------------------------------------------------------------------
# weighted shift truncation
# ---------------------------------------------------------------------------

def test_weighted_shift_norm_matches_svd():
    rng = np.random.default_rng(2)
    for m in (1, 3, 7):
        a, b = weighted_shift_pair(m)
        assert a.shape == (2 * m + 2, 2 * m + 2)
        for _ in range(5):
            lam = complex(*rng.standard_normal(2))
            oracle = float(np.linalg.norm(a + lam * b, 2))
            assert weighted_shift_norm(m, lam) == pytest.approx(oracle, rel=1e-9)


def test_weighted_shift_limit_bound():
    # truncated norm^2 approaches 1 + |lam|^2 from below within 2^-m
    for m in (5, 10, 20):
        for lam in (0.3, 1.0, 2.0 + 1.0j):
            exact = weighted_shift_norm(m, lam) ** 2
            limit = 1.0 + abs(lam) ** 2
            assert exact <= limit + 1e-12
            assert limit - exact <= 2.0**-m * (1.0 + abs(lam) ** 2) + 1e-12


def test_weighted_shift_inner_product_nonzero():
    a, b = weighted_shift_pair(4)
    assert np.linalg.norm(a.conj().T @ b, 2) > 0.2


def test_weighted_shift_rejects_bad_m():
    with pytest.raises(ValueError):
        weighted_shift_pair(0)
    with pytest.raises(ValueError):
        weighted_shift_norm(0, 1.0)


# ---------------------------------------------------------------------------
# hat functions
# ---------------------------------------------------------------------------

def test_hat_function_pair_exact_norm():
    for n in (2, 5, 101):
        f, g = hat_function_pair(n)
        for lam in (0.0, 0.5, 1.0, -2.0, 1j):
            oracle = float(np.linalg.norm(f + lam * g, 2))
            assert oracle == pytest.approx(max(0.5, abs(lam) / 2), abs=1e-12)


def test_hat_function_pair_disjoint_supports():
    f, g = hat_function_pair(11)
    assert np.linalg.norm(f @ g, 2) <= 1e-15
    with pytest.raises(ValueError):
        hat_function_pair(1)


# ---------------------------------------------------------------------------
# rank persistence
# ---------------------------------------------------------------------------

def test_rank_persistence_shared_vector_families():
    rng = np.random.default_rng(3)
    x = rand_complex(rng, 3)
    y1, y2 = rand_complex(rng, 3), rand_complex(rng, 3)
    a = np.outer(x, y1.conj())
    b = np.outer(x, y2.conj())
    assert rank_persistence(a, b, 0.0, 1.0, 2.0, CFG)
    # shared right vector family
    a2 = np.outer(y1, x.conj())
    b2 = np.outer(y2, x.conj())
    assert rank_persistence(a2, b2, 0.0, 1.0, 1j, CFG)


def test_rank_persistence_preconditions():
    with pytest.raises(ValueError):
        rank_persistence(np.eye(2), np.eye(2), 1.0, 1.0, 2.0, CFG)  # repeated shift
    with pytest.raises(HypothesisViolation):
        rank_persistence(np.eye(2), np.eye(2), 1.0, 2.0, 3.0, CFG)  # rank 2
