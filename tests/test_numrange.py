"""Tests for numerical-range support functions, membership, and zero witnesses."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modnorm import (
    DEFAULT_CONFIG,
    chord_through_zero,
    range_boundary,
    range_contains,
    support_function,
    support_values,
    zero_unit_vector,
)
from modnorm.linalg import NonSquareError

CFG = DEFAULT_CONFIG


def _rand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_support_values_diagonal_real():
    # W(diag(0, 1)) = [0, 1]; support h(0) = 1, h(pi) = 0
    a = np.diag([0.0, 1.0]).astype(complex)
    vals = support_values(a, np.array([0.0, np.pi]))
    np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-12)


def test_support_values_nilpotent_disc():
    # W of the 2x2 nilpotent shift is the disc of radius 1/2: h is constant
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    thetas = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    np.testing.assert_allclose(support_values(a, thetas), 0.5, atol=1e-12)


def test_support_function_vector_attains():
    rng = np.random.default_rng(0)
    a = _rand(rng, 4)
    for theta in (0.0, 1.3, 4.0):
        h, xi = support_function(a, theta)
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
        z = np.vdot(xi, a @ xi)
        assert np.real(np.exp(-1j * theta) * z) == pytest.approx(h, abs=1e-10)


def test_range_boundary_shapes_and_convexity():
    rng = np.random.default_rng(1)
    a = _rand(rng, 3)
    bound = range_boundary(a, CFG)
    assert len(bound.angles) == CFG.phase_grid
    # every boundary point satisfies all support constraints
    for z in bound.extreme_points:
        proj = np.real(np.exp(-1j * bound.angles) * z)
        assert np.all(proj <= bound.support_values + 1e-8)


def test_range_contains_interval():
    a = np.diag([0.0, 1.0]).astype(complex)
    assert range_contains(a, 0.5, CFG)
    assert range_contains(a, 0.0, CFG)
    assert range_contains(a, 1.0, CFG)
    assert not range_contains(a, 1.0 + 1e-3, CFG)
    assert not range_contains(a, 0.5 + 0.1j, CFG)


def test_range_contains_disc():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert range_contains(a, 0.49j, CFG)
    assert not range_contains(a, 0.51j, CFG)
    assert range_contains(a, 0.3 + 0.3j, CFG)  # |z| < 0.5
    assert not range_contains(a, 0.4 + 0.4j, CFG)


def test_range_contains_mean_of_diagonal():
    # tr(a)/n is always in W(a)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = _rand(rng, 4)
        mean = complex(np.trace(a)) / 4
        assert range_contains(a, mean, CFG, tol=1e-8 * (1 + abs(mean)))


def test_range_contains_monte_carlo_agreement():
    # random quadratic-form samples must all be accepted
    rng = np.random.default_rng(3)
    a = _rand(rng, 3)
    for _ in range(50):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        z = complex(np.vdot(v, a @ v))
        assert range_contains(a, z, CFG, tol=1e-8 * (1 + abs(z)))


def test_range_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        support_values(np.zeros((2, 3)), np.array([0.0]))


def test_chord_through_zero_absent():
    # W(I + nilpotent/4) stays away from zero
    a = np.eye(2, dtype=complex) + 0.25 * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert chord_through_zero(a, CFG) is None
    assert zero_unit_vector(a, CFG) is None


def test_chord_through_zero_present():
    a = np.diag([-1.0, 2.0]).astype(complex)
    chord = chord_through_zero(a, CFG)
    assert chord is not None
    xi1, xi2, t, resid = chord
    # the chord is parameterized z1 + t (z2 - z1)
    z1 = np.vdot(xi1, a @ xi1)
    z2 = np.vdot(xi2, a @ xi2)
    assert abs(z1 + t * (z2 - z1)) <= 1e-6 * (1 + 2.0)
    assert resid <= 1e-6 * (1 + 2.0)


def _rand_unitary(rng, n):
    q, r = np.linalg.qr(_rand(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_chord_and_zero_vector_on_polygonal_ranges():
    # W of a normal matrix is the polygon spanned by its eigenvalues, so the
    # boundary sampling sees the same vertex at many angles
    rng = np.random.default_rng(7)
    checked = 0
    for n in range(3, 7):
        for _ in range(8):
            u = _rand_unitary(rng, n)
            eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for c in (u @ np.diag(eigs) @ u.conj().T, _rand_unitary(rng, n)):
                tol = CFG.eps_opt * (1.0 + np.linalg.norm(c, 2))
                if not range_contains(c, 0.0, CFG, tol=tol):
                    continue
                checked += 1
                chord = chord_through_zero(c, CFG)
                assert chord is not None
                xi1, xi2, t, resid = chord
                z1, z2 = np.vdot(xi1, c @ xi1), np.vdot(xi2, c @ xi2)
                assert 0.0 <= t <= 1.0
                assert abs(z1 + t * (z2 - z1)) <= tol and resid <= tol
                out = zero_unit_vector(c, CFG)
                assert out is not None
                assert abs(np.vdot(out[0], c @ out[0])) <= tol
    assert checked >= 40


def test_chord_through_zero_calls_no_optimizer(monkeypatch):
    calls = []
    real_minimize = scipy.optimize.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counting)
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        a = _rand(rng, n)
        assert chord_through_zero(a - np.trace(a) / n * np.eye(n), CFG) is not None
    assert calls == []


def test_zero_unit_vector_traceless():
    # traceless Hermitian: zero is interior, a single vector must exist
    a = np.diag([-1.0, 1.0]).astype(complex)
    out = zero_unit_vector(a, CFG)
    assert out is not None
    xi, resid = out
    assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(xi, a @ xi)) <= 1e-6 * 2


def test_zero_unit_vector_near_zero_matrix():
    a = 1e-13 * np.ones((1, 1), dtype=complex)
    out = zero_unit_vector(a, CFG)
    assert out is not None


def test_zero_unit_vector_shifted_disc():
    # disc of radius 1/2 centered at 0.3 contains zero in its interior
    a = 0.3 * np.eye(2, dtype=complex) + np.array([[0.0, 1.0], [0.0, 0.0]])
    out = zero_unit_vector(a, CFG)
    assert out is not None
    xi, _ = out
    assert abs(np.vdot(xi, a @ xi)) <= 1e-6 * (1 + 1.3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
@example(seed=33554431, n=3)  # scan minimum not strict: Brent bracket was invalid
@example(seed=144499424, n=5)
def test_traceless_always_has_zero_vector(seed, n):
    # tr(a) = 0 forces 0 in W(a) (the mean of the diagonal is in the range)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a - (np.trace(a) / n) * np.eye(n)
    out = zero_unit_vector(a, CFG)
    assert out is not None
    xi, resid = out
    assert resid <= CFG.eps_opt * (1.0 + np.linalg.norm(a, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_support_function_upper_bounds_samples(seed):
    rng = np.random.default_rng(seed)
    a = _rand(rng, 3)
    theta = float(rng.uniform(0, 2 * np.pi))
    h, _ = support_function(a, theta)
    for _ in range(10):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        z = np.vdot(v, a @ v)
        assert np.real(np.exp(-1j * theta) * z) <= h + 1e-9
