"""Tests for the dense linear algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnorm import (
    DEFAULT_CONFIG,
    NonHermitianError,
    NonSquareError,
    Pair,
    adjoint,
    hermitian_eig,
    modulus,
    numeric_rank,
    real_part,
    spectral_norm,
)
from modnorm.closedforms import rand_complex
from modnorm.linalg import as_matrix, shared_pair, top_right_singular_subspace

CFG = DEFAULT_CONFIG


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan + 1j]]))


def test_pair_arrays_are_read_only_copies():
    rng = np.random.default_rng(5)
    x, y = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
    for p in (Pair(x, y), shared_pair(x, y)):
        for m in (p.x, p.y, p.gx, p.gy, p.inner):
            with pytest.raises(ValueError):
                m[0, 0] = 0.0
    x[0, 0] = y[0, 0] = 0.0  # the caller's arrays stay its own


def test_pair_quantities_are_computed_once_and_shared_by_equal_pairs():
    rng = np.random.default_rng(6)
    x, y = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
    pair = shared_pair(x, y)
    scaled = shared_pair(2.0**-30 * x, 2.0**-30 * y)
    # (2^k x, 2^k y) normalizes to the same bits and reads the same objects,
    # each with its own exponent
    assert pair.gx is scaled.gx and pair.inner is scaled.inner and pair.ny == scaled.ny
    assert scaled.exponent == pair.exponent - 30
    assert shared_pair(y, x).gx is not pair.gy  # the order is part of the pair
    assert Pair(x, y).gx is not pair.gx  # a pair built directly keeps its own
    # with the expressions of an eager build
    assert pair.gx.tobytes() == (pair.x.conj().T @ pair.x).tobytes()
    assert pair.inner.tobytes() == (pair.x.conj().T @ pair.y).tobytes()
    assert pair.nx == spectral_norm(pair.x)


def test_pair_scales_by_an_exact_power_of_two():
    rng = np.random.default_rng(7)
    x = rand_complex(rng, 3, 4)
    y = 0.25 * rand_complex(rng, 3, 4)
    x[0, 0] = complex(-0.0, -0.0)  # signed zeros keep their sign
    pair = Pair(x.T.copy().T, y)  # a non-contiguous view is read too
    top = max(np.abs(x.real).max(), np.abs(x.imag).max())
    assert pair.exponent == np.frexp(top)[1] - 1
    assert np.ldexp(pair.x.view(float), pair.exponent).tobytes() == x.view(float).tobytes()
    assert np.ldexp(pair.y.view(float), pair.exponent).tobytes() == y.view(float).tobytes()
    assert Pair(np.zeros((2, 2)), np.zeros((2, 2))).exponent == 0


def test_as_matrix_accepts_noncontiguous_views():
    a = rand_complex(np.random.default_rng(0), 3, 3)
    assert as_matrix(a.conj().T).shape == (3, 3)


def test_adjoint_examples():
    assert adjoint(np.array([[1j]]))[0, 0] == -1j
    np.testing.assert_array_equal(
        adjoint(np.array([[0.0, 1.0], [0.0, 0.0]])), np.array([[0.0, 0.0], [1.0, 0.0]])
    )


def test_adjoint_involution_and_isometry():
    rng = np.random.default_rng(1)
    a = rand_complex(rng, 3, 3)
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)
    assert spectral_norm(adjoint(a)) == pytest.approx(spectral_norm(a), rel=1e-12)


def test_real_part():
    assert real_part(np.array([[1j]]))[0, 0] == 0
    np.testing.assert_allclose(real_part(np.diag([0.0, 1j])), np.zeros((2, 2)))
    rng = np.random.default_rng(2)
    a = rand_complex(rng, 4, 4)
    re = real_part(a)
    np.testing.assert_allclose(re, re.conj().T)
    # Re(a) + i Re(-i a) reconstructs a
    np.testing.assert_allclose(re + 1j * real_part(-1j * a), a, atol=1e-12)
    with pytest.raises(NonSquareError):
        real_part(np.zeros((2, 3)))


def test_hermitian_eig_examples():
    dec = hermitian_eig(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(dec.eigenvalues, [2.0, 1.0])
    dec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(3)
    h = rand_complex(rng, 5, 5)
    h = h + h.conj().T
    dec = hermitian_eig(h)
    v = dec.eigenvectors
    np.testing.assert_allclose((v * dec.eigenvalues) @ v.conj().T, h, atol=1e-9 * spectral_norm(h))
    gram = v.conj().T @ v
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _drifted(scale, drift, n=4):
    """A Hermitian matrix of norm ``scale`` plus (i drift / 2) I, so that
    ||m - m^H||_2 = drift and ||m - m^H||_F = 2 drift."""
    return np.diag(np.linspace(scale, scale / 2, n)) + 0.5j * drift * np.eye(n)


@pytest.mark.parametrize(
    "scale, drift, accepted",
    [(1.0, 0.9 * CFG.eps_eq, True), (1.0, 1.1 * CFG.eps_eq, False), (1e3, 1e-7, True)],
)
def test_hermitian_gate_boundary(scale, drift, accepted):
    # every Frobenius drift here is above eps_eq / 2, so the two SVD norms
    # decide, as they always did: drift <= eps_eq * max(||m||, 1)
    m = _drifted(scale, drift)
    assert np.linalg.norm(m - m.conj().T) > CFG.eps_eq / 2
    exact = np.linalg.norm(m - m.conj().T, 2) <= CFG.eps_eq * max(np.linalg.norm(m, 2), 1.0)
    assert exact == accepted
    if accepted:
        np.testing.assert_allclose(hermitian_eig(m, CFG).eigenvalues, np.diag(m).real)
    else:
        with pytest.raises(NonHermitianError):
            hermitian_eig(m, CFG)


def test_modulus_examples():
    np.testing.assert_allclose(
        modulus(np.array([[0.0, 1.0], [0.0, 0.0]])), np.diag([0.0, 1.0]), atol=1e-12
    )
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rand_complex(rng, 3, 3))
    np.testing.assert_allclose(modulus(q), np.eye(3), atol=1e-9)


def test_modulus_squares_to_gram():
    rng = np.random.default_rng(5)
    x = rand_complex(rng, 4, 4)
    m = modulus(x)
    np.testing.assert_allclose(m @ m, x.conj().T @ x, atol=1e-9)
    assert spectral_norm(m) == pytest.approx(np.linalg.svd(x, compute_uv=False)[0], rel=1e-12)


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert spectral_norm(np.ones((2, 2))) == pytest.approx(2.0)
    block = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert spectral_norm(block) == pytest.approx(1.0)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_power_iteration_oracle():
    rng = np.random.default_rng(6)
    a = rand_complex(rng, 4, 4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = a.conj().T @ a
    for _ in range(500):
        v = g @ v
        v = v / np.linalg.norm(v)
    estimate = float(np.sqrt(np.vdot(v, g @ v).real))
    assert spectral_norm(a) == pytest.approx(estimate, rel=1e-9)


@pytest.mark.parametrize("shape", [(2, 2), (5, 5), (8, 8), (8, 3), (3, 8), (1, 1), (1, 6)])
def test_spectral_norm_is_bit_identical_to_numpy(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(40):
        m = rand_complex(rng, *shape) * 10.0 ** rng.uniform(-6, 6)
        assert spectral_norm(m) == float(np.linalg.norm(m, 2))
    assert spectral_norm(np.zeros(shape)) == float(np.linalg.norm(np.zeros(shape), 2)) == 0.0


def test_numeric_rank():
    rng = np.random.default_rng(8)
    x, y = rand_complex(rng, 4, 1), rand_complex(rng, 4, 1)
    assert numeric_rank(x @ y.conj().T) == 1
    assert numeric_rank(np.eye(5)) == 5
    x2, y2 = rand_complex(rng, 4, 1), rand_complex(rng, 4, 1)
    assert numeric_rank(x @ y.conj().T + x2 @ y2.conj().T) == 2
    assert numeric_rank(np.zeros((3, 3))) == 0


def test_numeric_rank_unitary_invariance():
    rng = np.random.default_rng(9)
    for r in (1, 2, 3):
        low = rand_complex(rng, 4, r) @ rand_complex(rng, r, 4)
        q, _ = np.linalg.qr(rand_complex(rng, 4, 4))
        assert numeric_rank(q @ low @ q.conj().T) == numeric_rank(low) == r


def test_psd_check():
    assert hermitian_eig(np.diag([0.0, 1.0])).is_psd()
    assert not hermitian_eig(np.diag([-1.0, 1.0])).is_psd()
    assert hermitian_eig(np.zeros((2, 2))).is_psd()


def test_psd_check_orthogonal_range_cross_product():
    # corner blocks with orthogonal middle factors have zero cross product
    s = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    t = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    zero = np.zeros((2, 2))
    a = np.block([[s, zero], [zero, zero]])
    b = np.block([[zero, t], [zero, zero]])
    cross = a.conj().T @ b
    assert spectral_norm(cross) == 0.0
    assert hermitian_eig(real_part(cross)).is_psd()


def test_top_eigenspace_degenerate_top():
    h = np.diag([2.0, 2.0, 1.0])
    basis = hermitian_eig(h, CFG).top_space(CFG)
    assert basis.shape == (3, 2)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def test_top_right_singular_subspace():
    a = np.diag([3.0, 3.0, 1.0]).astype(complex)
    sub = top_right_singular_subspace(a, CFG)
    assert sub.shape == (3, 2)
    np.testing.assert_allclose(np.abs(a @ sub).max(axis=0), [3.0, 3.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_cstar_identity(seed, n):
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, n, n)
    na = spectral_norm(a)
    assert spectral_norm(a.conj().T @ a) == pytest.approx(na**2, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_modulus_norm_matches_spectral_norm(seed, n):
    rng = np.random.default_rng(seed)
    x = rand_complex(rng, n, n)
    assert spectral_norm(modulus(x)) == pytest.approx(spectral_norm(x), rel=1e-9, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_state_values_sandwiched_by_min_modulus_and_norm(seed):
    # the state values of |a| fill [sigma_min(a), ||a||]
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, 3, 3)
    m = modulus(a)
    lo, hi = np.linalg.svd(a, compute_uv=False)[-1], spectral_norm(a)
    for _ in range(20):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        val = float(np.vdot(v, m @ v).real)
        assert lo - 1e-9 <= val <= hi + 1e-9
