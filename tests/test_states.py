"""Tests for vector states, maximizing sets, and intersection witnesses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnorm import (
    DEFAULT_CONFIG,
    ToleranceConfig,
    VectorState,
    ZeroMatrixError,
    evaluate,
    maximizing_set,
    subspace_intersection,
    witness_in_set_with_zero,
)

CFG = DEFAULT_CONFIG


def _basis_vec(n, k):
    e = np.zeros(n, dtype=complex)
    e[k] = 1.0
    return e


def _outside(basis, v):
    """||v - B B^H v||: how far v lies outside the span of the orthonormal basis B."""
    return np.linalg.norm(v - basis @ (basis.conj().T @ v))


def test_pure_state_normalizes():
    phi = VectorState(np.array([3.0, 0.0]))
    np.testing.assert_allclose(phi.xi, [1.0, 0.0])
    assert evaluate(phi, np.diag([5.0, 7.0])) == pytest.approx(5.0)


def test_vector_state_rejects_a_zero_or_nonfinite_vector():
    for bad in (np.zeros(3), np.array([1.0, np.nan]), np.array([np.inf, 0.0])):
        with pytest.raises(ValueError):
            VectorState(bad)


def test_evaluate_is_linear_and_positive():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi = VectorState(v)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert evaluate(phi, a + 2j * b) == pytest.approx(
        evaluate(phi, a) + 2j * evaluate(phi, b), abs=1e-12
    )
    assert evaluate(phi, a.conj().T @ a).real >= -1e-12
    assert evaluate(phi, np.eye(3)).real == pytest.approx(1.0)
    # the density matrix the benchmark's witness check reads gives the same value
    assert evaluate(phi, a) == pytest.approx(np.trace(phi.rho @ a), abs=1e-12)


def test_maximizing_set_simple():
    p = maximizing_set(np.diag([2.0, 1.0, 2.0]), CFG)
    assert p.shape == (3, 2) and not p.flags.writeable
    np.testing.assert_allclose(p @ p.conj().T, np.diag([1.0, 0.0, 1.0]), atol=1e-9)


def test_maximizing_set_rejects_zero_and_nonpsd():
    with pytest.raises(ZeroMatrixError):
        maximizing_set(np.zeros((2, 2)), CFG)
    with pytest.raises(ValueError):
        maximizing_set(np.diag([1.0, -1.0]), CFG)


def test_maximizing_states_attain_norm():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = x.conj().T @ x
    p = maximizing_set(g, CFG)
    phi = VectorState(p[:, 0])
    assert evaluate(phi, g).real == pytest.approx(np.linalg.norm(g, 2), rel=1e-9)


def test_sets_intersect_true_and_false():
    p = np.stack([_basis_vec(3, 0), _basis_vec(3, 1)], axis=1)
    meet = subspace_intersection(p, _basis_vec(3, 1).reshape(3, 1), CFG)
    assert meet.shape == (3, 1)
    np.testing.assert_allclose(np.abs(meet[:, 0]), [0.0, 1.0, 0.0], atol=1e-8)
    assert subspace_intersection(p, _basis_vec(3, 2).reshape(3, 1), CFG).shape == (3, 0)


def test_sets_intersect_rotated():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    meet = subspace_intersection(q[:, :2], q[:, 1:3], CFG)
    assert meet.shape == (4, 1)
    # the meet lives (numerically) in both subspaces
    v = meet[:, 0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert _outside(q[:, :2], v) <= 1e-5
    assert _outside(q[:, 1:3], v) <= 1e-5


def test_subspace_intersection_dimension():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    inter = subspace_intersection(q[:, :3], q[:, 2:4], CFG)
    assert inter.shape[1] == 1
    # the intersection is span(q[:, 2])
    assert abs(np.vdot(q[:, 2], inter[:, 0])) == pytest.approx(1.0, abs=1e-6)


def test_subspace_intersection_empty():
    p1 = _basis_vec(3, 0).reshape(3, 1)
    p2 = _basis_vec(3, 1).reshape(3, 1)
    assert subspace_intersection(p1, p2, CFG).shape[1] == 0
    with pytest.raises(ValueError, match="ambient"):
        subspace_intersection(p1, np.eye(4, 1, dtype=complex), CFG)


def _projection_rule_dim(p, q, cfg):
    """Dimension of the meet by the rule of the projections P, Q onto the spans
    of p and q: the eigenvalues of P Q P within eps_opt of 1."""
    pp, qq = p @ p.conj().T, q @ q.conj().T
    return int(np.sum(np.linalg.eigvalsh(pp @ qq @ pp) >= 1.0 - cfg.eps_opt))


def _checked_meet_dim(p, q, cfg=CFG):
    """The dimension of ``subspace_intersection(p, q)``, once it is shown to
    agree with the projection rule and to have orthonormal columns that lie in
    the span of p and within the kept angle, sqrt(eps_opt), of that of q."""
    meet = subspace_intersection(p, q, cfg)
    k = meet.shape[1]
    assert meet.shape == (p.shape[0], _projection_rule_dim(p, q, cfg))
    np.testing.assert_allclose(meet.conj().T @ meet, np.eye(k), atol=1e-12)
    for v in meet.T:
        assert _outside(p, v) <= 1e-12
        assert _outside(q, v) <= np.sqrt(cfg.eps_opt) + 1e-12
    return k


def test_meet_from_principal_angles_keeps_the_projection_rule():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for shared in range(min(n, 2) + 1):
            # bases that share ``shared`` planted directions, each with a
            # random complement of its own
            bases = []
            for extra in rng.integers(0, n - shared + 1, size=2):
                g = rng.standard_normal((n, extra)) + 1j * rng.standard_normal((n, extra))
                bases.append(np.linalg.qr(np.hstack([u[:, :shared], g]))[0])
            p, q = bases
            assert _checked_meet_dim(p, q) >= max(shared, p.shape[1] + q.shape[1] - n)
            assert _checked_meet_dim(q, p) == _checked_meet_dim(p, q)
        # one direction at squared cosine 1 - eps_opt / 2 is kept; those at
        # 1 - 1.5 eps_opt, whose cosine is within eps_opt of 1, and at
        # 1 - 2 eps_opt are dropped
        eps = CFG.eps_opt
        for cos2, kept in ((1.0 - eps / 2, 1), (1.0 - 1.5 * eps, 0), (1.0 - 2.0 * eps, 0)):
            tilted = np.sqrt(cos2) * u[:, :1] + np.sqrt(1.0 - cos2) * u[:, 1:2]
            assert _checked_meet_dim(u[:, :1], tilted) == kept
            assert _checked_meet_dim(tilted, u[:, :1]) == kept
        # an empty basis on either side
        empty = np.zeros((n, 0), dtype=complex)
        assert _checked_meet_dim(empty, u) == 0
        assert _checked_meet_dim(u, empty) == 0


def test_witness_in_set_with_zero_exists():
    # compressed to span(e1, e2), diag(-1, 1, 5) has zero in its range
    p = np.stack([_basis_vec(3, 0), _basis_vec(3, 1)], axis=1)
    c = np.diag([-1.0, 1.0, 5.0]).astype(complex)
    w = witness_in_set_with_zero(p, c, CFG)
    assert w is not None
    assert abs(evaluate(w, c)) <= 1e-5
    # supported on the span of p
    assert _outside(p, w.xi) <= 1e-8


def test_witness_in_set_with_zero_absent():
    p = np.stack([_basis_vec(3, 0), _basis_vec(3, 1)], axis=1)
    c = np.diag([1.0, 2.0, -5.0]).astype(complex)
    assert witness_in_set_with_zero(p, c, CFG) is None


def test_witness_chord_weight_orientation():
    # forces a genuine two-point chord: compressed matrix is diag(-3, 1); the
    # witness is the vector state of the zero in the chord's span, (e0 + sqrt(3) e1) / 2
    p = np.eye(2, dtype=complex)
    c = np.diag([-3.0, 1.0]).astype(complex)
    w = witness_in_set_with_zero(p, c, CFG)
    assert w is not None
    assert abs(evaluate(w, c)) <= 1e-12
    np.testing.assert_allclose(np.abs(w.xi), [0.5, 3**0.5 / 2], atol=1e-12)


def test_a_two_by_two_compression_with_zero_inside_needs_no_eigensolve(monkeypatch):
    # W of a 2 x 2 compression is an ellipse; with 0 inside it, the zero comes
    # in closed form on the Bloch sphere, so neither the membership test nor
    # the chord solves an eigenproblem
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    p = u[:, :2]
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # shifted so that the compression is traceless, which puts 0 in its W
    c = c - np.trace(p.conj().T @ c @ p) / 2 * np.eye(4)
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals", "solve"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    w = witness_in_set_with_zero(p, c, CFG)
    assert w is not None and calls == []
    assert abs(evaluate(w, c)) <= 1e-12 * np.linalg.norm(c, 2)
    assert _outside(p, w.xi) <= 1e-12


@pytest.mark.parametrize("cfg", [CFG, ToleranceConfig(eps_eq=1e-3)], ids=["default", "eps_eq>eps_opt"])
@pytest.mark.parametrize("z", [0.0, 1e-7j, -0.99e-6, 1.01e-6, 5e-6, (1 + 1j) * 1e-3, 2.0])
def test_witness_on_a_line_reads_the_point_without_a_chord(monkeypatch, z, cfg):
    # on a one-dimensional span, W of the 1 x 1 compression is its entry z: the
    # witness is the vector state of the basis vector iff |z| <= eps_opt (1 + |z|),
    # whatever eps_eq is, and no chord is built
    import modnorm.numrange

    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    c = u @ np.diag([z, 1.0, -1.0]) @ u.conj().T
    p = u[:, :1]
    found = abs(z) <= cfg.eps_opt * (1.0 + abs(z))

    def refuse(*args, **kwargs):
        raise AssertionError("a chord was built for a point")

    monkeypatch.setattr(modnorm.numrange, "_chord_through_zero", refuse)
    w = witness_in_set_with_zero(p, c, cfg)
    assert (w is not None) == found
    if found:
        assert np.array_equal(w.xi, VectorState(u[:, 0]).xi)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_witness_agrees_with_range_membership(seed):
    # witness exists iff 0 in W(compressed c); cross-check against eig bounds
    rng = np.random.default_rng(seed)
    n = 3
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (c + c.conj().T) / 2
    k = (c - c.conj().T) / 2j
    p = np.eye(n, dtype=complex)
    w = witness_in_set_with_zero(p, c, CFG)
    lo_h, hi_h = np.linalg.eigvalsh(h)[[0, -1]]
    lo_k, hi_k = np.linalg.eigvalsh(k)[[0, -1]]
    if w is not None:
        assert abs(evaluate(w, c)) <= 1e-5 * (1 + np.linalg.norm(c, 2))
        # a zero-trace state forces both Re and Im projections to straddle zero
        assert lo_h <= 1e-6 and hi_h >= -1e-6
        assert lo_k <= 1e-6 and hi_k >= -1e-6
    else:
        # absence is only possible when some rotated real part is one-signed,
        # which for the full compression implies 0 outside W(c); verify via a
        # separating direction among a dense phase scan
        thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        separated = False
        for t in thetas:
            rot = np.exp(-1j * t) * c
            if np.linalg.eigvalsh((rot + rot.conj().T) / 2)[-1] < -1e-12:
                separated = True
                break
        assert separated
