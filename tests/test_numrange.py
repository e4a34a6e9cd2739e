"""Tests for numerical-range support functions, membership, and zero witnesses."""

import inspect
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modnorm
from modnorm import (
    DEFAULT_CONFIG,
    pythagoras_orthogonal,
    range_boundary,
    range_contains,
    support_dips_below,
    support_function,
    support_values,
    zero_unit_vector,
)
from modnorm.closedforms import rand_complex, rand_unitary
from modnorm.linalg import NonSquareError, unit_exponent, unit_scaled

CFG = DEFAULT_CONFIG
# the number of angles at which range_boundary samples by default
ANGLES = inspect.signature(range_boundary).parameters["angles"].default


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
    a = rand_complex(rng, 4, 4)
    for theta in (0.0, 1.3, 4.0):
        h, xi = support_function(a, theta)
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
        z = np.vdot(xi, a @ xi)
        assert np.real(np.exp(-1j * theta) * z) == pytest.approx(h, abs=1e-10)


def test_range_boundary_shapes_and_convexity():
    rng = np.random.default_rng(1)
    a = rand_complex(rng, 3, 3)
    bound = range_boundary(a)
    assert len(bound.angles) == ANGLES
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
        a = rand_complex(rng, 4, 4)
        mean = complex(np.trace(a)) / 4
        assert range_contains(a, mean, CFG, tol=1e-8 * (1 + abs(mean)))


def test_range_contains_monte_carlo_agreement():
    # random quadratic-form samples must all be accepted
    rng = np.random.default_rng(3)
    a = rand_complex(rng, 3, 3)
    for _ in range(50):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        z = complex(np.vdot(v, a @ v))
        assert range_contains(a, z, CFG, tol=1e-8 * (1 + abs(z)))


def test_range_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        support_values(np.zeros((2, 3)), np.array([0.0]))


def test_range_contains_refines_between_samples():
    # W of the nilpotent shift is the disc of radius 1/2.  A point just past the
    # rim, midway between two boundary sample angles, passes every sampled
    # direction; the exact test still finds the violated one between them.
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    tol = 1e-6
    theta = np.pi / ANGLES
    thetas = 2 * np.pi * np.arange(ANGLES) / ANGLES
    outside = (0.5 + 2 * tol) * np.exp(1j * theta)
    sampled = support_values(a, thetas) - np.real(np.exp(-1j * thetas) * outside)
    assert sampled.min() > 10 * tol
    assert not range_contains(a, outside, CFG, tol=tol)
    assert range_contains(a, (0.5 + 0.5 * tol) * np.exp(1j * theta), CFG, tol=tol)


def _spy_chords(monkeypatch):
    """Record the (xi1, xi2) of every chord that ``zero_unit_vector`` builds."""
    chords = []
    build = modnorm.numrange._chord_through_zero

    def spy(*args):
        chord = build(*args)
        chords.append(chord)
        return chord

    monkeypatch.setattr(modnorm.numrange, "_chord_through_zero", spy)
    return chords


def _gap_to_zero(c, xi1, xi2):
    """Distance from 0 to the chord [<xi1, c xi1>, <xi2, c xi2>] of W(c)."""
    z1, z2 = np.vdot(xi1, c @ xi1), np.vdot(xi2, c @ xi2)
    t = np.clip(-np.real(z1 * np.conj(z2 - z1)) / max(abs(z2 - z1) ** 2, 1e-300), 0.0, 1.0)
    return abs(z1 + t * (z2 - z1))


def test_chord_through_zero_absent(monkeypatch):
    # W(I + nilpotent/4) stays away from zero: the membership test refuses
    # before a chord is built
    chords = _spy_chords(monkeypatch)
    a = np.eye(2, dtype=complex) + 0.25 * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert zero_unit_vector(a, CFG) is None
    assert chords == [None]


def test_chord_through_zero_present(monkeypatch):
    chords = _spy_chords(monkeypatch)
    a = np.diag([-1.0, 2.0]).astype(complex)
    out = zero_unit_vector(a, CFG)
    assert out is not None
    # the chord between the two vectors' points passes through 0, and the
    # zero vector lies in their span
    (xi1, xi2), = chords
    assert _gap_to_zero(a, xi1, xi2) <= 1e-6 * (1 + 2.0)
    span = np.stack([xi1, xi2], axis=1)
    xi, resid = out
    assert np.linalg.norm(xi - span @ np.linalg.lstsq(span, xi, rcond=None)[0]) <= 1e-12
    assert resid == abs(np.vdot(xi, a @ xi)) <= 1e-12


def test_chord_and_zero_vector_on_polygonal_ranges(monkeypatch):
    # W of a normal matrix is the polygon spanned by its eigenvalues, so the
    # boundary sampling sees the same vertex at many angles
    chords = _spy_chords(monkeypatch)
    rng = np.random.default_rng(7)
    checked = 0
    for n in range(3, 7):
        for _ in range(8):
            u = rand_unitary(rng, n)
            eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for c in (u @ np.diag(eigs) @ u.conj().T, rand_unitary(rng, n)):
                tol = CFG.eps_opt * (1.0 + np.linalg.norm(c, 2))
                if not range_contains(c, 0.0, CFG, tol=tol):
                    continue
                checked += 1
                chords.clear()
                out = zero_unit_vector(c, CFG)
                assert out is not None and len(chords) == 1
                assert _gap_to_zero(c, *chords[0]) <= tol
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
        a = rand_complex(rng, n, n)
        assert zero_unit_vector(a - np.trace(a) / n * np.eye(n), CFG) is not None
    assert calls == []


def test_chord_through_zero_starts_from_four_support_points(monkeypatch):
    # the membership test reads the four axis support points from one stack
    # of two Hermitian eigenproblems (Re c and Im c); they settle it here
    # without the arc test, and the polygon starts from the same four points,
    # so every later cut solves a single Hermitian eigenproblem
    stacks, arcs = [], []
    real_eigh, real_eigvals = np.linalg.eigh, np.linalg.eigvals

    def counting(m, *args, **kwargs):
        if np.ndim(m) == 3:
            stacks.append(len(m))
        return real_eigh(m, *args, **kwargs)

    def arc(m, *args, **kwargs):
        arcs.append(1)
        return real_eigvals(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(np.linalg, "eigvals", arc)
    a = rand_complex(np.random.default_rng(9), 4, 4)
    assert zero_unit_vector(a - np.trace(a) / 4 * np.eye(4), CFG) is not None
    assert stacks == [2] and arcs == []
    stacks.clear()
    far = a + (np.linalg.norm(a, 2) + 1.0) * np.eye(4)
    assert zero_unit_vector(far, CFG) is None
    assert stacks == [2] and arcs == []


def test_range_boundary_needs_an_angle():
    a = np.diag([0.0, 1.0]).astype(complex)
    assert len(range_boundary(a, 1).angles) == 1
    for angles in (0, -3):
        with pytest.raises(ValueError):
            range_boundary(a, angles)


def test_zero_unit_vector_traceless():
    # traceless Hermitian: zero is interior, a single vector must exist
    a = np.diag([-1.0, 1.0]).astype(complex)
    out = zero_unit_vector(a, CFG)
    assert out is not None
    xi, resid = out
    assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(xi, a @ xi)) <= 1e-6 * 2


@pytest.mark.parametrize("scale", [1.0, 1e60, 1e80, 1e100])
def test_zero_unit_vector_of_a_traceless_matrix_at_large_scale(scale):
    # 0 = tr c / 3 lies in W(c) at every scale; the zero in the chord's span
    # takes d - a at unit modulus, so no term of order ||c||^2 is squared
    c = rand_complex(np.random.default_rng(1), 3, 3)
    c = scale * (c - np.trace(c) / 3 * np.eye(3))
    out = zero_unit_vector(c, CFG)
    assert out is not None
    xi, resid = out
    assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
    assert resid <= 1e-12 * np.linalg.norm(c, 2)


def test_zero_unit_vector_near_zero_matrix():
    a = 1e-13 * np.ones((1, 1), dtype=complex)
    out = zero_unit_vector(a, CFG)
    assert out is not None


@pytest.mark.parametrize(
    "c, found",
    [
        (np.array([[0.5e-6 + 0.5e-6j]]), True),
        (np.array([[-2e-6]]), False),
        (np.array([[3.0]]), False),
        (1e-10 * np.array([[0.3, 2.0], [0.0, -0.1]]), True),
        (1e-10 * np.eye(3), True),
    ],
)
def test_zero_unit_vector_reads_points_and_tiny_matrices_as_e0(monkeypatch, c, found):
    # a 1 x 1 c is read directly, with no SVD, and a c of norm at most eps_eq
    # gives e_0; neither builds a chord, and both accept by the one rule
    # |<e_0, c e_0>| <= eps_opt (1 + ||c||)
    def refuse(*args, **kwargs):
        raise AssertionError("a chord was built")

    monkeypatch.setattr(modnorm.numrange, "_chord_through_zero", refuse)
    c = np.asarray(c, dtype=complex)
    if c.shape == (1, 1):
        monkeypatch.setattr(np.linalg, "svd", refuse)
    out = zero_unit_vector(c, CFG)
    assert (out is not None) == found
    if found:
        xi, resid = out
        assert np.array_equal(xi, np.eye(c.shape[0])[0])
        assert resid == abs(c[0, 0])


def test_zero_unit_vector_shifted_disc():
    # disc of radius 1/2 centered at 0.3 contains zero in its interior
    a = 0.3 * np.eye(2, dtype=complex) + np.array([[0.0, 1.0], [0.0, 0.0]])
    out = zero_unit_vector(a, CFG)
    assert out is not None
    xi, _ = out
    assert abs(np.vdot(xi, a @ xi)) <= 1e-6 * (1 + 1.3)


# Normal and traceless, so W is a thin triangle with 0 at its centroid.  Its
# four axis support points are only two of its vertices, so the starting
# polygon is a segment with 0 off it, and the cut must go to the side that
# faces 0.
_THIN = np.array([1.03482584 + 0.85205943j, 0.24028732 + 0.19833095j, -1.27511316 - 1.05039038j])
THIN_TRIANGLE = np.diag(_THIN - _THIN.mean())


def _agreement_cases(rng):
    """Traceless random and normal matrices, n = 2-8, each also shifted so that
    0 lies 1e-8 to 1e-2 * (1 + ||c||) inside the support line at a random
    angle, next to its support point."""
    for n in range(2, 9):
        for _ in range(12):
            u = rand_unitary(rng, n)
            normal = u @ np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)) @ u.conj().T
            for c in (rand_complex(rng, n, n), normal):
                c = c - np.trace(c) / n * np.eye(n)
                phi = rng.uniform(0, 2 * np.pi)
                _, xi = support_function(c, phi)
                d = 10 ** rng.uniform(-8, -2) * (1.0 + np.linalg.norm(c, 2))
                yield c
                yield c - (np.vdot(xi, c @ xi) - d * np.exp(1j * phi)) * np.eye(n)


def test_zero_unit_vector_agrees_with_membership():
    # whenever 0 lies in W(c) exactly, the zero of the quadratic form is found
    inside = 0
    for c in (THIN_TRIANGLE, *_agreement_cases(np.random.default_rng(11))):
        if not range_contains(c, 0.0, CFG, tol=0.0):
            continue
        inside += 1
        out = zero_unit_vector(c, CFG)
        assert out is not None
        assert abs(np.vdot(out[0], c @ out[0])) <= CFG.eps_opt * (1.0 + np.linalg.norm(c, 2))
    assert inside >= 280


def _two_by_two(rng, kind):
    """A 2 x 2 matrix of the named kind: random; traceless; normal and
    traceless, Hermitian, or scalar, whose W is a segment or a point;
    near-normal and traceless, a thin ellipse round 0; of norm below eps_eq;
    a traceless Hermitian plus i 1e-160 to 1e-150 times another, an ellipse so
    thin that the Bloch solve under- and overflows; or traceless and shifted
    so that 0 lies 1e-8 to 1e-2 * (1 + ||c||) inside the support line at a
    random angle."""
    c = rand_complex(rng, 2, 2)
    u = rand_unitary(rng, 2)
    if kind == "traceless":
        return c - np.trace(c) / 2 * np.eye(2)
    if kind == "normal":
        z = complex(rng.standard_normal(), rng.standard_normal())
        return u @ np.diag([z, -z]) @ u.conj().T
    if kind == "hermitian":
        return (c + c.conj().T) / 2
    if kind == "scalar":
        return complex(rng.standard_normal(), rng.standard_normal()) * np.eye(2)
    if kind == "thin":
        thin = u @ np.diag([1.0, -1.0] + 1j * rng.standard_normal(2)) @ u.conj().T
        thin = thin + 10 ** rng.uniform(-12, -3) * c
        return thin - np.trace(thin) / 2 * np.eye(2)
    if kind == "tiny":
        return 1e-10 * c
    if kind == "lopsided":
        h = (c + c.conj().T) / 2
        k = u @ np.diag([1.0, -1.0]) @ u.conj().T
        return h - np.trace(h) / 2 * np.eye(2) + 10 ** -rng.uniform(150, 160) * 1j * k
    if kind == "shifted":
        c = c - np.trace(c) / 2 * np.eye(2)
        phi = rng.uniform(0, 2 * np.pi)
        _, xi = support_function(c, phi)
        d = 10 ** rng.uniform(-8, -2) * (1.0 + np.linalg.norm(c, 2))
        return c - (np.vdot(xi, c @ xi) - d * np.exp(1j * phi)) * np.eye(2)
    return c


TWO_BY_TWO = (
    "random", "traceless", "normal", "hermitian", "scalar", "thin", "tiny", "lopsided", "shifted"
)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(TWO_BY_TWO))
def test_the_closed_form_on_two_by_two_agrees_with_the_chord(seed, kind):
    # the closed form on the Bloch sphere finds a zero exactly when the chord
    # path, run with the closed form taken out, does, and each zero meets the
    # acceptance rule
    c = _two_by_two(np.random.default_rng(seed), kind)
    tol = CFG.eps_opt * (1.0 + np.linalg.norm(c, 2))
    found = zero_unit_vector(c, CFG)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modnorm.numrange, "_bloch_zero", lambda m, scale: None)
        chord = zero_unit_vector(c, CFG)
    assert (found is None) == (chord is None)
    for out in (found, chord):
        if out is not None:
            xi, resid = out
            assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
            assert resid == abs(np.vdot(xi, c @ xi)) <= tol


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


def test_zero_unit_vector_is_an_exact_zero():
    # the 2x2 step solves for the zero instead of settling for the tolerance
    rng = np.random.default_rng(3)
    cases = [THIN_TRIANGLE]
    for n in range(2, 8):
        for _ in range(50):
            a = rand_complex(rng, n, n)
            cases.append(a - (np.trace(a) / n) * np.eye(n))
    for k, a in enumerate(cases):
        out = zero_unit_vector(a, CFG)
        assert out is not None, k
        xi, _ = out
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(xi, a @ xi)) <= 1e-12 * (1.0 + np.linalg.norm(a, 2)), k


def test_zero_unit_vector_on_a_small_matrix():
    # eps_opt * (1 + ||c||) is about half of ||c|| here, so a chord end point
    # would meet the tolerance without being a zero
    c = 1e-6 * np.array([[0.3, 2.0], [0.0, -0.1]], dtype=complex)
    out = zero_unit_vector(c, CFG)
    assert out is not None
    xi, resid = out
    assert abs(np.vdot(xi, c @ xi)) <= 1e-12 * np.linalg.norm(c, 2)
    assert resid == pytest.approx(abs(np.vdot(xi, c @ xi)), abs=1e-30)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_support_function_upper_bounds_samples(seed):
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, 3, 3)
    theta = float(rng.uniform(0, 2 * np.pi))
    h, _ = support_function(a, theta)
    for _ in range(10):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        z = np.vdot(v, a @ v)
        assert np.real(np.exp(-1j * theta) * z) <= h + 1e-9


# ---------------------------------------------------------------------------
# exact membership
# ---------------------------------------------------------------------------

# Normal, so W is the triangle of its eigenvalues: a sliver that passes
# 5.78e-9 from 0, four times the default tolerance 1.46e-9.  Its smallest
# support value lies between two of the default range_boundary angles.
SLIVER = np.diag(
    [5.12606e-6 + 2.86474e-6j, -0.333252573 - 0.18557467j, -0.399699957 - 0.222859238j]
)


def _exact_min_support(eigs):
    """min over theta of h(theta) for the polygon spanned by eigs.

    h is the upper envelope of |mu| cos(theta - arg mu), so its minimum lies
    at a kink, where two pieces cross, or at the minimum of one piece.
    """
    diffs = (eigs[:, None] - eigs[None, :]).ravel()
    thetas = np.concatenate(
        [np.angle(eigs) + np.pi, np.angle(diffs) + np.pi / 2, np.angle(diffs) - np.pi / 2]
    )
    return float(np.min(np.max(np.real(np.exp(-1j * thetas)[:, None] * eigs[None, :]), axis=1)))


def _hull_edge(rng, eigs):
    """Two eigenvalues spanning an edge of their convex hull, and its outer normal."""
    while True:
        i, j = rng.choice(eigs.size, size=2, replace=False)
        normal = 1j * (eigs[j] - eigs[i]) / abs(eigs[j] - eigs[i])
        side = np.real(np.conj(normal) * (eigs - eigs[i]))
        if np.all(side <= 1e-12):
            return eigs[i], eigs[j], normal
        if np.all(side >= -1e-12):
            return eigs[i], eigs[j], -normal


def test_range_contains_rejects_the_sliver():
    assert _exact_min_support(np.diag(SLIVER)) == pytest.approx(-5.78e-9, rel=1e-2)
    assert not range_contains(SLIVER, 0.0, CFG)


def test_range_contains_matches_the_polygon_of_a_normal_matrix():
    # 0 placed 1e-9 to 1e-3 from a vertex or an edge, inside or outside
    rng = np.random.default_rng(5)
    decided = 0
    for k in range(400):
        n = int(rng.integers(2, 9))
        eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = 10 ** rng.uniform(-9, -3) * rng.choice([-1.0, 1.0])
        if k % 2:
            phi = rng.uniform(0, 2 * np.pi)
            z = eigs[np.argmax(np.real(np.exp(-1j * phi) * eigs))] + d * np.exp(1j * phi)
        else:
            p, q, normal = _hull_edge(rng, eigs)
            z = p + rng.uniform(0.1, 0.9) * (q - p) + d * normal
        u = rand_unitary(rng, n)
        c = u @ np.diag(eigs - z) @ u.conj().T
        margin = _exact_min_support(eigs - z)
        tol = CFG.eps_eq * (1.0 + np.linalg.norm(c, 2))
        if abs(margin) > 2 * tol:
            decided += 1
            assert range_contains(c, 0.0, CFG) == (margin > 0), (k, margin, tol)
    assert decided >= 300


def test_range_contains_matches_a_dense_scan_of_a_general_matrix():
    # the support sampled at 4000 angles is within 2e-3 * ||c|| of its
    # minimum (h is ||c||-Lipschitz), so it is the reference where the margin
    # is larger than that
    rng = np.random.default_rng(12)
    thetas = 2 * np.pi * np.arange(4000) / 4000
    decided = 0
    for k in range(60):
        n = 2 + k % 7
        a = rand_complex(rng, n, n)
        phi = rng.uniform(0, 2 * np.pi)
        h = support_values(a, np.array([phi]))[0]
        z = (h + 10 ** rng.uniform(-2, 0) * rng.choice([-1.0, 1.0])) * np.exp(1j * phi)
        margin = np.min(support_values(a, thetas) - np.real(np.exp(-1j * thetas) * z))
        if abs(margin) > 2e-3 * (1.0 + np.linalg.norm(a - z * np.eye(n), 2)):
            decided += 1
            assert range_contains(a, z, CFG) == (margin > 0), (k, margin)
    assert decided >= 30


def test_range_contains_on_hermitian_input():
    # W(h) is [lambda_min, lambda_max]: z is accepted within tol of it
    rng = np.random.default_rng(6)
    for n in (1, 2, 5, 8):
        b = rand_complex(rng, n, n)
        h = (b + b.conj().T) / 2
        lo, hi = np.linalg.eigvalsh(h)[[0, -1]]
        tol = CFG.eps_eq * (1.0 + np.linalg.norm(h, 2))
        mid = (lo + hi) / 2
        inside = (hi + 0.5 * tol, lo - 0.5 * tol, mid + 0.5j * tol, hi + 0.3 * tol - 0.3j * tol)
        outside = (hi + 3 * tol, lo - 3 * tol, mid + 3j * tol, lo - 2 * tol + 2j * tol)
        assert all(range_contains(h, z, CFG) for z in inside), n
        assert not any(range_contains(h, z, CFG) for z in outside), n


def test_support_dips_below_between_samples():
    # the sliver's support dips below 0 only between two sample angles
    thetas = 2 * np.pi * np.arange(ANGLES) / ANGLES
    assert support_values(SLIVER, thetas).min() > 0.0
    assert support_dips_below(SLIVER, 0.0)
    assert not support_dips_below(SLIVER, -1e-8)
    # the disc of radius 1/2 has h = 1/2 at every angle
    disc = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert support_dips_below(disc, 0.5 + 1e-9)
    assert not support_dips_below(disc, 0.5 - 1e-9)
    assert support_dips_below(np.zeros((3, 3)), 1e-12)
    assert not support_dips_below(np.zeros((3, 3)), 0.0)


def _qz_dips_below(c, level):
    """The arc test with the pencil's roots from one QZ (LAPACK zggev) on
    [[0, I], [-c, 2 level I]] - w [[I, 0], [0, c^H]]: an independent oracle."""
    from scipy.linalg.lapack import zggev

    size = float(np.linalg.norm(c))
    if size <= abs(level):
        return level > 0.0
    level = float(np.ldexp(level, unit_exponent(size)))
    c = unit_scaled(c, size)
    n = c.shape[0]
    lin = np.zeros((2 * n, 2 * n), dtype=complex)
    lead = np.zeros_like(lin)
    idx = np.arange(n)
    lin[idx, n + idx] = 1.0
    lin[n:, :n] = -c
    lin[n + idx, n + idx] = 2.0 * level
    lead[idx, idx] = 1.0
    lead[n:, n:] = c.conj().T
    alpha, beta, _, _, _, info = zggev(lin, lead, compute_vl=0, compute_vr=0)
    assert info == 0
    keep = (alpha != 0) & (beta != 0)
    angles = np.sort(np.angle(alpha[keep] * np.conj(beta[keep])))
    if angles.size == 0:
        mids = np.zeros(1)
    else:
        mids = (angles + np.append(angles[1:], angles[0] + 2 * np.pi)) / 2
    return bool(np.min(support_values(c, mids)) < level)


_DIP_FAMILIES = {
    "random": lambda rng, n: rand_complex(rng, n, n),
    "zero column": lambda rng, n: rand_complex(rng, n, n) * (np.arange(n) != rng.integers(n)),
    "strictly upper": lambda rng, n: np.triu(rand_complex(rng, n, n), 1),
    "hermitian + noise": lambda rng, n: (lambda g: g + g.conj().T)(rand_complex(rng, n, n))
    + 1e-4 * rand_complex(rng, n, n),
    # rank n - 1, and Hermitian only up to the rounding of the product
    "gram": lambda rng, n: (lambda x: x.conj().T @ x)(rand_complex(rng, n, n)[:-1]),
}


def _axis_spy(monkeypatch):
    """Record each verdict of the axis certificate as (level, verdict), and
    return them with a switch: while ``alone[0]`` is true the certificate
    abstains, so ``support_dips_below`` runs the arc test alone."""
    verdicts, alone = [], [False]
    real = modnorm.numrange._axis_verdict

    def spy(h, pts, level, delta):
        if alone[0]:
            return None
        out = real(h, pts, level, delta)
        verdicts.append((level, out))
        return out

    monkeypatch.setattr(modnorm.numrange, "_axis_verdict", spy)
    return verdicts, alone


def _both_routes(c, level, spy):
    """support_dips_below(c, level) with the axis certificate, then by the arc
    test alone; the second is run only when the certificate settled the
    first, since otherwise the first already ran the arc test alone."""
    verdicts, alone = spy
    seen = len(verdicts)
    with_certificate = support_dips_below(c, level)
    if len(verdicts) == seen or verdicts[-1][1] is None:
        return with_certificate, with_certificate
    alone[0] = True
    try:
        return with_certificate, support_dips_below(c, level)
    finally:
        alone[0] = False


def test_support_dips_below_agrees_with_qz_and_a_dense_scan(monkeypatch):
    # 25 matrices, each scanned at 20001 angles, and 44 similarities of each by
    # a permutation times a diagonal unitary: these keep every zero entry and
    # leave h unchanged, so the scan of the matrix serves all its similarities;
    # with five levels about the scanned minimum that makes 5500 cases.  Each
    # is decided twice, with the axis certificate and by the arc test alone,
    # and both must agree with the oracle
    spy = _axis_spy(monkeypatch)
    rng = np.random.default_rng(16)
    thetas = 2 * np.pi * np.arange(20001) / 20001
    cases, missed, differ, flat_cases = 0, [], [], 0
    for name, make in _DIP_FAMILIES.items():
        for n in (2, 3, 5, 7, 8):
            base = make(rng, n)
            h = support_values(base, thetas)
            low = h.min()
            # h takes its minimum on a whole arc (0 at a corner of W, or a disc
            # about 0): at that level every angle is a tangency, and the sign
            # of h - level is a matter of rounding for either route
            flat = np.count_nonzero(h <= low + 1e-12 * np.linalg.norm(base)) > 1
            for _ in range(44):
                perm = rng.permutation(n)
                phase = np.exp(2j * np.pi * rng.random(n))
                c = phase[:, None] * base[np.ix_(perm, perm)] * phase.conj()[None, :]
                for offset in (-1e-3, -1e-7, 0.0, 1e-7, 1e-3):
                    routes = _both_routes(c, low + offset, spy)
                    cases += 1
                    if flat and offset == 0.0:
                        flat_cases += 1
                    elif routes != (_qz_dips_below(c, low + offset),) * 2:
                        differ.append((name, n, offset, routes))
                    # the scan saw h below these levels, and h stays 1e-3 above this one
                    if routes != (offset > 0.0,) * 2 and offset in (-1e-3, 1e-7, 1e-3):
                        missed.append((name, n, offset, routes))
    # the gram family and the 2 x 2 strictly upper matrix (a disc about 0)
    assert (cases, flat_cases) == (5500, 264)
    # the sliver, whose support dips to -5.78e-9, and 20 of its similarities
    for _ in range(20):
        perm = rng.permutation(3)
        phase = np.exp(2j * np.pi * rng.random(3))
        c = phase[:, None] * SLIVER[np.ix_(perm, perm)] * phase.conj()[None, :]
        for level in (-1e-8, -6e-9, -5.5e-9, 0.0, 1e-8, 1e-3):
            routes = _both_routes(c, level, spy)
            if routes != (_qz_dips_below(c, level),) * 2:
                differ.append(("sliver", 3, level, routes))
    assert missed == []
    assert differ == []
    # the certificate settles cases each way and leaves some to the arc test
    assert {verdict for _, verdict in spy[0]} == {True, False, None}


# (eigenvalues, the minimum of h over the angles) of two normal matrices.  The
# square's h is smallest, 1, at the four axis angles; the rhombus has its
# vertices on the axes, so its four axis support points span W itself, and its
# h is smallest, 12/5, at the edge normals.
_AXIS_SHAPES = (
    (np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]), 1.0),
    (np.array([3.0, 4j, -3.0, -4j]), 12 / 5),
)


def test_axis_certificate_decides_only_what_it_proves(monkeypatch):
    # a level a few units in the last place from the minimum of h is closer to
    # it than the rotated matrix's four axis support points can be read, so
    # the certificate must leave it to the arc test; at 1e-3 from the minimum
    # it settles what the four points show: the square's h(0) below, the
    # rhombus's inner distance above, and neither the other way
    verdicts, _ = _axis_spy(monkeypatch)
    rng = np.random.default_rng(18)
    for (eigs, low), settled in zip(_AXIS_SHAPES, ((None, True), (False, None))):
        # the largest double with h >= it everywhere, and the least one below
        # some h; 1 is a double, and 12/5 lies between two
        floor = low if low == 1.0 else np.nextafter(low, 0.0)
        above = np.nextafter(low, np.inf)
        for _ in range(40):
            u = rand_unitary(rng, 4)
            c = u @ np.diag(eigs) @ u.conj().T
            for level in (np.nextafter(floor, 0.0), floor, above, np.nextafter(above, np.inf)):
                verdicts.clear()
                support_dips_below(c, level)
                assert verdicts == [(level, None)], (eigs, level)
            for level, verdict in zip((low - 1e-3, low + 1e-3), settled):
                verdicts.clear()
                assert support_dips_below(c, level) == (level > low)
                assert verdicts == [(level, verdict)], (eigs, level)


@pytest.mark.parametrize(
    "c, below",
    [
        # W is the triangle 0, 1+i, 2-i: h = 0 on the arc of the vertex 0
        (np.diag([0.0, 1.0 + 1.0j, 2.0 - 1.0j]), True),
        # Re(e^{-i theta} c) has eigenvalues 0 and +-1 at every angle: h = 1
        (np.array([[0, 0, 1], [0, 0, 1j], [1, 1j, 0]], dtype=complex), False),
    ],
)
def test_support_dips_below_on_singular_pencils(monkeypatch, c, below):
    # at level 0, det(w^2 c^H + c) vanishes for every w: every shift is
    # singular, and h >= 0 everywhere because 0 is an eigenvalue at every
    # angle; each level is decided with the axis certificate and by the arc
    # test alone
    spy = _axis_spy(monkeypatch)
    assert _both_routes(c, 0.0, spy) == (False, False)
    assert not _qz_dips_below(c, 0.0)
    rng = np.random.default_rng(17)
    for u in [np.eye(3)] + [rand_unitary(rng, 3) for _ in range(8)]:
        r = u @ c @ u.conj().T
        assert _both_routes(r, 1e-12, spy) == (_qz_dips_below(r, 1e-12),) * 2 == (below,) * 2
        assert _both_routes(r, -1e-12, spy) == (_qz_dips_below(r, -1e-12),) * 2 == (False,) * 2
        # a rotation leaves det L(w) = 0 only up to rounding, so no shift is
        # exactly singular; at level 0 the arc where h = 0 is read at rounding
        # level, which decides the triangle's answer, but no error is raised
        assert set(_both_routes(r, 0.0, spy)) <= {below, False}


def _forbid_scans_and_optimizers(monkeypatch):
    """Make every scipy.optimize function raise, and return the sizes of the
    stacked Hermitian eigenproblems solved from now on."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an optimizer was called")

    for name in ("minimize", "minimize_scalar", "root_scalar", "brentq", "brute"):
        monkeypatch.setattr(scipy.optimize, name, forbidden)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("modnorm"):
            for attr, val in list(vars(mod).items()):
                if getattr(val, "__module__", "").startswith("scipy.optimize"):
                    monkeypatch.setattr(mod, attr, forbidden)
    stacks = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(m, *args, _real=real, **kwargs):
            if np.ndim(m) == 3:
                stacks.append(len(m))
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return stacks


def test_numrange_binds_no_optimizer():
    bound = [
        attr
        for attr, val in vars(modnorm.numrange).items()
        if getattr(val, "__module__", "").startswith("scipy.optimize")
    ]
    assert bound == []


def test_range_contains_scans_no_angles(monkeypatch):
    stacks = _forbid_scans_and_optimizers(monkeypatch)
    rng = np.random.default_rng(10)
    for n in (2, 4, 8):
        a = rand_complex(rng, n, n)
        range_contains(a, np.trace(a) / n, CFG)
        range_contains(a, 10.0 * np.linalg.norm(a, 2), CFG)
        range_contains(a + a.conj().T, 0.5, CFG)
        assert max(stacks, default=0) <= 2 * n
    assert range_contains(SLIVER, 1e-3 * np.trace(SLIVER), CFG) is True
    assert ANGLES not in stacks


def test_pythagoras_orthogonal_scans_no_angles(monkeypatch):
    # the positivity gate is exact; only the norming-vector step, run when
    # both gates hold, samples the boundary of a compressed numerical range;
    # the lattice profile is at most one eigvalsh stack of the Gram pencil
    stacks = _forbid_scans_and_optimizers(monkeypatch)
    rng = np.random.default_rng(11)
    lattice = len(CFG.lambda_lattice)
    gates = set()
    for n in (2, 4, 8):
        x, y = rand_complex(rng, n, n), rand_complex(rng, n, n)
        for pair in ((x, y), (x, 1j * x), (x, x), (np.eye(n), np.diag(np.arange(n) - 1.5))):
            stacks.clear()
            report = pythagoras_orthogonal(*pair, CFG)
            gates.add(report.verdict("positivity_gate"))
            assert stacks.count(lattice) <= 1 and ANGLES not in stacks
            if "witness_form" not in report.statements:
                assert max((s for s in stacks if s != lattice), default=0) <= 2 * n
    assert gates == {False, True}
