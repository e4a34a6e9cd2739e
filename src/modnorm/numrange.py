"""Classical numerical range W(A): support functions, boundary, membership.

W(A) = { <xi, A xi> : ||xi|| = 1 } is compact and convex, with support
function h(theta) = lambda_max(Re(e^{-i theta} A)).  Membership is decided
exactly, without an angle scan or an optimizer.  For a Hermitian A, W(A) is
the interval [lambda_min, lambda_max], read from one ``eigvalsh``.  For a
general A, whether h dips below a level is decided in two steps.  First the
four axis support points, at theta = 0, pi/2, pi, 3 pi/2, come from one
stack of two Hermitian eigenproblems, Re A and Im A.  Some h(theta_k) below
level - delta answers yes.  Their quadrilateral is inscribed in W(A), so its
support function bounds h from below (Johnson, SIAM J. Numer. Anal. 15,
1978), and a minimum of it at least level + delta answers no.  delta =
8 eps n ||A||_F covers the rounding of the four points, so each answer is a
proof.  Only a level within delta of what they show goes on to the arc test.
There h(theta) - level changes sign only at angles where w = e^{i theta}
is an eigenvalue of the quadratic pencil det(w^2 A^H - 2 level w I + A) = 0.
A shift-and-invert substitution w = mu + 1/s makes that pencil monic, so one
``eigvals`` of its 2n x 2n companion matrix finds them (Tisseur & Meerbergen,
SIAM Rev. 43, 2001), and h at the midpoints of the arcs between them decides
the sign on each arc.  This is the arc algorithm for definite Hermitian pairs
(Higham, Tisseur & Van Dooren, Linear Algebra Appl. 351-352, 2002; Guo,
Higham & Tisseur, SIAM J. Matrix Anal. Appl. 31, 2009).  A pencil singular at
both of its fixed shifts is taken as singular everywhere, and then h >= level.
``zero_unit_vector`` finds a zero of the quadratic form, a unit xi with
<xi, A xi> = 0.  For a 2 x 2 A, whose W(A) is an ellipse (C.-K. Li, Proc.
Amer. Math. Soc. 124, 1996), it is first solved for in closed form on the
Bloch sphere, and taken when its residual meets the acceptance rule.  Any
other case goes to the exact membership test and then to a chord through 0
of a polygon inscribed in W(A), refined by cutting planes from its four axis
support points, then by a closed-form 2x2 step.  W(A) is convex, so a state
that kills A exists iff such a vector does, and every zero-trace witness
state of the package is the pure state of one (Bhatia & Semrl, Linear
Algebra Appl. 287, 1999, state Birkhoff-James orthogonality of matrices in
this form).  ``range_boundary`` samples the boundary at a given number of
angles for display.
Conventions: <a, b> = a^H b (conjugate-linear in the first slot, matching
``np.vdot``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, ToleranceConfig
from .linalg import NonSquareError, _spectral_norm, as_matrix, unit_exponent, unit_scaled


def _require_square(a: np.ndarray) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"numerical range needs a square matrix, got {m.shape}")
    return m


def _rotated_hermitian(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Stack of Re(e^{-i theta} a) over all angles."""
    rot = np.exp(-1j * thetas)[:, None, None] * a[None, :, :]
    return (rot + rot.conj().transpose(0, 2, 1)) / 2


def _support(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """``support_values`` on a validated square matrix."""
    return np.linalg.eigvalsh(_rotated_hermitian(m, thetas))[:, -1]


def support_values(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """h(theta) = lambda_max(Re(e^{-i theta} a)) for a batch of angles."""
    return _support(_require_square(a), np.atleast_1d(np.asarray(thetas, float)))


def _support_vector(m: np.ndarray, theta: float) -> tuple[float, np.ndarray]:
    """``support_function`` on a validated square matrix."""
    w, v = np.linalg.eigh(_rotated_hermitian(m, np.array([theta]))[0])
    return float(w[-1]), v[:, -1]


def support_function(a: np.ndarray, theta: float) -> tuple[float, np.ndarray]:
    """Support value h(theta) and a maximizing unit eigenvector."""
    return _support_vector(_require_square(a), theta)


@dataclass(frozen=True)
class RangeBoundary:
    """Sampled boundary of W(a): extreme_points[k] = <vectors[k], a vectors[k]> at angles[k]."""

    angles: np.ndarray
    support_values: np.ndarray
    extreme_points: np.ndarray
    vectors: np.ndarray


def range_boundary(a: np.ndarray, angles: int = 360) -> RangeBoundary:
    """Sample the boundary at ``angles`` equispaced angles, at least one."""
    if angles < 1:
        raise ValueError(f"range_boundary needs at least one angle, got {angles}")
    return _boundary(_require_square(a), angles)


def _boundary(m: np.ndarray, angles: int) -> RangeBoundary:
    """``range_boundary`` on a validated square matrix."""
    thetas = 2 * np.pi * np.arange(angles) / angles
    w, v = np.linalg.eigh(_rotated_hermitian(m, thetas))
    vecs = v[:, :, -1]
    pts = np.einsum("ki,ij,kj->k", vecs.conj(), m, vecs)
    return RangeBoundary(angles=thetas, support_values=w[:, -1], extreme_points=pts, vectors=vecs)


# (eigenproblem, eigenvalue) of the support points at theta = 0, pi/2, pi,
# 3 pi/2: the top of Re c, the top of Im c, the bottom of Re c, the bottom of Im c
_AXIS_ENDS = (np.array([0, 1, 0, 1]), np.array([-1, -1, 0, 0]))


def _axis_support(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, points, vectors) at theta = 0, pi/2, pi, 3 pi/2, for a validated square c.

    Re(e^{-i theta} c) is Re c, Im c, -Re c and -Im c there, so one stack of
    two Hermitian eigenproblems gives all four: h(theta + pi) and its vector
    read the other end of the same spectrum.  points[k] = <vectors[k], c
    vectors[k]> is the support point at the k-th angle, and the four run
    counterclockwise round the boundary of W(c).
    """
    ch = c.conj().T
    w, v = np.linalg.eigh(np.stack([c + ch, (ch - c) * 1j]) / 2)
    h = w[_AXIS_ENDS]
    h[2:] = -h[2:]
    vecs = v[_AXIS_ENDS[0], :, _AXIS_ENDS[1]]
    return h, np.einsum("ki,ij,kj->k", vecs.conj(), c, vecs), vecs


# Rounding allowance of the axis certificate, per unit of n ||c||_F: it covers
# the eigenvalues of Re c and Im c and the support points read from them.
_AXIS_ROUNDING = 8.0 * np.finfo(float).eps


def _axis_verdict(h: np.ndarray, pts: np.ndarray, level: float, delta: float) -> bool | None:
    """Whether h dips below ``level``, when the four axis support values h and
    points pts settle it with ``delta`` to spare; None when they do not.

    True when some h(theta_k) < level - delta.  The quadrilateral of the four
    points is inscribed in W(c), so its own support function bounds h from
    below, and its minimum over the angles is its inner distance from 0 when 0
    lies inside it, or minus its distance from 0 otherwise: False when that is
    at least level + delta.  0 counts as inside only when it lies more than
    delta inside every edge, which leaves out a quadrilateral collapsed to a
    segment; the distance is the distance to the nearest edge.
    """
    if h.min() < level - delta:
        return True
    d = np.concatenate([pts[1:], pts[:1]]) - pts
    length = np.abs(d)
    edge = length > 0.0
    # signed distance from 0 past each edge's line, along its outward normal
    # n = -i d / |d|: -Re(conj(n) p) = -Re(i conj(d) p) / |d| = Im(conj(d) p) / |d|
    gap = np.imag(np.conj(d[edge]) * pts[edge]) / length[edge]
    inner = -gap.max() if gap.size else -np.inf
    if inner <= delta:
        inner = -np.min(np.abs(pts + _segment_weight(pts, d) * d))
    return False if inner >= level + delta else None


# Shifts for the arc test, off the unit circle where the wanted roots lie; the
# second is tried when L(mu) is singular at the first.
_ARC_SHIFTS = (0.5 + 0.3j, -0.6 + 0.45j)


def _dips_below(
    c: np.ndarray,
    level: float,
    axis: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> bool:
    """Whether h(theta) < level at some angle, for a validated square c.

    The four axis support values and points (``axis``, from
    ``_axis_support(c)`` when not given) decide first, with
    delta = 8 eps n ||c||_F to cover their rounding (``_axis_verdict``).
    Only a level within that band of them goes on to the arc test.

    The question is homogeneous in (c, level), and since |h| <= ||c||_2 <=
    ||c||_F, a c with ||c||_F <= |level| is decided by the sign of level.
    """
    size = float(np.linalg.norm(c))
    if size <= abs(level):
        return level > 0.0
    h, pts, _ = _axis_support(c) if axis is None else axis
    verdict = _axis_verdict(h, pts, level, _AXIS_ROUNDING * c.shape[0] * size)
    return _arc_dips_below(c, level, size) if verdict is None else verdict


def _arc_dips_below(c: np.ndarray, level: float, size: float) -> bool:
    """``_dips_below`` by the arc test alone, for c with ||c||_F = size > |level|.

    h - level changes sign only where level is an eigenvalue of
    Re(e^{-i theta} c), that is where w = e^{i theta} solves det L(w) = 0 for
    L(w) = w^2 c^H - 2 level w I + c.  For a shift mu with |mu| != 1 and
    L(mu) invertible, w = mu + 1/s turns s^2 L(mu + 1/s) into the monic
    s^2 I + s K1 + K0, with K1 = L(mu)^{-1} (2 mu c^H - 2 level I) and
    K0 = L(mu)^{-1} c^H.  The eigenvalues s of its companion matrix
    [[0, I], [-K0, -K1]] come from one ``eigvals``; s = 0 stands for an
    infinite w (a singular c^H) and is dropped.  The angles of every other
    w = mu + 1/s are kept: an extra angle only splits an arc, so it cannot
    hide one where h < level.  h at the midpoint of each arc between
    consecutive angles then decides the sign on that arc; with no angle,
    h - level has one sign and any angle decides.

    If L(mu) is singular at both shifts, det L(w) is taken to vanish
    identically.  Then it vanishes on the unit circle too, where
    L(e^{i theta}) = 2 e^{i theta} (Re(e^{-i theta} c) - level I): level is
    an eigenvalue of every Re(e^{-i theta} c), so h >= level everywhere and
    the answer is False.

    Both c and level are first scaled by the power of two that puts
    ||c||_F in [1, 2).
    """
    level = float(np.ldexp(level, unit_exponent(size)))
    c = unit_scaled(c, size)
    n = c.shape[0]
    ch = c.conj().T
    two_level = 2.0 * level * np.eye(n)
    # the lower block row of the companion matrix is -L(mu)^{-1} [c^H, 2 mu c^H - 2 level I]
    comp = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    comp[:n, n:] = np.eye(n)
    for mu in _ARC_SHIFTS:
        rhs = np.concatenate([ch, 2.0 * mu * ch - two_level], axis=1)
        try:
            comp[n:] = np.linalg.solve(mu * (two_level - mu * ch) - c, rhs)
        except np.linalg.LinAlgError:
            continue
        break
    else:
        return False
    s = np.linalg.eigvals(comp)
    angles = np.sort(np.angle(mu + 1.0 / s[s != 0]))
    if angles.size == 0:
        mids = np.zeros(1)
    else:
        mids = (angles + np.append(angles[1:], angles[0] + 2 * np.pi)) / 2
    return bool(np.min(_support(c, mids)) < level)


def support_dips_below(a: np.ndarray, level: float) -> bool:
    """Whether the support function of W(a) falls below ``level`` at some angle.

    For level > 0 this says that 0 lies outside W(a) or within ``level`` of
    its boundary; for level = -tol, that 0 lies farther than tol outside
    W(a).  Decided exactly: first by the four axis support points, with
    delta = 8 eps n ||a||_F to spare, then, for a level within delta of what
    they settle, by the arc test of the module docstring.
    """
    return _dips_below(_require_square(a), float(level))


def range_contains(
    a: np.ndarray,
    z: complex,
    cfg: ToleranceConfig = DEFAULT_CONFIG,
    tol: float | None = None,
) -> bool:
    """Whether z lies in W(a) within tol, default eps_eq * (1 + ||a||).

    z is accepted when h(theta) - Re(e^{-i theta} z) >= -tol at every angle,
    that is when its distance to W(a) is at most tol.  For a equal to its
    adjoint bit for bit, that distance is measured to [lambda_min,
    lambda_max].  Otherwise a - z I goes to ``support_dips_below`` at level
    -tol: the four axis support points settle it unless -tol lies within
    delta = 8 eps n ||a - z I||_F of what they show, and the arc test settles
    the rest.
    """
    m = _require_square(a)
    if tol is None:
        tol = cfg.eps_eq * (1.0 + _spectral_norm(m))
    return _contains(m, complex(z), tol)


def _contains(m: np.ndarray, z: complex, tol: float) -> bool:
    """``range_contains`` on a validated square matrix, with its tolerance."""
    if np.array_equal(m, m.conj().T):
        w = np.linalg.eigvalsh(m)
        return abs(complex(z.real - np.clip(z.real, w[0], w[-1]), z.imag)) <= tol
    return not _dips_below(m - z * np.eye(m.shape[0]), -tol)


def _segment_weight(z1: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Weight t in [0, 1] of the point z1 + t d nearest 0 on each segment."""
    return np.clip(-np.real(z1 * np.conj(d)) / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)


def _ray_exit(pts: np.ndarray, on_ray: float) -> tuple[int, int, float, float]:
    """(k, i, s, x): the ray from the vertex pts[k] farthest from 0, through 0, leaves
    the polygon at pts[i] + s (pts[i+1] - pts[i]), x past 0 (x < 0: 0 is outside).
    Vertices within on_ray of the ray are exits, which covers a collinear boundary.
    """
    nxt = np.roll(np.arange(pts.size), -1)
    k = int(np.argmax(np.abs(pts)))
    # rotate so the ray runs along the positive real axis, with 0 fixed
    w = pts * (-np.conj(pts[k]) / abs(pts[k]))
    re, im = w.real, w.imag
    off = np.abs(im) > on_ray
    edges = np.nonzero(off & off[nxt] & (np.signbit(im) != np.signbit(im[nxt])))[0]
    s = im[edges] / (im[edges] - im[nxt[edges]])
    verts = np.nonzero(~off)[0]
    exits = np.concatenate([re[edges] + s * (re[nxt[edges]] - re[edges]), re[verts]])
    best = int(np.argmax(exits))
    i = np.concatenate([edges, verts])[best]
    return k, int(i), float(np.concatenate([s, np.zeros(verts.size)])[best]), float(exits[best])


def _zero_in_span(m: np.ndarray, xi1: np.ndarray, xi2: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit v in span{xi1, xi2} with <v, m v> = 0 when 0 lies on [a, d], and |<v, m v>|.

    On v = xi1 + t e^{i phi} xi2, <v, m v> = a + t (e^{i phi} b + e^{-i phi} c) + t^2 d
    with a = <xi1, m xi1>, d = <xi2, m xi2>, b = <xi1, m xi2>, c = <xi2, m xi1>.
    The phi that makes the cross term parallel to d - a leaves, along d - a, the
    real quadratic r_a + x t + r_d t^2 with r_a < 0 < r_d, whose root t >= 0 is
    the zero.  Of the two such phi, pi apart, the one with
    Re(e^{i phi} <xi1, xi2>) >= 0 keeps ||v||^2 >= 1 + t^2.
    """
    mx1, mx2 = m @ xi1, m @ xi2
    a, d = np.vdot(xi1, mx1), np.vdot(xi2, mx2)
    w = np.conj(d - a)
    ra, rd = float(np.real(w * a)), float(np.real(w * d))
    if not ra < 0.0 < rd:  # 0 is an end of [a, d] (or off it): keep the nearer end
        return (xi1, float(abs(a))) if abs(a) <= abs(d) else (xi2, float(abs(d)))
    b, c = np.vdot(xi1, mx2), np.vdot(xi2, mx1)
    rot = np.exp(-1j * np.angle(w * b - np.conj(w * c)))  # e^{i phi}
    if np.real(rot * np.vdot(xi1, xi2)) < 0.0:
        rot = -rot
    x = float(np.real(w * (rot * b + np.conj(rot) * c)))
    root = np.sqrt(x * x - 4.0 * ra * rd)
    # (p, r) = (1, t) up to scale, each written without cancellation
    p, r = (x + root, -2.0 * ra) if x > 0.0 else (2.0 * rd, root - x)
    v = p * xi1 + r * rot * xi2
    v = v / np.linalg.norm(v)
    return v, float(abs(np.vdot(v, m @ v)))


def _chord_through_zero(
    m: np.ndarray, scale: float, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray] | None:
    """Unit vectors xi1, xi2 whose points z_k = <xi_k, m xi_k> span a chord of
    W(m) through 0, for a square m of norm ``scale``, or None when 0 is
    outside W(m), which the exact membership test decides first.

    The polygon inscribed in W(m) starts from the support points at theta = 0,
    pi/2, pi, 3 pi/2, the extreme eigenvectors of Re m and Im m.  The
    membership test reads the same four points first, as its certificate
    (``_axis_verdict``, with delta = 8 eps n ||m||_F), and runs the arc test
    only when -tol lies within delta of what they settle.  While 0 lies
    outside it, the edge with the largest signed gap to 0 along its outward
    normal n is cut by the support point at angle arg n (Johnson, SIAM J.
    Numer. Anal. 15, 1978), until that gap, or the outward move of the new
    point, is at most eps_opt * (1 + ||m||).  On the final polygon, xi1
    attains the vertex p farthest from 0 and xi2, in the span of the exit
    edge's vertex vectors, the point where the ray from p through 0 leaves
    the polygon.
    """
    tol = cfg.eps_opt * (1.0 + scale)
    axis = _axis_support(m)
    if _dips_below(m, -tol, axis):
        return None
    _, pts, vecs = axis
    on_ray = cfg.eps_eq * (1.0 + scale)
    while True:
        k, i, s, x = _ray_exit(pts, on_ray)
        if x >= 0.0:
            break
        d = np.roll(pts, -1) - pts
        length = np.abs(d)
        normal = -1j * d / np.where(length > 0.0, length, 1.0)
        gap = np.where(length > 0.0, -np.real(np.conj(normal) * pts), -np.inf)
        i = int(np.argmax(gap))
        s = float(_segment_weight(pts[i], d[i]))
        if gap[i] <= tol:
            break
        h, xi = _support_vector(m, float(np.angle(normal[i])))
        if h + gap[i] <= tol:  # the new point moves edge i outward by h + gap
            break
        pts = np.insert(pts, i + 1, np.vdot(xi, m @ xi))
        vecs = np.insert(vecs, i + 1, xi, axis=0)

    j = (i + 1) % pts.size
    if s in (0.0, 1.0):  # the exit is a vertex, as on a collinear boundary
        return vecs[k], vecs[i] if s == 0.0 else vecs[j]
    q = pts[i] + s * (pts[j] - pts[i])
    return vecs[k], _zero_in_span(m - q * np.eye(m.shape[0]), vecs[i], vecs[j])[0]


_EPS = float(np.finfo(float).eps)


def _bloch_zero(m: np.ndarray, scale: float) -> tuple[np.ndarray, float] | None:
    """A unit xi with <xi, m xi> = 0 for a 2 x 2 m of norm ``scale``, in closed
    form, and |<xi, m xi>|; None when W(m) is a segment, a point or an
    ellipse too thin for the solve below, or 0 lies outside it.  Where that
    solve under- or overflows, xi or |<xi, m xi>| may be NaN, which the
    caller's acceptance rule refuses.

    Write m = H + i K, H = h0 I + h.sigma and K = k0 I + k.sigma in the Pauli
    basis.  The unit xi = (cos theta/2, e^{i phi} sin theta/2) with Bloch
    vector r = (sin theta cos phi, sin theta sin phi, cos theta) has
    <xi, m xi> = (h0 + h.r) + i (k0 + k.r), so W(m) is the image of the unit
    sphere under an affine map to the plane, an ellipse (C.-K. Li, Proc. Amer.
    Math. Soc. 124, 1996).  With n = h x k, the two planes h0 + h.r = 0 and
    k0 + k.r = 0 meet in the line r = p + t n, where
    p = (k0 h x n - h0 k x n) / |n|^2 is its point in span{h, k}; it meets
    the unit sphere at t = sqrt(1 - |p|^2) / |n| when |p| <= 1.  The solve
    for p has condition about |h| |k| / |n|, so the rounding it leaves grows
    as the ellipse thins; at |n| > sqrt(eps) |h| |k| one step of iterative
    refinement takes it out.  A thinner ellipse, or n = 0 (H and K commute:
    m is normal and W(m) a segment or a point), is left, like |p| > 1, to
    the exact test.  The Pauli coefficients are read divided by ||m||, which
    leaves r unchanged and keeps |n|^2 from overflow; it underflows only when
    H and K differ in size by some 1e150.  xi is built from the angles of r.
    """
    (a, b), (c, d) = m.tolist()
    unit = 0.5 / scale
    h0, hz = (a.real + d.real) * unit, (a.real - d.real) * unit
    k0, kz = (a.imag + d.imag) * unit, (a.imag - d.imag) * unit
    hx, hy = (b.real + c.real) * unit, (c.imag - b.imag) * unit
    kx, ky = (b.imag + c.imag) * unit, (b.real - c.real) * unit
    nx, ny, nz = hy * kz - hz * ky, hz * kx - hx * kz, hx * ky - hy * kx
    nn = nx * nx + ny * ny + nz * nz
    if not nn > _EPS * (hx * hx + hy * hy + hz * hz) * (kx * kx + ky * ky + kz * kz):
        return None
    # (h x n, k x n) / |n|^2: the point of span{h, k} with h.p = -eh and
    # k.p = -ek is (ek h x n - eh k x n) / |n|^2, as h.(k x n) = -k.(h x n) = |n|^2
    ax, ay, az = (hy * nz - hz * ny) / nn, (hz * nx - hx * nz) / nn, (hx * ny - hy * nx) / nn
    bx, by, bz = (ky * nz - kz * ny) / nn, (kz * nx - kx * nz) / nn, (kx * ny - ky * nx) / nn
    px = py = pz = rx = ry = rz = 0.0
    # the solve from r = 0, then one step of iterative refinement: r = p + t n
    # in rounding misses the two planes by (eh, ek), and moving p by the
    # solve for that miss takes it out
    for _ in range(2):
        eh = h0 + hx * rx + hy * ry + hz * rz
        ek = k0 + kx * rx + ky * ry + kz * rz
        px, py, pz = px + ek * ax - eh * bx, py + ek * ay - eh * by, pz + ek * az - eh * bz
        pp = px * px + py * py + pz * pz
        if not pp <= 1.0:  # or NaN, where |n|^2 underflows
            return None
        t = math.sqrt((1.0 - pp) / nn)
        rx, ry, rz = px + t * nx, py + t * ny, pz + t * nz
    half = math.atan2(math.hypot(rx, ry), rz) / 2
    xi = np.array([math.cos(half), cmath.rect(math.sin(half), math.atan2(ry, rx))])
    return xi, float(abs(np.vdot(xi, m @ xi)))


def zero_unit_vector(
    c: np.ndarray, cfg: ToleranceConfig = DEFAULT_CONFIG
) -> tuple[np.ndarray, float] | None:
    """A unit vector xi with <xi, c xi> ~ 0 and |<xi, c xi>|, or None if 0 is
    outside W(c).

    For a 1 x 1 c, whose numerical range is its entry, and for a c of norm
    at most eps_eq, xi is e_0.  A 2 x 2 c is tried in closed form first, on
    the Bloch sphere (``_bloch_zero``): its xi is taken when it meets the
    acceptance rule below.  Every other case, a segment or point W(c), 0
    outside W(c), or a residual the rule refuses, goes on to the exact
    membership test, so every None comes from that test or from the rule.
    Past it, the chord of W(c) through 0 lies in the numerical range of the
    2 x 2 compression to the span of its two vectors, where the quadratic
    form has an exact zero, solved for in closed form.  xi is accepted iff
    |<xi, c xi>| <= eps_opt * (1 + ||c||).
    """
    m = _require_square(c)
    scale = abs(m[0, 0]) if m.shape[0] == 1 else _spectral_norm(m)
    tol = cfg.eps_opt * (1.0 + scale)
    if m.shape[0] == 1 or scale <= cfg.eps_eq:
        xi, res = np.zeros(m.shape[0], dtype=np.complex128), float(abs(m[0, 0]))
        xi[0] = 1.0
    else:
        zero = _bloch_zero(m, scale) if m.shape[0] == 2 else None
        if zero is None or not zero[1] <= tol:
            chord = _chord_through_zero(m, scale, cfg)
            if chord is None:
                return None
            zero = _zero_in_span(m, *chord)
        xi, res = zero
    return (xi, res) if res <= tol else None
