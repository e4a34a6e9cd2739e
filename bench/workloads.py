"""Seeded pair workloads, the pair operation, and ground-truth checks.

Every generator here builds its matrices from numpy and public ``modnorm``
names only, so the program under test receives nothing but the generated
matrices.  A workload's pool is REPLICATES passes of a full factorial design
over

    dimension n in {2, 4, 8}  x  scale 2^k, k in [-2, 8]  x  family slot,

laid out so that cell j takes n = DIMS[j % 3], k = SCALES[j % 11] and the
family slot j % F.  F is coprime to 3 and 11, so one pass of the design
visits every (n, k, family) cell exactly once and any prefix of the pool is
close to balanced on each of the three.  The layout is the same for every
seed, so a time-bounded run covers the same cells whatever the seed; the
seed draws every matrix entry.

Below k = -2 the deciders' absolute tolerances make them wrong on some
inputs (a known defect; ``classify`` names it), so the timed pools stop
there.  ``make_probe_pool`` draws the pairs that show the defect, generic and
Pythagoras-identity-false pairs at k in [-8, -3] for the BJ, norm-additivity,
triangle and Pythagoras-identity deciders; the traced run checks them
untimed and reports the share the program gets right.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import modnorm

DIMS = (2, 4, 8)
SCALES = tuple(range(-2, 9))
# Agreement-flag flips were seen on generic pairs from k = -4 down (rarely at
# -4, in every seed at -8) and on lattice corner-block pairs at -6 and -8.
PROBE_SCALES = tuple(range(-8, -2))
# Pool size in design passes.  A run measures about two passes of duality
# and four of lattice; distinct pairs, not repeats, average out how much a
# seed's random matrices cost (duality's per-pair cost has a long tail).
REPLICATES = 4
WITNESS_TOL = 1e-5

# Family slots per workload; each slot list has a length coprime to 3 and 11.
FAMILY_SLOTS = {
    "lattice": (
        "gate_true", "corner_generic", "gate_false", "corner_coisometric",
        "generic", "corner_projection", "generic",
    ),
    "duality": (
        "generic", "orthogonal", "generic", "zero_b", "generic", "orthogonal", "generic",
    ),
    "witness-hold": ("bj_true", "shared_top", "colinear", "identity_true"),
}
WORKLOADS = tuple(FAMILY_SLOTS)
PROBE_SLOTS = ("generic", "identity_false")

# Deciders run on each family, in call order.
FAMILY_DECIDERS = {
    "lattice": {
        fam: ("pythagoras_orthogonal", "roberts_check", "parallelogram_law_check")
        for fam in FAMILY_SLOTS["lattice"]
    },
    "duality": {fam: ("min_lambda_norm", "sup_m") for fam in FAMILY_SLOTS["duality"]},
    "witness-hold": {
        "bj_true": ("bj_orthogonal",),
        "shared_top": ("norm_additivity_report",),
        "colinear": ("triangle_equality",),
        "identity_true": ("pythagoras_identity",),
    },
    "probe": {
        "generic": ("bj_orthogonal", "norm_additivity_report", "triangle_equality"),
        # pythagoras_identity needs Re<x, y> <= 0, which generic pairs lack
        "identity_false": (
            "bj_orthogonal", "norm_additivity_report", "triangle_equality",
            "pythagoras_identity",
        ),
    },
}

# Statement that carries the primary verdict of each report-returning decider.
PRIMARY = {
    "pythagoras_orthogonal": "definition",
    "triangle_equality": "norm_sum",
    "norm_additivity_report": "gram_sum_norm",
    "pythagoras_identity": "pythagoras",
}

# Deciders that return a verdict.
VERDICT_DECIDERS = (*PRIMARY, "bj_orthogonal", "roberts_check", "parallelogram_law_check")

# ``modnorm check`` kind that runs the same decider from the command line.
CLI_KIND = {
    "pythagoras_orthogonal": "pythagoras",
    "roberts_check": "roberts",
    "parallelogram_law_check": "parallelogram",
    "min_lambda_norm": "min-lambda",
    "bj_orthogonal": "bj",
    "norm_additivity_report": "norm-additivity",
    "triangle_equality": "triangle",
    "pythagoras_identity": "pythagoras-identity",
}


@dataclass(frozen=True)
class Pair:
    """One generated input pair and what is known about it in advance."""

    workload: str
    family: str
    n: int
    k: int
    x: np.ndarray
    y: np.ndarray
    deciders: tuple[str, ...]
    # "decider" -> expected primary verdict; "decider.statement" -> expected
    # verdict of one statement of the decider's report
    expect: dict = field(default_factory=dict)
    # closed-form values: "min_value2" (squared minimum of ||x + lam y||)
    oracle: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# random building blocks
# ---------------------------------------------------------------------------

def _rand_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# families: each returns (x, y, expect, oracle) at unit scale
# ---------------------------------------------------------------------------

def _generic(rng, n, deciders):
    x, y = _rand_complex(rng, n, n), _rand_complex(rng, n, n)
    return x, y, {d: False for d in deciders if d in VERDICT_DECIDERS}, {}


def _gate(rng, n, want_true):
    """Orthogonal ranges (x^H y = 0), so both operator gates hold; Pythagoras
    orthogonality and the parallelogram law hold iff the top right singular
    vectors of x and y coincide."""
    u, v = _rand_unitary(rng, n), _rand_unitary(rng, n)
    h = n // 2
    x = np.outer(u[:, 0], v[:, 0].conj()) + 0.5 * np.outer(u[:, 1], v[:, 1].conj())
    sb = float(rng.uniform(0.5, 1.5))
    top = 0 if want_true else 1
    y = sb * np.outer(u[:, h], v[:, top].conj())
    y = y + 0.4 * sb * np.outer(u[:, h + 1], v[:, 2].conj())
    expect = {
        "pythagoras_orthogonal": want_true,
        "pythagoras_orthogonal.rank_gate": True,
        "pythagoras_orthogonal.positivity_gate": True,
        "roberts_check": True,
        "parallelogram_law_check": want_true,
    }
    return x, y, expect, {}


def _corner(rng, n, kind):
    """corner_block_pair: Pythagoras (and the parallelogram law) hold iff
    ||S^H T|| = ||S|| ||T||; Roberts always holds."""
    m = n // 2
    if kind == "corner_coisometric":
        s = float(rng.uniform(0.5, 2.0)) * _rand_unitary(rng, m)
        t = _rand_complex(rng, m, m)
    elif kind == "corner_projection":
        u = _rand_unitary(rng, m)
        s = u[:, :1] @ u[:, :1].conj().T
        t = s @ _rand_complex(rng, m, m)
    else:
        s, t = _rand_complex(rng, m, m), _rand_complex(rng, m, m)
    x, y, _ = modnorm.corner_block_pair(s, t, 1.0)
    ns, nt = _norm(s), _norm(t)
    crit = abs(_norm(s.conj().T @ t) - ns * nt) <= 1e-6 * ns * nt
    expect = {
        "pythagoras_orthogonal": crit,
        "roberts_check": True,
        "parallelogram_law_check": crit,
    }
    return x, y, expect, {}


def _duality_orthogonal(rng, n):
    """(A, B) = (x, x + y) with x^H y = 0 and a shared top right singular
    vector, so ||a x + b y||^2 = |a|^2 nx^2 + |b|^2 ny^2 and
    min_lam ||A + lam B||^2 = nx^2 ny^2 / (nx^2 + ny^2)."""
    u, v = _rand_unitary(rng, n), _rand_unitary(rng, n)
    h = max(n // 2, 1)
    nx, ny = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
    sx = np.concatenate([[nx], nx * rng.uniform(0.2, 0.9, h - 1)])
    sy = np.concatenate([[ny], ny * rng.uniform(0.2, 0.9, n - h - 1)])
    x = sum(sx[i] * np.outer(u[:, i], v[:, i].conj()) for i in range(h))
    y = sum(sy[j] * np.outer(u[:, h + j], v[:, j].conj()) for j in range(n - h))
    return x, x + y, {}, {"min_value2": nx**2 * ny**2 / (nx**2 + ny**2)}


def _duality_zero_b(rng, n):
    x = _rand_complex(rng, n, n)
    return x, np.zeros_like(x), {}, {"min_value2": _norm(x) ** 2}


def _bj_true(rng, n):
    """Two-dimensional norming subspace of x, cross block x^H y traceless on it."""
    u, v = _rand_unitary(rng, n), _rand_unitary(rng, n)
    s = np.concatenate([[1.0, 1.0], rng.uniform(0.3, 0.8, n - 2)])
    x = u @ np.diag(s) @ v.conj().T
    k = _rand_complex(rng, n, n)
    k[1, 1] = -k[0, 0]
    y = np.linalg.solve(x.conj().T, v @ k @ v.conj().T)
    return x, y, {"bj_orthogonal": True}, {}


def _shared_top(rng, n):
    """|x|^2 and |y|^2 share their top eigenvector: norm additivity holds."""
    v = _rand_unitary(rng, n)
    sx = np.sort(rng.uniform(0.2, 0.9, n))[::-1]
    sy = np.sort(rng.uniform(0.2, 0.9, n))[::-1]
    sx[0], sy[0] = 1.0, 1.0
    x = _rand_unitary(rng, n) @ np.diag(sx) @ v.conj().T
    y = _rand_unitary(rng, n) @ np.diag(sy) @ v.conj().T
    return x, y, {"norm_additivity_report": True}, {}


def _colinear(rng, n):
    x = _rand_complex(rng, n, n)
    return x, float(rng.uniform(0.5, 2.0)) * x, {"triangle_equality": True}, {}


def _identity(rng, n, want_true):
    """Common singular bases; Re<x,y> <= 0 holds by construction.  True: shared
    top index with a purely imaginary ratio there.  False: nonpositive real
    cross terms with the norms attained at different indices, so x and y
    share no maximizing vector and BJ orthogonality (x^H y is nonzero on the
    one-dimensional norming subspace of x), norm additivity and the triangle
    equality fail as well."""
    w, u = _rand_unitary(rng, n), _rand_unitary(rng, n)
    av = rng.uniform(0.3, 0.9, n).astype(np.complex128)
    av[0] = 1.0
    if want_true:
        bv = 1j * rng.uniform(0.1, 0.6, n) * av
        bv[0] = 1j * float(rng.uniform(0.7, 1.2))
        bv[1:] *= 0.3
    else:
        bv = -rng.uniform(0.1, 0.6, n).astype(np.complex128) * av
        bv[1] = -1.0
        bv[0] *= 0.1
    x = w @ np.diag(av) @ u.conj().T
    y = w @ np.diag(bv) @ u.conj().T
    if want_true:
        return x, y, {"pythagoras_identity": True}, {}
    return x, y, {d: False for d in FAMILY_DECIDERS["probe"]["identity_false"]}, {}


def _family(workload: str, family: str, rng: np.random.Generator, n: int):
    deciders = FAMILY_DECIDERS[workload][family]
    if family == "generic":
        return _generic(rng, n, deciders)
    if family in ("gate_true", "gate_false"):
        return _gate(rng, n, family == "gate_true")
    if family.startswith("corner_"):
        return _corner(rng, n, family)
    if family == "orthogonal":
        return _duality_orthogonal(rng, n)
    if family == "zero_b":
        return _duality_zero_b(rng, n)
    if family == "bj_true":
        return _bj_true(rng, n)
    if family == "shared_top":
        return _shared_top(rng, n)
    if family == "colinear":
        return _colinear(rng, n)
    if family in ("identity_true", "identity_false"):
        return _identity(rng, n, family == "identity_true")
    raise ValueError(f"unknown family {family!r}")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, (*WORKLOADS, "probe").index(workload)])
    )


def _pair(workload: str, family: str, n: int, k: int, rng: np.random.Generator) -> Pair:
    if family.startswith("gate_") and n < 4:
        family = "generic"  # orthogonal-range pairs passing both gates need n >= 4
    x, y, expect, oracle = _family(workload, family, rng, n)
    t = 2.0**k
    return Pair(
        workload=workload,
        family=family,
        n=n,
        k=k,
        x=np.ascontiguousarray(t * x, dtype=np.complex128),
        y=np.ascontiguousarray(t * y, dtype=np.complex128),
        deciders=FAMILY_DECIDERS[workload][family],
        expect=expect,
        oracle={key: val * t**2 for key, val in oracle.items()},
    )


def make_pool(workload: str, seed: int) -> list[Pair]:
    """REPLICATES full passes of the workload's factorial design, each cell
    drawn afresh from the seed."""
    if workload not in FAMILY_SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    slots = FAMILY_SLOTS[workload]
    rng = _rng(workload, seed)
    return [
        _pair(workload, slots[j % len(slots)], DIMS[j % len(DIMS)], SCALES[j % len(SCALES)], rng)
        for j in range(REPLICATES * len(DIMS) * len(SCALES) * len(slots))
    ]


def make_probe_pool(seed: int) -> list[Pair]:
    """Every (n, k, family) cell of the known-defect probe, drawn from the seed."""
    rng = _rng("probe", seed)
    return [
        _pair("probe", family, n, k, rng)
        for k in PROBE_SCALES for n in DIMS for family in PROBE_SLOTS
    ]


# ---------------------------------------------------------------------------
# the pair operation
# ---------------------------------------------------------------------------

def _call(name: str, x: np.ndarray, y: np.ndarray, cfg) -> tuple[dict, object]:
    """Run one public decider and build the dict a command-line user receives.

    The decider is looked up on the package at call time, so wrappers
    installed there by the tracer see the call.
    """
    out = getattr(modnorm, name)(x, y, cfg)
    if name in PRIMARY:
        return {"kind": name, **out.to_dict()}, out
    if name == "bj_orthogonal":
        return {"kind": name, "verdict": bool(out[0])}, out
    if name in ("roberts_check", "parallelogram_law_check"):
        return {"kind": name, "verdict": bool(out)}, out
    if name == "min_lambda_norm":
        lam = complex(out.lambda_star)
        return {"kind": name, "lambda_star": [lam.real, lam.imag], "value": float(out.value)}, out
    if name == "sup_m":
        value, xi = out
        xi = np.asarray(xi).ravel()
        return {"kind": name, "value": float(value), "xi": [[z.real, z.imag] for z in xi]}, out
    raise ValueError(f"unknown decider {name!r}")


def pair_operation(pair: Pair, cfg) -> tuple[list[str], list[object]]:
    """Run every decider of the pair and serialize each result to JSON text."""
    texts, raws = [], []
    for name in pair.deciders:
        obj, raw = _call(name, pair.x, pair.y, cfg)
        texts.append(modnorm.canonical_json(obj))
        raws.append(raw)
    return texts, raws


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def _state_value(state, m: np.ndarray) -> complex:
    return complex(np.trace(state.rho @ m))


def _check_witness(label, state, x, y, problems, cross):
    gx = x.conj().T @ x
    nx2 = _norm(x) ** 2
    val = _state_value(state, gx).real
    if abs(val - nx2) > WITNESS_TOL * (1.0 + nx2):
        problems.append(f"witness:{label}:norm")
    if cross is not None:
        c = abs(_state_value(state, cross))
        if c > WITNESS_TOL * (1.0 + _norm(x) * _norm(y)):
            problems.append(f"witness:{label}:cross")


def check_pair(pair: Pair, raws: list[object], cfg) -> list[str]:
    """Every ground-truth violation for one completed pair operation."""
    problems: list[str] = []
    x, y = pair.x, pair.y
    for name, raw in zip(pair.deciders, raws):
        if name in PRIMARY:
            verdict = raw.verdict(PRIMARY[name])
            if not raw.consistent:
                problems.append(f"{name}:consistent")
            if name in pair.expect and verdict != pair.expect[name]:
                problems.append(f"{name}:verdict")
            for key, want in pair.expect.items():
                if key.startswith(name + ".") and raw.verdict(key[len(name) + 1:]) != want:
                    problems.append(f"{key}:verdict")
            for label, w in raw.witnesses:
                if label in ("shared_maximizing_state", "joint_maximizing_state"):
                    _check_witness(label, w, x, y, problems, None)
                elif label == "zero_real_joint_state":
                    _check_witness(label, w, x, y, problems, (x.conj().T @ y + y.conj().T @ x) / 2)
        elif name == "bj_orthogonal":
            verdict, witness = raw
            if name in pair.expect and bool(verdict) != pair.expect[name]:
                problems.append(f"{name}:verdict")
            if witness is not None:
                _check_witness("bj", witness, x, y, problems, x.conj().T @ y)
        elif name in ("roberts_check", "parallelogram_law_check"):
            if name in pair.expect and bool(raw) != pair.expect[name]:
                problems.append(f"{name}:verdict")
    if "sup_m" in pair.deciders:
        opt = raws[pair.deciders.index("min_lambda_norm")]
        sup, xi = raws[pair.deciders.index("sup_m")]
        na2 = _norm(x) ** 2
        if abs(opt.value**2 - sup) > cfg.eps_opt * (1.0 + na2):
            problems.append("duality:gap")
        mv = modnorm.m_functional(x, y, np.asarray(xi).ravel(), cfg)
        if abs(mv - sup) > cfg.eps_opt * (1.0 + abs(sup)):
            problems.append("duality:m_functional")
        closed = pair.oracle.get("min_value2")
        if closed is not None and abs(opt.value**2 - closed) > cfg.eps_opt * (1.0 + na2):
            problems.append("duality:closed_form")
    return problems


def raised_in(exc: BaseException) -> str:
    """Name of the innermost ``modnorm`` function on the exception's traceback."""
    package = str(Path(modnorm.__file__).resolve().parent)
    name = "?"
    for frame in traceback.extract_tb(exc.__traceback__):
        if str(Path(frame.filename).resolve()).startswith(package):
            name = frame.name
    return name


def classify(pair: Pair, exc: BaseException | None) -> str | None:
    """Name the known defect behind a failure, or None when it is unexplained.

    Known defects (left in the data on purpose):
      * ``bracket``: the Brent bracket of ``zero_unit_vector`` raises
        ``ValueError`` when its phase scan's minimum is not strict;
      * ``small-scale``: residuals are absolute, so verdicts and agreement
        flags flip on pairs scaled below unit size (k < 0).
    """
    if exc is not None:
        if isinstance(exc, ValueError) and raised_in(exc) == "zero_unit_vector":
            return "bracket"
        return None
    if pair.k < 0:
        return "small-scale"
    return None
