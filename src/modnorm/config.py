"""Global numeric policy: tolerances, rank cutoffs, and the complex sample lattice.

The "for all lambda in C" quantifiers in the deciders are sampled on a finite
lattice of complex numbers: log-spaced magnitudes times equispaced phases, plus
seeded pseudo-random points (the upper half of the Pythagoras definition is
also decided off the lattice).  The lattice is closed under negation so that
sign-symmetric identities are probed symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 12345

# Relative singular-value cutoff for numeric rank.
EPS_RANK = 1e-10

# Seeded pseudo-random lattice points, half of them the negations of the rest.
LATTICE_RANDOM = 64


def _build_lattice(
    mag_exponents: tuple[int, int],
    n_phases: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points and the index of each one's negation: phase j of a ring
    negates to phase (j + P/2) mod P, seeded point r to its -r twin."""
    k_lo, k_hi = mag_exponents
    mags = 2.0 ** np.arange(k_lo, k_hi + 1)
    phases = np.exp(2j * np.pi * np.arange(n_phases) / n_phases)
    grid = (mags[:, None] * phases[None, :]).ravel()
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    half = LATTICE_RANDOM // 2
    rand = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    pts = np.concatenate([grid, rand, -rand])
    turned = (np.arange(n_phases) + n_phases // 2) % n_phases
    ring_negation = (n_phases * np.arange(mags.size)[:, None] + turned).ravel()
    rand_index = grid.size + np.arange(half)
    negation = np.concatenate([ring_negation, rand_index + half, rand_index])
    return pts, negation


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric policy shared by all deciders.

    eps_eq      relative tolerance for algebraic identities (eigensolver grade)
    eps_opt     tolerance for optimization-mediated equalities
    rng_seed    seed for every derived pseudo-random draw

    ``lambda_lattice`` and ``lattice_negation`` are derived, not set, and are
    read-only arrays: entry i of the latter is the index of -lambda_lattice[i]
    (hence an even ``lattice_phases``), so sigma(x - lam y) is a permutation
    of sigma(x + lam y).
    """

    eps_eq: float = 1e-9
    eps_opt: float = 1e-6
    rng_seed: int = DEFAULT_SEED
    lattice_mag_exponents: tuple[int, int] = (-8, 8)
    lattice_phases: int = 24
    lambda_lattice: np.ndarray = field(init=False, repr=False, compare=False)
    lattice_negation: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if min(self.eps_eq, self.eps_opt) <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.lattice_phases < 2 or self.lattice_phases % 2:
            raise ValueError(f"lattice_phases must be positive and even, got {self.lattice_phases}")
        pts, negation = _build_lattice(
            self.lattice_mag_exponents,
            self.lattice_phases,
            self.rng_seed,
        )
        if np.abs(pts[negation] + pts).max() > 1e-12 * (1.0 + np.abs(pts).max()):
            raise ValueError("lambda lattice must be closed under negation")
        pts.flags.writeable = False
        negation.flags.writeable = False
        object.__setattr__(self, "lambda_lattice", pts)
        object.__setattr__(self, "lattice_negation", negation)

    def rng(self, *extra_keys: int) -> np.random.Generator:
        """Deterministic generator derived from the seed plus context keys."""
        return seeded_rng(self.rng_seed, *extra_keys)


def seeded_rng(seed: int, *extra_keys: int) -> np.random.Generator:
    """``ToleranceConfig.rng`` for a config whose ``rng_seed`` is ``seed``."""
    keys = [k & 0xFFFFFFFFFFFFFFFF for k in (seed, *extra_keys)]
    return np.random.default_rng(np.random.SeedSequence(keys))


DEFAULT_CONFIG = ToleranceConfig()
