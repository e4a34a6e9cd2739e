"""Tests for the numeric policy and its sample lattice."""

import dataclasses

import numpy as np
import pytest

from modnorm import DEFAULT_CONFIG, ToleranceConfig


def _nearest_negation(cfg):
    """Index of the lattice point nearest to -lam, for every lam (all pairs)."""
    pts = np.asarray(cfg.lambda_lattice)
    return np.abs(pts[:, None] + pts[None, :]).argmin(axis=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"lattice_phases": 2},
        {"lattice_phases": 12},
        {"lattice_mag_exponents": (-2, 3), "lattice_phases": 6},
        {"rng_seed": 7, "lattice_phases": 48},
    ],
)
def test_lattice_negation_is_the_nearest_negated_point(kwargs):
    cfg = ToleranceConfig(**kwargs) if kwargs else DEFAULT_CONFIG
    pts = np.asarray(cfg.lambda_lattice)
    neg = cfg.lattice_negation
    assert np.array_equal(neg, _nearest_negation(cfg))
    assert np.array_equal(neg[neg], np.arange(pts.size))
    assert np.abs(pts[neg] + pts).max() <= 1e-12 * (1.0 + np.abs(pts).max())
    assert not neg.flags.writeable
    assert isinstance(cfg.lambda_lattice, np.ndarray) and not cfg.lambda_lattice.flags.writeable


@pytest.mark.parametrize("phases", [3, 25, 0, -2])
def test_odd_or_nonpositive_lattice_phases_are_rejected(phases):
    with pytest.raises(ValueError, match="lattice_phases"):
        ToleranceConfig(lattice_phases=phases)


def test_lattice_is_derived_not_set():
    with pytest.raises(TypeError):
        ToleranceConfig(lambda_lattice=(1.0, -1.0))
    settable = [f.name for f in dataclasses.fields(ToleranceConfig) if f.init]
    assert settable == [
        "eps_eq",
        "eps_opt",
        "rng_seed",
        "lattice_mag_exponents",
        "lattice_phases",
    ]
    assert ToleranceConfig() == DEFAULT_CONFIG
