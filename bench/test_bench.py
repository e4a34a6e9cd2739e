"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

modnorm = run._load_program()
import tracer  # noqa: E402
import workloads  # noqa: E402

CFG = modnorm.ToleranceConfig()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pool_is_deterministic_for_a_seed(workload):
    first, again, other = (workloads.make_pool(workload, s) for s in (7, 7, 8))
    assert len(first) == len(again) == len(other)
    for a, b in zip(first, again):
        assert (a.family, a.n, a.k, a.deciders, a.expect, a.oracle) == (
            b.family, b.n, b.k, b.deciders, b.expect, b.oracle
        )
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert any(not np.array_equal(a.x, c.x) for a, c in zip(first, other))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_covers_every_cell_once(workload):
    pool = workloads.make_pool(workload, 3)
    slots = workloads.FAMILY_SLOTS[workload]
    design = len(workloads.DIMS) * len(workloads.SCALES) * len(slots)
    assert len(pool) == workloads.REPLICATES * design
    for start in range(0, len(pool), design):
        one_pass = pool[start:start + design]
        cells = {(p.n, p.k, j % len(slots)) for j, p in enumerate(one_pass)}
        assert len(cells) == design
    assert {p.k for p in pool} == set(range(-2, 9))


def test_probe_pool_covers_the_small_scales():
    probe = workloads.make_probe_pool(3)
    cells = {(p.n, p.k, p.family) for p in probe}
    assert len(cells) == len(probe) == len(workloads.DIMS) * 6 * len(workloads.PROBE_SLOTS)
    assert {p.k for p in probe} == set(range(-8, -2))
    assert all(np.array_equal(a.x, b.x) for a, b in zip(probe, workloads.make_probe_pool(3)))


def test_probe_counts_the_known_small_scale_flips():
    # norm_additivity_report's agreement flag flips on generic pairs at 2^-8
    probe = [p for p in workloads.make_probe_pool(1) if p.k == -8]
    tally = run.run_probe(workloads, probe, CFG)
    assert tally.attempted == len(probe)
    assert tally.failed >= 1
    assert tally.known["small-scale"] == tally.failed


def _cheap_pairs(n_pairs=4):
    pool = workloads.make_pool("witness-hold", 5)
    pairs = [p for p in pool if p.family == "colinear" and p.k >= 0 and p.n == 2]
    return pairs[:n_pairs]


def test_true_ground_truth_passes():
    tally = run.Tally()
    run.run_loop(workloads, _cheap_pairs(), CFG, 0.2, tally)
    assert tally.attempted >= 1
    assert tally.failed == 0


def test_wrong_ground_truth_is_counted_as_failed():
    wrong = [
        replace(p, expect={d: not v for d, v in p.expect.items()}) for p in _cheap_pairs()
    ]
    tally = run.Tally()
    run.run_loop(workloads, wrong, CFG, 0.2, tally)
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted  # ok_share 0, failed share 1
    assert len(tally.unexplained) == tally.failed  # unit-scale pairs: no known cause


def test_wrong_closed_form_is_counted_as_failed():
    pool = workloads.make_pool("duality", 2)
    pair = next(p for p in pool if p.family == "zero_b" and p.n == 2 and p.k >= 0)
    wrong = replace(pair, oracle={"min_value2": 2.0 * pair.oracle["min_value2"] + 1.0})
    _, raws = workloads.pair_operation(wrong, CFG)
    assert workloads.check_pair(pair, raws, CFG) == []
    assert workloads.check_pair(wrong, raws, CFG) == ["duality:closed_form"]


def test_tracer_wraps_names_bound_by_import_and_restores_them():
    bound = {
        (modnorm.orthogonality, "range_contains"),
        (modnorm.states, "chord_through_zero"),
        (modnorm.normopt, "minimize"),
        (modnorm.numrange, "minimize_scalar"),
        (modnorm, "triangle_equality"),
    }
    originals = {(m, name): getattr(m, name) for m, name in bound}
    tr = tracer.Tracer()
    assert tr.install() == []
    try:
        for (m, name), original in originals.items():
            assert getattr(m, name) is not original
        pair = next(p for p in workloads.make_pool("witness-hold", 1) if p.family == "colinear")
        tr.active = True
        tr.op = 0
        workloads.pair_operation(pair, CFG)
        tr.active = False
    finally:
        tr.uninstall()
    for (m, name), original in originals.items():
        assert getattr(m, name) is original
    names = {s[0] for s in tr.spans}
    assert {"orthogonality.triangle_equality", "numrange.range_contains", "np.eigvalsh"} <= names
    metrics = tracer.aggregate(tr.spans, [pair.n], 1.0)
    assert metrics["orthogonality.triangle_equality.calls"] == 1
    assert metrics["serialization.canonical_json.calls"] == 1
    assert metrics["linalg.svd_calls"] >= 3  # np.linalg.norm(., 2) counts as an SVD


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path: Path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
