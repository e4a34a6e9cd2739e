"""The A/B summaries of ``tools/bench_ab.py`` and ``tools/inproc_ab.py`` and
the suite comparison of ``tools/suite_diff.py``, on synthetic inputs."""

import copy
import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_ab():
    return _tool("bench_ab")


SPECS = {
    "pairs_per_s": ("higher", 0.25),
    "setup_s": ("lower", 0.25),
    "linalg.svd_calls": ("lower", None),
}


def _runs(**series):
    count = len(next(iter(series.values())))
    return [{name: values[i] for name, values in series.items()} for i in range(count)]


def _verdicts(parent, change):
    lines = _bench_ab().summarize(parent, change, SPECS)
    return {line.split()[0]: line.split()[-1] for line in lines[1:]}


def test_summarize_reads_ok_worse_and_unresolved_against_each_bound():
    parent = _runs(
        pairs_per_s=[100.0, 101.0, 99.0, 100.0, 102.0],
        setup_s=[0.20, 0.21, 0.19, 0.20, 0.20],
        **{"linalg.svd_calls": [8.0] * 5},
    )
    flat = _runs(
        pairs_per_s=[98.0, 99.0, 100.0, 97.0, 99.0],
        setup_s=[0.21, 0.22, 0.20, 0.21, 0.21],
        **{"linalg.svd_calls": [9.0] * 5},
    )
    assert _verdicts(parent, flat) == {
        "pairs_per_s": "ok", "setup_s": "ok", "linalg.svd_calls": "-"
    }
    # 30% slower and 30% longer to start, beyond both 25% bounds
    slower = _runs(
        pairs_per_s=[70.0, 70.0, 71.0, 69.0, 70.0],
        setup_s=[0.26, 0.26, 0.27, 0.26, 0.26],
        **{"linalg.svd_calls": [8.0] * 5},
    )
    assert _verdicts(parent, slower) == {
        "pairs_per_s": "worse", "setup_s": "worse", "linalg.svd_calls": "-"
    }


def test_summarize_leaves_a_spread_wider_than_the_bound_unresolved():
    # the parent's quartiles lie 60 apart, beyond 0.25 times its median 100
    parent = _runs(pairs_per_s=[40.0, 70.0, 100.0, 130.0, 160.0])
    mixed = _runs(pairs_per_s=[90.0, 100.0, 110.0, 95.0, 105.0])
    assert _verdicts(parent, mixed) == {"pairs_per_s": "unresolved"}
    # every change run beats every parent run: the spread cannot hide a loss
    above = _runs(pairs_per_s=[161.0, 170.0, 165.0, 180.0, 175.0])
    assert _verdicts(parent, above) == {"pairs_per_s": "ok"}


RUN = {
    "suite_name": "all",
    "seed": 1,
    "case_count": 2,
    "failures": [],
    "cases": [
        {"pair_id": "bj/pair-0", "verdict": True, "margin": {"residual": 1e-12}},
        {"pair_id": "pythagoras/pair-0", "verdict": False, "residual": 0.25},
    ],
}


def _suite_diff(tmp_path, capsys, after):
    """(exit code, printed lines) of ``suite_diff.main`` on RUN against ``after``."""
    paths = []
    for name, run in (("before", RUN), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(run))
    code = _tool("suite_diff").main(*paths)
    return code, capsys.readouterr().out.splitlines()


def test_suite_diff_reads_no_differences_flips_residuals_and_cases(tmp_path, capsys):
    assert _suite_diff(tmp_path, capsys, copy.deepcopy(RUN)) == (0, ["no differences"])

    flipped = copy.deepcopy(RUN)
    flipped["cases"][0]["verdict"] = False
    code, lines = _suite_diff(tmp_path, capsys, flipped)
    assert code == 1 and "bj: 1 verdict or consistent flips" in lines

    moved = copy.deepcopy(RUN)
    moved["cases"][0]["margin"]["residual"] = 4e-12
    moved["cases"][1]["residual"] = 0.5
    code, lines = _suite_diff(tmp_path, capsys, moved)
    assert code == 1
    assert "  margin.residual: 1 changed, max |change| 3e-12" in lines
    assert "  residual: 1 changed, max |change| 0.25" in lines
    assert "bj: 0 verdict or consistent flips" in lines

    grown = copy.deepcopy(RUN)
    grown["cases"].append({"pair_id": "bj/pair-1", "verdict": True})
    code, lines = _suite_diff(tmp_path, capsys, grown)
    assert code == 1 and "  (case added or removed): 1 changed, max |change| 0" in lines

    failing = copy.deepcopy(RUN)
    failing["failures"] = ["pythagoras/pair-0"]
    assert _suite_diff(tmp_path, capsys, failing) == (1, ["failures: 0 -> 1"])


def test_inproc_report_reads_quartiles_and_ops_per_family_and_size(monkeypatch):
    # loading the tool pins the BLAS threads in the environment; the test
    # gives those variables back afterwards
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    ab = _tool("inproc_ab")
    pairs = [
        ("gate_true", 4, 0.001, 0.0005),
        ("generic", 8, 0.002, 0.002),
        ("gate_true", 4, 0.003, 0.0015),
        ("generic", 8, 0.004, 0.004),
    ]
    records = [
        {
            "cell": (family, n),
            "seconds": {"parent": parent, "change": change},
            "failed": {"parent": False, "change": False},
            "calls": {side: dict.fromkeys(ab.LAPACK, 0) for side in ab.SIDES},
            "differ": family == "gate_true",
        }
        for family, n, parent, change in pairs
    ]
    records[0]["calls"]["change"]["eigh"] = 2
    lines = ab.report("all seeds", records).splitlines()
    assert lines[0] == (
        "all seeds: 4 pairs, ops/s parent 400.0 change 500.0 (+25.0%); outputs differ on 2; "
        "ground-truth failures parent 0 change 0"
    )
    # parent minima 1, 2, 3, 4 ms; change 0.5, 1.5, 2, 4 ms
    assert lines[1] == "  per-pair ms, parent: p25 1.750 p50 2.500 p75 3.250"
    assert lines[2] == "  per-pair ms, change: p25 1.250 p50 1.750 p75 2.500"
    assert lines[3] == "  gate_true n=4: 2 pairs, ops/s parent 500.0 change 1000.0 (+100.0%)"
    assert lines[4] == "  generic n=8: 2 pairs, ops/s parent 333.3 change 333.3 (+0.0%)"
    assert lines[6].endswith("eigh 0.50 eigvalsh 0.00 eigvals 0.00 solve 0.00 (all 0.50)")
