"""CLI tests: exit codes, JSON I/O, and byte-identical determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modnorm
from modnorm import (
    MatrixFormatError,
    ZeroMatrixError,
    canonical_json,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
)
from modnorm import cli
from modnorm.cli import main


def _write(tmp_path, name, m):
    path = tmp_path / name
    save_matrix(np.asarray(m, dtype=complex), path)
    return str(path)


@pytest.fixture
def mats(tmp_path):
    e11 = np.diag([1.0, 0.0])
    e22 = np.diag([0.0, 1.0])
    a4 = np.zeros((4, 4))
    a4[0, 0] = a4[2, 2] = 1.0
    b4 = np.zeros((4, 4))
    b4[1, 0] = b4[3, 2] = 1.0
    return {
        "e11": _write(tmp_path, "e11.json", e11),
        "e22": _write(tmp_path, "e22.json", e22),
        "eye": _write(tmp_path, "eye.json", np.eye(2)),
        "a4": _write(tmp_path, "a4.json", a4),
        "b4": _write(tmp_path, "b4.json", b4),
    }


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = matrix_from_json(json.loads(canonical_json(matrix_to_json(m))))
    assert back.dtype == np.complex128
    assert np.array_equal(back, m)  # bit-exact, not merely close


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


@pytest.mark.parametrize(
    "bad",
    [
        "not json at all",
        '{"rows": 2, "cols": 2}',
        '{"rows": 0, "cols": 2, "data": []}',
        '{"rows": 1, "cols": 2, "data": [[[0, 0]]]}',
        '{"rows": 1, "cols": 1, "data": [[[0]]]}',
        '{"rows": 1, "cols": 1, "data": [[["a", 0]]]}',
        '{"rows": 1, "cols": 1, "data": [[[Infinity, 0]]]}',
        '{"rows": 1, "cols": 1, "data": [[[true, false]]]}',
        '{"rows": true, "cols": 1, "data": [[[0, 0]]]}',
        "[1, 2, 3]",
    ],
)
def test_malformed_matrix_files(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_missing_file_raises():
    with pytest.raises(MatrixFormatError):
        load_matrix("/nonexistent/nowhere.json")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_check_exit_true(mats, capsys):
    assert main(["check", "pythagoras", mats["a4"], mats["b4"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["statements"]["definition"]["verdict"] is True


def test_check_exit_false(mats, capsys):
    assert main(["check", "triangle", mats["e11"], mats["e22"]]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["statements"]["norm_sum"]["verdict"] is False


def test_check_exit_hypothesis(mats, capsys):
    assert main(["check", "pythagoras-identity", mats["eye"], mats["eye"]]) == 2
    assert "hypothesis" in capsys.readouterr().err


def test_check_exit_input_error(tmp_path, mats, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["check", "triangle", str(bad), mats["e11"]]) == 3
    assert main(["check", "triangle", mats["e11"]]) == 3  # missing second matrix
    assert main(["check", "triangle", mats["e11"], mats["a4"]]) == 3  # shape mismatch
    assert main(["check", "triangle", mats["e11"], mats["e22"], "--eps-eq", "-1"]) == 3
    assert main(["check", "triangle", mats["e11"], mats["e22"], "--lattice-phases", "3"]) == 3
    assert main(["suite", "rank-one", "--count", "0"]) == 3
    capsys.readouterr()


def test_usage_errors_exit_input_error(mats, capsys):
    # argparse's own exit code 2 would read as a hypothesis violation
    assert main(["check", "nosuchkind", mats["e11"], mats["e22"]]) == 3
    assert main(["check", "triangle"]) == 3  # no matrix file at all
    assert main(["suite", "all", "--count", "x"]) == 3
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


# the public deciders and the ``modnorm check`` kind of each, None where the
# command line has none
NON_FINITE_DECIDERS = {
    "bj_orthogonal": "bj",
    "norm_additivity_report": "norm-additivity",
    "triangle_equality": "triangle",
    "pythagoras_identity": "pythagoras-identity",
    "pythagoras_orthogonal": "pythagoras",
    "roberts_check": "roberts",
    "min_lambda_norm": "min-lambda",
    "sup_m": None,
}
NON_FINITE = {"nan": np.nan, "inf": np.inf, "imag_inf": complex(0.0, -np.inf)}


@pytest.mark.parametrize("entry", sorted(NON_FINITE))
@pytest.mark.parametrize("slot", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_DECIDERS))
def test_deciders_reject_non_finite_input(name, slot, entry):
    # LinAlgError is a ValueError too, so the message names the validation
    pair = [np.eye(2, dtype=complex), np.diag([0.0, 1j])]
    pair[slot][1, 0] = NON_FINITE[entry]
    with pytest.raises(ValueError, match="finite"):
        getattr(modnorm, name)(*pair, modnorm.DEFAULT_CONFIG)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "kind", sorted(kind for kind in NON_FINITE_DECIDERS.values() if kind is not None)
)
def test_check_rejects_non_finite_entries(tmp_path, mats, capsys, kind, entry):
    # Python's json reads these literals as floats, so the entry reaches the loader
    bad = tmp_path / "bad.json"
    bad.write_text(
        f'{{"rows": 2, "cols": 2, "data": [[[1, 0], [0, 0]], [[0, {entry}], [0, 1]]]}}',
        encoding="utf-8",
    )
    assert main(["check", kind, str(bad), mats["e22"]]) == 3
    assert main(["check", kind, mats["e11"], str(bad)]) == 3
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [
        np.linalg.LinAlgError("SVD did not converge"),
        AssertionError("witness failed to certify"),
        ZeroMatrixError("maximizing set of the zero matrix is rejected"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_check_exit_internal_error(mats, monkeypatch, capsys, error):
    # a failure inside a decider is not an input error (LinAlgError and
    # ZeroMatrixError are ValueErrors) nor a false verdict (exit 1)
    def broken(*args):
        raise error

    monkeypatch.setitem(cli._CHECKS, "pythagoras", (broken, "definition"))
    assert main(["check", "pythagoras", mats["a4"], mats["b4"]]) == 4
    assert "internal error" in capsys.readouterr().err


def _rng0_pair(t):
    """The complex Gaussian 3x3 pair drawn from default_rng(0), x then y, times t."""
    rng = np.random.default_rng(0)
    return [t * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) for _ in range(2)]


@pytest.mark.parametrize("kind", ["norm-additivity", "bj", "pythagoras", "triangle"])
def test_small_scale_pair_keeps_the_unit_exit_code(tmp_path, capsys, kind):
    codes = []
    for t in (1.0, 1e-6):
        x, y = _rng0_pair(t)
        codes.append(main(["check", kind, _write(tmp_path, "x.json", x), _write(tmp_path, "y.json", y)]))
    capsys.readouterr()
    assert codes[1] == codes[0] in (0, 1)


@pytest.mark.parametrize(
    "kind, code", [("norm-additivity", 0), ("bj", 1), ("pythagoras", 1), ("triangle", 0)]
)
def test_unequal_moduli_pair_is_decided(tmp_path, capsys, kind, code):
    x, y = _rng0_pair(1.0)
    big, small = _write(tmp_path, "x.json", 1e6 * x), _write(tmp_path, "y.json", y)
    assert main(["check", kind, big, small]) == code
    assert main(["check", kind, small, big]) == code
    capsys.readouterr()


def test_python_m_modnorm(tmp_path):
    x, y = _rng0_pair(1e-6)
    src = str(Path(modnorm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "modnorm", "check", "pythagoras",
         _write(tmp_path, "x.json", x), _write(tmp_path, "y.json", y)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert json.loads(proc.stdout)["kind"] == "pythagoras"


def test_check_rejects_boolean_entries(tmp_path, mats, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text('{"rows": 1, "cols": 2, "data": [[[true, false], [0, 0]]]}', encoding="utf-8")
    assert main(["check", "roberts", str(bad), str(bad)]) == 3
    assert "entry (0,0)" in capsys.readouterr().err


def test_boolean_checks(mats, capsys):
    assert main(["check", "bj", mats["e11"], mats["e22"]]) == 0
    assert main(["check", "roberts", mats["eye"], mats["eye"]]) == 1
    assert main(["check", "parallelogram", mats["a4"], mats["b4"]]) == 0
    assert main(["check", "product-norm", mats["e11"], mats["e22"]]) == 1
    capsys.readouterr()


def test_min_lambda_command(mats, capsys):
    assert main(["min-lambda", mats["eye"], mats["eye"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"kind", "lambda_star", "value", "iterations"}
    assert out["value"] == pytest.approx(0.0, abs=1e-7)
    assert out["lambda_star"][0] == pytest.approx(-1.0, abs=1e-5)


def test_numrange_command(mats, capsys):
    assert main(["numrange", mats["e11"], "--angles", "36"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["angles"]) == 36
    assert max(out["support_values"]) == pytest.approx(1.0, abs=1e-9)


def test_numrange_command_rejects_no_angles(mats, capsys):
    for angles in ("0", "-3"):
        assert main(["numrange", mats["e11"], "--angles", angles]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "--angles" in captured.err


def test_suite_command(mats, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["suite", "corner-block", "--seed", "7", "--count", "3", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["failures"] == []
    assert report["seed"] == 7


def test_suite_determinism_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["suite", "rank-one", "--seed", "42", "--count", "5"]
    assert main([*args, "--out", str(p1)]) == 0
    assert main([*args, "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_check_determinism_byte_identical(mats, tmp_path, capsys):
    p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
    args = ["check", "pythagoras", mats["a4"], mats["b4"], "--seed", "9"]
    main([*args, "--out", str(p1)])
    main([*args, "--out", str(p2)])
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_env_seed(mats, tmp_path, capsys, monkeypatch):
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    monkeypatch.setenv("MODNORM_SEED", "321")
    main(["suite", "rank-one", "--count", "3", "--out", str(p1)])
    monkeypatch.delenv("MODNORM_SEED")
    main(["suite", "rank-one", "--seed", "321", "--count", "3", "--out", str(p2)])
    capsys.readouterr()
    report = json.loads(p1.read_text())
    assert report["seed"] == 321
    assert p1.read_bytes() == p2.read_bytes()


def test_invalid_env_seed(mats, monkeypatch):
    monkeypatch.setenv("MODNORM_SEED", "not-a-number")
    assert main(["suite", "rank-one", "--count", "2"]) == 3


def test_tolerance_flags(mats, capsys):
    # an absurdly loose eps-opt turns the false triangle verdict true
    assert main(["check", "triangle", mats["e11"], mats["e22"], "--eps-opt", "10"]) == 0
    capsys.readouterr()


SUITE_DIFF = Path(__file__).resolve().parents[1] / "tools" / "suite_diff.py"


def _suite_diff(tmp_path, before, after):
    paths = []
    for name, run in (("before.json", before), ("after.json", after)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(run), encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(SUITE_DIFF), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )


def test_suite_diff_exit_code_tells_whether_anything_differs(tmp_path):
    case = {"pair_id": "s/0", "gap": 1e-16, "report": {"consistent": True}}
    run = {"cases": [case], "failures": []}
    same = _suite_diff(tmp_path, run, json.loads(json.dumps(run)))
    assert (same.returncode, same.stdout) == (0, "no differences\n")
    changes = [
        {"cases": [{**case, "gap": 2e-16}], "failures": []},
        {"cases": [{**case, "report": {"consistent": False}}], "failures": []},
        {"cases": [case, {**case, "pair_id": "s/1"}], "failures": []},
        {"cases": [case], "failures": [{"pair_id": "s/0", "statement": "x", "residual": 0.0}]},
    ]
    for changed in changes:
        proc = _suite_diff(tmp_path, run, changed)
        assert proc.returncode == 1, changed
        assert "no differences" not in proc.stdout
