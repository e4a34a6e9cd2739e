"""Import hygiene: the tests reach the package through its public names
only, every public name has a reader, and the command line runs without
scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modnorm
from modnorm import min_lambda_norm, save_matrix

TESTS = Path(__file__).resolve().parent
SRC = str(Path(modnorm.__file__).resolve().parents[1])


def _private_imports(path: Path) -> list[str]:
    """Every ``from modnorm... import _name`` in ``path``, as file:line module.name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "modnorm"
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_test_imports_a_private_name():
    found = [hit for path in sorted(TESTS.glob("*.py")) for hit in _private_imports(path)]
    assert not found, found


def test_private_import_guard_flags_imports_not_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import modnorm\n"
        "from modnorm import normopt, run_suite\n"
        "from modnorm.suites import _Recorder as Recorder\n"
        "def f(monkeypatch):\n"
        "    from modnorm.linalg import _SharedTable\n"
        "    monkeypatch.setattr(normopt, '_newton', None)\n"
        "    return modnorm.normopt._newton\n",
        encoding="utf-8",
    )
    assert _private_imports(probe) == [
        "probe.py:3 modnorm.suites._Recorder",
        "probe.py:5 modnorm.linalg._SharedTable",
    ]


def _reads(path: Path) -> set[str]:
    """Names that ``path`` reads (loaded names and attributes, and strings
    equal to a name), each outside the ``def`` or ``class`` defining it."""
    reads: set[str] = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value  # getattr(modnorm, name) and dispatch tables
        if name is not None and name not in owners:
            reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), frozenset())
    return reads


def _unread_exports(package: Path, bench: Path) -> list[str]:
    """Names that ``package/__init__.py`` exports and that no other module of
    the package, and no file in ``bench``, reads."""
    init = package / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    exports = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    sources = [p for p in sorted(package.glob("*.py")) if p != init] + sorted(bench.glob("*.py"))
    read = set().union(*map(_reads, sources))
    return [name for name in exports if name not in read]


# Exports kept without a reader: the two Pythagoras deciders that take their
# limits as arguments and still wait for a suite check, support_function,
# which the numerical-range tests use to place levels, and support_dips_below:
# the numerical-range tests decide positive levels through it.
UNREAD_EXPORTS = {
    "limit_relations_check",
    "pythagoras_via_bj_parallelogram",
    "support_dips_below",
    "support_function",
}


def test_every_export_has_a_reader():
    package = Path(modnorm.__file__).resolve().parent
    assert set(_unread_exports(package, TESTS.parent / "bench")) == UNREAD_EXPORTS


def test_surface_guard_flags_names_read_only_in_their_own_definition(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text(
        "from .core import Kept, helper, recurse, spelled, unread\n", encoding="utf-8"
    )
    (package / "core.py").write_text(
        "class Kept:\n"
        "    pass\n"
        "def helper(x: Kept):\n"
        "    return x\n"
        "def recurse(n):\n"
        "    return recurse(n - 1) if n else 0\n"
        "def spelled():\n"
        "    pass\n"
        "def unread():\n"
        "    pass\n",
        encoding="utf-8",
    )
    (bench / "run.py").write_text(
        "import pkg\nprint(pkg.helper(0), getattr(pkg, 'spelled'))\n", encoding="utf-8"
    )
    assert _unread_exports(package, bench) == ["recurse", "unread"]


def _python(tmp_path, *args):
    """Run ``python -X importtime *args`` on the package source; return the
    process and the names of the modules it imported, in import order."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    # importtime logs every import to stderr when it happens, lazy ones included
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    ]
    return proc, imported


def _scipy(imported):
    return [name for name in imported if name.split(".")[0] == "scipy"]


def _save(tmp_path, name, m):
    path = tmp_path / name
    save_matrix(np.asarray(m, dtype=complex), path)
    return str(path)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    proc, imported = _python(tmp_path, "-c", "import modnorm.cli")
    assert proc.returncode == 0, proc.stderr
    assert "modnorm.cli" in imported
    assert _scipy(imported) == []


@pytest.mark.parametrize("kind, code", [("triangle", 1), ("bj", 1), ("pythagoras", 1)])
def test_check_off_a_kink_loads_no_scipy(tmp_path, kind, code):
    rng = np.random.default_rng(4)
    x, y = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
    proc, imported = _python(
        tmp_path, "-m", "modnorm.cli", "check", kind,
        _save(tmp_path, "x.json", x), _save(tmp_path, "y.json", y),
    )
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stdout)["kind"] == kind
    assert _scipy(imported) == []


def test_min_lambda_at_a_kink_loads_no_scipy(tmp_path, monkeypatch):
    # x = I and y normal with eigenvalues 1, 3, 2, 1.5: min_lambda max |1 + lambda mu|
    # is 1/2 at lambda = -1/2, where |1 + lambda mu| = 1/2 for mu = 1 and mu = 3,
    # so the top singular value is double and only the simplex search decides;
    # it runs in a fresh process without scipy and agrees with this one
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    x, y = np.eye(4, dtype=complex), q @ np.diag([1.0, 3.0, 2.0, 1.5]) @ q.conj().T
    proc, imported = _python(
        tmp_path, "-m", "modnorm.cli", "min-lambda",
        _save(tmp_path, "x.json", x), _save(tmp_path, "y.json", y),
    )
    assert proc.returncode == 0, proc.stderr
    assert _scipy(imported) == []
    out = json.loads(proc.stdout)
    searches = []
    simplex = modnorm.normopt._nelder_mead
    monkeypatch.setattr(
        modnorm.normopt, "_nelder_mead", lambda *args: searches.append(1) or simplex(*args)
    )
    res = min_lambda_norm(x, y)
    assert searches
    assert complex(*out["lambda_star"]) == res.lambda_star
    assert (out["value"], out["iterations"]) == (res.value, res.iterations)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.lambda_star == pytest.approx(-0.5, abs=1e-7)
