"""The tests reach the package through its public names only."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


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
