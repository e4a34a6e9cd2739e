"""JSON persistence for matrices and reports.

Matrices travel as {"rows": r, "cols": c, "data": [[[re, im], ...], ...]};
reports are serialized with sorted keys and compact separators so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .linalg import as_matrix


class MatrixFormatError(ValueError):
    """A matrix file violates the expected JSON shape."""


def matrix_to_json(m: np.ndarray) -> dict:
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def _is_int(v: object) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix JSON must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise MatrixFormatError(f"missing field {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not _is_int(rows) or not _is_int(cols) or rows < 1 or cols < 1:
        raise MatrixFormatError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFormatError(f"data must have {rows} rows, got {len(data) if isinstance(data, list) else type(data).__name__}")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFormatError(f"row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_int(v) or isinstance(v, float) for v in entry)
            ):
                raise MatrixFormatError(f"entry ({i},{j}) must be a [re, im] pair")
            re, im = float(entry[0]), float(entry[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise MatrixFormatError(f"entry ({i},{j}) is not finite")
            out[i, j] = complex(re, im)
    return out


def save_matrix(m: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(canonical_json(matrix_to_json(m)) + "\n", encoding="utf-8")


def load_matrix(path: str | Path) -> np.ndarray:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {p}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return matrix_from_json(obj)


def _json_default(o: object) -> object:
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"object of type {type(o).__name__} is not JSON serializable")


def canonical_json(obj: object) -> str:
    """Deterministic JSON text: sorted keys, compact separators."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_json_default
    )


def save_report(obj: dict, path: str | Path) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")
