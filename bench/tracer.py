"""Span tracing of modnorm's public functions, installed from outside.

``Tracer.install`` wraps each traced function and puts the wrapper on every
module namespace that holds the original object, so names bound with
``from ... import`` (``orthogonality.range_contains``, ``normopt.minimize``,
``numrange.minimize_scalar``, the package's re-exports) route through it
too.  The numpy factorizations behind the linalg layer (``svd``, including
the one inside ``np.linalg.norm(., 2)``, ``eigh`` and ``eigvalsh``) and
scipy's ``minimize`` / ``minimize_scalar`` are wrapped the same way.

Spans are kept in memory as tuples and written out only by ``write``.
Wrappers record nothing unless ``active`` is set, so work done outside the
timed pair operations (ground-truth checks) is not traced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import numpy.linalg
import scipy.optimize

import modnorm
from workloads import PRIMARY

# module -> traced public functions
TRACED = {
    "linalg": ("as_matrix", "spectral_norm", "hermitian_eig", "top_right_singular_subspace"),
    "numrange": ("range_contains", "support_values", "chord_through_zero", "zero_unit_vector"),
    "states": ("maximizing_set", "sets_intersect", "subspace_intersection", "witness_in_set_with_zero"),
    "normopt": ("min_lambda_norm", "sup_m", "bj_orthogonal", "bj_lower_bound_check"),
    "orthogonality": (
        "pythagoras_orthogonal", "roberts_check", "parallelogram_law_check",
        "pythagoras_witness_vector", "triangle_equality", "norm_additivity_report",
        "pythagoras_identity",
    ),
    "serialization": ("canonical_json",),
}
LAYERS = tuple(TRACED)

# Ratio reported for functions whose span records 1/0: a verdict,
# found / not found, or accept / reject.
RATIOS = {
    "range_contains": "accept_ratio",
    "chord_through_zero": "found_ratio",
    "zero_unit_vector": "found_ratio",
    "witness_in_set_with_zero": "found_ratio",
    "bj_orthogonal": "true_ratio",
    "bj_lower_bound_check": "true_ratio",
    "roberts_check": "true_ratio",
    "parallelogram_law_check": "true_ratio",
    **{name: "true_ratio" for name in PRIMARY},
}
RAISED = ("zero_unit_vector",)


def _outcome(func: str, result: object) -> int | None:
    if func in PRIMARY:
        statements = getattr(result, "statements", {})
        label = PRIMARY[func]
        return int(bool(statements[label].verdict)) if label in statements else None
    if func == "bj_orthogonal":
        return int(bool(result[0]))
    if func in ("chord_through_zero", "zero_unit_vector", "witness_in_set_with_zero"):
        return int(result is not None)
    if func in RATIOS:
        return int(bool(result))
    return None


def _stack_size(a: object) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _nfev(result: object) -> int:
    return int(getattr(result, "nfev", 0) or 0)


class Tracer:
    """In-memory span recorder.  A span is
    (name, start_ns, end_ns, parent index, op index, value, raised)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            value = before(args, kwargs) if before else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, tracer.op, value, True)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            if after:
                value = after(result)
            spans[idx] = (name, start, end, parent, tracer.op, value, False)
            return result

        return wrapper

    def _replace(self, original, wrapper, namespaces) -> None:
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is original:
                    setattr(ns, attr, wrapper)
                    self._installed.append((ns, attr, original))

    def install(self) -> list[str]:
        """Wrap every traced function; return the names not found."""
        pkg_modules = [modnorm] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("modnorm.") and m is not None
        ]
        missing = []
        for layer, funcs in TRACED.items():
            module = sys.modules.get(f"modnorm.{layer}")
            for func in funcs:
                original = getattr(module, func, None)
                if original is None:
                    missing.append(f"{layer}.{func}")
                    continue
                before = None
                if func == "support_values":
                    before = lambda a, k: int(np.size(a[1] if len(a) > 1 else k["thetas"]))
                after = functools.partial(_outcome, func) if func in RATIOS else None
                self._replace(original, self._wrap(f"{layer}.{func}", original, before, after), pkg_modules)

        np_modules = [numpy.linalg, sys.modules.get("numpy.linalg._linalg")]
        np_modules = [m for m in np_modules if m is not None] + pkg_modules
        for func, span in (("svd", "np.svd"), ("eigh", "np.eigh"), ("eigvalsh", "np.eigvalsh")):
            original = getattr(numpy.linalg, func)
            before = lambda a, k: _stack_size(a[0] if a else next(iter(k.values())))
            self._replace(original, self._wrap(span, original, before), np_modules)

        opt_modules = [scipy.optimize] + pkg_modules
        for func in ("minimize", "minimize_scalar"):
            original = getattr(scipy.optimize, func)
            self._replace(original, self._wrap(f"scipy.{func}", original, None, _nfev), opt_modules)
        return missing

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one CSV row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op,value,raised\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    name, start, end, parent, op, value, raised = s
                    fh.write(f"{i},{name},{start},{end},{parent},{op},{'' if value is None else value},{int(raised)}\n")


# The per-call table of the repository baseline, re-measured as medians.
MEDIAN_CALLS = (
    "sup_m", "chord_through_zero", "pythagoras_orthogonal", "min_lambda_norm",
    "roberts_check", "norm_additivity_report", "range_contains", "triangle_equality",
)
MEDIAN_DIMS = (4, 8)


def aggregate(spans: list[tuple], op_dims: list[int], op_seconds: float) -> dict[str, float]:
    """Per-layer metrics from the spans of ``len(op_dims)`` pair operations.

    Counts and self times are per pair operation; ratios are over calls;
    ``median_ms.<func>.n<d>`` is the median inclusive duration of one call
    made during an operation on an n = d pair.
    """
    ops = max(len(op_dims), 1)
    n = len(spans)
    child_ns = [0] * n
    # Layer that owns each span's self time: numpy factorizations belong to
    # linalg, optimizer internals to the layer of the function that called
    # the optimizer.
    owner = [""] * n
    for i, s in enumerate(spans):
        name, start, end, parent, _, _, _ = s
        if parent >= 0:
            child_ns[parent] += end - start
        if name.startswith("scipy."):
            owner[i] = owner[parent] if parent >= 0 else "bench"
        elif name.startswith("np."):
            owner[i] = "linalg"
        else:
            owner[i] = name.split(".", 1)[0]

    calls = defaultdict(int)
    self_ns = defaultdict(int)
    hits = defaultdict(int)
    judged = defaultdict(int)
    raised = defaultdict(int)
    layer_ns = defaultdict(int)
    counts = defaultdict(int)
    durations = defaultdict(list)
    for i, s in enumerate(spans):
        name, start, end, parent, op, value, err = s
        own = end - start - child_ns[i]
        calls[name] += 1
        self_ns[name] += own
        layer_ns[owner[i]] += own
        if err:
            raised[name] += 1
        func = name.split(".", 1)[1]
        if name.startswith("np."):
            kind = "svd" if func == "svd" else "eigh"
            counts[f"linalg.{kind}_calls"] += 1
            counts[f"linalg.{kind}_matrices"] += value or 0
            counts[f"linalg.{kind}.self_s"] += own
        elif name.startswith("scipy."):
            counts[f"{owner[i]}.optimizer_nfev"] += value or 0
        else:
            if name == "numrange.support_values":
                counts["numrange.support_angles"] += value or 0
            if value is not None and func in RATIOS:
                judged[name] += 1
                hits[name] += value
            if 0 <= op < len(op_dims):
                durations[(func, op_dims[op])].append(end - start)

    out: dict[str, float] = {}
    for kind in ("svd", "eigh"):
        out[f"linalg.{kind}_calls"] = counts[f"linalg.{kind}_calls"] / ops
        out[f"linalg.{kind}_matrices"] = counts[f"linalg.{kind}_matrices"] / ops
        out[f"linalg.{kind}.self_s"] = counts[f"linalg.{kind}.self_s"] * 1e-9 / ops
    out["numrange.support_angles"] = counts["numrange.support_angles"] / ops
    for layer in ("numrange", "normopt"):
        out[f"{layer}.optimizer_nfev"] = counts[f"{layer}.optimizer_nfev"] / ops
    for layer, funcs in TRACED.items():
        for func in funcs:
            name = f"{layer}.{func}"
            if func == "support_values":
                continue
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_s"] = self_ns[name] * 1e-9 / ops
            if func in RATIOS:
                out[f"{name}.{RATIOS[func]}"] = hits[name] / judged[name] if judged[name] else 0.0
            if func in RAISED:
                out[f"{name}.raised"] = raised[name] / ops
    total_ns = op_seconds * 1e9
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = layer_ns[layer] / total_ns if total_ns else 0.0
    for func in MEDIAN_CALLS:
        for dim in MEDIAN_DIMS:
            vals = durations.get((func, dim))
            out[f"median_ms.{func}.n{dim}"] = float(np.median(vals)) * 1e-6 if vals else 0.0
    return out
