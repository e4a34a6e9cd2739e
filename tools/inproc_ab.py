"""In-process A/B timing of two checkouts on one benchmark workload's pool.

Usage: python tools/inproc_ab.py PARENT CHANGE --workload lattice --seeds 1 3
       [--repeats 3]

PARENT and CHANGE are checkout directories.  Each one's ``src/modnorm`` is
copied to a temporary directory under a distinct package name
(``modnorm_parent``, ``modnorm_change``), and each one's
``bench/workloads.py`` is loaded bound to its own copy, so one process holds
both programs.  For every pair of the pool (``workloads.make_pool``, built
once from the parent's loader and given to both sides) the two sides run
``pair_operation`` alternately, parent first on even pairs and change first on
odd ones.  Each side's time for a pair is the minimum over ``--repeats`` runs,
each with the program's shared tables emptied first, so every run computes
what a first read of the pair computes.  A drift in the host's speed then
falls on both sides alike, which separate processes cannot promise.

It prints, per seed and over all seeds, each side's ops/s (pairs over the sum
of the per-pair minima), the change's gain, how many pair operations
serialize differently between the sides, and each side's ground-truth
failures (``workloads.check_pair``).  Then, for each side, the LAPACK calls
per op by kind (``svd``, ``eigh``, ``eigvalsh``, ``eigvals``, ``solve``;
a batched call counts once), from one more cold run of every pair with
counting wrappers on ``numpy.linalg``, outside the timed runs.  These counts
do not depend on the machine, so they show where a change in ops/s comes
from.  ``bench/`` is imported, never edited.
"""

import argparse
import importlib
import importlib.util
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, as the benchmark runs; must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
LAPACK = ("svd", "eigh", "eigvalsh", "eigvals", "solve")


def load_side(checkout: Path, name: str, root: Path):
    """(package, workloads module) of ``checkout``, its package imported as ``name``."""
    shutil.copytree(checkout / "src" / "modnorm", root / name)
    package = importlib.import_module(name)
    spec = importlib.util.spec_from_file_location(
        f"workloads_{name}", checkout / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    # workloads.py binds ``import modnorm``: point that name at this side's copy
    saved = sys.modules.get("modnorm")
    sys.modules["modnorm"] = package
    try:
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["modnorm"]
        else:
            sys.modules["modnorm"] = saved
    return package, workloads


def shared_tables(package) -> list:
    """Every object in the package's modules that holds a keyed table of kept
    values (an ``_entries`` dict), found by attribute so any version works."""
    tables = []
    prefix = package.__name__ + "."
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith(prefix):
            tables += [v for v in vars(mod).values() if isinstance(getattr(v, "_entries", None), dict)]
    return tables


def time_pair(workloads, tables, pair, cfg, repeats: int) -> tuple[float, list[str], list]:
    """Least time over ``repeats`` cold runs, with the last run's texts and raw results."""
    best = float("inf")
    for _ in range(repeats):
        for table in tables:
            table._entries.clear()
        t0 = time.perf_counter()
        texts, raws = workloads.pair_operation(pair, cfg)
        best = min(best, time.perf_counter() - t0)
    return best, texts, raws


def count_lapack(workloads, tables, pair, cfg, counts: dict) -> None:
    """Add to ``counts`` the LAPACK calls, by kind, of one cold run of the pair.

    The wrappers go on ``numpy.linalg`` and on the module that holds its
    functions, where ``np.linalg.norm`` finds ``svd``.
    """
    for table in tables:
        table._entries.clear()
    modules = [np.linalg, sys.modules.get("numpy.linalg._linalg")]
    saved = []
    for kind in LAPACK:
        original = getattr(np.linalg, kind)

        def counting(*args, _kind=kind, _original=original, **kwargs):
            counts[_kind] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if module is not None and getattr(module, kind, None) is original:
                saved.append((module, kind, original))
                setattr(module, kind, counting)
    try:
        workloads.pair_operation(pair, cfg)
    finally:
        for module, kind, original in saved:
            setattr(module, kind, original)


def run_seed(sides: dict, workload: str, seed: int, repeats: int) -> dict:
    pool = sides["parent"][0].make_pool(workload, seed)
    totals = {side: 0.0 for side in SIDES}
    failures = {side: 0 for side in SIDES}
    calls = {side: dict.fromkeys(LAPACK, 0) for side in SIDES}
    differ = 0
    for i, pair in enumerate(pool):
        texts = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            workloads, tables, cfg = sides[side]
            seconds, texts[side], raws = time_pair(workloads, tables, pair, cfg, repeats)
            totals[side] += seconds
            failures[side] += bool(workloads.check_pair(pair, raws, cfg))
            count_lapack(workloads, tables, pair, cfg, calls[side])
        differ += texts["parent"] != texts["change"]
    return {"pairs": len(pool), "seconds": totals, "failures": failures, "differ": differ,
            "calls": calls}


def report(label: str, result: dict) -> str:
    rate = {side: result["pairs"] / result["seconds"][side] for side in SIDES}
    gain = rate["change"] / rate["parent"] - 1.0
    lines = [
        f"{label}: {result['pairs']} pairs, ops/s parent {rate['parent']:.1f} "
        f"change {rate['change']:.1f} ({gain:+.1%}); outputs differ on {result['differ']}; "
        f"ground-truth failures parent {result['failures']['parent']} "
        f"change {result['failures']['change']}"
    ]
    for side in SIDES:
        per_op = {kind: n / result["pairs"] for kind, n in result["calls"][side].items()}
        shown = " ".join(f"{kind} {value:.2f}" for kind, value in per_op.items())
        lines.append(f"  LAPACK calls per op, {side}: {shown} (all {sum(per_op.values()):.2f})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--repeats", type=int, default=3, help="cold runs per pair and side")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {}
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            package, workloads = load_side(checkout.resolve(), f"modnorm_{side}", Path(tmp))
            sides[side] = (workloads, shared_tables(package), package.ToleranceConfig())
        total = {"pairs": 0, "seconds": dict.fromkeys(SIDES, 0.0),
                 "failures": dict.fromkeys(SIDES, 0), "differ": 0,
                 "calls": {side: dict.fromkeys(LAPACK, 0) for side in SIDES}}
        for seed in args.seeds:
            result = run_seed(sides, args.workload, seed, args.repeats)
            print(report(f"seed {seed}", result), flush=True)
            total["pairs"] += result["pairs"]
            total["differ"] += result["differ"]
            for side in SIDES:
                total["seconds"][side] += result["seconds"][side]
                total["failures"][side] += result["failures"][side]
                for kind in LAPACK:
                    total["calls"][side][kind] += result["calls"][side][kind]
        print(report("all seeds", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
