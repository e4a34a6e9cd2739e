#!/usr/bin/env python3
"""modnorm benchmark: closed-loop pair operations on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

One client in one process sends one pair at a time; the next pair starts
only after the previous one is done.  A pair operation runs every decider
the pair's family names and serializes each result with ``canonical_json``,
which is what a command-line user receives.  Ground truth is checked after
each operation, outside the timed region, and a failed operation does not
stop the run.

``--trace 0`` prints the end-to-end metrics, and as comment lines the p95
latency and ``cold_check_s``, the wall time of a fresh ``python -m
modnorm.cli check`` on one pair of the workload (see ``printed_only``).
``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics (see
``tracer.py``), including the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit and sample count, and the run environment.  Result and span files go
to ``.bench_out/`` in the repository root.

``correct`` is false when any operation failed.  The timed pools avoid the
scales at which the known defect named in ``workloads.classify`` shows; the
traced run checks the probe pairs that show it, untimed, and reports the
share the program gets right as ``probe.small_scale_ok_share``.

Tests of the benchmark itself: python3 -m pytest bench/test_bench.py
"""

import os

# One BLAS / OpenMP thread in this process and every child it starts: the
# matrices are at most 8 x 8.  Must precede the first numpy import.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The timed loop runs in SEGMENTS parts.  After each part one fresh process
# runs, untimed: a set-up probe after even parts, a cold check after odd ones,
# so their samples span the run and not one phase of the host's speed.
SEGMENTS = 6
WARMUP_OPS = 6
CHILD_TIMEOUT_S = 60

PROBE_METRIC = "probe.small_scale_ok_share"

END_TO_END_UNITS = {
    "pairs_per_s": "1/s",
    "pair_ms_p50": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _load_program():
    """Put the checkout's ``src`` first on the path and import modnorm from it."""
    if not (SRC / "modnorm" / "__init__.py").is_file():
        sys.exit(f"error: no modnorm sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import modnorm

    if not Path(modnorm.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: modnorm was imported from {modnorm.__file__}, not {SRC}")
    return modnorm


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Tally:
    """Attempted and failed operations, with failures sorted by cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known: Counter = Counter()
        self.unexplained: list[str] = []

    def record(self, what: str, cause: str | None, detail: str) -> None:
        self.failed += 1
        if cause is None:
            self.unexplained.append(f"{what}: {detail}")
        else:
            self.known[cause] += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known.update(other.known)
        self.unexplained += other.unexplained


def run_loop(workloads, pool, cfg, seconds: float, tally: Tally, tracer=None, start: int = 0):
    """Closed loop over the pool for ``seconds``, from pool index ``start``;
    returns (latencies, dims)."""
    latencies: list[float] = []
    dims: list[int] = []
    clock = time.perf_counter
    gc.collect()
    deadline = clock() + seconds
    i = start
    while clock() < deadline:
        pair = pool[i % len(pool)]
        i += 1
        if tracer is not None:
            tracer.op = len(latencies)
            tracer.active = True
        exc = None
        t0 = clock()
        try:
            _, raws = workloads.pair_operation(pair, cfg)
        except Exception as err:  # a decider raised: count it, keep going
            exc = err
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        latencies.append(t1 - t0)
        dims.append(pair.n)
        check(workloads, pair, raws, exc, cfg, tally)
    return latencies, dims


def check(workloads, pair, raws, exc, cfg, tally: Tally) -> None:
    """Count one attempted operation and record it as failed if it raised or
    broke a ground-truth check."""
    tally.attempted += 1
    problems: list[str] = []
    if exc is None:
        try:
            problems = workloads.check_pair(pair, raws, cfg)
        except Exception as err:  # output the checks cannot even read
            problems = [f"check raised {type(err).__name__}: {err}"]
    if exc is not None or problems:
        what = f"{pair.family} n={pair.n} k={pair.k}"
        detail = repr(exc) if exc is not None else ", ".join(problems)
        tally.record(what, workloads.classify(pair, exc), detail)


def run_probe(workloads, pairs, cfg) -> Tally:
    """Run and check each probe pair once, untimed."""
    tally = Tally()
    for pair in pairs:
        exc = raws = None
        try:
            _, raws = workloads.pair_operation(pair, cfg)
        except Exception as err:
            exc = err
        check(workloads, pair, raws, exc, cfg, tally)
    return tally


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports modnorm, builds the config
    and generates the workload's inputs."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed


class ColdCheck:
    """A fresh ``python -m modnorm.cli check`` on one pair written to JSON."""

    def __init__(self, modnorm, workloads, pair, seed: int) -> None:
        self.workloads, self.pair = workloads, pair
        self.decider = next(d for d in pair.deciders if d in workloads.CLI_KIND)
        self.kind = workloads.CLI_KIND[self.decider]
        self.work = OUT / f"cold-{pair.workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        xp, yp = self.work / "x.json", self.work / "y.json"
        modnorm.save_matrix(pair.x, xp)
        modnorm.save_matrix(pair.y, yp)
        self.argv = [sys.executable, "-m", "modnorm.cli", "check", self.kind, str(xp), str(yp)]

    def __enter__(self) -> "ColdCheck":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def run(self, tally: Tally) -> float:
        """Wall time of one check; its outcome is counted in ``tally``."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            self.argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        elapsed = time.perf_counter() - t0
        want = self.pair.expect.get(self.decider)
        problem = None
        if proc.returncode not in (0, 1):
            problem = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        elif want is not None and proc.returncode != (0 if want else 1):
            problem = f"{self.decider}:verdict"
        else:
            try:
                json.loads(proc.stdout)
            except json.JSONDecodeError:
                problem = "report is not JSON"
        tally.attempted += 1
        if problem:
            pair = self.pair
            cause = self.workloads.classify(pair, None) if proc.returncode in (0, 1) else None
            tally.record(f"cold check {self.kind} n={pair.n} k={pair.k}", cause, problem)
        return elapsed


def latency_metrics(latencies: list[float]) -> dict:
    import numpy as np

    lat_ms = np.asarray(latencies) * 1e3
    return {
        "pairs_per_s": len(latencies) / float(np.sum(latencies)),
        "pair_ms_p50": float(np.percentile(lat_ms, 50)),
    }


def printed_only(latencies: list[float], cold_times: list[float]) -> list[str]:
    """Comment lines for two metrics that are printed but not gated.  Their
    run-to-run spread on a 2-vCPU VM reached the largest bound a metric may
    have: duality's p95 sits in a flat tail above p90, and a cold check is a
    fresh interpreter, as noisy as ``setup_s``, which gates start-up cost."""
    import numpy as np

    p95 = float(np.percentile(latencies, 95)) * 1e3
    beyond = sum(1 for v in latencies if v * 1e3 > p95)
    return [
        f"# pair_ms_p95 {p95:.6g} ms (n={len(latencies)}, {beyond} beyond p95; printed only)",
        f"# cold_check_s {statistics.median(cold_times):.6g} s "
        f"(median of {len(cold_times)} fresh processes; printed only)",
    ]


def trace_metrics(plain: list[float], traced: list[float]) -> dict:
    """Tracing overhead: throughput of the untraced and the traced half."""
    untraced_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    return {
        "trace.ops": float(len(traced)),
        "trace.pairs_per_s_untraced": untraced_rate,
        "trace.pairs_per_s_traced": traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
    }


def per_layer_unit(name: str) -> str:
    if name.startswith("median_ms."):
        return "ms"
    if name.startswith("trace.pairs_per_s"):
        return "1/s"
    if name == "trace.ops":
        return "count"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("self_s"):
        return "s/op"
    return "count/op"


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in output order."""
    import tracer

    return [*tracer.aggregate([], [], 0.0), *trace_metrics([1.0], [1.0]), PROBE_METRIC]


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<48} {value:>14.6g} {unit:<9}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modnorm = _load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    env = environment()
    cfg = modnorm.ToleranceConfig()
    pool = workloads.make_pool(args.workload, args.seed)
    tally = Tally()
    print("# env " + json.dumps(env, sort_keys=True))

    for pair in pool[:WARMUP_OPS]:  # lazy imports and first-call set-up
        try:
            workloads.pair_operation(pair, cfg)
        except Exception:
            pass

    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    if args.trace == 0:
        latencies: list[float] = []
        setup_times: list[float] = []
        cold_times: list[float] = []
        cold_tally = Tally()
        with ColdCheck(modnorm, workloads, pool[0], args.seed) as cold:
            for segment in range(SEGMENTS):
                part, _ = run_loop(
                    workloads, pool, cfg, args.seconds / SEGMENTS, tally, start=len(latencies)
                )
                latencies += part
                if segment % 2 == 0:
                    setup_times.append(time_setup(args.workload, args.seed))
                else:
                    cold_times.append(cold.run(cold_tally))
        metrics.update(latency_metrics(latencies))
        notes = {
            "pairs_per_s": f"n={len(latencies)} pair operations",
            "pair_ms_p50": f"n={len(latencies)}",
        }
        print("\n".join(printed_only(latencies, cold_times)))
        metrics["ok_share"] = (len(latencies) - tally.failed) / len(latencies)
        notes["ok_share"] = (
            f"{tally.failed} of {len(latencies)} failed, failed share {1 - metrics['ok_share']:.4f}"
        )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = statistics.median(setup_times)
        notes["setup_s"] = f"median of {len(setup_times)} fresh interpreters"
        tally.merge(cold_tally)
        units = END_TO_END_UNITS
    else:
        import tracer as tracing

        half = args.seconds / 2
        plain, _ = run_loop(workloads, pool, cfg, half, tally)
        tr = tracing.Tracer()
        missing = tr.install()
        try:
            traced, dims = run_loop(workloads, pool, cfg, half, tally, tracer=tr)
        finally:
            tr.uninstall()
        if missing:
            print("# not traced (absent): " + ", ".join(missing))
        metrics.update(tracing.aggregate(tr.spans, dims, float(sum(traced))))
        metrics.update(trace_metrics(plain, traced))
        notes = {name: f"n={len(traced)} traced operations" for name in metrics}
        notes["trace.pairs_per_s_untraced"] = f"n={len(plain)} untraced operations"
        probe = run_probe(workloads, workloads.make_probe_pool(args.seed), cfg)
        metrics[PROBE_METRIC] = 1.0 - probe.failed / probe.attempted
        notes[PROBE_METRIC] = (
            f"{probe.failed} of {probe.attempted} pairs at k in "
            f"[{workloads.PROBE_SCALES[0]}, {workloads.PROBE_SCALES[-1]}] failed, "
            f"known={dict(probe.known)} unexplained={len(probe.unexplained)} (untimed, not in 'failed')"
        )
        tr.write(OUT / f"spans-{args.workload}-{args.seed}.csv")
        units = {name: per_layer_unit(name) for name in metrics}

        print("# per-call median (ms) at n = 4 / n = 8, inclusive of callees")
        for func in tracing.MEDIAN_CALLS:
            n4, n8 = (metrics[f"median_ms.{func}.n{d}"] for d in tracing.MEDIAN_DIMS)
            if n4 or n8:
                print(f"#   {func:<26} {n4:9.3f} {n8:9.3f}")

    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"pool={len(pool)} attempted={tally.attempted} failed={tally.failed} "
        f"known={dict(tally.known)} unexplained={len(tally.unexplained)}"
    )
    for line in tally.unexplained[:20]:
        print(f"# unexplained failure: {line}")
    for name, value in metrics.items():
        _print_metric(name, value, units[name], notes.get(name, ""))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "known_failures": dict(tally.known),
        "unexplained_failures": tally.unexplained, **result,
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
