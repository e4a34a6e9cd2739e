"""Alternating A/B runs of the benchmark in two checkouts.

Usage: python tools/bench_ab.py PARENT CHANGE --workload duality --seeds 11 12 13 --runs 10
       [--seconds 34] [--trace 0|1]

PARENT and CHANGE are checkout directories, each with its own ``bench/run.py``.
Run i uses seed ``seeds[i % len(seeds)]`` and runs ``python bench/run.py`` once
in each checkout, parent first on even i and change first on odd i, so a drift
in the host's speed falls on both sides alike.  Only the last line of each
run's standard output is read: the JSON object with ``metrics``.  Each run is
printed as it ends; then, per metric, each side's median and quartiles, the
number of runs in which the change is better (direction from the change's
``BENCHMARK.json``), and whether the change's median beats the parent's by
more than the parent's interquartile range.  Each end-to-end metric also
gets a no-regression verdict against its ``bound`` (``verdict``).  It exits 1
if a run fails to print its JSON line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """``{metric: value}`` from one run of ``bench/run.py`` in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in last["metrics"].items()}


def metric_specs(checkout: Path) -> dict:
    """``{metric: (better, bound)}`` from the checkout's BENCHMARK.json: better
    is "higher" or "lower", and bound is None for a per-layer metric."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        m["name"]: (m["better"], m["bound"] if key == "end_to_end" else None)
        for key in ("end_to_end", "per_layer")
        for m in spec.get(key, [])
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """No-regression verdict of one end-to-end metric, ``sign`` 1 when higher
    is better and -1 when lower is.

    ``worse`` when the change's median is worse than the parent's by more than
    ``bound`` times the parent's median; otherwise ``unresolved`` when the
    parent's interquartile range exceeds that amount and not every change run
    beats every parent run; otherwise ``ok``.
    """
    (a1, am, a3), bm = quartiles(parent), statistics.median(change)
    allowed = bound * abs(am)
    if sign * (bm - am) < -allowed:
        return "worse"
    if a3 - a1 > allowed and min(sign * y for y in change) <= max(sign * x for x in parent):
        return "unresolved"
    return "ok"


def summarize(parent: list[dict], change: list[dict], specs: dict) -> list[str]:
    """One line per metric that both sides report in every run; ``specs`` as
    ``metric_specs`` returns it."""
    names = [n for n in change[0] if all(n in r for r in parent + change)]
    width = max(len(n) for n in names)
    out = [f"{'metric':<{width}}  {'parent median [q1, q3]':>36}  {'change median [q1, q3]':>36}"
           "  wins  beyond IQR  verdict"]
    for name in names:
        a, b = [r[name] for r in parent], [r[name] for r in change]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        way, bound = specs.get(name, (None, None))
        wins = beyond = judged = "-"
        if way is not None:
            sign = 1.0 if way == "higher" else -1.0
            wins = f"{sum(sign * (y - x) > 0 for x, y in zip(a, b))}/{len(a)}"
            beyond = "yes" if sign * (bm - am) > a3 - a1 else "no"
            if bound is not None:
                judged = verdict(a, b, sign, bound)
        out.append(
            f"{name:<{width}}  {am:12.6g} [{a1:10.6g}, {a3:10.6g}]  "
            f"{bm:12.6g} [{b1:10.6g}, {b3:10.6g}]  {wins:>4}  {beyond:<10} {judged}"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--runs", type=int, required=True, help="runs per side")
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.runs):
        seed = args.seeds[i % len(args.seeds)]
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                metrics = run_bench(sides[side], args.workload, seed, args.seconds, args.trace)
            except (RuntimeError, ValueError, KeyError) as exc:
                print(f"run {i} {side} seed {seed} failed: {exc}", file=sys.stderr)
                return 1
            runs[side].append(metrics)
            shown = " ".join(f"{k}={v:.6g}" for k, v in metrics.items() if "." not in k)
            print(f"run {i} {side:<6} seed {seed}: {shown or f'{len(metrics)} metrics'}", flush=True)
    print("\n".join(summarize(runs["parent"], runs["change"], metric_specs(sides["change"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
