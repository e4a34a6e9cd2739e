"""Set-up probe, run in a fresh interpreter by ``run.py``: import modnorm,
build the ToleranceConfig and generate the workload's inputs, then exit.

Usage: python bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import modnorm  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    modnorm.ToleranceConfig()
    workloads.make_pool(sys.argv[1], int(sys.argv[2]))
