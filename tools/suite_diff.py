"""Compare two ``modnorm suite all`` JSON outputs, suite by suite.

Usage: python tools/suite_diff.py before.json after.json

Cases are matched by ``pair_id``; the suite is the part before its first
slash.  Per suite it prints the number of verdict or ``consistent`` flips
(changed boolean fields), then each changed field with the number of cases
it changed in and its largest absolute change.  A case in one output only
counts as ``(case added or removed)``.  It exits 1 when any case, field or
failure count differs, and prints ``no differences`` and exits 0 otherwise.
"""

import json
import sys
from collections import defaultdict


def flatten(value, prefix=""):
    """{dotted path: leaf} of nested dicts; lists are leaves."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, sub in value.items():
        out.update(flatten(sub, f"{prefix}.{key}" if prefix else key))
    return out


def load(path):
    with open(path) as f:
        run = json.load(f)
    return {case["pair_id"]: flatten(case) for case in run["cases"]}, run["failures"]


def main(before_path, after_path):
    (before, failed_before), (after, failed_after) = load(before_path), load(after_path)
    changed = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    flips = defaultdict(int)
    for pid in sorted(before.keys() | after.keys()):
        suite, old, new = pid.split("/")[0], before.get(pid), after.get(pid)
        if old is None or new is None:
            changed[suite]["(case added or removed)"][0] += 1
            continue
        for key in old.keys() | new.keys():
            a, b = old.get(key), new.get(key)
            if a != b or type(a) is not type(b):
                changed[suite][key][0] += 1
                if isinstance(a, bool) or isinstance(b, bool):
                    flips[suite] += 1
                elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
                    changed[suite][key][1] = max(changed[suite][key][1], abs(b - a))
    if not changed and len(failed_before) == len(failed_after):
        print("no differences")
        return 0
    for suite in sorted(changed):
        print(f"{suite}: {flips[suite]} verdict or consistent flips")
        for key, (count, delta) in sorted(changed[suite].items()):
            print(f"  {key}: {count} changed, max |change| {delta:.3g}")
    print(f"failures: {len(failed_before)} -> {len(failed_after)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
