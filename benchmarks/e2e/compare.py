#!/usr/bin/env python3
"""Compare two sets of end-to-end results under the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

``A_DIR`` and ``B_DIR`` are ``--out`` directories of ``run.py`` (one
``<workload>.json`` per workload).  One row per (workload, metric):

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is, and every repeat of B reads worse than every repeat of A;
* ``unresolved``  it is, but the two min-max ranges overlap, so run-to-run
                  spread (not the code) may explain the difference.

Refuses to compare results taken on different work-directory filesystems,
core counts, seeds or input sizes.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MUST_MATCH = ("workdir_fs", "nproc", "seed", "quick")


def load_results(directory: str) -> Dict[str, Dict[str, Any]]:
    results = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json") and not name.endswith(("-traced.json", "-trace.json")):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                record = json.load(handle)
            results[record["workload"]] = record
    return results


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, float]:
    """``(verdict, relative change of the median, positive = worse)``."""
    name, lower_better = metric["name"], metric["better"] == "lower"
    a_med, b_med = a["end_to_end"][name], b["end_to_end"][name]
    change = (b_med - a_med) / a_med if lower_better else (a_med - b_med) / a_med
    if change <= metric["bound"]:
        return "ok", change
    a_range, b_range = a["samples"].get(name), b["samples"].get(name)
    if a_range is None or b_range is None:
        return "worse", change   # one reading per run (peak RSS): nothing to overlap
    separated = (
        b_range["min"] > a_range["max"] if lower_better else b_range["max"] < a_range["min"]
    )
    return ("worse" if separated else "unresolved"), change


def compare(a_dir: str, b_dir: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics: List[Dict[str, Any]] = json.load(handle)["end_to_end"]
    a_all, b_all = load_results(a_dir), load_results(b_dir)
    shared = [name for name in a_all if name in b_all]
    if not shared:
        print("error: the two directories share no workload", file=sys.stderr)
        return 2
    for name in shared:
        for key in MUST_MATCH:
            if a_all[name][key] != b_all[name][key]:
                print(
                    f"error: {name}: {key} differs ({a_all[name][key]!r} vs "
                    f"{b_all[name][key]!r}); these results are not comparable",
                    file=sys.stderr,
                )
                return 2
    worse = 0
    print(f"{'workload':14s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for name in shared:
        for metric in metrics:
            result, change = verdict(metric, a_all[name], b_all[name])
            worse += result == "worse"
            print(
                f"{name:14s} {metric['name']:18s} "
                f"{a_all[name]['end_to_end'][metric['name']]:12.4f} "
                f"{b_all[name]['end_to_end'][metric['name']]:12.4f} "
                f"{100 * change:+7.1f}% {100 * metric['bound']:5.0f}%  {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
