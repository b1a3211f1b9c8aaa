"""Compare a fresh BENCH_*.json against the committed baseline.

    PYTHONPATH=src python benchmarks/baseline.py --quick --output-dir /tmp/bench
    python benchmarks/check_regression.py \
        --baseline benchmarks/baselines/BENCH_kernels.json \
        --candidate /tmp/bench/BENCH_kernels.json

Comparison is on the ``normalized`` values (kernel seconds divided by a
calibration matmul timed in the same process), so a baseline recorded on
one machine transfers to another.  Exit status 1 when any gated kernel
is more than ``--threshold`` (default 20 %) slower than baseline, or is
missing (or no longer measurable) in the candidate.  Baseline entries
whose ``normalized`` is ``0.0`` cannot be gated by a ratio and are listed
as ``ungated``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def compare(baseline: dict, candidate: dict, threshold: float) -> List[str]:
    failures: List[str] = []
    if baseline.get("schema_version") != candidate.get("schema_version"):
        failures.append(
            f"schema mismatch: baseline v{baseline.get('schema_version')} "
            f"vs candidate v{candidate.get('schema_version')}"
        )
        return failures
    if baseline.get("quick") != candidate.get("quick"):
        failures.append(
            "quick-mode mismatch: baseline and candidate were run at "
            "different sizes and cannot be compared"
        )
        return failures
    base_marks = baseline.get("benchmarks", {})
    cand_marks = candidate.get("benchmarks", {})
    for name in sorted(base_marks):
        if base_marks[name].get("reference"):
            # Naive-implementation yardsticks: run with few repeats, too
            # noisy to gate on, and a regression there is not a product
            # regression anyway.
            continue
        if name not in cand_marks:
            failures.append(f"{name}: missing from candidate run")
            continue
        ref = base_marks[name].get("normalized")
        new = cand_marks[name].get("normalized")
        if not ref:
            # No ratio can be formed against a zero (or absent) baseline:
            # say so, rather than pass in silence.
            print(f"  {'ungated':7s} {name:32s} baseline norm {ref!r}, candidate {new!r}")
            continue
        if not new:
            failures.append(
                f"{name}: gated in the baseline (norm {ref:.3f}) but the "
                f"candidate reports {new!r}"
            )
            continue
        ratio = new / ref
        marker = "FAIL" if ratio > 1.0 + threshold else "ok"
        print(f"  {marker:7s} {name:32s} {ratio:6.2f}x baseline "
              f"(norm {ref:.3f} -> {new:.3f})")
        if ratio > 1.0 + threshold:
            failures.append(
                f"{name}: {ratio:.2f}x baseline exceeds the "
                f"{1.0 + threshold:.2f}x regression threshold"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional slowdown (default 0.20)")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.candidate) as handle:
        candidate = json.load(handle)

    failures = compare(baseline, candidate, args.threshold)
    if failures:
        print("\nperformance regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("\nno regression beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
