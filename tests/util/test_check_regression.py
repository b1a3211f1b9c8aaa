"""``benchmarks/check_regression.compare``: nothing is skipped in silence."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "check_regression", os.path.join(ROOT, "benchmarks", "check_regression.py")
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def bench(**marks):
    return {
        "schema_version": 1,
        "quick": True,
        "benchmarks": {name: {"normalized": value} for name, value in marks.items()},
    }


def test_zero_baseline_is_reported_as_ungated(capsys):
    failures = check_regression.compare(
        bench(kernel=1.0, campaign_cache=0.0), bench(kernel=1.1, campaign_cache=0.0), 0.2
    )
    assert failures == []
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split()[:2] == ["ungated", "campaign_cache"] for line in lines)
    assert any(line.split()[:2] == ["ok", "kernel"] for line in lines)


def test_gated_entry_that_stops_reporting_fails():
    failures = check_regression.compare(
        bench(kernel=1.0, other=2.0), bench(kernel=0.0), 0.2
    )
    assert len(failures) == 2
    assert any(f.startswith("kernel: gated in the baseline") for f in failures)
    assert any(f.startswith("other: missing from candidate run") for f in failures)


def test_regression_beyond_threshold_still_fails():
    assert check_regression.compare(bench(kernel=1.0), bench(kernel=1.19), 0.2) == []
    failures = check_regression.compare(bench(kernel=1.0), bench(kernel=1.3), 0.2)
    assert len(failures) == 1 and "1.30x baseline" in failures[0]
