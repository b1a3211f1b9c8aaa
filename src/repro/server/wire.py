"""Wire codecs: the cross-process serialization of stage state.

A site agent executes one plan node per lease, usually in a different
process (often a different machine) from the agent that ran the node's
dependencies.  In-process execution threads stage outputs through the
plan's shared ``state`` dict; across processes those outputs must be
bytes.  This module is the schema of that hand-off: plain-JSON codecs
for the stage objects that cross a unit boundary, written atomically
beside the run journal so a requeued unit reloads exactly what its
predecessor published.

Only the *structural* outputs travel — granule-set keys and paths,
counters, the consumed-scene cursor.  Bulk artifacts (granule files,
tile files, the bootstrapped model) stay on the shared filesystem the
submitted config points at, guarded by the integrity manifest.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from repro.core.download import DownloadReport, GranuleSet
from repro.util.digest import atomic_publish_bytes

__all__ = [
    "STATE_DIRNAME",
    "download_report_to_wire",
    "download_report_from_wire",
    "state_dir",
    "load_state",
    "save_state",
]

# Node-state files live beside the run journal: <journal_dir>/units/*.json
STATE_DIRNAME = "units"


def download_report_to_wire(report: DownloadReport) -> Dict[str, Any]:
    """Flatten a :class:`DownloadReport` into a JSON-safe mapping."""
    return {
        "granule_sets": [
            {"key": gs.key, "paths": dict(gs.paths)}
            for gs in report.granule_sets
        ],
        "files": report.files,
        "nbytes": report.nbytes,
        "seconds": report.seconds,
        "per_file_seconds": list(report.per_file_seconds),
        "skipped": report.skipped,
        "resumed": report.resumed,
        "retried": report.retried,
        "retry_attempts": report.retry_attempts,
        "failed": list(report.failed),
        "incomplete": list(report.incomplete),
        "breaker_trips": report.breaker_trips,
    }


def download_report_from_wire(wire: Dict[str, Any]) -> DownloadReport:
    return DownloadReport(
        granule_sets=[
            GranuleSet(key=gs["key"], paths=dict(gs["paths"]))
            for gs in wire["granule_sets"]
        ],
        files=int(wire["files"]),
        nbytes=int(wire["nbytes"]),
        seconds=float(wire["seconds"]),
        per_file_seconds=[float(s) for s in wire.get("per_file_seconds", [])],
        skipped=int(wire.get("skipped", 0)),
        resumed=int(wire.get("resumed", 0)),
        retried=int(wire.get("retried", 0)),
        retry_attempts=int(wire.get("retry_attempts", 0)),
        failed=list(wire.get("failed", [])),
        incomplete=list(wire.get("incomplete", [])),
        breaker_trips=int(wire.get("breaker_trips", 0)),
    )


def state_dir(journal_dir: str) -> str:
    return os.path.join(journal_dir, STATE_DIRNAME)


def save_state(journal_dir: str, unit: str, payload: Dict[str, Any]) -> str:
    """Atomically publish one node's cross-unit state."""
    directory = state_dir(journal_dir)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{unit}.json")
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    atomic_publish_bytes(path, blob)
    return path


def load_state(journal_dir: str, unit: str) -> Dict[str, Any]:
    """Load a node's published state; raises if the dependency never ran."""
    path = os.path.join(state_dir(journal_dir), f"{unit}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"unit {unit!r} has not published its state at {path} — its "
            "work-unit must complete (on a filesystem this agent shares) "
            "before dependents run"
        ) from None
