"""Wire codecs: the cross-process serialization of stage state.

A site agent executes one plan node per lease, usually in a different
process (often a different machine) from the agent that ran the node's
dependencies.  In-process, a node hands its output downstream as the
tokens it writes on its plan ``stream`` edges; across processes those
tokens must be bytes.  This module is the schema of that hand-off: a
unit's **token log** — every token it wrote, in order, as plain JSON —
written atomically beside the run journal so a requeued unit reloads
exactly what its producer wrote.

Only *structural* tokens travel — the planned scene keys, each scene's
granule-set key, paths and granule digests, the model's source (the
path of its persisted file), each tile file's path and digest, labelled
file names, plus the model units' consumed-scene cursor.  Bulk
artifacts (granule files, tile files, the bootstrapped model) stay on
the shared filesystem the submitted config points at, guarded by the
integrity manifest and the announced digests — or, for a granule a
download found in the store, in the store until a reader stages it in.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List

from repro.core.download import GranuleSet
from repro.util.digest import atomic_publish_bytes

__all__ = [
    "STATE_DIRNAME",
    "tokens_to_wire",
    "tokens_from_wire",
    "state_dir",
    "load_state",
    "save_state",
]

# Node-state files live beside the run journal: <journal_dir>/units/*.json
STATE_DIRNAME = "units"


def tokens_to_wire(tokens: Iterable[Any]) -> List[Any]:
    """Stream tokens as JSON: a tuple becomes a list and a
    :class:`GranuleSet` a ``{key, paths, digests}`` mapping; anything
    else (a list of planned keys, a model source, a labelled file's name
    and digest) is already JSON."""
    return [
        [
            {"key": part.key, "paths": dict(part.paths), "digests": dict(part.digests)}
            if isinstance(part, GranuleSet)
            else part
            for part in token
        ]
        if isinstance(token, tuple)
        else token
        for token in tokens
    ]


def tokens_from_wire(wire: Iterable[Any]) -> List[Any]:
    """The inverse of :func:`tokens_to_wire`."""
    return [
        tuple(GranuleSet(**part) if isinstance(part, dict) else part for part in token)
        if isinstance(token, list)
        else token
        for token in wire
    ]


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
