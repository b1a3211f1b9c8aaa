"""Stage 3 — Monitor & Trigger: the filesystem crawler.

Section III stage 3 splits inference into "(i) monitoring the file system
for the creation of new files, and (ii) triggering the inference".  The
real-mode crawler polls a directory for freshly completed tile NetCDFs
(writers use temp-name + rename, so presence implies completeness) and
invokes a trigger callback for each new file, from a background thread.
Inference therefore overlaps preprocessing, exactly the asynchrony Fig. 6
shows.

Hardening:

* scans are serialized under a lock, so a concurrent ``scan_once`` and
  the background loop can never double-trigger the same file;
* ``.part`` temp files (a torn writer's litter) are explicitly skipped
  and counted, never triggered;
* an optional integrity ``gate`` (the run journal's manifest check) must
  approve each file before it triggers — a rejected file is *not* marked
  seen, so a producer that repairs it (a resumed re-preprocess) gets it
  triggered on a later scan.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Optional, Set

from repro.runtime import FailurePolicy, StageExecutor, WorkUnit

__all__ = ["DirectoryCrawler"]

# The name every published tile file has: ``tiles_<scene key>.nc``.
TILE_PREFIX = "tiles_"
TILE_SUFFIX = ".nc"


class DirectoryCrawler:
    """Poll a directory; trigger a callback once per new matching file."""

    def __init__(
        self,
        directory: str,
        trigger: Callable[[str], None],
        poll_interval: float = 0.2,
        gate: Optional[Callable[[str], bool]] = None,
        executor: Optional[StageExecutor] = None,
    ):
        if poll_interval <= 0:
            raise ValueError("poll interval must be positive")
        self.directory = directory
        self.trigger = trigger
        self.poll_interval = poll_interval
        self.gate = gate
        self.executor = executor
        self._partials: Set[str] = set()
        self._seen: Set[str] = set()
        self._scan_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.errors: List[str] = []

    # -- one-shot scan (usable without the thread) -------------------------

    def scan_once(self) -> List[str]:
        """Discover new files now; triggers for each. Returns new paths."""
        try:
            names = sorted(os.listdir(self.directory))
        except FileNotFoundError:
            return []
        fresh = []
        with self._scan_lock:
            for name in names:
                if name.endswith(".part"):
                    # A writer's temp file (or a torn writer's corpse):
                    # presence never implies completeness.
                    if name.startswith(TILE_PREFIX):
                        self._partials.add(name)
                    continue
                if not (name.startswith(TILE_PREFIX) and name.endswith(TILE_SUFFIX)):
                    continue
                path = os.path.join(self.directory, name)
                if path in self._seen:
                    continue
                if self.gate is not None and not self.gate(path):
                    # Integrity rejection: do not mark seen — a repaired
                    # file (resume rewrote it) triggers on a later scan.
                    continue
                self._seen.add(path)
                fresh.append(path)
        for path in fresh:
            self._dispatch(path)
        return fresh

    def _dispatch(self, path: str) -> None:
        """Fire the trigger; the crawler must survive a failing callback.

        With a stage executor the dispatch is a "monitor" work unit and
        the quarantine middleware records the failure; without one, a
        plain try/except does the same (standalone crawler usage).
        """
        if self.executor is None:
            try:
                self.trigger(path)
            except Exception as exc:  # noqa: BLE001 - crawler must survive
                self.errors.append(f"{path}: {exc}")
            return

        def body(ctx) -> None:
            self.trigger(path)

        self.executor.execute(
            WorkUnit(
                stage="monitor",
                key=os.path.basename(path),
                body=body,
                journal_phase="off",
                failure=FailurePolicy(
                    catch=(Exception,),
                    on_caught=lambda message: self.errors.append(f"{path}: {message}"),
                ),
            )
        )

    @property
    def partials_seen(self) -> int:
        """Distinct temp (.part) files observed and refused."""
        return len(self._partials)

    # -- background operation ------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("crawler already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="crawler", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.scan_once()
            self._stop.wait(self.poll_interval)
        self.scan_once()  # final sweep so nothing published pre-stop is missed

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise RuntimeError("crawler thread did not stop")
        self._thread = None

    def __enter__(self) -> "DirectoryCrawler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
