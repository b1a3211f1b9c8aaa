"""Horizontal scale-out: the stage worker that runs in pool processes.

The generic process machinery lives in :mod:`repro.runtime.proc` (which
must not know about stages); this module supplies the *stage-specific*
side: a picklable worker payload built from the workflow config, and a
:class:`StageWorker` that each worker process constructs once and then
drives for every :class:`~repro.runtime.proc.WorkEnvelope` it is handed.

A worker is a miniature site agent (the `repro.server` pattern): it
opens the run through the same :func:`~repro.core.context.open_run` the
driver and the agents use (always ``resume=True``, so re-deliveries and
post-crash requeues are idempotent), builds its own copy of each stage
under that context, and calls the stage's ``execute`` — the very entry
point the in-process threads call.  That is what keeps multi-worker
output byte-identical to the sequential golden corpus: the work bodies
are the same methods, the journal protocol is the same protocol, and
every artifact still lands via atomic rename.  The envelope kinds and
payloads are tabulated in ``docs/architecture.md`` ("Horizontal
scale-out").
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.core.config import EOMLConfig, load_config
from repro.core.context import open_run
from repro.core.download import DownloadStage
from repro.core.inference import InferenceWorker
from repro.core.preprocess import PreprocessStage
from repro.runtime.elastic import ElasticPolicy
from repro.runtime.proc import ProcWorkerPool, WorkEnvelope, WorkerSpec

__all__ = ["WORKER_TARGET", "StageWorker", "build_stage_worker", "build_pool"]

# The import-string address of the worker factory — what WorkerSpec
# carries across the process boundary instead of a closure.
WORKER_TARGET = "repro.core.scaleout:build_stage_worker"


def worker_payload(
    config: EOMLConfig, archive: Optional[Any] = None
) -> Dict[str, Any]:
    """The picklable seed a worker process rebuilds its world from.

    The raw config mapping (not the resolved :class:`EOMLConfig`) plus
    the resolved chaos plan: CLI overrides like ``--chaos`` mutate the
    resolved config only, so the plan is shipped explicitly and wins
    over whatever the raw mapping says.
    """
    return {
        "raw": dict(config.raw),
        "chaos": config.chaos,
        "archive": archive,
    }


class StageWorker:
    """One worker process's copies of the stages, built lazily per kind."""

    def __init__(self, payload: Dict[str, Any]):
        config = load_config(payload["raw"])
        self.config = dataclasses.replace(config, chaos=payload["chaos"])
        self.archive = payload.get("archive")
        self.ctx = open_run(self.config, resume=True)
        self._stages: Dict[str, Any] = {}

    def _build(self, kind: str) -> Any:
        """This process's copy of the stage ``kind`` names, on the same
        config the driver resolved, so sharded work can never disagree
        with the in-process plan about paths or knobs."""
        if kind == "download":
            return DownloadStage(self.config, self.ctx, archive=self.archive)
        if kind == "preprocess":
            # The reader stages granules in through this process's copy
            # of the download stage.
            download = self._stage("download")
            return PreprocessStage(self.config, self.ctx, stage_in=download.stage_in)
        if kind == "inference":
            # Each unit says how to obtain the model; the first one it
            # reaches loads it, and this copy of the stage keeps it.
            return InferenceWorker(None, self.config, self.ctx)
        raise ValueError(f"unknown envelope kind {kind!r}")

    def _stage(self, kind: str) -> Any:
        stage = self._stages.get(kind)
        if stage is None:
            stage = self._stages[kind] = self._build(kind)
        return stage

    def __call__(self, envelope: WorkEnvelope) -> Any:
        return self._stage(envelope.kind).execute(envelope.payload)

    def counters(self) -> Dict[str, float]:
        """Monotonic counters the pool ships back as per-envelope deltas:
        the context's (journal, store) plus what the stages hold."""
        out = self.ctx.counters()
        stages = list(self._stages.values())
        downloads = [s for s in stages if isinstance(s, DownloadStage)]
        out["breaker_trips"] = sum(s.breaker.opened_total for s in downloads)
        out["refetched_bytes"] = sum(s.refetched_bytes for s in downloads)
        return out


def build_stage_worker(payload: Dict[str, Any]) -> StageWorker:
    """The ``WorkerSpec.target`` factory."""
    return StageWorker(payload)


def build_pool(
    config: EOMLConfig,
    archive: Optional[Any] = None,
    policy: Optional[ElasticPolicy] = None,
) -> ProcWorkerPool:
    """The workflow's stage-worker pool (not yet started).

    An enabled ``runtime.elastic`` policy governs scale-out/in; otherwise
    the pool is pinned at ``runtime.workers`` processes.
    """
    if policy is None:
        policy = (
            config.elastic
            if config.elastic.enabled
            else ElasticPolicy.fixed(config.runtime_workers)
        )
    return ProcWorkerPool(
        WorkerSpec(target=WORKER_TARGET, payload=worker_payload(config, archive)),
        policy=policy,
        name="stage-workers",
        max_requeues=1,
    )
