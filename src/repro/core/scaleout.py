"""Horizontal scale-out: the stage worker that runs in pool processes.

The generic process machinery lives in :mod:`repro.runtime.proc` (which
must not know about stages); this module supplies the *stage-specific*
side: a picklable worker payload built from the workflow config, and a
:class:`StageWorker` that each worker process constructs once and then
drives for every :class:`~repro.runtime.proc.WorkEnvelope` it is handed.

A worker is a miniature site agent (the `repro.server` pattern): it
rebuilds its own stage contexts from the raw config mapping, opens the
shared run journal with ``resume=True`` so re-deliveries and post-crash
requeues are idempotent, and executes each envelope through the exact
same :class:`~repro.runtime.executor.StageExecutor` middleware the
single-process path uses.  That is what keeps multi-worker output
byte-identical to the sequential golden corpus: the work bodies are the
same functions, the journal protocol is the same protocol, and every
artifact still lands via atomic rename.

Envelope kinds and their sharding keys:

================== ================== ====================================
kind               key                payload
================== ================== ====================================
download[@inst]    granule filename   instrument granule ref
preprocess[@inst]  scene key          :class:`~repro.core.download.GranuleSet`
inference[@branch] tile-file basename ``(tile_path, model_ref)``
================== ================== ====================================

The optional ``@`` suffix carries the fan-out branch: an instrument name
for download/preprocess, an ``<instrument>+<model>`` tag for inference.
The worker resolves every kind to its config slice through
:func:`repro.core.branches.unit_slice` — the same function the drivers
use, for which a bare kind is simply the single branch's root config —
so sharded work can never disagree with the in-process plan about paths
or knobs.

``model_ref`` is ``("path", path)`` — each worker loads and caches the
model once, through the branch's registered model type — or
``("object", model)`` when no model file exists (the model itself is
pickled across; still cached on first use).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, Optional, Tuple

from repro.chaos import build_injector
from repro.core.artifact_cache import open_store
from repro.core.branches import unit_slice
from repro.core.config import EOMLConfig, load_config
from repro.core.download import DownloadStage
from repro.core.inference import InferenceWorker
from repro.core.preprocess import preprocess_granule_set
from repro.instruments.registry import get_model
from repro.journal import WorkflowJournal
from repro.runtime import build_executor
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
    """One worker process's stage contexts, built lazily per kind."""

    def __init__(self, payload: Dict[str, Any]):
        config = load_config(payload["raw"])
        self.config = dataclasses.replace(config, chaos=payload["chaos"])
        # An injected archive only stands in for the *primary* instrument
        # (it was built for one instrument's granule grammar); other
        # branches let DownloadStage build theirs from the registry.
        self.archive = payload.get("archive")
        self.chaos = build_injector(self.config.chaos)
        self.journal: Optional[WorkflowJournal] = None
        if self.config.journal_enabled:
            self.journal = WorkflowJournal(
                self.config.journal_dir, durable=self.config.journal_durable
            )
            # resume=True is the idempotency contract: a requeued envelope
            # whose first attempt completed (journal + manifest verify)
            # resumes instead of re-running, and a mid-flight crash is
            # replayed from scratch — same rules as the site agents.
            self.journal.start(resume=True)
        # Each worker process opens its own handle on the *shared* CAS
        # directory (branch configs inherit the root ``cache_dir``) —
        # the store's atomic publish protocol makes concurrent handles
        # safe, so pool workers dedupe into the same object space as the
        # parent and the co-located site agents.
        self.cache = open_store(self.config, chaos=self.chaos)
        self._downloads: Dict[str, DownloadStage] = {}
        self._preprocess_executor = None
        self._inference: Dict[str, InferenceWorker] = {}
        self._models: Dict[str, Any] = {}

    # -- per-kind contexts ----------------------------------------------------

    def _ensure_download(self, tag: str, cfg: EOMLConfig) -> DownloadStage:
        if tag not in self._downloads:
            primary = cfg.instrument == self.config.instruments[0]
            os.makedirs(cfg.staging, exist_ok=True)
            self._downloads[tag] = DownloadStage(
                cfg,
                archive=self.archive if primary else None,
                chaos=self.chaos,
                journal=self.journal,
                cache=self.cache,
            )
        return self._downloads[tag]

    def _ensure_preprocess_executor(self):
        if self._preprocess_executor is None:
            self._preprocess_executor = build_executor(
                journal=self.journal, chaos=self.chaos, cache=self.cache
            )
        return self._preprocess_executor

    def _load_model(self, tag: str, cfg: EOMLConfig, model_ref: Tuple[str, Any]) -> Any:
        if tag not in self._models:
            mode, value = model_ref
            if mode == "path":
                self._models[tag] = get_model(cfg.model_name).load(value)
            else:
                self._models[tag] = value
        return self._models[tag]

    def _ensure_inference(
        self, tag: str, cfg: EOMLConfig, model_ref: Tuple[str, Any]
    ) -> InferenceWorker:
        if tag not in self._inference:
            # batch_files=1 keeps per-file labels byte-identical to the
            # in-process micro-batched path (the PR 2 equivalence
            # guarantee); the worker is never start()ed — _process_batch
            # runs synchronously on the envelope loop.
            self._inference[tag] = InferenceWorker(
                self._load_model(tag, cfg, model_ref),
                cfg,
                chaos=self.chaos,
                batch_files=1,
                journal=self.journal,
                cache=self.cache,
            )
        return self._inference[tag]

    # -- envelope execution ---------------------------------------------------

    def __call__(self, envelope: WorkEnvelope) -> Any:
        base, tag, cfg = unit_slice(self.config, envelope.kind)
        if base == "download":
            return self._ensure_download(tag, cfg)._fetch_one(envelope.payload)
        if base == "preprocess":
            granules = envelope.payload
            return preprocess_granule_set(
                granules,
                cfg.preprocessed,
                cfg.tile_size,
                cfg.cloud_threshold,
                cfg.max_land_fraction,
                executor=self._ensure_preprocess_executor(),
                instrument=cfg.instrument,
                coarse_stride=cfg.coarse_stride,
            )
        if base == "inference":
            return self._infer(tag, cfg, envelope.payload)
        raise ValueError(f"unknown envelope kind {envelope.kind!r}")

    def _infer(
        self, tag: str, cfg: EOMLConfig, payload: Tuple[str, Tuple[str, Any]]
    ) -> Tuple[str, Any]:
        """Label one tile file; returns a tagged outcome tuple.

        The quarantine move (when the file is bad) happens here in the
        worker; the parent only records it.  Tags: ``("result", res)``,
        ``("quarantined", msg)``, ``("error", msg)``.
        """
        path, model_ref = payload
        worker = self._ensure_inference(tag, cfg, model_ref)
        results_before = len(worker.results)
        quarantined_before = len(worker.quarantined)
        errors_before = len(worker.errors)
        worker._process_batch([path])
        if len(worker.quarantined) > quarantined_before:
            return ("quarantined", worker.quarantined[-1].error)
        if len(worker.results) > results_before:
            return ("result", worker.results[-1])
        if len(worker.errors) > errors_before:
            message = worker.errors[-1]
            prefix = f"{path}: "
            if message.startswith(prefix):
                message = message[len(prefix):]
            return ("error", message)
        return ("error", f"inference produced no outcome for {path}")

    def counters(self) -> Dict[str, float]:
        """Monotonic counters the pool ships back as per-envelope deltas."""
        out: Dict[str, float] = {}
        if self.journal is not None:
            out.update({k: float(v) for k, v in self.journal.counters().items()})
        if self._downloads:
            out["breaker_trips"] = float(
                sum(stage.breaker.opened_total for stage in self._downloads.values())
            )
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
