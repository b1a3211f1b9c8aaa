"""The end-to-end EO-ML workflow (real execution).

Orchestrates the five stages of Fig. 2 on this machine, preserving the
paper's structural properties:

* the **download barrier** — preprocessing starts only after every
  download has completed (HDF partial-read protection);
* the **asynchronous monitor-trigger** — the crawler and inference worker
  run concurrently with preprocessing, so labelling begins before tiling
  finishes (Fig. 6's overlap);
* **per-stage worker accounting** on a wall-clock timeline (Figs. 6-7).

Those properties are stated declaratively: :meth:`EOMLWorkflow.build_plan`
returns one :class:`~repro.runtime.plan.PipelinePlan` whose ``stream``
edges carry scenes and labelled files and whose ``overlaps`` edge opens
the monitor/inference concurrency window, and :meth:`run` merely drives
it with :class:`~repro.runtime.plan.PlanRunner` (each stream edge a
barrier) or, when ``runtime.stream`` is enabled,
:class:`~repro.runtime.plan.StreamingPlanRunner` (a pipeline).

The inference model may be supplied (a trained model instance) or
bootstrapped: with ``model=None`` the workflow trains a small atlas on
the first preprocessed tiles before labelling (handy for examples; a
production run would load a model trained on the 1 M-tile corpus).
Model types — like instruments — come from :mod:`repro.instruments`'s
registry, and a config naming several instruments or models fans the
plan out into per-``<instrument>+<model>`` branches.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.cas import CACHE_COUNTERS
from repro.core.branches import (
    branch_config,
    expand_branches,
    instrument_config,
    is_fanout,
    key_prefix,
    model_slot,
    split_unit,
    unit_name,
)
from repro.core.config import EOMLConfig
from repro.core.context import RunContext, open_run
from repro.core.download import DownloadReport, DownloadStage, GranuleSet
from repro.core.inference import InferenceResult, InferenceWorker, set_aside
from repro.core.monitor import DirectoryCrawler
from repro.core.preprocess import PreprocessReport, PreprocessStage, QuarantineRecord
from repro.core.shipment import ShipmentReport, ShipmentStage
from repro.core.timeline import StageBreakdown, WallClockTimeline
from repro.instruments.registry import get_model
from repro.journal import WorkflowJournal
from repro.netcdf import read as nc_read
from repro.provenance import ProvenanceStore
from repro.runtime import (
    STREAMS_KEY,
    PipelinePlan,
    PlanRunner,
    StageNode,
    StreamingPlanRunner,
)
from repro.runtime.proc import PoolStats
from repro.telemetry import MetricsRegistry

__all__ = ["PARTITION_COUNTERS", "WorkflowReport", "EOMLWorkflow", "merge_reports"]

# The degraded-mode counter schema shared by the local report (structural
# zeros), the site agent's stats, and the server's /metrics namespace.
PARTITION_COUNTERS = (
    "disconnects",
    "reconnect_attempts",
    "outbox_spooled",
    "outbox_replayed",
    "fenced_rejections",
)


@dataclass
class WorkflowReport:
    """Everything one end-to-end run produced."""

    download: DownloadReport
    preprocess: PreprocessReport
    inference: List[InferenceResult]
    shipment: Optional[ShipmentReport]
    breakdown: List[StageBreakdown] = field(default_factory=list)
    timeline: Optional[WallClockTimeline] = None
    errors: List[str] = field(default_factory=list)
    provenance: Optional[ProvenanceStore] = None
    metrics: Optional[MetricsRegistry] = None
    chaos: Optional[Dict[str, object]] = None  # injector summary, if chaos ran
    inference_quarantined: List = field(default_factory=list)
    # Resilience counters from the run journal (zeros when journaling
    # is off or the run started fresh with nothing to reuse).
    resumed_items: int = 0
    replayed_items: int = 0
    manifest_mismatches: int = 0
    journal: Optional[Dict[str, object]] = None  # WorkflowJournal.summary()
    # Streaming dataflow accounting: per-edge channel stats (queue depth,
    # producer stall, consumer wait) when the plan carried stream edges,
    # else None.  Overlap seconds measure how much adjacent stage spans
    # actually ran concurrently (the latency pipelining hides).
    stream: Optional[Dict[str, object]] = None
    stage_overlap_seconds: Dict[str, float] = field(default_factory=dict)
    # Horizontal scale-out accounting: pool-level counters plus one
    # entry per worker process.  The keys are always present — all
    # zeros with an empty per_worker list in single-process mode — so
    # dashboards and regression gates can rely on them.
    scaleout: Dict[str, object] = field(default_factory=dict)
    # Partition-tolerance accounting (wire outages, degraded-mode agent
    # operation, fenced rejections).  Same always-present discipline:
    # the local path never crosses a wire so every counter is zero here,
    # but the schema matches what multi-facility agents report, so one
    # dashboard serves both.
    partition: Dict[str, object] = field(default_factory=dict)
    # Content-addressed cache accounting: the CAS counter family (always
    # present, zeros with the cache off) plus the per-stage short-circuit
    # counts and the progressive-fidelity refinement tally.
    cache: Dict[str, object] = field(default_factory=dict)

    @property
    def total_tiles(self) -> int:
        return self.preprocess.total_tiles

    @property
    def labelled_tiles(self) -> int:
        return sum(r.tiles for r in self.inference)

    @property
    def quarantined(self) -> int:
        """Work items set aside across all stages instead of crashing."""
        return (
            len(self.download.failed)
            + len(self.download.incomplete)
            + len(self.preprocess.quarantined)
            + len(self.inference_quarantined)
        )


def merge_reports(tags: Sequence[str], reports: Sequence[Any]) -> Any:
    """One stage report over every branch (the identity for one branch).

    Driven by the report dataclass itself, so a new field can not be
    dropped from fan-out reports: numbers sum, lists concatenate in
    branch order, and an optional text (``error``) joins with ``"; "``.
    Fields declared ``per_file`` are keyed by file name, and branches can
    ship same-named files (two models over one instrument's tiles), so
    their merged keys carry the branch's ``key_prefix(tag)``.  A branch
    whose stage never ran (``None``) contributes nothing; all-``None``
    merges to ``None``.
    """
    ran = [(key_prefix(tag), r) for tag, r in zip(tags, reports) if r is not None]
    if not ran:
        return None
    merged: Dict[str, Any] = {}
    for spec in dataclasses.fields(ran[0][1]):
        values = [(prefix, getattr(report, spec.name)) for prefix, report in ran]
        first = values[0][1]
        if isinstance(first, dict):
            merged[spec.name] = {
                (prefix if spec.metadata.get("per_file") else "") + name: item
                for prefix, value in values for name, item in value.items()
            }
        elif isinstance(first, list):
            merged[spec.name] = [
                prefix + item if spec.metadata.get("per_file") else item
                for prefix, value in values for item in value
            ]
        elif all(isinstance(value, (int, float)) for _, value in values):
            merged[spec.name] = sum(value for _, value in values)
        else:
            texts = [value for _, value in values if value]
            merged[spec.name] = "; ".join(texts) if texts else None
    return type(ran[0][1])(**merged)


class EOMLWorkflow:
    """Five-stage orchestrator over the real local substrate."""

    def __init__(
        self,
        config: EOMLConfig,
        model: Optional[Any] = None,
        archive: Optional[Any] = None,
    ):
        self.config = config
        self.model = model
        # None means "each download stage builds its instrument's archive
        # from the registry"; an injected archive stands in for the
        # *primary* instrument only (it speaks one granule grammar).
        self.archive = archive

    # -- model bootstrap ------------------------------------------------------

    def _bootstrap_model(
        self,
        config: EOMLConfig,
        stacks: List[np.ndarray],
        model_path: Optional[str],
        journal: Optional[WorkflowJournal],
    ) -> Any:
        """Load-or-train ``config.model_name`` through the registry;
        ``stacks`` is the bootstrap scene's radiance, one array per file."""
        model_type = get_model(config.model_name)
        journal_key = model_slot(config.branch)[0]
        if model_path and os.path.exists(model_path):
            model = model_type.load(model_path)
            if journal is not None:
                journal.complete("model", journal_key, artifact=model_path)
            return model
        if not stacks:
            raise RuntimeError("no tiles available to bootstrap an AICCA model")
        tiles = np.concatenate(stacks)
        num_classes = min(config.num_classes, max(2, tiles.shape[0] // 4))
        if journal is not None:
            journal.intent("model", journal_key)
        model = model_type.bootstrap(tiles, num_classes=num_classes, seed=config.seed)
        if model_path:
            os.makedirs(os.path.dirname(model_path) or ".", exist_ok=True)
            model.save(model_path)
            if journal is not None:
                journal.complete("model", journal_key, artifact=model_path)
        return model

    # -- the declarative plan -------------------------------------------------

    def build_plan(
        self,
        ctx: Optional[RunContext] = None,
        prov: Optional[ProvenanceStore] = None,
        handles: Optional[Dict[str, Any]] = None,
    ) -> PipelinePlan:
        """The pipeline as data: nodes are stages, edges are policies.

        One graph, instantiated per instrument ``I`` (the acquisition
        chain, on :func:`~repro.core.branches.instrument_config`'s slice)
        and per branch ``tag = I+M`` (the labelling chain, on
        :func:`~repro.core.branches.branch_config`'s slice)::

            download@I -> model@I+M1 -> ... -> model@I+Mk -> preprocess@I
                                                                 | overlaps
                                        inference@tag  ->  shipment@tag

        A single-instrument, single-model config is the product of size
        one whose tag is ``""``: the same five nodes under their bare
        names, on the root config.

        * every ``->`` is a ``stream`` edge: each completed granule scene
          flows down the acquisition chain (``("planned", keys)`` then
          one ``("scene", key, set-or-None)`` token per scene; a model
          node bootstraps from the sorted-first tile-yielding scene, then
          relays), and labelled file names flow from inference to
          shipment;
        * ``inference`` runs ``after`` its preprocess and model nodes, and
          ``overlaps = (preprocess,)`` opens the crawler + worker
          concurrency window while preprocessing runs; ``inference``'s
          own body is the drain;
        * ``shipment.when = config.ship`` gates delivery.

        The runner, not the plan, decides barrier or pipeline:
        :class:`PlanRunner` runs each producer to completion into an
        unbounded channel before its consumer starts (the paper's Fig. 2
        download barrier), :class:`StreamingPlanRunner` runs them
        together over bounded channels (Fig. 6's pipelining).

        ``ctx`` is the run every stage executes under (journal, chaos,
        cache, metrics, and where submitted units run); ``None`` is the
        bare context.  ``handles`` (shared with the caller) receives, under
        ``base[@tag]`` names, the live ``worker``/``crawler`` objects
        plus the model-bootstrap bookkeeping, since those outlive their
        nodes.
        """
        config = self.config
        ctx = ctx or RunContext()
        journal = ctx.journal
        handles = handles if handles is not None else {}
        config_entity = (
            prov.entity("config", f"config:{config.name}", name=config.name)
            if prov
            else None
        )

        # One download stage per instrument: it fetches, and its
        # ``stage_in`` serves every reader of the instrument's granules
        # (preprocess on a ``tiles:`` miss, each branch's refiner).  An
        # injected archive speaks the primary instrument's granule
        # grammar only.
        downloads = {
            inst: DownloadStage(
                instrument_config(config, inst), ctx,
                archive=self.archive if inst == config.instruments[0] else None,
            )
            for inst in config.instruments
        }

        def acquisition(inst: str) -> List[StageNode]:
            """``download -> model... -> preprocess`` for one instrument."""
            icfg = instrument_config(config, inst)
            download_name = unit_name("download", icfg.branch)
            preprocess_name = unit_name("preprocess", icfg.branch)
            # Scenes the bootstrap tiled ahead of the preprocess node:
            # scene key -> that tiling's report, in the order they ran.
            heads_key = unit_name("heads", icfg.branch)
            handles.setdefault(heads_key, {})
            stage = downloads[inst]
            preprocess_stage = PreprocessStage(icfg, ctx, stage_in=stage.stage_in)

            def run_download(state: Dict[str, Any]) -> DownloadReport:
                emit = state[STREAMS_KEY].writer(download_name).put
                download = stage.run(
                    on_planned=lambda keys: emit(("planned", list(keys))),
                    on_scene=lambda key, gs: emit(("scene", key, gs)),
                )
                if prov:
                    activity = prov.start_activity(
                        "download", "globus-compute", workers=config.workers.download
                    )
                    prov.record_use(activity, config_entity)
                    for granule_set in download.granule_sets:
                        for product, path in granule_set.paths.items():
                            prov.record_generation(
                                activity, prov.entity("granule", path, product=product)
                            )
                    prov.end_activity(activity)
                return download

            def head_radiance(report: PreprocessReport) -> List[np.ndarray]:
                """The radiance in a bootstrap candidate's tile file(s).

                A file that cannot be read (a ``corrupt_tile`` fault
                publishes a well-named truncated one) goes down the road
                inference sends a bad tile file: set aside in the
                quarantine directory, and the scene's result becomes a
                quarantine record in its report, so the run's errors and
                counts show it and nothing downstream trips on it again.
                """
                stacks = []
                for result in [r for r in report.results if r.tile_path]:
                    try:
                        ds = nc_read(result.tile_path)
                        stacks.append(ds["radiance"].data.astype(np.float32))
                    except (OSError, ValueError, KeyError) as exc:
                        name = os.path.basename(result.tile_path)
                        set_aside(result.tile_path, icfg.quarantine)
                        report.results.remove(result)
                        report.quarantined.append(QuarantineRecord(
                            key=result.key, error=f"unreadable tile file {name}: {exc}"
                        ))
                return stacks

            def head_tiles(tokens, held: List[Any]) -> List[np.ndarray]:
                """Radiance of the instrument's bootstrap scene, per file.

                Scenes arrive in completion order, but every model must
                train on the same scene whatever the thread timing — the
                sorted-first complete scene that yields readable tiles —
                or the model, and every label downstream, would drift.
                So tokens are pulled (into ``held``, for the relay) only
                until that scene settles, advancing past quarantined,
                tileless or unreadable scenes so a single corrupt one
                can not sink the whole run.  The scenes tiled here are
                remembered per instrument: a sibling model reuses the
                result, and the preprocess node skips them.
                """
                heads = handles[heads_key]
                planned: Optional[List[str]] = None
                arrived: Dict[str, Optional[GranuleSet]] = {}

                def pump() -> bool:
                    nonlocal planned
                    token = next(tokens, None)
                    if token is None:
                        return False
                    held.append(token)
                    if token[0] == "planned":
                        planned = list(token[1])
                    else:
                        arrived[token[1]] = token[2]
                    return True

                while planned is None and pump():
                    pass
                for key in planned or []:
                    while key not in arrived and pump():
                        pass
                    if key not in arrived:
                        break  # stream ended before the scene settled
                    if arrived[key] is None:
                        continue  # incomplete scene; never preprocessed
                    if key not in heads:
                        heads[key] = preprocess_stage.run([arrived[key]])
                    stacks = head_radiance(heads[key])
                    if stacks:
                        return stacks
                return []

            def model_node(mdl: str, upstream: str) -> StageNode:
                bcfg = branch_config(config, inst, mdl)
                name = unit_name("model", bcfg.branch)
                journal_key = model_slot(bcfg.branch)[0]
                ready = handles.setdefault(
                    unit_name("model_ready", bcfg.branch), threading.Event()
                )

                def run_model(state: Dict[str, Any]) -> Any:
                    """Bootstrap deterministically, then relay scenes.

                    The model must exist before the first trigger fires,
                    so it is published through ``handles`` (a streaming
                    inference window may already be waiting on it) before
                    anything is forwarded downstream.
                    """
                    try:
                        tokens = iter(state[STREAMS_KEY].reader(name))
                        forward = state[STREAMS_KEY].writer(name).put
                        held: List[Any] = []
                        model = self.model
                        if model is None:
                            model_path = ctx.model_path(bcfg)
                            redo = (
                                journal is not None
                                and journal.resume("model", journal_key).redo
                            )
                            if (
                                redo
                                and model_path
                                and not bcfg.model_path
                                and os.path.exists(model_path)
                            ):
                                # A mid-train crash (or digest mismatch)
                                # makes the journal-owned bootstrap model
                                # untrustworthy; retrain.  An explicitly
                                # configured model file is the user's —
                                # never deleted here.
                                os.remove(model_path)
                            stacks: List[np.ndarray] = []
                            if not (model_path and os.path.exists(model_path)):
                                stacks = head_tiles(tokens, held)
                            model = self._bootstrap_model(
                                bcfg, stacks, model_path, journal
                            )
                        handles[name] = model
                        ready.set()
                        for token in itertools.chain(held, tokens):
                            forward(token)
                        return model
                    except BaseException as exc:
                        handles[unit_name("model_error", bcfg.branch)] = exc
                        ready.set()
                        raise

                return StageNode(name, run_model, stream=(upstream,))

            def run_preprocess(state: Dict[str, Any]) -> PreprocessReport:
                heads = handles[heads_key]
                return preprocess_stage.run(
                    token[2]
                    for token in state[STREAMS_KEY].reader(preprocess_name)
                    if token[0] == "scene"
                    and token[2] is not None
                    and token[1] not in heads
                )

            download_node = StageNode(
                download_name,
                run_download,
                workers=config.workers.download,
                counts=lambda r: {"files": r.files},
            )
            model_nodes: List[StageNode] = []
            for mdl in config.models:
                upstream = model_nodes[-1].name if model_nodes else download_name
                model_nodes.append(model_node(mdl, upstream))
            preprocess_node = StageNode(
                preprocess_name,
                run_preprocess,
                workers=config.workers.preprocess,
                counts=lambda r: {"tiles": r.total_tiles},
                stream=(model_nodes[-1].name,),
            )
            return [download_node, *model_nodes, preprocess_node]

        def labelling(inst: str, mdl: str) -> List[StageNode]:
            """``inference -> shipment`` for one instrument x model branch."""
            bcfg = branch_config(config, inst, mdl)
            tag = bcfg.branch
            preprocess_name = unit_name(
                "preprocess", instrument_config(config, inst).branch
            )
            model_name = unit_name("model", tag)
            inference_name = unit_name("inference", tag)
            shipment_name = unit_name("shipment", tag)

            @contextmanager
            def inference_scope(state: Dict[str, Any]):
                # Under the listed-order runner (and on a remote agent,
                # which rehydrates it) the state already holds the model.
                # A streaming window may open while the model node is
                # still relaying scenes, so that node publishes through
                # ``handles`` and sets ``model_ready`` — on both its
                # success and error paths, so this wait can never hang.
                model = state.get(model_name)
                if model is None:
                    handles[unit_name("model_ready", tag)].wait()
                    error = handles.get(unit_name("model_error", tag))
                    if error is not None:
                        raise RuntimeError(f"model bootstrap failed: {error}")
                    model = handles[model_name]
                # Labelled files stream to shipment by basename the
                # moment they publish — eager delivery while the
                # inference queue is still draining.
                ship = state[STREAMS_KEY].writer(inference_name).put
                worker = InferenceWorker(
                    model, bcfg, ctx,
                    on_result=lambda result: ship(os.path.basename(result.out_path)),
                    stage_in=downloads[inst].stage_in,
                )
                crawler = DirectoryCrawler(
                    bcfg.preprocessed,
                    trigger=worker.submit,
                    poll_interval=bcfg.poll_interval,
                    gate=journal.artifact_ok if journal is not None else None,
                    executor=ctx.executor,
                )
                handles[unit_name("worker", tag)] = worker
                handles[unit_name("crawler", tag)] = crawler
                with worker, crawler:
                    yield

            def run_inference(state: Dict[str, Any]) -> InferenceWorker:
                handles[unit_name("crawler", tag)].scan_once()
                worker = handles[unit_name("worker", tag)]
                worker.drain(timeout=bcfg.inference_drain_timeout)
                return worker

            def run_shipment(state: Dict[str, Any]) -> ShipmentReport:
                shipment = ShipmentStage(bcfg, ctx).run(
                    state[STREAMS_KEY].reader(shipment_name)
                )
                if prov and shipment.moved:
                    activity = prov.start_activity("shipment", "globus-transfer")
                    for inf in handles[unit_name("worker", tag)].results:
                        prov.record_use(
                            activity, prov.entity("labelled_file", inf.out_path)
                        )
                    for path in shipment.moved:
                        prov.record_generation(
                            activity,
                            prov.entity(
                                "delivered_file", path,
                                checksum=shipment.checksums.get(os.path.basename(path)),
                            ),
                        )
                    prov.end_activity(activity)
                return shipment

            return [
                StageNode(
                    inference_name,
                    run_inference,
                    workers=config.workers.inference,
                    after=(preprocess_name, model_name),
                    overlaps=(preprocess_name,),
                    scope=inference_scope,
                    counts=lambda worker: {"files": len(worker.results)},
                ),
                StageNode(
                    shipment_name,
                    run_shipment,
                    when=lambda state: bool(config.ship),
                    counts=lambda r: {"files": len(r.moved)},
                    stream=(inference_name,),
                ),
            ]

        return PipelinePlan(
            [node for inst in config.instruments for node in acquisition(inst)]
            + [node for inst, mdl in expand_branches(config) for node in labelling(inst, mdl)]
        )

    # -- the run ------------------------------------------------------------

    def run(
        self,
        provenance: bool = True,
        resume: bool = False,
        streaming: Optional[bool] = None,
    ) -> WorkflowReport:
        timeline = WallClockTimeline()
        config = self.config
        # ``streaming=None`` defers to ``runtime.stream.enabled`` in the
        # config; an explicit bool overrides it (the benchmark harness
        # drives one plan with both runners off one config).
        use_stream = config.stream.enabled if streaming is None else bool(streaming)
        # Provenance is a single-branch feature for now: the fan-out
        # report has no one model/lineage to attribute artifacts to.
        prov = ProvenanceStore() if provenance and not is_fanout(config) else None
        # The run's world: journal (write-ahead intents/completions plus
        # the integrity manifest), chaos, the one CAS handle every stage
        # and branch shares, and the metrics registry — created up front
        # so hot-path stages (inference micro-batching) can record live
        # histograms; the rollup below adds the rest.
        ctx = open_run(config, resume=resume)
        metrics, chaos, journal = ctx.metrics, ctx.chaos, ctx.journal
        # Whatever happens below — a stage raising included — the journal
        # file handle is released, so the same process can resume the run.
        try:
            def on_end(name: str, **counts: Any) -> None:
                timeline.end(name, **counts)
                # A consistent on-disk view after each checkpointable stage.
                if journal is not None and split_unit(name)[0] in (
                    "download", "inference", "shipment"
                ):
                    journal.checkpoint()

            # Horizontal scale-out: a process pool the context ships every
            # submitted unit to.  Created after the journal is open
            # (workers append to the same journal file; O_APPEND keeps
            # concurrent single-line appends safe) and only when configured —
            # the default is the exact single-process path.
            pool_stats: Optional[PoolStats] = None
            if config.runtime_workers > 1 or config.elastic.enabled:
                from repro.core.scaleout import build_pool

                ctx.pool = build_pool(config, archive=self.archive)
                ctx.pool.start()

            handles: Dict[str, Any] = {}
            plan = self.build_plan(ctx, prov=prov, handles=handles)
            if use_stream:
                runner: PlanRunner = StreamingPlanRunner(
                    on_begin=timeline.begin, on_end=on_end,
                    on_workers=timeline.workers, stream=config.stream,
                )
            else:
                runner = PlanRunner(
                    on_begin=timeline.begin, on_end=on_end, on_workers=timeline.workers
                )
            try:
                state = runner.run(plan)
            except BaseException:
                if ctx.pool is not None:
                    ctx.pool.terminate()
                raise
            if ctx.pool is not None:
                ctx.pool.close()
                pool_stats = ctx.pool.stats()
            # Counters come home one way: what this process's context
            # accrued plus the deltas every pool worker shipped with its
            # envelope results (journal, store, breaker, refined tiles),
            # so the rollups below read the same wherever the units ran.
            totals = collections.Counter(ctx.counters())
            if pool_stats is not None:
                totals.update(pool_stats.counters)

            # One report over every branch; with one instrument and one
            # model each merge below is the identity.
            itags = [instrument_config(config, i).branch for i in config.instruments]
            tags = [branch_config(config, i, m).branch for i, m in expand_branches(config)]
            download = merge_reports(
                itags, [state[unit_name("download", itag)] for itag in itags]
            )
            download.breaker_trips += int(totals["breaker_trips"])
            # The bootstrap scenes were tiled ahead of their preprocess node:
            # fold them back in, in the order they ran.
            pieces = [
                report
                for itag in itags
                for report in (
                    *handles[unit_name("heads", itag)].values(),
                    state[unit_name("preprocess", itag)],
                )
            ]
            # (No per-file fields in this report, so the tags are moot.)
            preprocess = merge_reports([""] * len(pieces), pieces)
            workers = [handles[unit_name("worker", tag)] for tag in tags]
            inference_results = [r for w in workers for r in w.results]
            inference_errors = [e for w in workers for e in w.errors]
            inference_quarantined = [q for w in workers for q in w.quarantined]
            crawler_errors = [
                e for tag in tags for e in handles[unit_name("crawler", tag)].errors
            ]
            refined_tiles = sum(w.refined_tiles for w in workers) + int(
                totals["refined_tiles"]
            )
            shipment = merge_reports(
                tags, [state[unit_name("shipment", tag)] for tag in tags]
            )

            if prov:
                sets_by_key = {gs.key: gs for gs in download.granule_sets}
                model_entity = prov.entity(
                    "model", config.model_path or "model:bootstrapped",
                    num_classes=state[unit_name("model", tags[0])].num_classes,
                )
                for result in preprocess.results:
                    if result.tile_path is None:
                        continue
                    activity = prov.start_activity(
                        "preprocess", "parsl", tile_size=config.tile_size,
                        cloud_threshold=config.cloud_threshold,
                    )
                    source = sets_by_key.get(result.key)
                    if source is not None:
                        for path in source.paths.values():
                            prov.record_use(activity, prov.entity("granule", path))
                    prov.record_generation(
                        activity, prov.entity("tile_file", result.tile_path, tiles=result.tiles)
                    )
                    prov.end_activity(activity)
                for inf in inference_results:
                    activity = prov.start_activity("inference", "globus-flow")
                    prov.record_use(activity, prov.entity("tile_file", inf.src_path))
                    prov.record_use(activity, model_entity)
                    prov.record_generation(
                        activity,
                        prov.entity("labelled_file", inf.out_path, classes=inf.classes_seen),
                    )
                    prov.end_activity(activity)

            # Telemetry rollup (Section V-A's workflow-insight goal).
            metrics.counter("files").inc(download.files, stage="download")
            metrics.counter("bytes").inc(download.nbytes, stage="download")
            metrics.counter("files_skipped").inc(download.skipped, stage="download")
            metrics.counter("tiles").inc(preprocess.total_tiles)
            metrics.counter("files").inc(
                sum(1 for r in preprocess.results if r.tile_path), stage="preprocess"
            )
            metrics.counter("files").inc(len(inference_results), stage="inference")
            task_seconds = metrics.histogram(
                "task_seconds", buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)
            )
            for result in preprocess.results:
                task_seconds.observe(result.seconds)
            stage_seconds = metrics.histogram(
                "stage_seconds", buckets=(0.1, 1.0, 10.0, 60.0, 600.0)
            )
            for span in timeline.breakdown():
                stage_seconds.observe(span.duration)
            if shipment is not None:
                metrics.counter("files").inc(len(shipment.moved), stage="shipment")
                metrics.counter("bytes").inc(shipment.nbytes, stage="shipment")

            # Resilience accounting (always present, so dashboards can rely
            # on the keys; all zeros on a clean run).
            retries = metrics.counter("retries")
            retries.inc(download.retry_attempts, stage="download")
            if shipment is not None:
                retries.inc(shipment.retries, stage="shipment")
            metrics.counter("breaker_open").inc(download.breaker_trips)
            quarantined = metrics.counter("quarantined")
            quarantined.inc(len(download.failed) + len(download.incomplete), stage="download")
            quarantined.inc(len(preprocess.quarantined), stage="preprocess")
            quarantined.inc(len(inference_quarantined), stage="inference")
            # Faults fire in whichever process ran the unit, so the ledger
            # is summed from the counters that came home, not read off
            # this process's injector.
            faults = metrics.counter("faults_injected")
            chaos_summary = chaos.summary(totals) if chaos is not None else None
            if chaos_summary is not None:
                for kind, count in chaos_summary["by_kind"].items():
                    faults.inc(count, kind=kind)

            # Checkpoint/resume accounting (always present, zeros on fresh
            # clean runs, so dashboards can rely on the keys).
            journal_counters = {
                key: int(totals[key])
                for key in ("resumed_items", "replayed_items", "manifest_mismatches")
            }
            for key, count in journal_counters.items():
                metrics.counter(key).inc(count)

            # Scale-out accounting (satellite of the pool above): pool-level
            # counters plus a per-worker breakdown, zeros when the run never
            # left the parent process.
            scaleout: Dict[str, object] = {
                "enabled": pool_stats is not None,
                "units_executed": 0,
                "busy_seconds": 0.0,
                "requeues": 0,
                "respawns": 0,
                "scale_out_events": 0,
                "scale_in_events": 0,
                "workers_launched": 0,
                "per_worker": [],
            }
            if pool_stats is not None:
                scaleout.update(
                    units_executed=pool_stats.units_executed,
                    busy_seconds=pool_stats.busy_seconds,
                    requeues=pool_stats.requeues,
                    respawns=pool_stats.respawns,
                    scale_out_events=pool_stats.scale_out_events,
                    scale_in_events=pool_stats.scale_in_events,
                    workers_launched=pool_stats.workers_launched,
                    per_worker=[
                        {
                            "worker_id": ws.worker_id,
                            "pid": ws.pid,
                            "units": ws.units,
                            "busy_seconds": ws.busy_seconds,
                        }
                        for ws in pool_stats.workers
                    ],
                )
            metrics.counter("pool.units_executed").inc(int(scaleout["units_executed"]))
            metrics.counter("pool.busy_seconds").inc(float(scaleout["busy_seconds"]))
            metrics.counter("pool.requeues").inc(int(scaleout["requeues"]))
            metrics.counter("pool.respawns").inc(int(scaleout["respawns"]))
            metrics.counter("pool.scale_out_events").inc(int(scaleout["scale_out_events"]))
            metrics.counter("pool.scale_in_events").inc(int(scaleout["scale_in_events"]))
            metrics.counter("pool.workers_launched").inc(int(scaleout["workers_launched"]))

            # Partition-tolerance accounting: the local path never crosses a
            # wire, so these are structural zeros — registered anyway so the
            # clean-run baseline ("no partitions means every counter is 0")
            # is checkable rather than merely absent.
            partition: Dict[str, object] = {"enabled": False}
            for key in PARTITION_COUNTERS:
                partition[key] = 0
                metrics.counter(f"partition.{key}").inc(0)

            # Content-addressed cache accounting: the CAS counter family is
            # always present (zeros with caching off), so the bench gates and
            # dashboards never branch on key existence.
            cache_summary: Dict[str, object] = {"enabled": ctx.cache is not None}
            for key in CACHE_COUNTERS:
                cache_summary[key] = int(totals[f"cache.{key}"])
            if ctx.cache is not None:
                cache_summary["dir"] = config.cache_dir
            cache_summary["download_cached"] = download.cached
            cache_summary["preprocess_cached"] = preprocess.cached
            inference_cached = sum(r.cached for r in inference_results)
            cache_summary["inference_cached"] = inference_cached
            cache_summary["shipment_deduped"] = (
                shipment.deduped if shipment is not None else 0
            )
            cache_summary["fetched_bytes"] = download.fetched_bytes
            cache_summary["refined_tiles"] = refined_tiles
            for key in CACHE_COUNTERS:
                metrics.counter(f"cache.{key}").inc(int(cache_summary[key]))
            stage_hits = metrics.counter("cache.stage_hits")
            stage_hits.inc(download.cached, stage="download")
            stage_hits.inc(preprocess.cached, stage="preprocess")
            stage_hits.inc(inference_cached, stage="inference")
            if shipment is not None:
                stage_hits.inc(shipment.deduped, stage="shipment")
            metrics.counter("cache.refined_tiles").inc(refined_tiles)
            metrics.counter("bytes_fetched").inc(
                download.fetched_bytes, stage="download"
            )

            # Streaming dataflow accounting: per-edge queue depth / stall /
            # wait rollups plus the measured stage-overlap seconds that the
            # pipelining bought (None/zero behind the barrier, whose
            # unbounded channels are a hand-off, not a pipeline).
            stream_summary: Optional[Dict[str, object]] = None
            if use_stream:
                hub = state[STREAMS_KEY]
                edge_stats = {s.edge: s.as_dict() for s in hub.stats()}
                stream_summary = {"enabled": True, "edges": edge_stats}
                items = metrics.counter("stream.items")
                stalls = metrics.counter("stream.producer_stall_seconds")
                waits = metrics.counter("stream.consumer_wait_seconds")
                depth = metrics.gauge("stream.max_queue_depth")
                for stat in hub.stats():
                    items.inc(stat.items, edge=stat.edge)
                    stalls.inc(stat.producer_stall_seconds, edge=stat.edge)
                    waits.inc(stat.consumer_wait_seconds, edge=stat.edge)
                    depth.set(stat.max_depth, edge=stat.edge)
            overlap = timeline.overlaps()
            overlap_gauge = metrics.gauge("stage_overlap_seconds")
            for stages, seconds in overlap.items():
                overlap_gauge.set(seconds, stages=stages)

            errors = list(crawler_errors) + list(inference_errors)
            errors.extend(download.failed)
            errors.extend(f"incomplete scene dropped: {key}" for key in download.incomplete)
            errors.extend(f"preprocess quarantined {q.describe()}" for q in preprocess.quarantined)
            if shipment is not None and shipment.error:
                errors.append(f"shipment: {shipment.error}")
            if shipment is not None:
                errors.extend(
                    f"shipment integrity mismatch at destination: {name}"
                    for name in shipment.mismatches
                )
            return WorkflowReport(
                download=download,
                preprocess=preprocess,
                inference=inference_results,
                shipment=shipment,
                breakdown=timeline.breakdown(),
                timeline=timeline,
                errors=errors,
                provenance=prov,
                metrics=metrics,
                chaos=chaos_summary,
                inference_quarantined=inference_quarantined,
                resumed_items=journal_counters["resumed_items"],
                replayed_items=journal_counters["replayed_items"],
                manifest_mismatches=journal_counters["manifest_mismatches"],
                journal=journal.summary() if journal is not None else None,
                stream=stream_summary,
                stage_overlap_seconds=overlap,
                scaleout=scaleout,
                partition=partition,
                cache=cache_summary,
            )
        finally:
            ctx.close()
