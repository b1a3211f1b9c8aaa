"""The end-to-end EO-ML workflow (real execution).

Orchestrates the five stages of Fig. 2 on this machine, preserving the
paper's structural properties:

* the **download barrier**, the only one — preprocessing starts only
  after every download has completed (HDF partial-read protection);
* the **monitor-trigger** — preprocess announces each tile file once it
  has settled and inference labels it then, so labelling begins before
  tiling finishes (Fig. 6's overlap), and each labelled file ships once
  it is published;
* **per-stage worker accounting** on a wall-clock timeline (Figs. 6-7).

Those properties are stated declaratively: :meth:`EOMLWorkflow.build_plan`
returns one :class:`~repro.runtime.plan.PipelinePlan` whose ``stream``
edges carry scenes, the model, tile files and labelled files, and whose
``after`` edges hold every later stage behind the download barrier
unless ``runtime.stream`` is enabled; :meth:`run` merely drives it with
:class:`~repro.runtime.plan.PlanRunner`.

The inference model may be supplied (a trained model instance) or
bootstrapped: with ``model=None`` the workflow trains a small atlas on
the first preprocessed tiles before labelling (handy for examples; a
production run would load a model trained on the 1 M-tile corpus).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cas import CACHE_COUNTERS
from repro.core.config import EOMLConfig
from repro.core.context import MODEL_JOURNAL_KEY, RunContext, open_run
from repro.core.download import DownloadReport, DownloadStage, GranuleSet
from repro.core.inference import InferenceResult, InferenceWorker, set_aside
from repro.core.preprocess import (
    PreprocessReport,
    PreprocessResult,
    PreprocessStage,
    QuarantineRecord,
)
from repro.core.shipment import ShipmentReport, ShipmentStage
from repro.core.timeline import StageBreakdown, WallClockTimeline
from repro.journal import WorkflowJournal
from repro.netcdf import read as nc_read
from repro.provenance import ProvenanceStore
from repro.ricc.aicca import AICCAModel
from repro.runtime import (
    STREAMS_KEY,
    PipelinePlan,
    PlanRunner,
    StageNode,
)
from repro.runtime.proc import PoolStats

__all__ = ["WorkflowReport", "EOMLWorkflow"]


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
    chaos: Optional[Dict[str, object]] = None  # injector summary, if chaos ran
    inference_quarantined: List = field(default_factory=list)
    # Resilience counters from the run journal, summed over every
    # process that ran units (zeros when journaling is off or the run
    # started fresh with nothing to reuse).
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
    # Content-addressed cache accounting: the CAS counter family (always
    # present, zeros with the cache off) plus the per-stage short-circuit
    # counts and the bytes fetched from the archive.
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
        # None means "the download stage builds the instrument's archive
        # from the registry".
        self.archive = archive

    # -- model bootstrap ------------------------------------------------------

    def _bootstrap_model(
        self,
        stacks: List[np.ndarray],
        model_path: Optional[str],
        journal: Optional[WorkflowJournal],
    ) -> AICCAModel:
        """Train the AICCA model on the bootstrap scene's radiance (one
        array per file) and persist it to ``model_path``, if any."""
        config = self.config
        if not stacks:
            raise RuntimeError("no tiles available to bootstrap an AICCA model")
        tiles = np.concatenate(stacks)
        num_classes = min(config.num_classes, max(2, tiles.shape[0] // 4))
        if journal is not None:
            journal.intent("model", MODEL_JOURNAL_KEY)
        # A small latent space, one hidden layer and eight epochs: quick
        # enough for examples, and the golden corpus pins the result.
        model, _history = AICCAModel.train(
            tiles, num_classes=num_classes, latent_dim=8, hidden=(64,),
            epochs=8, seed=config.seed,
        )
        if model_path:
            os.makedirs(os.path.dirname(model_path) or ".", exist_ok=True)
            model.save(model_path)
            if journal is not None:
                journal.complete("model", MODEL_JOURNAL_KEY, artifact=model_path)
        return model

    # -- the declarative plan -------------------------------------------------

    def build_plan(
        self,
        ctx: Optional[RunContext] = None,
        prov: Optional[ProvenanceStore] = None,
        handles: Optional[Dict[str, Any]] = None,
        streaming: Optional[bool] = None,
    ) -> PipelinePlan:
        """The pipeline as data: nodes are stages, edges are policies::

            download -> model -> preprocess -> inference -> shipment

        * every ``->`` is a ``stream`` edge: each completed granule scene
          flows down the acquisition chain (``("planned", keys)`` then
          one ``("scene", key, set-or-None)`` token per scene; the model
          node bootstraps from the sorted-first tile-yielding scene, then
          announces the model as ``("model", source)`` and every tile
          file it tiled before relaying the scenes); preprocess relays
          those and announces each tile file it settles as
          ``("tiles", path, sha256)``; inference labels what is announced
          and hands labelled file names to shipment;
        * behind the download barrier (the paper's Fig. 2) model,
          preprocess, inference and shipment each wait on ``download``
          with an ``after`` edge: they start together once every
          download is in, and each reads its producer's stream as it is
          written.  ``streaming`` drops those edges, so every node
          starts at once (Fig. 6's pipelining); ``None`` defers to
          ``runtime.stream.enabled``;
        * ``shipment.when = config.ship`` gates delivery.

        ``ctx`` is the run every stage executes under (journal, chaos,
        cache, and where submitted units run); ``None`` is the bare
        context.  ``handles`` (shared with the caller) receives the live
        ``downloader`` plus the model-bootstrap bookkeeping, since those
        outlive their nodes.
        """
        config = self.config
        if streaming is None:
            streaming = config.stream.enabled
        barrier = () if streaming else ("download",)
        ctx = ctx or RunContext()
        journal = ctx.journal
        handles = handles if handles is not None else {}
        config_entity = (
            prov.entity("config", f"config:{config.name}", name=config.name)
            if prov
            else None
        )

        # The download stage fetches, and its ``stage_in`` serves
        # preprocess on a ``tiles:`` miss.
        stage = handles["downloader"] = DownloadStage(config, ctx, archive=self.archive)
        preprocess_stage = PreprocessStage(config, ctx, stage_in=stage.stage_in)
        # Scenes the bootstrap tiled ahead of the preprocess node: scene
        # key -> that tiling's report, in the order they ran.  (A leased
        # preprocess unit replaces it with what its model unit consumed.)
        handles.setdefault("heads", {})
        worker = InferenceWorker(self.model, config, ctx)

        def run_download(state: Dict[str, Any]) -> DownloadReport:
            emit = state[STREAMS_KEY].writer("download").put
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
            inference sends a bad tile file: set aside in the quarantine
            directory, and the scene's result becomes a quarantine record
            in its report, so the run's errors and counts show it and
            nothing downstream trips on it again.
            """
            stacks = []
            for result in [r for r in report.results if r.tile_path]:
                try:
                    ds = nc_read(result.tile_path)
                    stacks.append(ds["radiance"].data.astype(np.float32))
                except (OSError, ValueError, KeyError) as exc:
                    name = os.path.basename(result.tile_path)
                    set_aside(result.tile_path, config.quarantine)
                    report.results.remove(result)
                    report.quarantined.append(QuarantineRecord(
                        key=result.key, error=f"unreadable tile file {name}: {exc}"
                    ))
            return stacks

        def head_tiles(tokens, held: List[Any]) -> List[np.ndarray]:
            """Radiance of the bootstrap scene, per file.

            Scenes arrive in completion order, but the model must train
            on the same scene whatever the thread timing — the
            sorted-first complete scene that yields readable tiles — or
            the model, and every label downstream, would drift.  So
            tokens are pulled (into ``held``, for the relay) only until
            that scene settles, advancing past quarantined, tileless or
            unreadable scenes so a single corrupt one can not sink the
            whole run.  The scenes tiled here are remembered in
            ``heads``: the preprocess node skips them.
            """
            heads = handles["heads"]
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

        def run_model(state: Dict[str, Any]) -> Any:
            """Bootstrap deterministically, announce, then relay scenes.

            The model is announced first — as its persisted file when
            there is one, else the object — then every tile file the
            bootstrap tiled, so inference has the model before any file.
            A model file that already existed is journaled last, while
            preprocess tiles.
            """
            tokens = iter(state[STREAMS_KEY].reader("model"))
            forward = state[STREAMS_KEY].writer("model").put
            held: List[Any] = []
            model_path = ctx.model_path(config)
            verified: Optional[Dict[str, Any]] = None
            if self.model is not None:
                source: Any = ("object", self.model)
            else:
                decision = journal and journal.resume("model", MODEL_JOURNAL_KEY)
                if (
                    decision
                    and decision.redo
                    and model_path
                    and not config.model_path
                    and os.path.exists(model_path)
                ):
                    # A mid-train crash (or digest mismatch) makes the
                    # journal-owned bootstrap model untrustworthy;
                    # retrain.  An explicitly configured model file is
                    # the user's — never deleted here.
                    os.remove(model_path)
                if model_path and os.path.exists(model_path):
                    source = ("path", model_path)
                    if decision:
                        # A resumed completion was just checked against
                        # these bytes: record that digest, not a re-read.
                        same = decision.payload.get("artifact") == os.path.abspath(model_path)
                        verified = decision.payload if decision.skip and same else {}
                else:
                    model = self._bootstrap_model(
                        head_tiles(tokens, held), model_path, journal
                    )
                    source = ("path", model_path) if model_path else ("object", model)
            forward(("model", source))
            for report in handles["heads"].values():
                for result in report.results:
                    announce(forward, result)
            for token in itertools.chain(held, tokens):
                forward(token)
            if verified is not None:
                journal.complete("model", MODEL_JOURNAL_KEY, artifact=model_path,
                                 sha256=verified.get("sha256"), nbytes=verified.get("nbytes"))
            return source

        def announce(put, result: PreprocessResult) -> None:
            if result.tile_path:
                put(("tiles", result.tile_path, result.sha256))

        def run_preprocess(state: Dict[str, Any]) -> PreprocessReport:
            heads = handles["heads"]
            put = state[STREAMS_KEY].writer("preprocess").put

            def scenes():
                for token in state[STREAMS_KEY].reader("preprocess"):
                    if token[0] in ("model", "tiles"):
                        put(token)  # the model node's announcements, relayed
                    elif (
                        token[0] == "scene"
                        and token[2] is not None
                        and token[1] not in heads
                    ):
                        yield token[2]

            return preprocess_stage.run(
                scenes(), on_result=lambda result: announce(put, result)
            )

        def run_inference(state: Dict[str, Any]) -> InferenceWorker:
            # Labelled files stream to shipment the moment they publish —
            # eager delivery while labelling goes on — by basename and
            # the digest they were published with.
            ship = state[STREAMS_KEY].writer("inference").put
            return worker.run(
                state[STREAMS_KEY].reader("inference"),
                on_result=lambda result: ship(
                    (os.path.basename(result.out_path), result.sha256)
                ),
            )

        def run_shipment(state: Dict[str, Any]) -> ShipmentReport:
            shipment = ShipmentStage(config, ctx).run(
                state[STREAMS_KEY].reader("shipment")
            )
            if prov and shipment.moved:
                activity = prov.start_activity("shipment", "globus-transfer")
                for inf in worker.results:
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

        return PipelinePlan([
            StageNode(
                "download",
                run_download,
                workers=config.workers.download,
                counts=lambda r: {"files": r.files},
            ),
            StageNode("model", run_model, after=barrier, stream=("download",)),
            StageNode(
                "preprocess",
                run_preprocess,
                workers=config.workers.preprocess,
                counts=lambda r: {"tiles": r.total_tiles},
                after=barrier,
                stream=("model",),
            ),
            StageNode(
                "inference",
                run_inference,
                workers=config.workers.inference,
                counts=lambda worker: {"files": len(worker.results)},
                after=barrier,
                stream=("preprocess",),
            ),
            StageNode(
                "shipment",
                run_shipment,
                when=lambda state: bool(config.ship),
                counts=lambda r: {"files": len(r.moved)},
                after=barrier,
                stream=("inference",),
            ),
        ])

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
        # runs both plan shapes off one config).
        use_stream = config.stream.enabled if streaming is None else bool(streaming)
        prov = ProvenanceStore() if provenance else None
        # The run's world: journal (write-ahead intents and completions,
        # and the digest index those completions fill), chaos, and the one
        # CAS handle every stage shares.
        ctx = open_run(config, resume=resume)
        chaos, journal = ctx.chaos, ctx.journal
        # Whatever happens below — a stage raising included — the journal
        # file handle is released, so the same process can resume the run.
        try:
            # Horizontal scale-out: a process pool the context ships every
            # submitted unit to.  Created after the journal is open
            # (workers append to the same journal file; O_APPEND keeps
            # concurrent single-line appends safe) and only when configured —
            # the default is the exact single-process path.
            pool_stats: Optional[PoolStats] = None
            if config.runtime_workers > 1:
                from repro.core.scaleout import build_pool

                ctx.pool = build_pool(config, archive=self.archive)
                ctx.pool.start()

            handles: Dict[str, Any] = {}
            plan = self.build_plan(ctx, prov=prov, handles=handles, streaming=use_stream)
            runner = PlanRunner(
                on_begin=timeline.begin, on_end=timeline.end, on_workers=timeline.workers,
                stream=config.stream if use_stream else None,
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
            # envelope results (journal, store, breaker, stage-in fetches),
            # so the rollups below read the same wherever the units ran.
            totals = collections.Counter(ctx.counters())
            if pool_stats is not None:
                totals.update(pool_stats.counters)

            download = state["download"]
            download = dataclasses.replace(
                download,
                breaker_trips=download.breaker_trips + int(totals["breaker_trips"]),
                # Granules a reader staged in by fetching them again (the
                # store could not deliver them) were fetched too, wherever
                # it ran.
                fetched_bytes=download.fetched_bytes
                + int(totals["refetched_bytes"])
                + handles["downloader"].refetched_bytes,
            )
            # The bootstrap scenes were tiled ahead of the preprocess node:
            # fold them back in, in the order they ran.
            pieces = [*handles["heads"].values(), state["preprocess"]]
            preprocess = PreprocessReport(
                results=[r for p in pieces for r in p.results],
                seconds=sum(p.seconds for p in pieces),
                quarantined=[q for p in pieces for q in p.quarantined],
            )
            worker = state["inference"]
            inference_results = list(worker.results)
            shipment = state["shipment"]

            if prov:
                sets_by_key = {gs.key: gs for gs in download.granule_sets}
                model_entity = prov.entity(
                    "model", config.model_path or "model:bootstrapped"
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

            # Faults fire in whichever process ran the unit, so the ledger
            # is summed from the counters that came home, not read off
            # this process's injector.
            chaos_summary = chaos.summary(totals) if chaos is not None else None

            # Scale-out accounting (satellite of the pool above): pool-level
            # counters plus a per-worker breakdown, zeros when the run never
            # left the parent process.
            scaleout: Dict[str, object] = {
                "enabled": pool_stats is not None,
                "units_executed": 0,
                "busy_seconds": 0.0,
                "requeues": 0,
                "respawns": 0,
                "workers_launched": 0,
                "per_worker": [],
            }
            if pool_stats is not None:
                scaleout.update(
                    units_executed=pool_stats.units_executed,
                    busy_seconds=pool_stats.busy_seconds,
                    requeues=pool_stats.requeues,
                    respawns=pool_stats.respawns,
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
            cache_summary["inference_cached"] = sum(r.cached for r in inference_results)
            cache_summary["shipment_deduped"] = (
                shipment.deduped if shipment is not None else 0
            )
            cache_summary["fetched_bytes"] = download.fetched_bytes

            # Streaming dataflow accounting: per-edge queue depth / stall /
            # wait rollups (None behind the barrier, whose unbounded
            # channels are a hand-off, not a pipeline).  The stage-overlap
            # seconds the pipelining bought come off the timeline.
            stream_summary: Optional[Dict[str, object]] = None
            if use_stream:
                hub = state[STREAMS_KEY]
                edge_stats = {s.edge: s.as_dict() for s in hub.stats()}
                stream_summary = {"enabled": True, "edges": edge_stats}

            errors = list(worker.errors)
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
                chaos=chaos_summary,
                inference_quarantined=list(worker.quarantined),
                resumed_items=int(totals["resumed_items"]),
                replayed_items=int(totals["replayed_items"]),
                manifest_mismatches=int(totals["manifest_mismatches"]),
                journal=journal.summary() if journal is not None else None,
                stream=stream_summary,
                stage_overlap_seconds=timeline.overlaps(
                    [node.name for node in plan.nodes]
                ),
                scaleout=scaleout,
                cache=cache_summary,
            )
        finally:
            ctx.close()
