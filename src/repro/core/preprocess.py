"""Stage 2 — Preprocess: swaths to ocean-cloud tile NetCDFs.

Real-execution flavour of Section III stage 2: for each granule set, fuse
MOD02 radiances with MOD03 geolocation and MOD06 cloud/land masks,
extract ocean-cloud tiles, and write one tile NetCDF per granule.  Work
fans out through the Parsl-like DataFlowKernel (one app invocation per
granule), matching the paper's one-file-per-task decomposition.

Output files appear atomically (temp + rename), so the Monitor stage can
treat presence as completeness.

Each granule set is one :class:`~repro.runtime.unit.WorkUnit`: the stage
runtime's middleware supplies the journal resume/skip/complete protocol,
the worker-stall chaos surface, and the skip_existing short-circuit; the
body below is only the science — read, validate, extract, write.  A
granule whose inputs are corrupt still fails *its own task only*; the
stage records a :class:`QuarantineRecord` at the fan-in and continues.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional

from repro.chaos.engine import FaultInjector
from repro.chaos.surfaces import chaos_atomic_write
from repro.compute import LocalComputeEndpoint
from repro.core.artifact_cache import input_digest, tiles_key
from repro.core.branches import unit_name
from repro.core.config import EOMLConfig
from repro.core.download import GranuleSet
from repro.instruments.registry import get_instrument
from repro.instruments.tiling import FIDELITY_COARSE, extract_tiles, tiles_to_dataset
from repro.journal import WorkflowJournal
from repro.netcdf import read as nc_read
from repro.pexec import DataFlowKernel
from repro.runtime import (
    CACHED,
    RESUMED,
    SKIPPED,
    CachePolicy,
    StageExecutor,
    UnitResult,
    WorkUnit,
    build_executor,
)
from repro.runtime.proc import ProcWorkerPool, WorkEnvelope, WorkerCrashed

__all__ = [
    "PreprocessResult",
    "PreprocessReport",
    "PreprocessStage",
    "QuarantineRecord",
    "preprocess_granule_set",
]


@dataclass(frozen=True)
class QuarantineRecord:
    """One work item set aside instead of crashing a stage."""

    key: str      # granule-set key or file path
    error: str

    def describe(self) -> str:
        return f"{self.key}: {self.error}"


@dataclass(frozen=True)
class PreprocessResult:
    """Outcome of preprocessing one granule set."""

    key: str
    tile_path: Optional[str]  # None when no tile passed selection
    tiles: int
    seconds: float
    outcome: str = "done"     # runtime outcome (done/resumed/skipped/cached)


@dataclass
class PreprocessReport:
    results: List[PreprocessResult]
    seconds: float
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    @property
    def total_tiles(self) -> int:
        return sum(r.tiles for r in self.results)

    @property
    def cached(self) -> int:
        """Granule sets replayed from the content-addressed store."""
        return sum(r.outcome == CACHED for r in self.results)

    @property
    def throughput_tiles_per_s(self) -> float:
        return self.total_tiles / self.seconds if self.seconds > 0 else float("inf")


def _preprocess_unit(
    granules: GranuleSet,
    out_dir: str,
    tile_size: int,
    cloud_threshold: float,
    max_land_fraction: float,
    skip_existing: bool,
    instrument: str = "modis",
    coarse_stride: int = 1,
) -> WorkUnit:
    """One granule set's tiling as a work unit."""
    final_path = os.path.join(out_dir, f"tiles_{granules.key.replace('.', '_')}.nc")
    fidelity = FIDELITY_COARSE if coarse_stride > 1 else None

    def precheck(ctx) -> Optional[UnitResult]:
        # A journal redo decision means the same-named file cannot be
        # trusted; otherwise a previously produced tile file
        # short-circuits the work, making re-runs idempotent.
        if not ctx.redo and skip_existing and os.path.exists(final_path):
            existing = nc_read(final_path)
            tiles = int(existing.get_attr("num_tiles")[0])
            return UnitResult(
                outcome=SKIPPED, artifact=final_path, payload={"tiles": tiles}
            )
        return None

    # The derived key binds the output to the tiler knobs AND the input
    # digests, so a changed granule or parameter can never replay a
    # stale tile file.  Hashing the inputs is paid lazily — only when a
    # CAS is actually attached — and usually comes free from the
    # manifest (the download stage already recorded every digest).
    key_box: dict = {}

    def _cache_key(ctx) -> str:
        if "key" not in key_box:
            digests = [
                input_digest(path, journal=ctx.journal)
                for path in granules.paths.values()
            ]
            key_box["key"] = tiles_key(
                instrument, granules.key, tile_size, cloud_threshold,
                max_land_fraction, coarse_stride, digests,
            )
        return key_box["key"]

    def cache_lookup(ctx, cas) -> Optional[UnitResult]:
        if not ctx.redo and skip_existing and os.path.exists(final_path):
            return None  # the precheck owns an already-present file
        record = cas.get_key(_cache_key(ctx))
        if record is None:
            return None
        digest = record.get("digest")
        if digest is None:
            # A tileless granule set: the (empty) result itself is cached.
            return UnitResult(
                outcome=CACHED, artifact=None,
                payload={"tiles": int(record.get("tiles", 0))},
            )
        nbytes = cas.materialize(digest, final_path)
        if nbytes is None:
            return None
        return UnitResult(
            outcome=CACHED,
            artifact=final_path,
            payload={
                "tiles": int(record.get("tiles", 0)),
                "sha256": digest,
                "nbytes": nbytes,
            },
        )

    def cache_store(ctx, cas, result) -> None:
        payload = result.payload or {}
        if result.artifact is None:
            if int(payload.get("tiles", -1)) == 0:
                cas.put_key(_cache_key(ctx), {"digest": None, "tiles": 0})
            return
        digest = cas.store_file(result.artifact, digest=payload.get("sha256"))
        if digest:
            cas.put_key(
                _cache_key(ctx),
                {"digest": digest, "tiles": int(payload.get("tiles", 0))},
            )

    def body(ctx) -> UnitResult:
        ctx.begin()
        # The instrument owns its product families, file contracts, and
        # mask fusion (interface validation happens inside load_scene,
        # Section V-A): the stage body is instrument-agnostic science.
        scene = get_instrument(instrument).load_scene(granules)
        tiles = extract_tiles(
            radiance=scene.radiance,
            cloud_mask=scene.cloud_mask,
            land_mask=scene.land_mask,
            latitude=scene.latitude,
            longitude=scene.longitude,
            tile_size=tile_size,
            optical_thickness=scene.optical_thickness,
            cloud_top_pressure=scene.cloud_top_pressure,
            cloud_threshold=cloud_threshold,
            max_land_fraction=max_land_fraction,
            source=granules.key,
            coarse_stride=coarse_stride,
        )
        if not tiles:
            # A tileless granule is a real completion (nothing to redo).
            return UnitResult(outcome="done", artifact=None, payload={"tiles": 0})
        ds = tiles_to_dataset(
            tiles,
            source=granules.key,
            fidelity=fidelity,
            coarse_stride=coarse_stride,
            source_files=dict(granules.paths) if fidelity else None,
        )
        ds.set_attr("true_regime", scene.attrs.get("true_regime", "unknown"))
        nbytes, digest = chaos_atomic_write(
            ds, final_path, chaos=ctx.chaos, stage="preprocess", key=granules.key
        )
        return UnitResult(
            outcome="done",
            artifact=final_path,
            payload={"tiles": len(tiles), "sha256": digest, "nbytes": nbytes},
        )

    return WorkUnit(
        stage="preprocess", key=granules.key, body=body, precheck=precheck,
        cache=CachePolicy(lookup=cache_lookup, store=cache_store),
    )


def preprocess_granule_set(
    granules: GranuleSet,
    out_dir: str,
    tile_size: int,
    cloud_threshold: float,
    max_land_fraction: float,
    skip_existing: bool = True,
    chaos: Optional[FaultInjector] = None,
    journal: Optional[WorkflowJournal] = None,
    executor: Optional[StageExecutor] = None,
    instrument: str = "modis",
    coarse_stride: int = 1,
    cache: Optional[object] = None,
) -> PreprocessResult:
    """The per-granule task body (pure function; safe for any executor).

    With ``skip_existing`` a previously produced tile file short-circuits
    the work, making re-runs of an interrupted workflow idempotent.
    With a journal, resume decisions take precedence: a journaled
    completion whose manifest entry verifies is returned without any
    file I/O, and a mid-flight or mismatched item is redone even if a
    same-named file exists (it cannot be trusted).  Errors propagate to
    the caller — the fan-out stage quarantines at its fan-in.
    """
    started = time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    if executor is None:
        executor = build_executor(journal=journal, chaos=chaos, cache=cache)
    unit = _preprocess_unit(
        granules,
        out_dir,
        tile_size,
        cloud_threshold,
        max_land_fraction,
        skip_existing,
        instrument=instrument,
        coarse_stride=coarse_stride,
    )
    result = executor.execute(unit)
    if result.outcome == RESUMED:
        return PreprocessResult(
            key=granules.key,
            tile_path=result.payload.get("artifact") or None,
            tiles=int(result.payload.get("tiles", 0)),
            seconds=time.monotonic() - started,
            outcome=result.outcome,
        )
    return PreprocessResult(
        key=granules.key,
        tile_path=result.artifact,
        tiles=int(result.payload.get("tiles", 0)),
        seconds=time.monotonic() - started,
        outcome=result.outcome,
    )


class PreprocessStage:
    """Fan granule sets over a DataFlowKernel (Parsl-style)."""

    def __init__(
        self,
        config: EOMLConfig,
        dfk: Optional[DataFlowKernel] = None,
        chaos: Optional[FaultInjector] = None,
        journal: Optional[WorkflowJournal] = None,
        pool: Optional[ProcWorkerPool] = None,
        cache: Optional[object] = None,
    ):
        self.config = config
        self.chaos = chaos
        self.journal = journal
        self.pool = pool
        self.cache = cache
        self._dfk = dfk
        self._owns_dfk = dfk is None
        self._executor = build_executor(journal=journal, chaos=chaos, cache=cache)
        # Scale-out envelopes carry the branch tag so pool workers
        # rebuild the right per-instrument context ("" = classic kind).
        self._kind = unit_name("preprocess", config.branch)

    def run(self, granule_sets: Iterable[GranuleSet]) -> PreprocessReport:
        """Fan out over an iterable that may still be producing.

        Each granule set is submitted the moment it arrives (for a plain
        list this is the barrier fan-out), so tiling overlaps the
        upstream downloads when the input is a stream channel.  Finished
        tasks are settled eagerly in submission order — quarantine-and-
        continue per task: one corrupt granule must not abort its
        siblings — and the call returns only when every submitted task
        has settled.

        Where a task runs is the submit callable's business: the
        Parsl-style DataFlowKernel in-process, or one pool envelope per
        scene (sharded by scene key).  Quarantine-and-continue holds
        across the process boundary — a task failure comes back as
        :class:`WorkerTaskError` carrying the worker-side message, so
        the quarantine record matches the in-process path byte for
        byte.  A :class:`WorkerCrashed` (the worker died and requeues
        are exhausted) is *not* a bad granule and propagates, like any
        infrastructure failure.
        """
        os.makedirs(self.config.preprocessed, exist_ok=True)
        started = time.monotonic()
        dfk: Optional[DataFlowKernel] = None
        if self.pool is not None:
            def submit(granules: GranuleSet):
                return self.pool.submit(
                    WorkEnvelope(self._kind, granules.key, granules)
                )
        else:
            dfk = self._dfk or DataFlowKernel(
                {
                    "preprocess": LocalComputeEndpoint(
                        "preprocess", max_workers=self.config.workers.preprocess
                    )
                }
            )

            def submit(granules: GranuleSet):
                return dfk.submit(
                    preprocess_granule_set,
                    args=(
                        granules,
                        self.config.preprocessed,
                        self.config.tile_size,
                        self.config.cloud_threshold,
                        self.config.max_land_fraction,
                    ),
                    kwargs={
                        "executor": self._executor,
                        "instrument": self.config.instrument,
                        "coarse_stride": self.config.coarse_stride,
                    },
                )

        results: List[PreprocessResult] = []
        quarantined: List[QuarantineRecord] = []
        pending: Deque = deque()

        def settle(block: bool) -> None:
            while pending and (block or pending[0][1].done()):
                granules, future = pending.popleft()
                try:
                    results.append(future.result())
                except WorkerCrashed:
                    raise
                except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                    quarantined.append(QuarantineRecord(key=granules.key, error=str(exc)))

        try:
            for granules in granule_sets:
                pending.append((granules, submit(granules)))
                settle(block=False)
            settle(block=True)
        finally:
            if dfk is not None and self._owns_dfk:
                dfk.shutdown()
        return PreprocessReport(
            results=results, seconds=time.monotonic() - started, quarantined=quarantined
        )
