"""Stage 2 — Preprocess: swaths to ocean-cloud tile NetCDFs.

Real-execution flavour of Section III stage 2: for each granule set, fuse
MOD02 radiances with MOD03 geolocation and MOD06 cloud/land masks,
extract ocean-cloud tiles, and write one tile NetCDF per granule.  Work
fans out one submitted unit per granule set — the paper's Parsl
one-file-per-task decomposition; the run context decides where each
unit executes.

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
from dataclasses import dataclass, field, replace
from typing import Deque, Iterable, List, Optional

from repro.chaos.surfaces import chaos_atomic_write
from repro.core.artifact_cache import StageIn, input_digest, on_disk, tiles_key
from repro.core.branches import unit_name
from repro.core.config import EOMLConfig
from repro.core.context import RunContext
from repro.core.download import GranuleSet
from repro.instruments.registry import get_instrument
from repro.instruments.tiling import FIDELITY_COARSE, extract_tiles, tiles_to_dataset
from repro.netcdf import read as nc_read
from repro.runtime import (
    CACHED,
    RESUMED,
    SKIPPED,
    CachePolicy,
    UnitResult,
    WorkerCrashed,
    WorkUnit,
)

__all__ = [
    "PreprocessResult",
    "PreprocessReport",
    "PreprocessStage",
    "QuarantineRecord",
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


class PreprocessStage:
    """Tile granule sets: one submitted unit per scene."""

    def __init__(
        self,
        config: EOMLConfig,
        ctx: Optional[RunContext] = None,
        stage_in: StageIn = on_disk,
    ):
        self.config = config
        self.ctx = ctx or RunContext()
        # The download stage's stage_in (on_disk: every granule is staged).
        self.stage_in = stage_in
        # The unit kind carries the branch tag, so whoever executes a
        # unit resolves the right per-instrument slice ("" = bare kind).
        self.kind = unit_name("preprocess", config.branch)
        self.workers = config.workers.preprocess

    def _unit_for(self, granules: GranuleSet) -> WorkUnit:
        """One granule set's tiling as a work unit."""
        config = self.config
        final_path = os.path.join(
            config.preprocessed, f"tiles_{granules.key.replace('.', '_')}.nc"
        )
        fidelity = FIDELITY_COARSE if config.coarse_stride > 1 else None

        def precheck(ctx) -> Optional[UnitResult]:
            # A journal redo decision means the same-named file cannot be
            # trusted; otherwise a previously produced tile file
            # short-circuits the work, making re-runs idempotent.
            if not ctx.redo and os.path.exists(final_path):
                existing = nc_read(final_path)
                tiles = int(existing.get_attr("num_tiles")[0])
                return UnitResult(
                    outcome=SKIPPED, artifact=final_path, payload={"tiles": tiles}
                )
            return None

        # The derived key binds the output to the tiler knobs AND the input
        # digests, so a changed granule or parameter can never replay a
        # stale tile file.  The digests ride the scene token (the download
        # stage knew them); only a granule whose download did not — a
        # skip_existing file — is looked up in the manifest or hashed.
        key_box: dict = {}

        def _cache_key(ctx) -> str:
            if "key" not in key_box:
                digests = [
                    granules.digests.get(product)
                    or input_digest(path, journal=ctx.journal)
                    for product, path in granules.paths.items()
                ]
                key_box["key"] = tiles_key(
                    config.instrument, granules.key, config.tile_size,
                    config.cloud_threshold, config.max_land_fraction,
                    config.coarse_stride, digests,
                )
            return key_box["key"]

        def cache_lookup(ctx, cas) -> Optional[UnitResult]:
            if not ctx.redo and os.path.exists(final_path):
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
            # Only a miss opens the granules, so only a miss stages them in.
            staged = replace(
                granules, paths=self.stage_in(granules.paths, granules.digests)
            )
            # The instrument owns its product families, file contracts, and
            # mask fusion (interface validation happens inside load_scene,
            # Section V-A): the stage body is instrument-agnostic science.
            scene = get_instrument(config.instrument).load_scene(staged)
            tiles = extract_tiles(
                radiance=scene.radiance,
                cloud_mask=scene.cloud_mask,
                land_mask=scene.land_mask,
                latitude=scene.latitude,
                longitude=scene.longitude,
                tile_size=config.tile_size,
                optical_thickness=scene.optical_thickness,
                cloud_top_pressure=scene.cloud_top_pressure,
                cloud_threshold=config.cloud_threshold,
                max_land_fraction=config.max_land_fraction,
                source=granules.key,
                coarse_stride=config.coarse_stride,
            )
            if not tiles:
                # A tileless granule is a real completion (nothing to redo).
                return UnitResult(outcome="done", artifact=None, payload={"tiles": 0})
            ds = tiles_to_dataset(
                tiles,
                source=granules.key,
                fidelity=fidelity,
                coarse_stride=config.coarse_stride,
                source_files=dict(staged.paths) if fidelity else None,
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

    def execute(self, granules: GranuleSet) -> PreprocessResult:
        """The unit entry point: tile one granule set, wherever this copy
        of the stage lives.

        A previously produced tile file short-circuits the work, making
        re-runs of an interrupted workflow idempotent.  With a journal,
        resume decisions take precedence: a journaled completion whose
        manifest entry verifies is returned without any file I/O, and a
        mid-flight or mismatched item is redone even if a same-named
        file exists (it cannot be trusted).  Errors propagate to the
        caller — :meth:`run` quarantines at its fan-in.
        """
        started = time.monotonic()
        os.makedirs(self.config.preprocessed, exist_ok=True)
        result = self.ctx.executor.execute(self._unit_for(granules))
        # A resumed unit's artifact is whatever the journal recorded.
        tile_path = (
            result.payload.get("artifact") or None
            if result.outcome == RESUMED
            else result.artifact
        )
        return PreprocessResult(
            key=granules.key,
            tile_path=tile_path,
            tiles=int(result.payload.get("tiles", 0)),
            seconds=time.monotonic() - started,
            outcome=result.outcome,
        )

    def run(self, granule_sets: Iterable[GranuleSet]) -> PreprocessReport:
        """Fan out over an iterable that may still be producing.

        Each granule set is submitted the moment it arrives (for a plain
        list this is the barrier fan-out), so tiling overlaps the
        upstream downloads when the input is a stream channel.  Finished
        units are settled eagerly in submission order — quarantine-and-
        continue per unit: one corrupt granule must not abort its
        siblings — and the call returns only when every submitted unit
        has settled.

        Quarantine-and-continue holds wherever a unit ran: its failure
        comes back through the future carrying the unit's own message,
        so the quarantine record is byte-identical.  A
        :class:`WorkerCrashed` (the process executing the unit was lost)
        is *not* a bad granule and propagates, like any infrastructure
        failure.
        """
        started = time.monotonic()
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

        for granules in granule_sets:
            pending.append((granules, self.ctx.submit(self, granules.key, granules)))
            settle(block=False)
        settle(block=True)
        return PreprocessReport(
            results=results, seconds=time.monotonic() - started, quarantined=quarantined
        )
