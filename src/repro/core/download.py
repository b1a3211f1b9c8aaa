"""Stage 1 — Download: acquire MODIS granules onto the staging filesystem.

Real-execution flavour of Section III stage 1: the catalog query comes
from the workflow YAML (products + time span), downloads fan out over a
Globus-Compute-style worker pool, and each completed file lands in the
staging directory.  "Downloading" from the synthetic LAADS archive means
materializing the granule's deterministic content and writing it as
NetCDF — the same bytes a real pull would deliver, produced locally.

Files are written atomically (temp name + rename) so the downstream
barrier ("preprocessing is delayed until all downloads are complete")
guards against partially-written files exactly as the paper describes.

Each granule is one :class:`~repro.runtime.unit.WorkUnit` executed
through the shared stage runtime: the middleware stack supplies journal
resume/complete, retry with capped backoff, the per-host circuit
breaker, and quarantine policy (``download.on_exhausted``), so this
module only states *what* a download is — fetch + atomic write — and
its policies.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.surfaces import ChaosArchive, chaos_atomic_write
from repro.core.artifact_cache import granule_key
from repro.core.branches import unit_name
from repro.core.config import EOMLConfig
from repro.core.context import RunContext
from repro.instruments.registry import get_instrument
from repro.net.retry import CircuitBreaker
from repro.runtime import (
    CACHED,
    FAILED,
    RESUMED,
    RETRIED,
    SKIPPED,
    CachePolicy,
    FailurePolicy,
    RetrySpec,
    UnitResult,
    WorkUnit,
)

__all__ = ["GranuleSet", "DownloadReport", "DownloadStage"]

# The default archive host (the MODIS/LAADS breaker key); each
# instrument supplies its own via ``Instrument.archive_host``.
ARCHIVE_HOST = "laads"


@dataclass(frozen=True)
class GranuleSet:
    """The product files of one (date, granule-index) acquisition."""

    key: str                      # scene key: date + index
    paths: Dict[str, str]         # product short name -> local path

    def path_for(self, family: str) -> str:
        """Find the file of a product family ('021KM', '03', '06_L2')."""
        for product, path in self.paths.items():
            if product.endswith(family):
                return path
        raise KeyError(f"granule set {self.key} has no product family {family!r}")


@dataclass
class DownloadReport:
    """What the download stage produced."""

    granule_sets: List[GranuleSet]
    files: int
    nbytes: int
    seconds: float
    per_file_seconds: List[float] = field(default_factory=list)
    skipped: int = 0        # already present (skip_existing shortcut)
    resumed: int = 0        # journaled completion verified; zero work redone
    cached: int = 0         # materialized from the content-addressed store
    retried: int = 0        # files that recovered after >= 1 transient failure
    retry_attempts: int = 0  # total retry attempts across all files
    # Bytes that actually crossed the archive link (fetched + retried
    # only) — the honest "bytes moved" figure the cache benchmark gates
    # on; ``nbytes`` keeps counting every byte landed in staging.
    fetched_bytes: int = 0
    failed: List[str] = field(default_factory=list)       # exhausted-retry messages
    incomplete: List[str] = field(default_factory=list)   # scene keys dropped
    breaker_trips: int = 0


class DownloadStage:
    """Parallel downloads: one submitted unit per granule file."""

    def __init__(
        self,
        config: EOMLConfig,
        ctx: Optional[RunContext] = None,
        archive: Optional[Any] = None,
    ):
        self.config = config
        self.ctx = ctx or RunContext()
        instrument = get_instrument(config.instrument)
        self.archive = archive or instrument.build_archive(seed=config.seed)
        self._host = instrument.archive_host
        # The unit kind carries the branch tag, so whoever executes a
        # unit resolves the right per-instrument slice ("" = bare kind).
        self.kind = unit_name("download", config.branch)
        self.workers = config.workers.download
        if self.ctx.chaos is not None:
            self.archive = ChaosArchive(
                self.archive, self.ctx.chaos, sleeper=self.ctx.sleeper
            )
        self.backoff = config.download_backoff
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_after=config.breaker_reset,
        )

    def plan(self) -> List[Any]:
        """The catalog query: every product over the configured span.

        Refs come back scene-major (all products of one acquisition
        before the next acquisition starts), so whole scenes complete as
        early as possible — a product-major order would finish every
        scene at roughly the same instant, which starves the streaming
        ``download -> preprocess`` hand-off of anything to overlap.
        """
        refs: List[Any] = []
        for product in self.config.products:
            refs.extend(
                self.archive.query(
                    product,
                    self.config.start_date,
                    self.config.end_date,
                    max_per_day=self.config.max_granules_per_day,
                )
            )
        refs.sort(key=lambda ref: (ref.gid.scene_key, ref.gid.product))
        return refs

    def _unit_for(self, ref: Any) -> WorkUnit:
        """One granule download as a work unit."""
        key = ref.filename
        final_path = os.path.join(self.config.staging, ref.filename + ".nc")

        def precheck(ctx) -> Optional[UnitResult]:
            # A replay decision means the file on disk (if any) cannot be
            # trusted: bypass the skip_existing shortcut and re-fetch.
            if not ctx.redo and self.config.skip_existing and os.path.exists(final_path):
                return UnitResult(
                    outcome=SKIPPED,
                    artifact=final_path,
                    value=os.path.getsize(final_path),
                )
            return None

        def body(ctx) -> UnitResult:
            ctx.begin()
            ds = self.archive.fetch(ref)
            nbytes, digest = chaos_atomic_write(
                ds, final_path, chaos=self.ctx.chaos, stage="download", key=key
            )
            return UnitResult(
                outcome="done",
                artifact=final_path,
                value=nbytes,
                payload={"sha256": digest, "nbytes": nbytes},
            )

        def cleanup() -> None:
            # Retry budget exhausted: remove any torn temp file so crashed
            # writes leave no litter for the barrier to trip on.
            temp_path = final_path + ".part"
            if os.path.exists(temp_path):
                os.remove(temp_path)

        cache_key = granule_key(self.config, ref.filename)

        def cache_lookup(ctx, cas) -> Optional[UnitResult]:
            # Let the precheck own an already-present file (preserves the
            # "skipped" accounting and does zero cache I/O for it).
            if not ctx.redo and self.config.skip_existing and os.path.exists(final_path):
                return None
            # A catalog-declared content digest wins; otherwise the
            # derived-key table remembers what a prior run fetched.
            digest = getattr(ref, "sha256", None)
            if not digest:
                record = cas.get_key(cache_key) or {}
                digest = record.get("digest")
            if not digest:
                return None
            nbytes = cas.materialize(digest, final_path)
            if nbytes is None:
                return None
            return UnitResult(
                outcome=CACHED,
                artifact=final_path,
                value=nbytes,
                payload={"sha256": digest, "nbytes": nbytes},
            )

        def cache_store(ctx, cas, result) -> None:
            if result.artifact is None:
                return
            payload = result.payload or {}
            digest = cas.store_file(result.artifact, digest=payload.get("sha256"))
            if digest:
                cas.put_key(cache_key, {"digest": digest})

        return WorkUnit(
            stage="download",
            key=key,
            body=body,
            precheck=precheck,
            cache=CachePolicy(lookup=cache_lookup, store=cache_store),
            retry=RetrySpec(
                retries=self.config.download_retries,
                backoff=self.backoff,
                breaker=self.breaker,
                host=self._host,
                retry_on=(OSError, RuntimeError),
                sleeper=self.ctx.sleeper,
            ),
            failure=FailurePolicy(
                on_exhausted=(
                    "record" if self.config.download_on_exhausted == "skip" else "raise"
                ),
                describe=lambda attempts, error: (
                    f"download of {ref.filename} failed after {attempts} attempts: {error}"
                ),
                cleanup=cleanup,
            ),
        )

    def execute(
        self, ref: Any
    ) -> Tuple[Any, Optional[str], int, float, str, int, Optional[str]]:
        """The unit entry point: download one granule through the stage
        runtime, wherever this copy of the stage lives.

        Returns (ref, path, nbytes, seconds, outcome, retry_attempts,
        error) with outcome one of "fetched", "resumed" (journaled
        completion whose manifest entry verifies — zero work), "skipped"
        (already present from a prior run), "cached" (materialized from
        the content-addressed store instead of the archive), "retried"
        (fetched after >= 1 transient failure), or "failed" (budget
        exhausted, on_exhausted="skip").
        """
        started = time.monotonic()
        final_path = os.path.join(self.config.staging, ref.filename + ".nc")
        result = self.ctx.executor.execute(self._unit_for(ref))
        if result.outcome == RESUMED:
            nbytes = int(result.payload.get("nbytes", 0)) or os.path.getsize(final_path)
            return ref, final_path, nbytes, 0.0, "resumed", 0, None
        if result.outcome == SKIPPED:
            return ref, final_path, int(result.value), 0.0, "skipped", 0, None
        if result.outcome == CACHED:
            return ref, final_path, int(result.value), 0.0, "cached", 0, None
        seconds = time.monotonic() - started
        if result.outcome == FAILED:
            return ref, None, 0, seconds, "failed", result.attempts, result.error
        outcome = "retried" if result.outcome == RETRIED else "fetched"
        return ref, final_path, int(result.value), seconds, outcome, result.attempts, None

    def run(
        self,
        on_planned: Optional[Callable[[List[str]], None]] = None,
        on_scene: Optional[Callable[[str, Optional[GranuleSet]], None]] = None,
    ) -> DownloadReport:
        """Execute all downloads; returns the manifest grouped by granule.

        Only *complete* scenes (every configured product present) appear
        in ``granule_sets``; scenes that lost a product to a permanent
        failure are quarantined into ``incomplete`` so the preprocessing
        barrier never sees a partial acquisition.

        Streaming hooks: ``on_planned`` receives the sorted scene keys of
        the catalog query before any fetch completes; ``on_scene`` fires
        the moment a scene's last planned product settles — with the
        complete :class:`GranuleSet`, or ``None`` if the scene lost a
        product.  Scenes are announced in *completion* order (that is the
        point of streaming); ``granule_sets`` in the returned report stays
        sorted by scene key, same as barrier mode.
        """
        os.makedirs(self.config.staging, exist_ok=True)
        refs = self.plan()
        # A scene is complete when every product the catalog planned for
        # it arrived (Terra and Aqua scenes plan different product sets).
        planned: Dict[str, set] = {}
        for ref in refs:
            planned.setdefault(ref.gid.scene_key, set()).add(ref.gid.product)
        if on_planned is not None:
            on_planned(sorted(planned))
        started = time.monotonic()
        by_scene: Dict[str, Dict[str, str]] = {}
        settled_products: Dict[str, int] = {}
        total_bytes = 0
        files = 0
        per_file = []
        skipped = 0
        resumed = 0
        cached = 0
        retried = 0
        retry_attempts = 0
        fetched_bytes = 0
        failed: List[str] = []
        incomplete: List[str] = []
        granule_sets: List[GranuleSet] = []

        def settle(ref, path, nbytes, seconds, outcome, attempts, error) -> None:
            nonlocal total_bytes, files, skipped, resumed, cached, retried
            nonlocal retry_attempts, fetched_bytes
            scene_key = ref.gid.scene_key
            retry_attempts += attempts if outcome != "failed" else max(0, attempts - 1)
            if outcome == "failed":
                failed.append(error or f"download of {ref.filename} failed")
            else:
                by_scene.setdefault(scene_key, {})[ref.gid.product] = path
                files += 1
                total_bytes += nbytes
                per_file.append(seconds)
                skipped += outcome == "skipped"
                resumed += outcome == "resumed"
                cached += outcome == "cached"
                retried += outcome == "retried"
                if outcome in ("fetched", "retried"):
                    fetched_bytes += nbytes
            settled_products[scene_key] = settled_products.get(scene_key, 0) + 1
            if settled_products[scene_key] < len(planned[scene_key]):
                return
            # The scene's last planned product just settled: hand it off.
            paths = by_scene.get(scene_key, {})
            if set(paths) < planned[scene_key]:
                incomplete.append(scene_key)
                if on_scene is not None:
                    on_scene(scene_key, None)
            else:
                granule_set = GranuleSet(key=scene_key, paths=paths)
                if on_scene is not None:
                    on_scene(scene_key, granule_set)

        # One unit per granule, keyed by filename.  settle() is
        # order-independent, so units settle in completion order.
        futures = [self.ctx.submit(self, ref.filename, ref) for ref in refs]
        for future in as_completed(futures):
            settle(*future.result())
        for scene_key in sorted(by_scene):
            paths = by_scene[scene_key]
            if not (set(paths) < planned.get(scene_key, set())):
                granule_sets.append(GranuleSet(key=scene_key, paths=paths))
        incomplete.sort()
        return DownloadReport(
            granule_sets=granule_sets,
            files=files,
            nbytes=total_bytes,
            seconds=time.monotonic() - started,
            per_file_seconds=per_file,
            skipped=skipped,
            resumed=resumed,
            cached=cached,
            retried=retried,
            retry_attempts=retry_attempts,
            fetched_bytes=fetched_bytes,
            failed=failed,
            incomplete=incomplete,
            breaker_trips=self.breaker.opened_total,
        )
