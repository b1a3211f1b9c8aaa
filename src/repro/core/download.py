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

A granule the content-addressed store already holds is not staged at
all: the hit is a lookup, and the granule's digest rides the scene's
:class:`GranuleSet` downstream.  Whoever opens the file — preprocess on
a ``tiles:`` miss, the tile refiner — first calls :meth:`DownloadStage.
stage_in`, which materializes it from the store or, when the store can
not deliver, fetches it again.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

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


def _discard(path: str) -> None:
    """Remove a staged file nothing vouches for (absent is fine): a
    reader then stages verified bytes in instead of reading it."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


@dataclass(frozen=True)
class GranuleSet:
    """The product files of one (date, granule-index) acquisition.

    ``paths`` says where each product is (or will be, once staged in);
    ``digests`` holds the SHA-256 of every product whose download knew
    it, so a reader can key on the content without opening the file.
    """

    key: str                      # scene key: date + index
    paths: Dict[str, str]         # product short name -> local path
    digests: Dict[str, str] = field(default_factory=dict)  # product -> sha256

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
    # Every granule byte the run has: landed in staging, or held by the
    # store for whoever stages it in.
    nbytes: int
    seconds: float
    per_file_seconds: List[float] = field(default_factory=list)
    skipped: int = 0        # already present (skip_existing shortcut)
    resumed: int = 0        # journaled completion verified; zero work redone
    cached: int = 0         # found in the content-addressed store; staged in only when read
    retried: int = 0        # files that recovered after >= 1 transient failure
    retry_attempts: int = 0  # total retry attempts across all files
    # Bytes that actually crossed the archive link (fetched + retried
    # only) — the honest "bytes moved" figure the cache benchmark gates
    # on.
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
        # Stage-in bookkeeping: the catalog by filename (planned once per
        # copy of the stage) and one lock per granule being staged in.
        self._catalog: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()
        self._staging: Dict[str, threading.Lock] = {}

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
        self._catalog = {ref.filename: ref for ref in refs}
        return refs

    def _final_path(self, ref: Any) -> str:
        return os.path.join(self.config.staging, ref.filename + ".nc")

    def _known_digest(self, ref: Any, cas: Any) -> Optional[str]:
        """A catalog-declared content digest wins; otherwise the
        derived-key table remembers what a prior run fetched."""
        digest = getattr(ref, "sha256", None)
        if not digest:
            record = cas.get_key(granule_key(self.config, ref.filename)) or {}
            digest = record.get("digest")
        return digest or None

    def _unit_for(self, ref: Any, redo: bool = False) -> WorkUnit:
        """One granule download as a work unit.

        ``redo`` is the stage-in fetch of a granule the store could not
        deliver: no shortcut applies (the file is absent and the store
        has failed), and the journaled completion of the deferred hit —
        which is what sent the reader here — must not short-circuit it,
        so the unit only records its own completion.
        """
        key = ref.filename
        final_path = self._final_path(ref)

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

        def cache_lookup(ctx, cas) -> Optional[UnitResult]:
            # Let the precheck own an already-present file (preserves the
            # "skipped" accounting and does zero cache I/O for it).
            if not ctx.redo and self.config.skip_existing and os.path.exists(final_path):
                return None
            digest = self._known_digest(ref, cas)
            if digest is None:
                return None
            # A hit stages nothing: the completion carries the digest and
            # size but no artifact, and the bytes stay in the store until
            # a reader stages them in.
            nbytes = cas.lookup(digest)
            if nbytes is None:
                return None
            if ctx.redo or not self.config.skip_existing:
                # A file here is one the journal ruled untrustworthy, or
                # one skip_existing did not vouch for.
                _discard(final_path)
            return UnitResult(
                outcome=CACHED, value=nbytes, payload={"sha256": digest, "nbytes": nbytes}
            )

        def cache_store(ctx, cas, result) -> None:
            if result.artifact is None:
                return
            payload = result.payload or {}
            digest = cas.store_file(result.artifact, digest=payload.get("sha256"))
            if digest:
                cas.put_key(granule_key(self.config, ref.filename), {"digest": digest})

        return WorkUnit(
            stage="download",
            key=key,
            body=body,
            journal_phase="close" if redo else "unit",
            precheck=None if redo else precheck,
            cache=CachePolicy(lookup=None if redo else cache_lookup, store=cache_store),
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
    ) -> Tuple[Any, Optional[str], int, float, str, int, Optional[str], Optional[str]]:
        """The unit entry point: download one granule through the stage
        runtime, wherever this copy of the stage lives.

        Returns (ref, path, nbytes, seconds, outcome, retry_attempts,
        error, sha256) with outcome one of "fetched", "resumed"
        (journaled completion that still holds — zero work), "skipped"
        (already present from a prior run), "cached" (the store holds
        it; nothing staged), "retried" (fetched after >= 1 transient
        failure), or "failed" (budget exhausted, on_exhausted="skip").
        ``path`` is where the granule is, or will be once staged in;
        ``sha256`` is its digest when the outcome knew it.
        """
        started = time.monotonic()
        final_path = self._final_path(ref)
        result = self.ctx.executor.execute(self._unit_for(ref))
        digest = result.payload.get("sha256")
        if result.outcome == RESUMED:
            if result.artifact is None:
                # The resumed hit journaled no file: one at the path now
                # was staged in after it, and nothing vouches for it since.
                _discard(final_path)
            nbytes = int(result.payload.get("nbytes", 0)) or os.path.getsize(final_path)
            return ref, final_path, nbytes, 0.0, "resumed", 0, None, digest
        if result.outcome == SKIPPED:
            return ref, final_path, int(result.value), 0.0, "skipped", 0, None, digest
        if result.outcome == CACHED:
            return ref, final_path, int(result.value), 0.0, "cached", 0, None, digest
        seconds = time.monotonic() - started
        if result.outcome == FAILED:
            return ref, None, 0, seconds, "failed", result.attempts, result.error, digest
        outcome = "retried" if result.outcome == RETRIED else "fetched"
        return (
            ref, final_path, int(result.value), seconds, outcome, result.attempts,
            None, digest,
        )

    def stage_in(
        self, paths: Mapping[str, str], digests: Optional[Mapping[str, str]] = None
    ) -> Dict[str, str]:
        """Make every granule of ``paths`` readable; returns where each is.

        A file that exists is read where it is: the stage leaves only
        fetched, journaled or verified bytes there.  An absent one is staged
        in at this stage's staging path: materialized from the store
        (digest-verified; a bad object is quarantined), or — when the
        store can not deliver it — fetched from the archive by its own
        download unit run again as a redo, which journals the new
        artifact.  ``digests`` (product -> sha256, from the scene token)
        saves the key-table lookup.  Raises when a granule can not be
        had at all, so the reader fails like one whose input is bad.
        """
        digests = digests or {}
        return {
            product: (
                path if os.path.exists(path)
                else self._stage_in_one(path, digests.get(product))
            )
            for product, path in paths.items()
        }

    def _stage_in_one(self, path: str, digest: Optional[str]) -> str:
        if self._catalog is None:
            self.plan()
        ref = self._catalog.get(os.path.basename(path)[: -len(".nc")])
        if ref is None:
            raise FileNotFoundError(f"granule {path} is neither staged nor in the catalog")
        final_path = self._final_path(ref)
        with self._lock:
            lock = self._staging.setdefault(ref.filename, threading.Lock())
        with lock:
            if os.path.exists(final_path):
                return final_path
            cas = self.ctx.cache
            if cas is not None:
                digest = digest or self._known_digest(ref, cas)
                # The download's lookup (this run's, or the one it
                # resumes) counted this hit; delivering it is no second.
                if digest and cas.materialize(digest, final_path, counted=False) is not None:
                    return final_path
            os.makedirs(self.config.staging, exist_ok=True)
            result = self.ctx.executor.execute(self._unit_for(ref, redo=True))
            if not result.ok:
                raise RuntimeError(result.error or f"stage-in of {ref.filename} failed")
        return final_path

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
        digests: Dict[str, Dict[str, str]] = {}
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

        def granule_set(scene_key: str) -> GranuleSet:
            return GranuleSet(
                key=scene_key,
                paths=by_scene[scene_key],
                digests=digests.get(scene_key, {}),
            )

        def settle(ref, path, nbytes, seconds, outcome, attempts, error, digest) -> None:
            nonlocal total_bytes, files, skipped, resumed, cached, retried
            nonlocal retry_attempts, fetched_bytes
            scene_key = ref.gid.scene_key
            retry_attempts += attempts if outcome != "failed" else max(0, attempts - 1)
            if outcome == "failed":
                failed.append(error or f"download of {ref.filename} failed")
            else:
                by_scene.setdefault(scene_key, {})[ref.gid.product] = path
                if digest:
                    digests.setdefault(scene_key, {})[ref.gid.product] = digest
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
            if set(by_scene.get(scene_key, {})) < planned[scene_key]:
                incomplete.append(scene_key)
                if on_scene is not None:
                    on_scene(scene_key, None)
            elif on_scene is not None:
                on_scene(scene_key, granule_set(scene_key))

        # One unit per granule, keyed by filename.  settle() is
        # order-independent, so units settle in completion order.
        futures = [self.ctx.submit(self, ref.filename, ref) for ref in refs]
        for future in as_completed(futures):
            settle(*future.result())
        for scene_key in sorted(by_scene):
            if not (set(by_scene[scene_key]) < planned.get(scene_key, set())):
                granule_sets.append(granule_set(scene_key))
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
