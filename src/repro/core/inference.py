"""Stage 4 — Inference: assign AICCA cloud classes to tile files.

Real-execution flavour of Section III stage 4 (the Globus Flow's body):
for each tile NetCDF, encode the tiles, assign nearest-centroid labels,
append the labels to the dataset, and publish the updated file to the
transfer-out directory.  An :class:`InferenceWorker` takes discovered
files one at a time, so it composes directly with the crawler.

Three hot-path optimizations live here.  *Label append*: a canonical tile
file is re-serialized by rewriting only its header and label column
(:func:`repro.netcdf.writer.splice_chunks`), streaming the radiance bytes
from the mapped tile file instead of re-encoding them.  *Micro-batching*:
a worker opportunistically drains additional queued files and fuses their
tiles into a single encoder/assign call, scattering the labels back per
file — the float32 encoder amortizes dramatically better over one large
batch than over many small ones.  *Action cache*: with a store attached
and a model persisted to a file, a tile file this model has labelled
before (in any run sharing the store) is materialized from its
``labels:`` key instead of being mapped, encoded and assigned again.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.surfaces import chaos_crash
from repro.core.artifact_cache import StageIn, TileRefiner, input_digest, labels_key, on_disk
from repro.core.branches import key_prefix, unit_name
from repro.core.config import EOMLConfig
from repro.core.context import RunContext
from repro.core.contracts import TILE_FILE
from repro.core.preprocess import QuarantineRecord
from repro.netcdf import Dataset, from_bytes as nc_from_bytes, map_file, to_chunks as nc_to_chunks
from repro.netcdf.writer import canonical_layout, splice_chunks
from repro.runtime import (
    CACHED,
    QUARANTINED,
    RESUMED,
    CachePolicy,
    FailurePolicy,
    UnitResult,
    WorkerCrashed,
    WorkUnit,
)
from repro.util.digest import Buffer, atomic_publish_chunks

__all__ = ["InferenceResult", "InferenceWorker", "set_aside"]

_STOP = object()


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of labelling one tile file."""

    src_path: str
    out_path: str
    tiles: int
    classes_seen: int
    seconds: float
    cached: bool = False  # materialized from the store, nothing labelled


def _labelled_chunks(
    ds: Dataset,
    raw: Buffer,
    labels: np.ndarray,
    num_classes: int,
    attribution: str = "RICC/AICCA",
) -> Iterator[Buffer]:
    """Give ``ds`` its ``labels`` and serialize, as chunks in file order.

    When ``raw`` (the mapped tile file ``ds`` was parsed from) is the
    canonical serialization, only the header and the label column are
    rewritten and the unchanged radiance bytes are spliced through
    verbatim from the map, a bounded buffer at a time.  The
    ``aicca_classes`` attribute name is the published LABELLED_TILE_FILE
    contract and stays fixed regardless of which model classified.
    """
    layout = canonical_layout(ds, raw)
    ds["label"].data = labels.astype(ds["label"].data.dtype)
    ds["label"].set_attr("classified_by", attribution)
    ds.set_attr("aicca_classes", int(num_classes))
    if layout is not None:
        return splice_chunks(ds, raw, layout, ("label",))
    return nc_to_chunks(ds)


def _publish(chunks: Iterable[Buffer], src_path: str, out_dir: str,
             durable: bool = True) -> Tuple[str, int, str]:
    """Atomically place the labelled bytes in the transfer-out directory.

    Full crash-consistency triple (temp + fsync + rename + dir fsync):
    the shipper and resume logic treat presence as completeness.
    Returns ``(out_path, nbytes, sha256)``; size and digest come from the
    write itself, so the manifest never re-reads the published file.
    """
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, os.path.basename(src_path))
    nbytes, digest = atomic_publish_chunks(out_path, chunks, durable=durable)
    return out_path, nbytes, digest


@dataclass
class _ParsedFile:
    """A tile file staged for an assign call."""

    path: str
    raw: Buffer       # the mapped tile file ``ds`` is a view of
    ds: Dataset
    radiance: np.ndarray  # (tiles, y, x, band) float32
    # The ``labels:`` key the labelled file is stored under once it is
    # published; None when nothing may be stored (no store, no model
    # file, or labels a failed refinement left degraded).
    cache_key: Optional[str] = None

    @classmethod
    def open(cls, path: str) -> "_ParsedFile":
        """Map, parse and validate one tile file."""
        raw = map_file(path)
        ds = nc_from_bytes(raw)
        TILE_FILE.validate(ds)
        return cls(path, raw, ds, np.asarray(ds["radiance"].data, dtype=np.float32))


def set_aside(path: str, quarantine: str) -> None:
    """Move a bad tile file out of the crawl directory so re-runs do not
    trip on it again (best-effort: the record is what matters)."""
    try:
        os.makedirs(quarantine, exist_ok=True)
        os.replace(path, os.path.join(quarantine, os.path.basename(path)))
    except OSError:
        pass


# One file's labelling outcome, the same tuple wherever the file was
# labelled: ("result", InferenceResult) or ("quarantined", error text).
Outcome = Tuple[str, Any]


class InferenceWorker:
    """The labelling stage: the crawler submits paths, units label them.

    In-process the units run on this worker's own threads (the paper
    allocates a single inference worker in the Fig. 6 run; ``workers``
    generalizes that), and each thread micro-batches: after dequeuing
    one path it drains up to ``batch_files - 1`` more without blocking,
    fuses all their tiles into one encoder/assign call, and scatters the
    labels back per file.

    A tile file that cannot be labelled (corrupt bytes, contract
    violation) is moved into the quarantine directory by whoever found
    it and recorded here — labelling keeps going, so one
    crawler-visible partial never stalls the stage.
    """

    def __init__(
        self,
        model: Any,
        config: EOMLConfig,
        ctx: Optional[RunContext] = None,
        workers: Optional[int] = None,
        batch_files: Optional[int] = None,
        on_result: Optional[Callable[[InferenceResult], None]] = None,
        stage_in: StageIn = on_disk,
    ):
        self.model = model
        self._on_result = on_result
        self.config = config
        self.ctx = ctx or RunContext()
        # Progressive fidelity: with a refine threshold configured (and
        # a model that reports margins), low-margin tiles from coarse
        # tile files get a full-resolution second pass, reading granules
        # the download stage's ``stage_in`` brings back when absent.
        threshold = getattr(config, "refine_threshold", None)
        self._refine_threshold = float(threshold) if threshold is not None else None
        self._refiner = (
            TileRefiner(config, cas=self.ctx.cache, stage_in=stage_in)
            if self._refine_threshold is not None
            else None
        )
        self._attribution = getattr(model, "attribution", "RICC/AICCA")
        # Fan-out plans share one journal across branches; the per-branch
        # key prefix ("<instrument>+<model>:") keeps same-named tile files
        # from colliding in it.  "" preserves the classic key namespace.
        self.key_prefix = key_prefix(config.branch)
        # The unit kind carries the branch tag, so whoever executes a
        # unit resolves the right per-branch slice ("" = bare kind).
        self.kind = unit_name("inference", config.branch)
        # How a copy of this stage in another process obtains the model:
        # the persisted file when one exists (loaded once per process),
        # else the object itself rides with the unit.
        model_path = self.ctx.model_path(config)
        self._model_source: Tuple[str, Any] = (
            ("path", model_path)
            if model_path and os.path.exists(model_path)
            else ("object", model)
        )
        # The model file's digest, taken on the first cache lookup.
        self._model_digest: Optional[str] = None
        self._fatal: List[str] = []
        self._durable = bool(getattr(config, "journal_durable", True))
        self.workers = workers or config.workers.inference
        self.batch_files = max(1, batch_files or getattr(config, "inference_batch_files", 1))
        self.queue: "queue.Queue" = queue.Queue()
        self.results: List[InferenceResult] = []
        self.errors: List[str] = []
        self.quarantined: List[QuarantineRecord] = []
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        # Signalled whenever a submitted file settles (result or error),
        # so drain() blocks on progress instead of busy-polling.
        self._done = threading.Condition(self._lock)
        self._submitted = 0

    # The crawler's trigger callback.
    def submit(self, path: str) -> None:
        with self._done:
            self._submitted += 1
        future = self.ctx.submit(
            self, os.path.basename(path), (path, self._model_source)
        )
        future.add_done_callback(lambda settled, path=path: self._settle(path, settled))

    def _settle(self, path: str, future: Any) -> None:
        """Fold one unit's outcome into the result/error books — the one
        fold, whichever thread or process labelled the file.

        A :class:`WorkerCrashed` is an infrastructure failure, not a bad
        file: it is recorded so drain() settles, and drain() then raises.
        """
        try:
            tag, value = future.result()
        except WorkerCrashed as exc:
            with self._done:
                self._fatal.append(f"{path}: {exc}")
            tag, value = "error", str(exc)
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            tag, value = "error", str(exc)
        if tag == "result":
            # The streaming hand-off happens *before* the result is
            # counted: a backpressured put must finish before drain() can
            # observe the queue as settled, so every labelled file
            # reaches its consumer.
            if self._on_result is not None and value.out_path:
                self._on_result(value)
            with self._done:
                self.results.append(value)
                self._done.notify_all()
            return
        with self._done:
            if tag == "quarantined":
                self.quarantined.append(QuarantineRecord(key=path, error=value))
            self.errors.append(f"{path}: {value}")
            self._done.notify_all()

    def execute(self, payload: Tuple[str, Tuple[str, Any]]) -> Outcome:
        """The unit entry point: label one tile file, wherever this copy
        of the stage lives (the payload's model source already served
        its purpose when the copy was built)."""
        return self.label([payload[0]])[0]

    # -- the in-process executor: queue + micro-batching threads -------------

    def enqueue(self, payload: Tuple[str, Tuple[str, Any]]) -> Future:
        """Queue one unit for this worker's own threads."""
        future: Future = Future()
        self.queue.put((payload[0], future))
        return future

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("inference workers already started")
        for index in range(self.workers):
            thread = threading.Thread(target=self._loop, name=f"inference-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _loop(self) -> None:
        while True:
            item = self.queue.get()
            if item is _STOP:
                return
            batch = [item]
            saw_stop = False
            # Opportunistic micro-batch: fuse whatever else is already
            # queued, never blocking, and never consuming more than this
            # thread's own stop sentinel.
            while len(batch) < self.batch_files:
                try:
                    extra = self.queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    saw_stop = True
                    break
                batch.append(extra)
            try:
                outcomes = self.label([path for path, _ in batch])
            except Exception as exc:  # noqa: BLE001 - settle, never hang drain()
                for _, future in batch:
                    future.set_exception(exc)
            else:
                for (_, future), outcome in zip(batch, outcomes):
                    future.set_result(outcome)
            if saw_stop:
                return

    # -- labelling ------------------------------------------------------------

    def _quarantine_policy(self, path: str) -> FailurePolicy:
        """Quarantine instead of raising: one bad file must never sink
        its batch or stall the consumer loop."""
        return FailurePolicy(
            catch=(Exception,),
            on_caught=lambda message: set_aside(path, self.config.quarantine),
        )

    def _labels_key(self, path: str) -> str:
        """The store's derived key for ``path``'s labelled file.

        Both digests come from the journal manifest when it has them —
        the model node recorded the model file, and the crawler's gate
        has just verified the tile file against its entry — else from
        one read of the file (the model's once per worker).
        """
        journal = self.ctx.journal
        if self._model_digest is None:
            self._model_digest = input_digest(self._model_source[1], journal=journal)
        return labels_key(
            self.config.model_name, self._model_digest, self.model.num_classes,
            self._attribution, self._refine_threshold,
            input_digest(path, journal=journal),
        )

    def _parse_unit(self, path: str) -> WorkUnit:
        """Read + validate one tile file ("open" phase: resume decisions
        and the write-ahead intent happen here; completion happens in the
        publish unit once the labelled file lands).

        Unless the store already holds this model's labelling of these
        exact bytes: the hit materializes it into the transfer-out
        directory and settles the file whole — the journal records a
        CACHED outcome as a completion whatever the phase, so a later
        crash + resume verifies it like a computed artifact — and the
        tile file is never mapped.  A model with no persisted file has
        no content to key on and is never cached.
        """
        key = self.key_prefix + os.path.basename(path)
        cache_key: List[str] = []

        def body(ctx) -> _ParsedFile:
            ctx.begin()
            entry = _ParsedFile.open(path)
            entry.cache_key = cache_key[0] if cache_key else None
            return entry

        def cache_lookup(ctx, cas) -> Optional[UnitResult]:
            cache_key.append(self._labels_key(path))
            record = cas.get_key(cache_key[0])
            if not record or not record.get("digest"):
                return None
            out_path = os.path.join(self.config.transfer_out, os.path.basename(path))
            nbytes = cas.materialize(record["digest"], out_path)
            if nbytes is None:
                return None
            # Injected death with the labelled file in place and nothing
            # journaled — resume must settle this file again.
            chaos_crash(self.ctx.chaos, "inference", key)
            return UnitResult(
                outcome=CACHED,
                artifact=out_path,
                payload={
                    "tiles": int(record.get("tiles", 0)),
                    "classes_seen": int(record.get("classes_seen", 0)),
                    "sha256": record["digest"],
                    "nbytes": nbytes,
                },
            )

        return WorkUnit(
            stage="inference",
            key=key,
            body=body,
            journal_phase="open",
            failure=self._quarantine_policy(path),
            cache=(
                CachePolicy(lookup=cache_lookup)
                if self._model_source[0] == "path"
                else None
            ),
        )

    def _publish_unit(
        self, entry: _ParsedFile, labels: Optional[np.ndarray]
    ) -> WorkUnit:
        """Label + publish one parsed file ("close" phase: the journal
        completion records the artifact once publication succeeds)."""

        def body(ctx) -> UnitResult:
            file_labels = (
                labels if labels is not None else self.model.assign(entry.radiance)
            )
            chunks = _labelled_chunks(
                entry.ds, entry.raw, file_labels, self.model.num_classes,
                attribution=self._attribution,
            )
            # Injected death in the window between labelling and
            # publication — resume must redo this file from its tile.
            chaos_crash(
                self.ctx.chaos, "inference",
                self.key_prefix + os.path.basename(entry.path),
            )
            out_path, nbytes, digest = _publish(
                chunks, entry.path, self.config.transfer_out, durable=self._durable
            )
            classes_seen = int(np.unique(file_labels).size)
            return UnitResult(
                outcome="done",
                value=(out_path, classes_seen),
                artifact=out_path,
                payload={
                    "tiles": int(entry.radiance.shape[0]),
                    "classes_seen": classes_seen,
                    "sha256": digest,
                    "nbytes": nbytes,
                },
            )

        def cache_store(ctx, cas, result) -> None:
            # The publish digest is the claim: the store adopts the file
            # this write just hashed, or copies and verifies it; shipment's
            # own lookup then finds the object and delivers from it,
            # storing nothing twice.
            payload = result.payload
            if cas.store_file(result.artifact, digest=payload["sha256"]):
                cas.put_key(
                    entry.cache_key,
                    {
                        "digest": payload["sha256"],
                        "tiles": payload["tiles"],
                        "classes_seen": payload["classes_seen"],
                    },
                )

        return WorkUnit(
            stage="inference",
            key=self.key_prefix + os.path.basename(entry.path),
            body=body,
            journal_phase="close",
            stall=False,
            failure=self._quarantine_policy(entry.path),
            cache=CachePolicy(store=cache_store) if entry.cache_key else None,
        )

    def label(self, paths: Sequence[str]) -> List[Outcome]:
        """Label tile files as one fused batch; one outcome per path."""
        started = time.monotonic()
        outcomes: Dict[str, Outcome] = {}
        parsed: List[_ParsedFile] = []
        for path in paths:
            result = self.ctx.executor.execute(self._parse_unit(path))
            if result.outcome in (RESUMED, CACHED):
                # Labelled before — by a prior run of this directory
                # whose published output still verifies, or by any run
                # sharing the store: surface the recorded result.
                payload = result.payload
                cached = result.outcome == CACHED
                outcomes[path] = (
                    "result",
                    InferenceResult(
                        src_path=path,
                        out_path=result.artifact or "",
                        tiles=int(payload.get("tiles", 0)),
                        classes_seen=int(payload.get("classes_seen", 0)),
                        seconds=time.monotonic() - started if cached else 0.0,
                        cached=cached,
                    ),
                )
            elif result.outcome == QUARANTINED:
                outcomes[path] = ("quarantined", result.error)
            else:
                parsed.append(result.value)
        if parsed:
            if self.ctx.metrics is not None:
                self.ctx.metrics.histogram(
                    "inference.batch_files", "tile files fused per assign call"
                ).observe(len(parsed))
            # Fuse per tile shape: files in one batch normally share a
            # shape, but a mixed directory must not break the fusion.
            groups: Dict[Tuple[int, ...], List[_ParsedFile]] = {}
            for entry in parsed:
                groups.setdefault(entry.radiance.shape[1:], []).append(entry)
            for entries in groups.values():
                self._assign_group(entries, started, outcomes)
        return [outcomes[path] for path in paths]

    @property
    def refined_tiles(self) -> int:
        """Tiles re-labelled at full fidelity this run."""
        return self._refiner.refined_tiles if self._refiner is not None else 0

    def _assign_group(
        self,
        entries: List[_ParsedFile],
        started: float,
        outcomes: Dict[str, Outcome],
    ) -> None:
        labels: Optional[np.ndarray] = None
        margins: Optional[np.ndarray] = None
        if len(entries) == 1:
            stacked = entries[0].radiance
        else:
            stacked = np.concatenate([entry.radiance for entry in entries])
        # The margin-aware path costs nothing extra (one fused call
        # either way) and only runs when refinement is configured AND
        # the model can report margins.
        with_margin = (
            None
            if self._refiner is None
            else getattr(self.model, "assign_with_margin", None)
        )

        def call_model() -> Tuple[np.ndarray, Optional[np.ndarray]]:
            if with_margin is not None:
                return with_margin(stacked)
            return self.model.assign(stacked), None

        try:
            if self.ctx.metrics is not None:
                with self.ctx.metrics.timer("inference.assign_seconds"):
                    labels, margins = call_model()
            else:
                labels, margins = call_model()
        except Exception:  # noqa: BLE001 - fall back so one file can't sink the group
            labels = None
        if labels is None and len(entries) > 1:
            # The fused call failed: retry per file so a single poisonous
            # file quarantines alone.
            for entry in entries:
                self._assign_group([entry], started, outcomes)
            return
        if labels is not None and margins is not None:
            labels = self._refine_group(entries, labels, margins)

        offset = 0
        for entry in entries:
            count = entry.radiance.shape[0]
            file_labels = None if labels is None else labels[offset: offset + count]
            offset += count
            result = self.ctx.executor.execute(self._publish_unit(entry, file_labels))
            if not result.ok:
                outcomes[entry.path] = ("quarantined", result.error)
                continue
            out_path, classes_seen = result.value
            outcomes[entry.path] = (
                "result",
                InferenceResult(
                    src_path=entry.path,
                    out_path=out_path,
                    tiles=count,
                    classes_seen=classes_seen,
                    seconds=time.monotonic() - started,
                ),
            )

    def _refine_group(
        self,
        entries: List[_ParsedFile],
        labels: np.ndarray,
        margins: np.ndarray,
    ) -> np.ndarray:
        """The fidelity ladder's second rung, applied to a fused group.

        Tiles whose assignment margin falls below the configured
        threshold are re-extracted from their source granules at full
        resolution (a distinct CAS object) and re-assigned; everything
        else keeps its coarse-pass label.  Any refinement failure leaves
        the coarse label standing — refinement may only improve labels,
        never lose them — and keeps the file out of the store: a later
        run that can refine must not be served the degraded labels.
        """
        low = np.nonzero(np.asarray(margins) < self._refine_threshold)[0]
        if low.size == 0:
            return labels
        labels = np.array(labels, copy=True)
        offset = 0
        for entry in entries:
            count = entry.radiance.shape[0]
            local = low[(low >= offset) & (low < offset + count)] - offset
            if local.size:
                refined = self._refiner.refine(entry.ds, local)
                if refined is not None:
                    try:
                        labels[offset + local] = self.model.assign(refined)
                    except Exception:  # noqa: BLE001 - keep the coarse labels
                        refined = None
                if refined is None:
                    entry.cache_key = None
            offset += count
        return labels

    def stop(self, timeout: float = 30.0) -> None:
        for _ in self._threads:
            self.queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def drain(self, timeout: float = 60.0) -> None:
        """Block until every submitted file has been processed.

        Progress is signalled through a condition variable, so waiting
        costs no CPU.  The settled/submitted counters are re-checked once
        after the deadline, so a queue that drains exactly at the
        deadline does not raise.
        """
        deadline = time.monotonic() + timeout

        def settled() -> bool:
            return len(self.results) + len(self.errors) >= self._submitted

        with self._done:
            while not settled():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._done.wait(remaining)
            if settled():
                if self._fatal:
                    raise RuntimeError(
                        "inference worker process lost: " + "; ".join(self._fatal)
                    )
                return
        raise TimeoutError("inference queue did not drain in time")

    def __enter__(self) -> "InferenceWorker":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
