"""Stage 4 — Inference: assign AICCA cloud classes to tile files.

Real-execution flavour of Section III stage 4 (the Globus Flow's body):
for each tile NetCDF, encode the tiles, assign nearest-centroid labels,
append the labels to the dataset, and publish the updated file to the
transfer-out directory.  Stage 3's "monitor and trigger" is the plan's
``preprocess -> inference`` stream: preprocess announces each tile file
with its digest once the file has settled, and the labelling unit checks
the bytes it parses against that digest before it publishes anything.

Three hot-path optimizations live here.  *Label append*: a canonical tile
file is re-serialized by rewriting only its header and label column
(:func:`repro.netcdf.writer.splice_chunks`), streaming the radiance bytes
from the mapped tile file instead of re-encoding them.  *Micro-batching*:
one unit takes every announced file already waiting (up to
``batch_files``) and fuses their tiles into a single encoder/assign
call, scattering the labels back per file — inline, in the pool and on
an agent alike; the float32 encoder amortizes dramatically better over
one large batch than over many small ones.  *Action cache*: with a store attached
and a model persisted to a file, a tile file this model has labelled
before (in any run sharing the store) is materialized from its
``labels:`` key instead of being mapped, encoded and assigned again.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.surfaces import chaos_crash
from repro.core.artifact_cache import CLASSIFIED_BY, input_digest, labels_key
from repro.core.config import EOMLConfig
from repro.core.context import RunContext, then
from repro.core.contracts import TILE_FILE
from repro.core.preprocess import QuarantineRecord
from repro.netcdf import Dataset, from_bytes as nc_from_bytes, map_file, to_chunks as nc_to_chunks
from repro.netcdf.writer import canonical_layout, splice_chunks
from repro.ricc.aicca import AICCAModel
from repro.runtime import (
    CACHED,
    DONE,
    QUARANTINED,
    RESUMED,
    CachePolicy,
    FailurePolicy,
    UnitResult,
    WorkerCrashed,
    WorkUnit,
)
from repro.util.digest import Buffer, atomic_publish_chunks, digest_buffer

__all__ = ["InferenceResult", "InferenceWorker", "set_aside"]


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of labelling one tile file."""

    src_path: str
    out_path: str
    tiles: int
    classes_seen: int
    seconds: float
    cached: bool = False  # materialized from the store, nothing labelled
    # The labelled file's digest as published, materialized or journaled
    # (None when nothing recorded one); shipment checks delivery against it.
    sha256: Optional[str] = None


def _labelled_chunks(
    ds: Dataset,
    raw: Buffer,
    labels: np.ndarray,
    num_classes: int,
) -> Iterator[Buffer]:
    """Give ``ds`` its ``labels`` and serialize, as chunks in file order.

    When ``raw`` (the mapped tile file ``ds`` was parsed from) is the
    canonical serialization, only the header and the label column are
    rewritten and the unchanged radiance bytes are spliced through
    verbatim from the map, a bounded buffer at a time.
    """
    layout = canonical_layout(ds, raw)
    ds["label"].data = labels.astype(ds["label"].data.dtype)
    ds["label"].set_attr("classified_by", CLASSIFIED_BY)
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


class _Gate:
    """The integrity verdict on one announced tile file: do its bytes
    hash to the digest they were announced with?

    A file that is parsed is hashed from the very map the parser reads
    (:meth:`watch`), so no byte can change between the check and the
    use; a large one is hashed on a helper while the parse and the
    labelling run, a small one inline.  A file that is never parsed (a
    resumed or cached result) is read and hashed when :meth:`ok` is
    first asked.  The verdict is taken once, and before anything is
    decided for the file: publish, quarantine, cache materialize or
    resumed result.
    """

    def __init__(self, journal: Any, path: str, sha256: str):
        self.journal, self.path, self.sha256 = journal, path, sha256
        self._hashing: Optional[Future] = None
        self._verdict: Optional[bool] = None

    def watch(self, raw: Buffer) -> None:
        """Hash ``raw``, the mapped file about to be parsed (unless a
        verdict was already taken from a read)."""
        if self._verdict is None:
            self._hashing = digest_buffer(raw)

    def ok(self) -> bool:
        """The verdict, counted once as a manifest mismatch if it fails."""
        if self._verdict is None:
            observed = None if self._hashing is None else self._hashing.result()
            self._verdict = self.journal.artifact_ok(self.path, self.sha256, observed)
        return self._verdict


_MISMATCH = "tile file does not match the digest it was announced with"


@dataclass
class _ParsedFile:
    """A tile file staged for an assign call."""

    path: str
    raw: Buffer       # the mapped tile file ``ds`` is a view of
    ds: Dataset
    radiance: np.ndarray  # (tiles, y, x, band) float32
    # The ``labels:`` key the labelled file is stored under once it is
    # published; None when nothing may be stored (no store or no model
    # file).
    cache_key: Optional[str] = None
    # The integrity check on ``raw``; None when nothing announced a digest.
    gate: Optional[_Gate] = None

    @classmethod
    def open(cls, path: str, gate: Optional[_Gate] = None) -> "_ParsedFile":
        """Map, parse and validate one tile file; ``gate`` starts hashing
        the map before the parse reads it."""
        raw = map_file(path)
        if gate is not None:
            gate.watch(raw)
        ds = nc_from_bytes(raw)
        TILE_FILE.validate(ds)
        radiance = np.asarray(ds["radiance"].data, dtype=np.float32)
        return cls(path, raw, ds, radiance, gate=gate)


def set_aside(path: str, quarantine: str) -> None:
    """Move a bad tile file out of the crawl directory so re-runs do not
    trip on it again (best-effort: the record is what matters)."""
    try:
        os.makedirs(quarantine, exist_ok=True)
        os.replace(path, os.path.join(quarantine, os.path.basename(path)))
    except OSError:
        pass


# A tile file as preprocess announces it: its path and the sha256 its
# producer published it with (None when nothing recorded one).
TileFile = Tuple[str, Optional[str]]

# One file's labelling outcome, the same tuple wherever the file was
# labelled: ("result", InferenceResult), ("quarantined", error text), or
# ("error", text) for a file whose bytes are not the ones announced.
Outcome = Tuple[str, Any]


class InferenceWorker:
    """The labelling stage: reads announced tile files, units label them.

    :meth:`run` is the plan node's body.  It takes one announced file
    plus up to ``batch_files - 1`` more already waiting, and submits
    them as one unit through the run context (the paper allocates a
    single inference worker in the Fig. 6 run; ``workers`` generalizes
    that).  The unit fuses all their tiles into one encoder/assign call
    and scatters the labels back per file, wherever it runs.

    A tile file that cannot be labelled (corrupt bytes, contract
    violation) is moved into the quarantine directory by whoever found
    it and recorded here — labelling keeps going, so one bad file never
    stalls the stage.
    """

    kind = "inference"

    def __init__(self, model: Any, config: EOMLConfig, ctx: Optional[RunContext] = None):
        self.model = model
        self.config = config
        self.ctx = ctx or RunContext()
        # How a copy of this stage in another process obtains the model:
        # the persisted file (loaded once per labelling process) or the object
        # itself, as the model node announced it.
        self._source: Optional[Tuple[str, Any]] = None if model is None else ("object", model)
        # The model file's digest, taken on the first cache lookup.
        self._model_digest: Optional[str] = None
        self._durable = bool(getattr(config, "journal_durable", True))
        self.workers = config.workers.inference
        self.batch_files = config.inference_batch_files
        self._lock = threading.Lock()
        self.results: List[InferenceResult] = []
        self.errors: List[str] = []
        self.quarantined: List[QuarantineRecord] = []

    def _adopt(self, source: Sequence[Any]) -> None:
        """Record the model ``source`` names, unless this copy has one."""
        with self._lock:
            self._source = self._source or tuple(source)

    def _take_up(self) -> None:
        """Load the recorded model, unless this copy holds it already."""
        with self._lock:
            if self.model is None:
                mode, value = self._source
                self.model = AICCAModel.load(value) if mode == "path" else value

    def execute(self, payload: Tuple[List[TileFile], Sequence[Any]]) -> List[Outcome]:
        """The unit entry point: label one batch of announced tile
        files, wherever this copy of the stage lives.  The model is
        taken up by then at the latest, so only a process that labels
        ever loads it."""
        tiles, source = payload
        self._adopt(source)
        self._take_up()
        return self.label(tiles)

    # -- the node body --------------------------------------------------------

    def run(
        self,
        tokens: Any,
        on_result: Callable[[InferenceResult], None] = lambda result: None,
    ) -> "InferenceWorker":
        """Label the tile files announced on ``tokens``, a stream channel.

        A ``("model", source)`` token comes first: its source is
        recorded then and every unit carries it; the model itself is
        loaded only where units run (here, too, when no pool is
        attached).
        Each ``("tiles", path, sha256)`` token is a tile file to label.
        Each batch's outcomes are folded into this stage's books the
        moment its unit settles, a labelled file handed to ``on_result``
        first (eager delivery while labelling goes on).  Returns once the
        stream has ended and every unit has settled.

        A :class:`WorkerCrashed` is an infrastructure failure, not a bad
        file: it propagates, like any lost process.
        """
        settled: List[Future] = []
        ok, token = tokens.get()
        while ok:
            # This token, and whatever else is already waiting.
            batch: List[TileFile] = []
            while ok:
                if token[0] == "model":
                    self._adopt(token[1])
                    if self.ctx.pool is None:
                        # Units run in this process: load the model now,
                        # while tiling goes on, not in the first unit.
                        self._take_up()
                else:
                    batch.append((token[1], token[2]))
                if len(batch) == self.batch_files:
                    break
                ok, token = tokens.get(timeout=0)
            if batch:
                future = self.ctx.submit(
                    self, os.path.basename(batch[0][0]), (batch, self._source)
                )
                settled.append(then(future, partial(self._fold, batch, on_result)))
            ok, token = tokens.get()
        for future in settled:
            future.result()
        return self

    def _fold(self, batch: List[TileFile], on_result: Callable, future: Future) -> None:
        """Fold one settled unit's outcomes into the books."""
        try:
            outcomes = future.result()
        except WorkerCrashed:
            raise
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            outcomes = [("error", str(exc))] * len(batch)
        for (path, _sha256), (tag, value) in zip(batch, outcomes):
            if tag == "result":
                if value.out_path:
                    on_result(value)
                self.results.append(value)
                continue
            if tag == "quarantined":
                self.quarantined.append(QuarantineRecord(key=path, error=value))
            self.errors.append(f"{path}: {value}")

    # -- labelling ------------------------------------------------------------

    def _quarantine_policy(self, path: str, gate: Optional[_Gate] = None) -> FailurePolicy:
        """Quarantine instead of raising: one bad file must never sink
        its batch or stall the consumer loop.  A file whose bytes are not
        the ones announced is left where it lies, whatever else is wrong
        with it."""

        def on_caught(message: str) -> None:
            if gate is None or gate.ok():
                set_aside(path, self.config.quarantine)

        return FailurePolicy(catch=(Exception,), on_caught=on_caught)

    def _labels_key(self, path: str, sha256: Optional[str]) -> str:
        """The store's derived key for ``path``'s labelled file.

        The tile file's digest is the one it was announced with (a hit
        is materialized only once the gate confirms the bytes); the
        model's comes from the journal manifest, where the model node
        recorded it.  Either one falls back to a read of the file (the
        model's once per worker).
        """
        journal = self.ctx.journal
        if self._model_digest is None:
            self._model_digest = input_digest(self._source[1], journal=journal)
        return labels_key(
            self._model_digest, self.model.num_classes,
            sha256 or input_digest(path, journal=journal),
        )

    def _parse_unit(
        self, path: str, sha256: Optional[str], gate: Optional[_Gate]
    ) -> WorkUnit:
        """Read + validate one tile file ("open" phase: resume decisions
        and the write-ahead intent happen here; completion happens in the
        publish unit once the labelled file lands).  ``gate`` hashes the
        map the parse reads.

        Unless the store already holds this model's labelling of these
        exact bytes: the hit materializes it into the transfer-out
        directory and settles the file whole — the journal records a
        CACHED outcome as a completion whatever the phase, so a later
        crash + resume verifies it like a computed artifact — and the
        tile file is never mapped.  A model with no persisted file has
        no content to key on and is never cached.
        """
        key = os.path.basename(path)
        cache_key: List[str] = []

        def body(ctx) -> _ParsedFile:
            ctx.begin()
            entry = _ParsedFile.open(path, gate)
            entry.cache_key = cache_key[0] if cache_key else None
            return entry

        def cache_lookup(ctx, cas) -> Optional[UnitResult]:
            cache_key.append(self._labels_key(path, sha256))
            record = cas.get_key(cache_key[0])
            if not record or not record.get("digest"):
                return None
            if gate is not None and not gate.ok():
                return None  # not these bytes' labelling: nothing to materialize
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
            failure=self._quarantine_policy(path, gate),
            cache=(
                CachePolicy(lookup=cache_lookup)
                if self._source and self._source[0] == "path"
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
                entry.ds, entry.raw, file_labels, self.model.num_classes
            )
            # Injected death in the window between labelling and
            # publication — resume must redo this file from its tile.
            chaos_crash(self.ctx.chaos, "inference", os.path.basename(entry.path))
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
            key=os.path.basename(entry.path),
            body=body,
            journal_phase="close",
            stall=False,
            failure=self._quarantine_policy(entry.path),
            cache=CachePolicy(store=cache_store) if entry.cache_key else None,
        )

    def label(self, tiles: Sequence[TileFile]) -> List[Outcome]:
        """Label tile files as one fused batch; one outcome per file.

        With a journal, each file's bytes must hash to the digest it was
        announced with: a file that does not is an error outcome, counted
        as a manifest mismatch, and is left where it lies.  The verdict
        (:class:`_Gate`) is taken before anything is decided for the
        file, but the hash of a parsed file runs beside the parse and
        the fused labelling.
        """
        started = time.monotonic()
        journal = self.ctx.journal
        outcomes: Dict[str, Outcome] = {}
        parsed: List[_ParsedFile] = []
        for path, sha256 in tiles:
            gate = _Gate(journal, path, sha256) if journal is not None and sha256 else None
            result = self.ctx.executor.execute(self._parse_unit(path, sha256, gate))
            if result.outcome == DONE:
                parsed.append(result.value)  # its verdict is taken before it publishes
            elif gate is not None and not gate.ok():
                outcomes[path] = ("error", _MISMATCH)
            elif result.outcome in (RESUMED, CACHED):
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
                        sha256=payload.get("sha256"),
                    ),
                )
            elif result.outcome == QUARANTINED:
                outcomes[path] = ("quarantined", result.error)
            else:
                raise ValueError(f"unexpected parse outcome {result.outcome!r} for {path}")
        if parsed:
            # Fuse per tile shape: files in one batch normally share a
            # shape, but a mixed directory must not break the fusion.
            groups: Dict[Tuple[int, ...], List[_ParsedFile]] = {}
            for entry in parsed:
                groups.setdefault(entry.radiance.shape[1:], []).append(entry)
            for entries in groups.values():
                self._assign_group(entries, started, outcomes)
        return [outcomes[path] for path, _sha256 in tiles]

    def _assign_group(
        self,
        entries: List[_ParsedFile],
        started: float,
        outcomes: Dict[str, Outcome],
    ) -> None:
        if len(entries) == 1:
            stacked = entries[0].radiance
        else:
            stacked = np.concatenate([entry.radiance for entry in entries])
        try:
            labels: Optional[np.ndarray] = self.model.assign(stacked)
        except Exception:  # noqa: BLE001 - fall back so one file can't sink the group
            labels = None
        if labels is None and len(entries) > 1:
            # The fused call failed: retry per file so a single poisonous
            # file quarantines alone.
            for entry in entries:
                self._assign_group([entry], started, outcomes)
            return

        offset = 0
        for entry in entries:
            count = entry.radiance.shape[0]
            file_labels = None if labels is None else labels[offset: offset + count]
            offset += count
            if entry.gate is not None and not entry.gate.ok():
                outcomes[entry.path] = ("error", _MISMATCH)
                continue
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
                    sha256=result.payload["sha256"],
                ),
            )
