"""The traced pass: one run per workload, measured layer by layer from outside.

Two sources, neither inside the program:

* what the public report of that run already exposes (``WorkflowReport``
  breakdown / stream / scaleout / cache / journal, ``AgentStats``,
  ``GET /v1/metrics``);
* a *ledger replay*: after the run, each layer's public function is called
  once over every artifact the run left on disk, one span per call, plus a
  few micro-measurements of fixed per-unit costs (middleware chain, channel
  hop, pool envelope, lease cycle, journal append).

``*_s`` rows are total busy seconds over the workload's artifacts.  The
replay cannot know how often the program hashes or re-parses a file; that
gap is reported as ``ledger.unattributed_s``, not hidden.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import netcdf
from repro.cas import CASStore
from repro.core.download import GranuleSet
from repro.instruments.registry import get_instrument
from repro.instruments.tiling import extract_tiles, tiles_to_dataset
from repro.journal import WorkflowJournal
from repro.journal.checkpoint import JOURNAL_NAME
from repro.journal.journal import RunJournal
from repro.modis.granule import GranuleId
from repro.netcdf.writer import canonical_layout, splice_bytes
from repro.ricc import AICCAModel
from repro.runtime import (
    ElasticPolicy,
    ProcWorkerPool,
    StreamChannel,
    WorkEnvelope,
    WorkerSpec,
    WorkUnit,
    build_executor,
)
from repro.server import ControlPlaneClient, ControlPlaneServer, execute_unit
from repro.transfer import LocalTransferClient
from repro.util.digest import digest_file

import workloads as wl
from corpus import INSTRUMENT_NAME

LEASE_CYCLES = 200
MICRO_UNITS = 2000
MICRO_APPENDS = 300
POOL_ROUNDTRIPS = 30

class Tracer:
    """Spans ``{id, name, layer, start, end, parent, run}`` kept in memory."""

    def __init__(self, run: str):
        self.run = run
        self.spans: List[Dict[str, Any]] = []

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> int:
        self.spans.append({
            "id": len(self.spans), "name": name, "layer": name.split(".")[0],
            "start": start, "end": end, "parent": parent, "run": self.run,
        })
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: Optional[int]) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


@contextmanager
def counted_fsync() -> Iterator[Dict[str, float]]:
    """Count and time ``os.fsync`` in this process for the traced run."""
    tally = {"count": 0, "seconds": 0.0}
    real = os.fsync

    def fsync(fd: Any) -> None:
        started = time.perf_counter()
        try:
            real(fd)
        finally:
            tally["seconds"] += time.perf_counter() - started
            tally["count"] += 1

    os.fsync = fsync
    try:
        yield tally
    finally:
        os.fsync = real


# -- fixed per-unit costs -------------------------------------------------------


def noop_worker(_payload: Any):
    """``WorkerSpec`` target for the pool round-trip measurement."""
    return lambda envelope: None


def micro_runtime(scratch: str) -> Dict[str, float]:
    journal = WorkflowJournal(os.path.join(scratch, "mw-journal"), durable=True)
    journal.start()
    executor = build_executor(journal=journal)
    body = lambda ctx: None  # noqa: E731 - the no-op body under test
    units = [WorkUnit(stage="bench", key=f"unit-{i}", body=body) for i in range(MICRO_UNITS)]
    started = time.perf_counter()
    for unit in units:
        executor.execute(unit)
    chained = time.perf_counter() - started
    journal.close()
    started = time.perf_counter()
    for unit in units:
        unit.body(None)
    bare = time.perf_counter() - started

    channel = StreamChannel("bench", capacity=MICRO_UNITS)
    started = time.perf_counter()
    for i in range(MICRO_UNITS):
        channel.put(i)
    channel.close()
    for _item in channel:
        pass
    hop = time.perf_counter() - started

    started = time.perf_counter()
    pool = ProcWorkerPool(
        WorkerSpec(target="ledger:noop_worker"), policy=ElasticPolicy.fixed(2),
        name="bench-pool",
    ).start()
    try:
        pool.submit(WorkEnvelope("noop", "first")).result(timeout=60)
        pool_start = time.perf_counter() - started
        trips = []
        for i in range(POOL_ROUNDTRIPS):
            started = time.perf_counter()
            pool.submit(WorkEnvelope("noop", f"k{i}")).result(timeout=60)
            trips.append(time.perf_counter() - started)
    finally:
        pool.close()
    return {
        "runtime.middleware_us_per_unit": (chained - bare) / MICRO_UNITS * 1e6,
        "runtime.channel_us_per_item": hop / MICRO_UNITS * 1e6,
        "runtime.pool_start_s": pool_start,
        "runtime.pool_roundtrip_ms": statistics.median(trips) * 1e3,
    }


def micro_journal(scratch: str, disk_dir: str) -> Dict[str, float]:
    """Per-record append cost, on the work directory and on the checkout's disk."""
    out: Dict[str, float] = {}
    for where, suffix in ((scratch, ""), (disk_dir, "_disk")):
        os.makedirs(where, exist_ok=True)
        for durable in (True, False):
            path = os.path.join(where, f"bench-{os.getpid()}-{int(durable)}.journal")
            journal = RunJournal(path, durable=durable)
            started = time.perf_counter()
            for i in range(MICRO_APPENDS):
                journal.append("bench", "complete", f"key-{i}", nbytes=i)
            spent = time.perf_counter() - started
            journal.close()
            os.remove(path)
            kind = "durable" if durable else "buffered"
            out[f"journal.append_{kind}{suffix}_us"] = spent / MICRO_APPENDS * 1e6
    return out


def micro_server(ctx: wl.Context, scratch: str) -> Dict[str, float]:
    """Submit cost and no-op lease -> heartbeat -> complete cycles, one
    closed-loop client, real HTTP and a SQLite file."""
    root = os.path.join(scratch, "server")
    os.makedirs(root)
    server = ControlPlaneServer(os.path.join(root, "cp.db")).start()
    try:
        client = ControlPlaneClient(server.url)
        submits: List[float] = []
        units = 0
        while units < LEASE_CYCLES:
            raw = wl.raw_config(ctx, os.path.join(root, f"run{len(submits)}"), days=1)
            started = time.perf_counter()
            run = client.submit(raw)
            submits.append(time.perf_counter() - started)
            units += len(client.run(run.run_id).units)
        cycles: List[float] = []
        while len(cycles) < LEASE_CYCLES:
            started = time.perf_counter()
            lease = client.lease("bench-agent", site="bench", ttl=30.0)
            if lease is None:
                break
            client.heartbeat(lease.lease_id, ttl=30.0)
            client.complete(lease.lease_id, status="completed", result={})
            cycles.append(time.perf_counter() - started)
    finally:
        server.stop()
        server.store.close()
    cycles.sort()
    return {
        "server.submit_ms": statistics.median(submits) * 1e3,
        "server.lease_cycle_ms_p50": statistics.median(cycles) * 1e3,
        "server.lease_cycle_ms_p99": cycles[min(len(cycles) - 1, int(0.99 * len(cycles)))] * 1e3,
    }


# -- the ledger replay -----------------------------------------------------------


def _run_roots(run_dir: str) -> List[str]:
    """The directories holding one workflow run each (agents: one per day)."""
    if os.path.isdir(os.path.join(run_dir, "staging")):
        return [run_dir]
    return sorted(
        os.path.join(run_dir, name) for name in os.listdir(run_dir)
        if os.path.isdir(os.path.join(run_dir, name, "staging"))
    )


def _files(directory: str) -> List[str]:
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
        if name.endswith(".nc")
    )


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def replay(
    tracer: Tracer, ctx: wl.Context, run_dir: str, scratch: str,
    parents: Dict[str, int], cache_mode: Optional[str],
) -> Dict[str, float]:
    """Call each layer once over every artifact of the traced run."""
    counts = {"netcdf.bytes": 0, "tiling.tiles_selected": 0, "digest.bytes": 0,
              "transfer.bytes": 0, "journal.records": 0}
    instrument = get_instrument(INSTRUMENT_NAME)
    with tracer.span("ricc.model_load", parents["model"]):
        model = AICCAModel.load(ctx.model_path)
    artifacts: List[str] = []
    client = LocalTransferClient()
    for root in _run_roots(run_dir):
        staging = _files(os.path.join(root, "staging"))
        scenes: Dict[str, Dict[str, str]] = {}
        for path in staging:
            gid = GranuleId.parse(os.path.basename(path)[: -len(".nc")])
            scenes.setdefault(gid.scene_key, {})[gid.product] = path
            raw = _read(path)
            counts["netcdf.bytes"] += len(raw)
            # What the download stage did with the fetched dataset ...
            with tracer.span("netcdf.from_bytes", parents["preprocess"]):
                dataset = netcdf.from_bytes(raw)
            with tracer.span("netcdf.to_bytes", parents["download"]):
                netcdf.to_bytes(dataset)
        for key in sorted(scenes):
            granules = GranuleSet(key=key, paths=scenes[key])
            # ... and preprocess: decode (parse + validate + masks), tile, pack.
            with tracer.span("tiling.load_scene", parents["preprocess"]):
                scene = instrument.load_scene(granules)
            with tracer.span("tiling.extract_tiles", parents["preprocess"]):
                tiles = extract_tiles(
                    radiance=scene.radiance, cloud_mask=scene.cloud_mask,
                    land_mask=scene.land_mask, latitude=scene.latitude,
                    longitude=scene.longitude, tile_size=ctx.size.tile_size,
                    optical_thickness=scene.optical_thickness,
                    cloud_top_pressure=scene.cloud_top_pressure, source=key,
                )
            counts["tiling.tiles_selected"] += len(tiles)
            if not tiles:
                continue
            with tracer.span("tiling.tiles_to_dataset", parents["preprocess"]):
                packed = tiles_to_dataset(tiles, source=key)
            with tracer.span("netcdf.to_bytes", parents["preprocess"]):
                netcdf.to_bytes(packed)
        tile_files = _files(os.path.join(root, "preprocessed"))
        for path in tile_files:
            raw = _read(path)
            counts["netcdf.bytes"] += len(raw)
            with tracer.span("netcdf.from_bytes", parents["inference"]):
                dataset = netcdf.from_bytes(raw)
            radiance = np.asarray(dataset["radiance"].data, dtype=np.float32)
            with tracer.span("ricc.assign", parents["inference"]):
                labels = model.assign(radiance)
            with tracer.span("netcdf.splice_bytes", parents["inference"]):
                layout = canonical_layout(dataset, raw)
                dataset["label"].data[:] = labels.astype(dataset["label"].data.dtype)
                splice_bytes(dataset, raw, layout, ("label",))
        shipped = _files(os.path.join(root, "destination"))
        outbox = os.path.join(scratch, "replay-destination")
        for path in shipped:
            counts["transfer.bytes"] += os.path.getsize(path)
            with tracer.span("transfer.move_one", parents["shipment"]):
                client.move_one(os.path.dirname(path), outbox, os.path.basename(path))
        shutil.rmtree(outbox, ignore_errors=True)
        artifacts += staging + tile_files + shipped + shipped  # outbox copy + delivered copy
        journal_path = os.path.join(root, "journal", JOURNAL_NAME)
        if os.path.exists(journal_path):
            with tracer.span("journal.replay", parents["run"]):
                counts["journal.records"] += len(RunJournal(journal_path).replay())
    for path in artifacts:
        with tracer.span("digest.pass", parents["run"]):
            _digest, nbytes = digest_file(path)
        counts["digest.bytes"] += nbytes
    if cache_mode is not None:
        store = CASStore(os.path.join(scratch, "replay-cas"))
        unique = sorted(set(artifacts))
        digests = []
        for path in unique:
            with tracer.span("cas.store_file", parents["run"]):
                digests.append(store.store_file(path))
            store.put_key(f"bench:{os.path.basename(path)}", {"digest": digests[-1]})
        if cache_mode == "warm":
            for path, digest in zip(unique, digests):
                with tracer.span("cas.get_key", parents["run"]):
                    store.get_key(f"bench:{os.path.basename(path)}")
                with tracer.span("cas.materialize", parents["run"]):
                    store.materialize(digest, os.path.join(scratch, "replay-out", os.path.basename(path)))
        shutil.rmtree(os.path.join(scratch, "replay-cas"), ignore_errors=True)
        shutil.rmtree(os.path.join(scratch, "replay-out"), ignore_errors=True)
    return {name: float(value) for name, value in counts.items()}


# -- the traced pass --------------------------------------------------------------


def _core_from_report(
    sample: wl.Sample, tracer: Tracer, root: int, t0: float
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Rows read off the run's ``WorkflowReport``, and one span per stage."""
    report = sample.reports[0]
    out = {f"core.{b.stage}_s": 0.0 for b in report.breakdown}
    parents = {}
    for entry in report.breakdown:
        out[f"core.{entry.stage}_s"] += entry.duration
        parents[entry.stage] = tracer.add(
            f"core.{entry.stage}", t0 + entry.start, t0 + entry.end, root
        )
    out["core.stage_overlap_s"] = float(sum(report.stage_overlap_seconds.values()))
    out["core.tiles"] = float(report.total_tiles)
    out["core.bytes_fetched"] = float(report.download.fetched_bytes)
    edges = (report.stream or {}).get("edges", {})
    out["runtime.stream_producer_stall_s"] = sum(e["producer_stall_seconds"] for e in edges.values())
    out["runtime.stream_consumer_wait_s"] = sum(e["consumer_wait_seconds"] for e in edges.values())
    out["runtime.stream_max_depth"] = float(max((e["max_depth"] for e in edges.values()), default=0))
    out["runtime.pool_units"] = float(report.scaleout["units_executed"])
    out["runtime.pool_busy_s"] = float(report.scaleout["busy_seconds"])
    out["runtime.pool_requeues"] = float(report.scaleout["requeues"])
    cache = report.cache
    lookups = cache["hits"] + cache["misses"]
    out.update({
        "cas.hits": float(cache["hits"]), "cas.misses": float(cache["misses"]),
        "cas.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cas.bytes_stored": float(cache["bytes_stored"]),
        "cas.bytes_saved": float(cache["bytes_saved"]),
        "cas.store_errors": float(cache["store_errors"]),
    })
    return out, parents


def traced_pass(
    ctx: wl.Context, workload: wl.Workload, work: str,
    reference: Dict[str, str], untraced_wall_s: float,
    setup: Dict[str, float], cache_root: str, names: List[str],
) -> Tuple[Dict[str, float], List[Dict[str, Any]], List[str]]:
    """Run the workload once under the tracer, replay the ledger, and return
    ``(per-layer metrics, spans, problems)``.  ``names`` are the per-layer
    metrics BENCHMARK.json declares; rows a workload does not exercise
    stay 0."""
    tracer = Tracer(workload.name)
    run_dir = os.path.join(work, "traced")
    scratch = os.path.join(work, "ledger-scratch")
    os.makedirs(scratch)
    metrics = {name: 0.0 for name in names}
    unit_spans: List[Tuple[str, float, float]] = []

    def timed_execute_unit(raw_config, unit, chaos=None, cancel=None):
        started = time.perf_counter()
        try:
            return execute_unit(raw_config, unit, chaos=chaos, cancel=cancel)
        finally:
            unit_spans.append((unit.partition("@")[0], started, time.perf_counter()))

    try:
        t0 = time.perf_counter()
        with counted_fsync() as fsyncs:
            if workload.run is wl.run_agents:
                sample = wl.run_agents(ctx, run_dir, executor=timed_execute_unit)
            else:
                sample = workload.run(ctx, run_dir)
        t1 = time.perf_counter()
        wl.measure(sample, reference)
        root = tracer.add("run", t0, t1, None)
        stages = ("download", "model", "preprocess", "inference", "shipment")
        if sample.reports:
            core, parents = _core_from_report(sample, tracer, root, t0)
            metrics.update(core)
        else:
            parents = {}
            for stage, start, end in unit_spans:
                metrics[f"core.{stage}_s"] += end - start
                parents[stage] = tracer.add(f"core.{stage}", start, end, root)
            units = [unit for run in sample.final_runs for unit in run.units]
            metrics["core.tiles"] = float(sum(
                (u.result or {}).get("tiles", 0) for u in units if u.name == "preprocess"
            ))
            metrics["core.bytes_fetched"] = float(sum(
                (u.result or {}).get("fetched_bytes", 0) for u in units if u.name == "download"
            ))
            snapshot = (sample.server_metrics or {}).get("metrics", {})
            metrics["server.requests"] = float(snapshot.get("control_plane.api.requests", 0))
            metrics["server.leases_granted"] = float(snapshot.get("control_plane.leases.granted", 0))
            metrics["server.requeues"] = float(sum(u.requeues for u in units))
            metrics["server.agent_idle_polls"] = float(sum(s.idle_polls for s in sample.agent_stats))
        parents = {stage: parents.get(stage, root) for stage in stages}
        parents["run"] = root
        metrics["core.units_attempted"] = float(sample.units_attempted)
        metrics["core.units_failed"] = float(len(sample.errors))
        metrics["core.bytes_shipped"] = float(sample.shipped_bytes)
        metrics["io.fsync_count"] = float(fsyncs["count"])
        metrics["io.fsync_s"] = fsyncs["seconds"]

        cache_mode = {"cache_cold": "cold", "cache_warm": "warm"}.get(workload.name)
        metrics.update(replay(tracer, ctx, run_dir, scratch, parents, cache_mode))
        for name in ("netcdf.to_bytes", "netcdf.from_bytes", "netcdf.splice_bytes",
                     "tiling.load_scene", "tiling.extract_tiles", "tiling.tiles_to_dataset",
                     "ricc.assign", "ricc.model_load", "digest.pass", "journal.replay",
                     "transfer.move_one", "cas.store_file", "cas.materialize"):
            metrics[f"{name}_s"] = tracer.total(name)
        lookups = [s for s in tracer.spans if s["name"] == "cas.get_key"]
        if lookups:
            metrics["cas.get_key_us"] = tracer.total("cas.get_key") / len(lookups) * 1e6
        metrics["ricc.model_bytes"] = float(os.path.getsize(ctx.model_path))
        metrics["ricc.bootstrap_s"] = setup["bootstrap_s"]
        metrics["modis.generate_granule_s"] = setup["generate_granule_s"]

        for name, measure in (
            ("runtime", lambda: micro_runtime(scratch)),
            ("journal", lambda: micro_journal(scratch, os.path.join(cache_root, "journal-probe"))),
            ("server", lambda: micro_server(ctx, scratch)),
        ):
            with tracer.span(f"micro.{name}", None):
                metrics.update(measure())

        # Attribution: replay rows that stand for work the run did once.
        # load_scene parses the granules itself, so the separate staging
        # parse is not added on top of it.
        tile_parse = sum(
            s["end"] - s["start"] for s in tracer.spans
            if s["name"] == "netcdf.from_bytes" and s["parent"] == parents["inference"]
        )
        attributed = tile_parse + sum(
            metrics[f"{name}_s"] for name in (
                "netcdf.to_bytes", "netcdf.splice_bytes", "tiling.load_scene",
                "tiling.extract_tiles", "tiling.tiles_to_dataset", "ricc.assign",
                "digest.pass", "transfer.move_one",
            )
        ) + metrics["ricc.model_load_s"]
        if cache_mode == "warm":
            attributed = metrics["cas.materialize_s"] + metrics["ricc.model_load_s"]
        elif cache_mode == "cold":
            attributed += metrics["cas.store_file_s"]
        wall = t1 - t0
        metrics["ledger.attributed_s"] = attributed
        metrics["ledger.unattributed_s"] = wall - attributed
        metrics["ledger.coverage"] = attributed / wall
        metrics["trace.overhead_ratio"] = sample.wall_s / untraced_wall_s
        return metrics, tracer.spans, list(sample.errors)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)


def check_spans(spans: List[Dict[str, Any]]) -> List[str]:
    """Every span has a parent in the trace, or is a root."""
    ids = {span["id"] for span in spans}
    return [
        f"span {span['id']} ({span['name']}) has unknown parent {span['parent']}"
        for span in spans if span["parent"] is not None and span["parent"] not in ids
    ]

