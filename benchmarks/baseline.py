"""Perf-regression harness: measure the hot kernels, emit BENCH_*.json.

Runs the three paper-critical kernels (tile extraction, NetCDF codec,
encoder inference) plus a small end-to-end preprocess+inference pipeline,
and writes machine-readable, schema-versioned baselines:

    PYTHONPATH=src python benchmarks/baseline.py              # paper scale
    PYTHONPATH=src python benchmarks/baseline.py --quick      # CI smoke

Outputs ``BENCH_kernels.json`` and ``BENCH_endtoend.json``.  Every entry
carries both raw ``seconds`` and a ``normalized`` value — seconds divided
by the runtime of a fixed calibration matmul measured in the same
process — so baselines recorded on one machine remain comparable on
another.  ``benchmarks/check_regression.py`` consumes these files and
fails on >20 % normalized regression against the committed baseline.

The kernels are timed against *naive reference implementations* (the
pre-optimization code paths) where one exists, so the JSON also records
the speedup the optimized paths deliver on this machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.instruments.tiling import Tile, extract_tiles, tiles_to_dataset  # noqa: E402
from repro.netcdf import from_bytes, to_bytes  # noqa: E402
from repro.netcdf.writer import canonical_layout, splice_bytes  # noqa: E402
from repro.ricc import AICCAModel, AgglomerativeClustering, RotationInvariantAutoencoder  # noqa: E402

SCHEMA_VERSION = 1

# Paper-scale MODIS swath (Section II-A): 2030 x 1354 pixels, 6 bands.
PAPER_SWATH = dict(lines=2030, pixels=1354, bands=6, tile=128)
QUICK_SWATH = dict(lines=512, pixels=512, bands=6, tile=32)


def _time(fn: Callable[[], object], repeats: int, warmup: int = 1) -> Dict[str, float]:
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "seconds": statistics.median(samples),
        "best": min(samples),
        "runs": repeats,
    }


def _calibrate(repeats: int) -> float:
    """A fixed float64 matmul whose runtime anchors cross-machine ratios."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(384, 384))
    b = rng.normal(size=(384, 384))
    return _time(lambda: a @ b, repeats=max(repeats, 5), warmup=2)["seconds"]


def _swath(lines: int, pixels: int, bands: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    radiance = rng.normal(size=(bands, lines, pixels)).astype(np.float32)
    cloud = rng.uniform(size=(lines, pixels)) < 0.6
    # A coastline, not per-pixel noise: the left quarter of the swath is
    # land so ocean tiles exist (selection requires land_fraction == 0).
    land = np.zeros((lines, pixels), dtype=bool)
    land[:, : pixels // 4] = True
    lat = rng.uniform(-60, 60, size=(lines, pixels))
    lon = rng.uniform(-180, 180, size=(lines, pixels))
    tau = rng.uniform(0, 30, size=(lines, pixels))
    ctp = rng.uniform(200, 1000, size=(lines, pixels))
    return radiance, cloud, land, lat, lon, tau, ctp


def _naive_extract_tiles(
    radiance, cloud_mask, land_mask, latitude, longitude, tile_size,
    optical_thickness=None, cloud_top_pressure=None,
    cloud_threshold=0.3, max_land_fraction=0.0, source="",
) -> List[Tile]:
    """The pre-optimization extraction: materialize the full-swath tile
    cube, then loop over selected tiles in Python.  Kept as the speedup
    yardstick for the selection-first implementation."""

    def view(field_2d, tile):
        rows = field_2d.shape[0] // tile
        cols = field_2d.shape[1] // tile
        return field_2d[: rows * tile, : cols * tile].reshape(
            rows, tile, cols, tile
        ).swapaxes(1, 2)

    bands = radiance.shape[0]
    cloud_tiles = view(cloud_mask.astype(np.float32), tile_size)
    land_tiles = view(land_mask.astype(np.float32), tile_size)
    cloud_frac = cloud_tiles.mean(axis=(2, 3))
    land_frac = land_tiles.mean(axis=(2, 3))
    selected = (land_frac <= max_land_fraction + 1e-12) & (cloud_frac > cloud_threshold)
    lat_tiles = view(latitude.astype(np.float64), tile_size)
    lon_tiles = view(longitude.astype(np.float64), tile_size)
    band_tiles = np.stack([view(radiance[b], tile_size) for b in range(bands)], axis=-1)
    tau_tiles = (
        view(optical_thickness.astype(np.float64), tile_size)
        if optical_thickness is not None else None
    )
    ctp_tiles = (
        view(cloud_top_pressure.astype(np.float64), tile_size)
        if cloud_top_pressure is not None else None
    )
    out: List[Tile] = []
    for row, col in zip(*np.nonzero(selected)):
        cloudy = cloud_tiles[row, col] > 0.5
        mean_tau = (
            float(tau_tiles[row, col][cloudy].mean())
            if tau_tiles is not None and cloudy.any() else float("nan")
        )
        mean_ctp = (
            float(ctp_tiles[row, col][cloudy].mean())
            if ctp_tiles is not None and cloudy.any() else float("nan")
        )
        out.append(Tile(
            data=np.ascontiguousarray(band_tiles[row, col]).astype(np.float32),
            row=int(row), col=int(col),
            latitude=float(lat_tiles[row, col].mean()),
            longitude=float(lon_tiles[row, col].mean()),
            cloud_fraction=float(cloud_frac[row, col]),
            mean_optical_thickness=mean_tau,
            mean_cloud_top_pressure=mean_ctp,
            source=source,
        ))
    return out


def bench_kernels(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    swath = QUICK_SWATH if quick else PAPER_SWATH
    radiance, cloud, land, lat, lon, tau, ctp = _swath(
        swath["lines"], swath["pixels"], swath["bands"]
    )
    tile = swath["tile"]
    results: Dict[str, Dict[str, float]] = {}

    # --- tile extraction: selection-first vs naive full-swath copy
    args = (radiance, cloud, land, lat, lon, tile)
    kwargs = dict(optical_thickness=tau, cloud_top_pressure=ctp)
    results["extract_tiles"] = _time(lambda: extract_tiles(*args, **kwargs), repeats)
    results["extract_tiles_naive"] = _time(
        lambda: _naive_extract_tiles(*args, **kwargs), max(1, repeats // 2)
    )
    results["extract_tiles_naive"]["reference"] = 1.0
    results["extract_tiles"]["speedup_vs_naive"] = (
        results["extract_tiles_naive"]["seconds"] / results["extract_tiles"]["seconds"]
    )
    tiles = extract_tiles(*args, **kwargs)
    results["extract_tiles"]["tiles_selected"] = float(len(tiles))

    # --- NetCDF codec round-trip on the resulting tile file
    ds = tiles_to_dataset(tiles)
    raw = to_bytes(ds)
    results["netcdf_to_bytes"] = _time(lambda: to_bytes(ds), repeats)
    results["netcdf_from_bytes"] = _time(lambda: from_bytes(raw), repeats)
    results["netcdf_to_bytes"]["payload_mb"] = len(raw) / 1e6

    # --- label append: header-rewrite splice vs full re-serialization
    parsed = from_bytes(raw)
    labels = np.zeros(parsed.num_records, dtype=np.int32)

    def label_splice():
        layout = canonical_layout(parsed, raw)
        parsed["label"].data[:] = labels
        return splice_bytes(parsed, raw, layout, ("label",))

    def label_full():
        parsed["label"].data[:] = labels
        return to_bytes(parsed)

    results["label_append_splice"] = _time(label_splice, repeats)
    results["label_append_full"] = _time(label_full, max(1, repeats // 2))
    results["label_append_full"]["reference"] = 1.0
    results["label_append_splice"]["speedup_vs_full"] = (
        results["label_append_full"]["seconds"] / results["label_append_splice"]["seconds"]
    )

    # --- encoder inference: float32 fast path vs float64 upcast
    hidden = (128, 32) if quick else (256, 64)
    batch_n = 256 if quick else 1024
    tile_hw = 16
    model = RotationInvariantAutoencoder((tile_hw, tile_hw, 6), latent_dim=16, hidden=hidden)
    rng = np.random.default_rng(0)
    batch32 = rng.normal(size=(batch_n, tile_hw, tile_hw, 6)).astype(np.float32)
    batch64 = batch32.astype(np.float64)
    results["encoder_inference_float32"] = _time(lambda: model.encode(batch32), repeats)
    results["encoder_inference_float64"] = _time(lambda: model.encode(batch64), repeats)
    results["encoder_inference_float32"]["speedup_vs_float64"] = (
        results["encoder_inference_float64"]["seconds"]
        / results["encoder_inference_float32"]["seconds"]
    )
    return results


def bench_endtoend(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Preprocess -> label pipeline throughput on a synthetic swath."""
    swath = QUICK_SWATH if quick else PAPER_SWATH
    radiance, cloud, land, lat, lon, tau, ctp = _swath(
        swath["lines"], swath["pixels"], swath["bands"], seed=1
    )
    tile = swath["tile"]
    tiles = extract_tiles(
        radiance, cloud, land, lat, lon, tile,
        optical_thickness=tau, cloud_top_pressure=ctp,
    )
    ds = tiles_to_dataset(tiles)
    raw = to_bytes(ds)

    # A tiny frozen model: random-seeded encoder + fitted centroids.
    hw = 16
    train = np.random.default_rng(2).normal(size=(64, hw, hw, swath["bands"])).astype(np.float32)
    encoder = RotationInvariantAutoencoder((hw, hw, swath["bands"]), latent_dim=8, hidden=(64,))
    clustering = AgglomerativeClustering(n_clusters=8)
    clustering.fit(encoder.encode(train.astype(np.float64)))
    model = AICCAModel(encoder, clustering)

    # Tile cubes are (tile, tile, bands); the encoder sees hw x hw crops
    # so the pipeline exercises realistic per-file tile counts.
    cube = from_bytes(raw)["radiance"].data
    crops = np.asarray(cube[:, :hw, :hw, :], dtype=np.float32)

    def pipeline():
        extracted = extract_tiles(
            radiance, cloud, land, lat, lon, tile,
            optical_thickness=tau, cloud_top_pressure=ctp,
        )
        packed = to_bytes(tiles_to_dataset(extracted))
        parsed = from_bytes(packed)
        labels = model.assign(crops)
        layout = canonical_layout(parsed, packed)
        parsed["label"].data[:] = labels.astype(np.int32)
        return splice_bytes(parsed, packed, layout, ("label",))

    results: Dict[str, Dict[str, float]] = {}
    results["preprocess_label_pipeline"] = _time(pipeline, repeats)
    results["preprocess_label_pipeline"]["tiles_per_second"] = (
        len(tiles) / results["preprocess_label_pipeline"]["seconds"]
    )
    results["preprocess_label_pipeline"]["tiles"] = float(len(tiles))
    return results


def bench_makespan(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """End-to-end makespan: the streaming topology vs the barrier one.

    Runs the *real* five-stage workflow twice over a synthetic archive
    whose per-granule fetch carries a fixed latency (standing in for the
    LAADS wide-area transfer the paper's facilities pay).  Barrier mode
    sums the stages; streaming mode overlaps them, so the ratio is the
    pipelining win.  The streaming entry's ``normalized`` value is that
    ratio (streaming seconds / barrier seconds, measured in the same
    process) rather than a calibration quotient — the run is
    sleep-dominated, so a compute-anchored ratio would vary with the
    machine while this one cannot.
    """
    import shutil
    import tempfile

    from repro.core import EOMLWorkflow, load_config
    from repro.modis import MINI_SWATH, LaadsArchive
    from repro.runtime import PlanRunner

    # Sized so wide-area latency and local compute are comparable —
    # the regime where pipelining pays (either extreme hides it).  The
    # fetch delay models the LAADS transfer; the seeded worker_stall
    # faults model per-scene preprocess and per-file inference compute
    # (the synthetic kernels alone are too fast to overlap anything).
    # Both timed modes share the identical plan, so the injected latency
    # cancels out of nothing — it IS the work being pipelined.
    granules = 4 if quick else 6
    fetch_delay = 0.09 if quick else 0.08
    preprocess_stall = 0.25
    inference_stall = 0.10

    class SlowArchive(LaadsArchive):
        def fetch(self, ref, *args, **kwargs):
            time.sleep(fetch_delay)
            return super().fetch(ref, *args, **kwargs)

    def build(root: str, model) -> EOMLWorkflow:
        config = load_config({
            "archive": {"start_date": "2022-01-01",
                        "max_granules_per_day": granules, "seed": 3},
            "paths": {
                "staging": os.path.join(root, "raw"),
                "preprocessed": os.path.join(root, "tiles"),
                "transfer_out": os.path.join(root, "outbox"),
                "destination": os.path.join(root, "orion"),
                "quarantine": os.path.join(root, "quarantine"),
            },
            "download": {"workers": 2},
            "preprocess": {"workers": 1},
            "inference": {"workers": 1, "poll_interval": 0.05},
            "journal": {"enabled": False},
            "chaos": {"seed": 0, "faults": [
                {"stage": "preprocess", "kind": "worker_stall",
                 "rate": 1.0, "times": 1, "latency": preprocess_stall},
                {"stage": "inference", "kind": "worker_stall",
                 "rate": 1.0, "times": 1, "latency": inference_stall},
            ]},
        })
        return EOMLWorkflow(
            config, model=model, archive=SlowArchive(seed=3, swath=MINI_SWATH)
        )

    # One untimed bootstrap run supplies the trained model both timed
    # modes share, so bootstrap training cost cancels out of the ratio.
    warm_root = tempfile.mkdtemp(prefix="bench_makespan_warm_")
    try:
        # Driving the plan directly returns the model node's value.
        model = PlanRunner().run(build(warm_root, model=None).build_plan())["model"]
    finally:
        shutil.rmtree(warm_root, ignore_errors=True)

    last_report = {}

    def makespan(streaming: bool) -> None:
        root = tempfile.mkdtemp(prefix="bench_makespan_")
        try:
            report = build(root, model=model).run(
                provenance=False, streaming=streaming
            )
            if streaming:
                last_report["stream"] = report.stream
                last_report["overlap"] = report.stage_overlap_seconds
        finally:
            shutil.rmtree(root, ignore_errors=True)

    runs = max(2, repeats // 2)
    results: Dict[str, Dict[str, float]] = {}
    results["endtoend_makespan_barrier"] = _time(
        lambda: makespan(False), runs, warmup=0
    )
    results["endtoend_makespan_barrier"]["reference"] = 1.0
    results["endtoend_makespan_streaming"] = _time(
        lambda: makespan(True), runs, warmup=0
    )
    barrier = results["endtoend_makespan_barrier"]["seconds"]
    streaming = results["endtoend_makespan_streaming"]["seconds"]
    entry = results["endtoend_makespan_streaming"]
    entry["normalized"] = streaming / barrier
    entry["speedup_vs_barrier"] = barrier / streaming
    edges = (last_report.get("stream") or {}).get("edges", {})
    entry["max_queue_depth"] = float(max(
        (stats["max_depth"] for stats in edges.values()), default=0
    ))
    entry["producer_stall_seconds"] = float(sum(
        stats["producer_stall_seconds"] for stats in edges.values()
    ))
    entry["stage_overlap_seconds"] = float(sum(
        (last_report.get("overlap") or {}).values()
    ))
    return results


def bench_campaign(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Campaign scale-out: one multi-day plan at 1 vs 4 worker processes.

    Models the paper's production campaign — 288 MODIS granules per day,
    day after day — scaled so each synthetic granule stands in for a
    slab of that stream (288 / granules_per_day real granules), with the
    slab's aggregate wide-area transfer collapsed into a fixed
    per-granule fetch delay and its per-scene compute into seeded
    ``worker_stall`` faults.  The plan is latency-dominated by
    construction: workers wait on the (simulated) wide area and remote
    facility far more than on local cycles, which is the paper's regime
    and also what makes the measurement machine-independent — a 1-core
    CI runner overlaps sleeps exactly as well as a 64-core one.

    Both modes run the identical plan through the real workflow; the
    only difference is ``runtime.workers`` (1 = in-process sequential
    path, 4 = the sharded multi-process pool).  The scale-out entry's
    ``normalized`` value is the makespan ratio (4-worker seconds /
    1-worker seconds, measured in the same process); its reciprocal is
    the speedup-vs-cores the regression gate holds — the acceptance
    floor is 2.5x at 4 workers (parallel efficiency >= 0.625).
    """
    import shutil
    import tempfile

    from repro.core import EOMLWorkflow, load_config
    from repro.modis import MINI_SWATH, LaadsArchive
    from repro.runtime import PlanRunner

    days = 2 if quick else 3
    granules = 4 if quick else 6
    workers = 4
    # Delays sized so injected latency dominates local compute (granule
    # synthesis costs ~30 ms of CPU per file, which a 1-core runner
    # cannot overlap) — the serial run must be >= ~80 % sleep for the
    # 4-worker mode to clear the 2.5x acceptance floor machine-
    # independently.
    fetch_delay = 0.2           # the slab's wide-area transfer
    preprocess_stall = 0.3      # per-scene tiling compute, once per key
    inference_stall = 0.15      # per-tile-file remote inference latency

    class SlowArchive(LaadsArchive):
        # Local subclass is fine: worker processes fork, so the archive
        # crosses by inheritance, never by pickle-by-reference.
        def fetch(self, ref, *args, **kwargs):
            time.sleep(fetch_delay)
            return super().fetch(ref, *args, **kwargs)

    def build(root: str, model, pool_workers: int) -> EOMLWorkflow:
        config = load_config({
            "archive": {"start_date": "2022-01-01",
                        "end_date": f"2022-01-{days:02d}",
                        "max_granules_per_day": granules, "seed": 3},
            "paths": {
                "staging": os.path.join(root, "raw"),
                "preprocessed": os.path.join(root, "tiles"),
                "transfer_out": os.path.join(root, "outbox"),
                "destination": os.path.join(root, "orion"),
                "quarantine": os.path.join(root, "quarantine"),
            },
            # Stage-level pools pinned to 1 so the serial mode really is
            # serial: every overlap the 4-worker mode wins comes from
            # runtime.workers, nothing else.
            "download": {"workers": 1},
            "preprocess": {"workers": 1},
            "inference": {"workers": 1, "poll_interval": 0.05},
            "runtime": {"workers": pool_workers},
            "journal": {"enabled": False},
            "chaos": {"seed": 0, "faults": [
                {"stage": "preprocess", "kind": "worker_stall",
                 "rate": 1.0, "times": 1, "latency": preprocess_stall},
                {"stage": "inference", "kind": "worker_stall",
                 "rate": 1.0, "times": 1, "latency": inference_stall},
            ]},
        })
        return EOMLWorkflow(
            config, model=model, archive=SlowArchive(seed=3, swath=MINI_SWATH)
        )

    # One untimed bootstrap run (no delays, one day) supplies the model
    # both timed modes share, so training cost cancels out of the ratio.
    warm_root = tempfile.mkdtemp(prefix="bench_campaign_warm_")
    try:
        warm = EOMLWorkflow(load_config({
            "archive": {"start_date": "2022-01-01",
                        "max_granules_per_day": 2, "seed": 3},
            "paths": {
                "staging": os.path.join(warm_root, "raw"),
                "preprocessed": os.path.join(warm_root, "tiles"),
                "transfer_out": os.path.join(warm_root, "outbox"),
                "destination": os.path.join(warm_root, "orion"),
                "quarantine": os.path.join(warm_root, "quarantine"),
            },
            "journal": {"enabled": False},
        }), archive=LaadsArchive(seed=3, swath=MINI_SWATH))
        # Driving the plan directly returns the model node's value.
        model = PlanRunner().run(warm.build_plan())["model"]
    finally:
        shutil.rmtree(warm_root, ignore_errors=True)

    last: Dict[str, object] = {}

    def campaign(pool_workers: int) -> None:
        root = tempfile.mkdtemp(prefix="bench_campaign_")
        try:
            report = build(root, model, pool_workers).run(provenance=False)
            if report.errors:
                raise RuntimeError(
                    f"campaign run failed: {report.errors[:3]}"
                )
            last[pool_workers] = report.scaleout
        finally:
            shutil.rmtree(root, ignore_errors=True)

    runs = max(2, repeats // 2)
    results: Dict[str, Dict[str, float]] = {}
    results["campaign_scaleout_serial"] = _time(
        lambda: campaign(1), runs, warmup=0
    )
    serial_entry = results["campaign_scaleout_serial"]
    serial_entry["reference"] = 1.0
    serial_entry["days"] = float(days)
    serial_entry["granules_per_day"] = float(granules)
    serial_entry["real_granules_per_synthetic"] = 288.0 / granules

    results["campaign_scaleout"] = _time(
        lambda: campaign(workers), runs, warmup=0
    )
    serial = serial_entry["seconds"]
    pooled = results["campaign_scaleout"]["seconds"]
    entry = results["campaign_scaleout"]
    entry["workers"] = float(workers)
    entry["normalized"] = pooled / serial
    entry["speedup_vs_1worker"] = serial / pooled
    entry["parallel_efficiency"] = (serial / pooled) / workers
    scaleout = last.get(workers) or {}
    entry["pool_units_executed"] = float(scaleout.get("units_executed", 0))
    entry["pool_workers_launched"] = float(scaleout.get("workers_launched", 0))
    entry["pool_requeues"] = float(scaleout.get("requeues", 0))
    return results


def bench_cache(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Content-addressed cache: a two-run, two-branch campaign on one CAS.

    Run 1 executes a {ricc, heuristic} fan-out campaign against an empty
    store (every object is fetched, tiled, and shipped for real, then
    published into the CAS); run 2 executes the *same* campaign in a
    fresh run directory against the now-warm store.  The quantity the
    regression gate holds is the bytes-moved ratio (run 2 / run 1, where
    bytes moved = archive bytes fetched + shipment bytes transferred) —
    machine-independent like the other end-to-end ratios, because it
    counts bytes rather than seconds.

    Acceptance floors enforced here (the bench itself fails if the cache
    stops delivering): run 2's object-level hit rate >= 80 % and its
    bytes-moved reduction >= 60 %.
    """
    import shutil
    import tempfile

    from repro.core import EOMLWorkflow, load_config
    from repro.modis import MINI_SWATH, LaadsArchive

    granules = 2 if quick else 3

    def run_once(root: str, cas_dir: str):
        config = load_config({
            "archive": {"start_date": "2022-01-01",
                        "max_granules_per_day": granules, "seed": 3},
            "inference": {"workers": 1, "poll_interval": 0.05,
                          "models": ["ricc", "heuristic"]},
            "paths": {
                "staging": os.path.join(root, "raw"),
                "preprocessed": os.path.join(root, "tiles"),
                "transfer_out": os.path.join(root, "outbox"),
                "destination": os.path.join(root, "orion"),
                "quarantine": os.path.join(root, "quarantine"),
            },
            "journal": {"enabled": False},
            "cache": {"enabled": True, "dir": cas_dir},
        })
        report = EOMLWorkflow(
            config, archive=LaadsArchive(seed=3, swath=MINI_SWATH)
        ).run(provenance=False)
        if report.errors:
            raise RuntimeError(f"cache campaign run failed: {report.errors[:3]}")
        return report

    def bytes_moved(report) -> int:
        shipped = report.shipment.nbytes if report.shipment else 0
        return int(report.download.fetched_bytes) + int(shipped)

    # The cold pass owns the lifecycle: a fresh base directory (and a
    # fresh, empty CAS) per repeat.  The warm pass replays the campaign
    # in a new run directory against whatever CAS the last cold pass
    # left behind — which is exactly the second run of a campaign.
    state: Dict[str, object] = {}

    def cold() -> None:
        if state.get("base"):
            shutil.rmtree(state["base"], ignore_errors=True)
        base = tempfile.mkdtemp(prefix="bench_cache_")
        state["base"] = base
        state["cas"] = os.path.join(base, "cas")
        state["runs"] = 0
        state["cold_report"] = run_once(os.path.join(base, "run0"), state["cas"])

    def warm() -> None:
        state["runs"] = int(state.get("runs", 0)) + 1
        root = os.path.join(str(state["base"]), f"run{state['runs']}")
        state["warm_report"] = run_once(root, str(state["cas"]))

    runs = max(2, repeats // 2)
    results: Dict[str, Dict[str, float]] = {}
    try:
        results["campaign_cache_cold"] = _time(cold, runs, warmup=0)
        cold_entry = results["campaign_cache_cold"]
        cold_entry["reference"] = 1.0
        cold_entry["granules_per_day"] = float(granules)
        cold_entry["branches"] = 2.0
        cold_bytes = bytes_moved(state["cold_report"])
        cold_entry["bytes_moved"] = float(cold_bytes)

        results["campaign_cache"] = _time(warm, runs, warmup=0)
        entry = results["campaign_cache"]
        warm_report = state["warm_report"]
        warm_bytes = bytes_moved(warm_report)
        hits = int(warm_report.cache["hits"])
        misses = int(warm_report.cache["misses"])
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        ratio = warm_bytes / cold_bytes if cold_bytes else 1.0
        entry["bytes_moved"] = float(warm_bytes)
        entry["bytes_saved"] = float(warm_report.cache["bytes_saved"])
        entry["hits"] = float(hits)
        entry["misses"] = float(misses)
        entry["hit_rate"] = hit_rate
        entry["bytes_moved_ratio"] = ratio
        entry["normalized"] = ratio
        # The acceptance floors the issue pins: the warm run must hit on
        # >= 80 % of object lookups and move >= 60 % fewer bytes.
        if hit_rate < 0.8:
            raise RuntimeError(
                f"campaign_cache hit rate {hit_rate:.2f} below the 0.80 floor"
            )
        if ratio > 0.4:
            raise RuntimeError(
                f"campaign_cache moved {ratio:.0%} of cold-run bytes; "
                f"floor is a 60% reduction (ratio <= 0.40)"
            )
    finally:
        if state.get("base"):
            shutil.rmtree(str(state["base"]), ignore_errors=True)
    return results


def bench_multi_instrument(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Instrument x model fan-out: a {modis, abi} x {ricc, heuristic}
    plan vs the classic single-branch pipeline on the same workload.

    The fan-out run does strictly more physical work — two instruments'
    granule streams, four model bootstraps, four label passes — so the
    quantity the regression gate holds is the makespan *ratio* of the
    2 x 2 plan to the single-branch plan (machine-independent, like the
    streaming and scale-out entries).  Branch expansion, per-branch
    config derivation, and registry dispatch all sit on that ratio: if
    plumbing overhead creeps in, the ratio grows past the gate even
    though both absolute times move with the machine.
    """
    import shutil
    import tempfile

    from repro.core import EOMLWorkflow, load_config
    from repro.modis import MINI_SWATH, LaadsArchive

    granules = 1 if quick else 2

    def run(fanout: bool) -> None:
        root = tempfile.mkdtemp(prefix="bench_multi_instrument_")
        try:
            archive = {"start_date": "2022-01-01",
                       "max_granules_per_day": granules, "seed": 3}
            inference = {"workers": 1, "poll_interval": 0.05}
            if fanout:
                archive["instruments"] = ["modis", "abi"]
                inference["models"] = ["ricc", "heuristic"]
            config = load_config({
                "archive": archive,
                "inference": inference,
                "paths": {
                    "staging": os.path.join(root, "raw"),
                    "preprocessed": os.path.join(root, "tiles"),
                    "transfer_out": os.path.join(root, "outbox"),
                    "destination": os.path.join(root, "orion"),
                    "quarantine": os.path.join(root, "quarantine"),
                },
                "journal": {"enabled": False},
            })
            report = EOMLWorkflow(
                config, archive=LaadsArchive(seed=3, swath=MINI_SWATH)
            ).run(provenance=False)
            if report.errors:
                raise RuntimeError(f"fan-out run failed: {report.errors[:3]}")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    runs = max(2, repeats // 2)
    results: Dict[str, Dict[str, float]] = {}
    results["multi_instrument_single"] = _time(
        lambda: run(False), runs, warmup=0
    )
    single_entry = results["multi_instrument_single"]
    single_entry["reference"] = 1.0
    single_entry["granules_per_day"] = float(granules)

    results["multi_instrument"] = _time(lambda: run(True), runs, warmup=0)
    entry = results["multi_instrument"]
    entry["instruments"] = 2.0
    entry["models"] = 2.0
    entry["branches"] = 4.0
    single = single_entry["seconds"]
    entry["normalized"] = entry["seconds"] / single
    entry["fanout_vs_single"] = entry["seconds"] / single
    entry["per_branch_ratio"] = entry["seconds"] / (4.0 * single)
    return results


def bench_control_plane(quick: bool, repeats: int) -> Dict[str, Dict[str, float]]:
    """Control-plane service under a 200-concurrent-client burst.

    Spins up the real in-process :class:`ControlPlaneServer` (SQLite
    store, stdlib threaded HTTP) and hammers it the way the load test
    does (``tests/server/test_load.py``): 200 clients, each submitting a
    run and driving one lease-protocol round, then a small drainer pool
    finishing every unit.  No stage work executes — this times the
    *protocol* (submit validation + unit-graph derivation, leasing,
    heartbeats, completion) which is what a multi-facility deployment
    pays per work-unit.

    Client-side per-request latencies give exact p95 (the server's own
    histogram is bucketed too coarsely to gate on).  The entry's
    ``normalized`` value is the contention ratio: per-request seconds
    under the concurrent burst divided by per-request seconds measured
    serially in the same process — machine-stable, and it degrades
    exactly when concurrency handling regresses (lock contention, an
    accidentally quadratic lease sweep), which is what the gate is for.
    """
    import shutil
    import tempfile
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.server import ControlPlaneClient, ControlPlaneServer

    clients = 200  # the load-test floor, both modes
    units_per_run = 5  # the five-stage plan
    serial_runs = max(2, repeats // 2)

    root = tempfile.mkdtemp(prefix="bench_control_plane_")
    raw = {
        "archive": {"start_date": "2022-01-01",
                    "max_granules_per_day": 1, "seed": 3},
        "paths": {
            "staging": os.path.join(root, "data", "raw"),
            "preprocessed": os.path.join(root, "data", "tiles"),
            "transfer_out": os.path.join(root, "data", "outbox"),
            "destination": os.path.join(root, "data", "orion"),
            "quarantine": os.path.join(root, "data", "quarantine"),
        },
        "journal": {"dir": os.path.join(root, "data", "journal")},
    }

    samples: List[float] = []
    lock = threading.Lock()

    def timed(fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        with lock:
            samples.append(elapsed)
        return out

    def drain(client: ControlPlaneClient, name: str) -> None:
        while True:
            lease = timed(client.lease, name)
            if lease is None:
                return
            timed(client.complete, lease.lease_id, result={"by": name})

    results: Dict[str, Dict[str, float]] = {}
    try:
        with ControlPlaneServer() as server:
            url = server.url

            # --- serial yardstick: one client, same request mix, no rivals.
            serial_client = ControlPlaneClient(url, timeout=60.0)
            serial_start = time.perf_counter()
            for index in range(serial_runs):
                run = timed(serial_client.submit, raw, name=f"serial-{index}")
                timed(serial_client.run, run.run_id)
                drain(serial_client, "serial-agent")
            serial_seconds = time.perf_counter() - serial_start
            serial_requests = len(samples)
            serial_per_request = serial_seconds / serial_requests
            samples.clear()

            # --- the burst: every client submits, polls, and runs one
            # lease round, all at once.
            def one_client(index: int) -> None:
                client = ControlPlaneClient(url, timeout=60.0, retries=5)
                run = timed(client.submit, raw, name=f"bench-{index}")
                timed(client.run, run.run_id)
                lease = timed(client.lease, f"agent-{index}")
                if lease is not None:
                    timed(client.heartbeat, lease.lease_id)
                    timed(client.complete, lease.lease_id, result={"by": index})

            burst_start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                list(pool.map(one_client, range(clients)))
            burst_seconds = time.perf_counter() - burst_start
            with lock:
                burst_samples = list(samples)

            # --- drain the backlog the burst left behind.
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(
                    lambda name: drain(ControlPlaneClient(url, timeout=60.0), name),
                    [f"drainer-{i}" for i in range(8)],
                ))
            total_seconds = time.perf_counter() - burst_start

            stats = server.store.stats()
            completed = stats["units"].get("completed", 0)
            expected = units_per_run * (clients + serial_runs)
            if completed != expected:
                raise RuntimeError(
                    f"control-plane bench lost work: {completed} units "
                    f"completed, expected {expected}"
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    ordered = sorted(burst_samples)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    mean_latency = sum(ordered) / len(ordered)
    # Throughput view of the burst: wall seconds per answered request.
    # Relative to the serial yardstick this is the contention ratio the
    # regression gate watches (lower = concurrency helps).
    per_request = burst_seconds / len(ordered)
    entry: Dict[str, float] = {
        "seconds": total_seconds,
        "best": total_seconds,
        "runs": 1,
        "clients": float(clients),
        "requests": float(len(samples)),
        "submissions_per_second": clients / burst_seconds,
        "p95_latency_seconds": p95,
        "mean_latency_seconds": mean_latency,
        "serial_seconds_per_request": serial_per_request,
        "normalized": per_request / serial_per_request,
    }
    results["control_plane"] = entry
    return results


def _emit(path: str, quick: bool, calibration: float,
          benchmarks: Dict[str, Dict[str, float]]) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "calibration_seconds": calibration,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "benchmarks": {
            # An entry may precompute its own machine-independent
            # "normalized" (the makespan ratio); only fall back to the
            # calibration quotient when it did not.
            name: {"normalized": entry["seconds"] / calibration, **entry}
            for name, entry in benchmarks.items()
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repetitions per kernel (default 5)")
    parser.add_argument("--output-dir", default=".",
                        help="directory receiving BENCH_kernels.json / BENCH_endtoend.json")
    args = parser.parse_args(argv)
    repeats = args.repeats or 5

    os.makedirs(args.output_dir, exist_ok=True)
    calibration = _calibrate(repeats)
    print(f"calibration matmul: {calibration * 1e3:.2f} ms")

    kernels = bench_kernels(args.quick, repeats)
    for name, entry in sorted(kernels.items()):
        extra = "".join(
            f"  {key}={value:.2f}" for key, value in entry.items()
            if key.startswith("speedup")
        )
        print(f"  {name:32s} {entry['seconds'] * 1e3:9.2f} ms{extra}")
    _emit(os.path.join(args.output_dir, "BENCH_kernels.json"),
          args.quick, calibration, kernels)

    endtoend = bench_endtoend(args.quick, max(1, repeats // 2))
    endtoend.update(bench_makespan(args.quick, repeats))
    endtoend.update(bench_campaign(args.quick, repeats))
    endtoend.update(bench_cache(args.quick, repeats))
    endtoend.update(bench_multi_instrument(args.quick, repeats))
    endtoend.update(bench_control_plane(args.quick, repeats))
    for name, entry in sorted(endtoend.items()):
        extra = "".join(
            f"  {key}={value:.2f}" for key, value in entry.items()
            if key.startswith("speedup")
        )
        print(f"  {name:32s} {entry['seconds'] * 1e3:9.2f} ms{extra}")
    _emit(os.path.join(args.output_dir, "BENCH_endtoend.json"),
          args.quick, calibration, endtoend)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
