"""The EO-ML workflow configuration (the user's YAML surface).

Section III: "users configure their workflow through a locally available
YAML file for their queries, specifying their compute endpoint, LAADS
credentials, MODIS product, time span, and local paths".  This module
defines that file's schema and parses it into a typed config object.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.chaos.plan import FaultPlan
from repro.instruments.base import OCEAN_CLOUD_THRESHOLD
from repro.instruments.registry import get_instrument
from repro.net.retry import BackoffPolicy
from repro.runtime.channel import DEFAULT_CAPACITY, StreamConfig
from repro.util.config import (
    ConfigError,
    Field,
    Schema,
    boolean,
    integer,
    number,
    positive_int,
    string,
    string_list,
)
from repro.util.yamlish import loads as yaml_loads

__all__ = ["EOMLConfig", "StageWorkers", "load_config", "ConfigError"]


def _date(value: Any) -> dt.date:
    if isinstance(value, dt.date):
        return value
    if not isinstance(value, str):
        raise ValueError(f"expected an ISO date string, got {value!r}")
    return dt.date.fromisoformat(value)


def _fraction(value: Any) -> float:
    result = number(value)
    if not 0.0 <= result <= 1.0:
        raise ValueError(f"expected a fraction in [0, 1], got {result}")
    return result


_ARCHIVE = Schema(
    "archive",
    [
        # Which registered instrument feeds the plan; ``products`` names
        # its files (unset: the instrument's default scene composition).
        Field("instrument", string, required=False, default="modis"),
        Field("products", string_list, required=False, default=None),
        Field("start_date", _date),
        Field("end_date", _date, required=False, default=None),
        Field("max_granules_per_day", positive_int, required=False, default=None),
        Field("seed", integer, required=False, default=0),
    ],
)

_PATHS = Schema(
    "paths",
    [
        Field("staging", string, required=False, default="data/raw"),
        Field("preprocessed", string, required=False, default="data/tiles"),
        Field("transfer_out", string, required=False, default="data/outbox"),
        Field("destination", string, required=False, default="data/orion"),
        Field("quarantine", string, required=False, default="data/quarantine"),
    ],
)

def _non_negative_int(value: Any) -> int:
    result = integer(value)
    if result < 0:
        raise ValueError(f"expected a non-negative integer, got {result}")
    return result


def _positive_or_none_int(value: Any) -> Optional[int]:
    if value is None:
        return None
    result = integer(value)
    if result <= 0:
        raise ValueError(f"expected a positive integer or null, got {result}")
    return result


def _positive_number(value: Any) -> float:
    result = number(value)
    if result <= 0:
        raise ValueError(f"expected a positive number, got {result}")
    return result


_DOWNLOAD = Schema(
    "download",
    [
        Field("workers", positive_int, required=False, default=3),
        Field("retries", _non_negative_int, required=False, default=2),
        Field("skip_existing", boolean, required=False, default=True),
        Field("backoff_base", _positive_number, required=False, default=0.05),
        Field("backoff_cap", _positive_number, required=False, default=2.0),
        Field("backoff_total", _positive_number, required=False, default=15.0),
        Field("breaker_threshold", positive_int, required=False, default=8),
        Field("breaker_reset", _positive_number, required=False, default=5.0),
        Field("on_exhausted", string, required=False, default="raise",
              choices=("raise", "skip")),
    ],
)

_PREPROCESS = Schema(
    "preprocess",
    [
        Field("workers", positive_int, required=False, default=32),
        Field("tile_size", positive_int, required=False, default=16),
        Field("cloud_threshold", _fraction, required=False, default=OCEAN_CLOUD_THRESHOLD),
        Field("max_land_fraction", _fraction, required=False, default=0.0),
    ],
)

_INFERENCE = Schema(
    "inference",
    [
        Field("workers", positive_int, required=False, default=1),
        Field("num_classes", positive_int, required=False, default=42),
        Field("model_path", string, required=False, default=None),
        # Read by nothing since inference reads a stream instead of
        # polling; accepted only because the frozen benchmark configs
        # (benchmarks/e2e/workloads.py) still set it.  It goes when those
        # are next refreshed.
        Field("poll_interval", number, required=False, default=0.2),
        Field("batch_files", positive_int, required=False, default=8),
    ],
)

_CACHE = Schema(
    "cache",
    [
        Field("enabled", boolean, required=False, default=False),
        Field("dir", string, required=False, default=None),
        # Size budget for the GC sweep, in bytes; null = unbounded.
        Field("budget_bytes", _positive_or_none_int, required=False, default=None),
    ],
)

_JOURNAL = Schema(
    "journal",
    [
        Field("enabled", boolean, required=False, default=True),
        Field("dir", string, required=False, default=None),
        Field("durable", boolean, required=False, default=True),
    ],
)

_SHIPMENT = Schema(
    "shipment",
    [
        Field("enabled", boolean, required=False, default=True),
        Field("retries", _non_negative_int, required=False, default=2),
        Field("timeout", _positive_number, required=False, default=120.0),
        Field("backoff_base", _positive_number, required=False, default=0.02),
    ],
)

_RUNTIME = Schema(
    "runtime",
    [
        Field("stream", dict, required=False, default={}),
        Field("workers", positive_int, required=False, default=1),
    ],
)

_STREAM = Schema(
    "runtime.stream",
    [
        Field("enabled", boolean, required=False, default=False),
        Field("capacity", positive_int, required=False, default=DEFAULT_CAPACITY),
    ],
)

_TOP = Schema(
    "workflow",
    [
        Field("name", string, required=False, default="eo-ml"),
        Field("archive", dict, required=True),
        Field("paths", dict, required=False, default={}),
        Field("download", dict, required=False, default={}),
        Field("preprocess", dict, required=False, default={}),
        Field("inference", dict, required=False, default={}),
        Field("shipment", dict, required=False, default={}),
        Field("journal", dict, required=False, default={}),
        Field("runtime", dict, required=False, default={}),
        Field("cache", dict, required=False, default={}),
        Field("chaos", dict, required=False, default=None),
    ],
)


@dataclass(frozen=True)
class StageWorkers:
    """Fig. 6's stage-level worker allocation."""

    download: int
    preprocess: int
    inference: int


@dataclass(frozen=True)
class EOMLConfig:
    """Fully resolved workflow configuration."""

    name: str
    products: List[str]
    start_date: dt.date
    end_date: dt.date
    max_granules_per_day: Optional[int]
    seed: int
    staging: str
    preprocessed: str
    transfer_out: str
    destination: str
    workers: StageWorkers
    download_retries: int
    skip_existing: bool
    tile_size: int
    cloud_threshold: float
    max_land_fraction: float
    num_classes: int
    model_path: Optional[str]
    ship: bool
    # The registered data source (repro.instruments) the stages drive.
    instrument: str = "modis"
    quarantine: str = "data/quarantine"
    # Upper bound on waiting tile files fused into one encoder/assign
    # call by the inference micro-batcher (1 disables cross-file fusion).
    inference_batch_files: int = 8
    download_backoff: BackoffPolicy = BackoffPolicy()
    download_on_exhausted: str = "raise"
    breaker_threshold: int = 8
    breaker_reset: float = 5.0
    shipment_retries: int = 2
    shipment_timeout: float = 120.0
    shipment_backoff: BackoffPolicy = BackoffPolicy(base=0.02, max_delay=1.0, max_total=5.0)
    # Crash-consistent run journaling (repro.journal): the WAL.
    journal_enabled: bool = True
    journal_dir: str = "data/journal"
    journal_durable: bool = True
    # Streaming dataflow between plan stages (runtime.stream): off by
    # default, so every stage after download waits on it with an
    # ``after`` edge (the classic barrier).
    stream: StreamConfig = StreamConfig()
    # Horizontal scale-out (runtime.workers): number of worker processes
    # sharing the stage work; 1 keeps everything in the parent process.
    runtime_workers: int = 1
    # Content-addressed artifact cache (repro.cas): a store shared
    # across runs/tenants that short-circuits downloads, re-tiling, and
    # already-delivered shipments.  Off by default.
    cache_enabled: bool = False
    cache_dir: str = "data/cas"
    cache_budget_bytes: Optional[int] = None
    chaos: Optional[FaultPlan] = None
    raw: Dict[str, Any] = field(default_factory=dict, compare=False)


def load_config(source: Mapping[str, Any] | str) -> EOMLConfig:
    """Parse a YAML string or pre-parsed mapping into an EOMLConfig."""
    if isinstance(source, str):
        parsed = yaml_loads(source)
        if not isinstance(parsed, Mapping):
            raise ConfigError("workflow", "configuration must be a mapping")
        raw: Mapping[str, Any] = parsed
    else:
        raw = source
    top = _TOP.validate(raw)
    archive = _ARCHIVE.validate(top["archive"], "archive")
    paths = _PATHS.validate(top["paths"] or {}, "paths")
    download = _DOWNLOAD.validate(top["download"] or {}, "download")
    preprocess = _PREPROCESS.validate(top["preprocess"] or {}, "preprocess")
    inference = _INFERENCE.validate(top["inference"] or {}, "inference")
    shipment = _SHIPMENT.validate(top["shipment"] or {}, "shipment")
    journal = _JOURNAL.validate(top["journal"] or {}, "journal")
    runtime = _RUNTIME.validate(top["runtime"] or {}, "runtime")
    cache = _CACHE.validate(top["cache"] or {}, "cache")
    stream = StreamConfig(
        **_STREAM.validate(runtime["stream"] or {}, "runtime.stream")
    )

    end_date = archive["end_date"] or archive["start_date"]
    if end_date < archive["start_date"]:
        raise ConfigError("archive.end_date", "end date before start date")

    # Resolve the instrument through the registry: an unknown name fails
    # here (with the available set in the message), not deep inside a
    # stage.
    try:
        instrument = get_instrument(archive["instrument"])
    except KeyError as exc:
        raise ConfigError("archive.instrument", str(exc).strip('"')) from exc

    if archive["products"] is None:
        products = list(instrument.default_products)
    else:
        if not archive["products"]:
            raise ConfigError("archive.products", "at least one product is required")
        try:
            products = [instrument.resolve_product(name) for name in archive["products"]]
        except KeyError as exc:
            raise ConfigError("archive.products", str(exc).strip('"')) from exc

    chaos_plan: Optional[FaultPlan] = None
    if top["chaos"] is not None:
        chaos_plan = FaultPlan.from_mapping(top["chaos"], "chaos")

    # The journal lives beside the other data directories by default so
    # every run's state lands under the same root as its artifacts.
    journal_dir = journal["dir"] or os.path.join(
        os.path.dirname(paths["staging"].rstrip("/")) or ".", "journal",
    )
    # The CAS defaults beside the journal — but is *meant* to be pointed
    # at a volume shared across runs, where the hits come from.
    cache_dir = cache["dir"] or os.path.join(
        os.path.dirname(paths["staging"].rstrip("/")) or ".", "cas",
    )

    return EOMLConfig(
        name=top["name"],
        products=products,
        instrument=archive["instrument"],
        start_date=archive["start_date"],
        end_date=end_date,
        max_granules_per_day=archive["max_granules_per_day"],
        seed=archive["seed"],
        staging=paths["staging"],
        preprocessed=paths["preprocessed"],
        transfer_out=paths["transfer_out"],
        destination=paths["destination"],
        workers=StageWorkers(
            download=download["workers"],
            preprocess=preprocess["workers"],
            inference=inference["workers"],
        ),
        download_retries=download["retries"],
        skip_existing=download["skip_existing"],
        tile_size=preprocess["tile_size"],
        cloud_threshold=preprocess["cloud_threshold"],
        max_land_fraction=preprocess["max_land_fraction"],
        num_classes=inference["num_classes"],
        model_path=inference["model_path"],
        ship=shipment["enabled"],
        quarantine=paths["quarantine"],
        inference_batch_files=inference["batch_files"],
        download_backoff=BackoffPolicy(
            base=download["backoff_base"],
            max_delay=download["backoff_cap"],
            max_total=download["backoff_total"],
            seed=archive["seed"],
        ),
        download_on_exhausted=download["on_exhausted"],
        breaker_threshold=download["breaker_threshold"],
        breaker_reset=download["breaker_reset"],
        shipment_retries=shipment["retries"],
        shipment_timeout=shipment["timeout"],
        journal_enabled=journal["enabled"],
        journal_dir=journal_dir,
        journal_durable=journal["durable"],
        stream=stream,
        runtime_workers=runtime["workers"],
        cache_enabled=cache["enabled"],
        cache_dir=cache_dir,
        cache_budget_bytes=cache["budget_bytes"],
        shipment_backoff=BackoffPolicy(
            base=shipment["backoff_base"],
            max_delay=1.0,
            max_total=10.0,
            seed=archive["seed"],
        ),
        chaos=chaos_plan,
        raw=dict(raw),
    )
