"""Fault plans: the declarative schedule of what chaos to inject where.

A :class:`FaultPlan` is the user-facing contract of the chaos engine:
a seed plus a list of :class:`FaultSpec` entries, each naming a workflow
stage, a fault kind, and how often/how many times it fires.  Plans are
parsed from the workflow YAML's ``chaos:`` section (or a standalone
chaos file via the CLI's ``--chaos`` flag) with the same schema
machinery the rest of the configuration uses, so malformed plans fail
with pointed messages.

The plan is pure data — deciding *whether a given operation is hit* is
the engine's job (:mod:`repro.chaos.engine`), and *what the fault looks
like to the consumer* is the surfaces' job (:mod:`repro.chaos.surfaces`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.util.config import ConfigError, Field, Schema, boolean, integer, number, string

__all__ = [
    "FAULT_KINDS",
    "NET_KINDS",
    "CACHE_KINDS",
    "STAGES",
    "FaultSpec",
    "FaultPlan",
    "load_plan",
]

# The workflow stages faults can target: Fig. 2's boxes but the monitor,
# which runs no units of its own (preprocess announces each tile file to
# inference), plus the control-plane site agent (killed-mid-lease faults, repro.server.agent),
# the control-plane wire itself (``net``, repro.chaos.surfaces.
# ChaosTransport between ControlPlaneClient and the service), and the
# shared content-addressed artifact store (``cache``, repro.cas.store).
STAGES = (
    "download", "preprocess", "inference", "shipment",
    "agent", "net", "cache",
)

# The failure surfaces the paper names as operational reality:
#   http_transient — LAADS 503 / dropped connection that a retry recovers;
#   http_permanent — a granule the archive never serves (all attempts fail);
#   slow_fetch     — a slow archive stream / slow Slurm node (added latency);
#   torn_write     — a writer dies mid-file, leaving a .part temp file;
#   corrupt_tile   — a completed file whose bytes are damaged (truncated),
#                    i.e. a well-named partial or bit-rotted NetCDF;
#   wan_degrade    — the Defiant->Frontier WAN path fails or crawls;
#   worker_stall   — a compute worker hangs before making progress;
#   crash          — the orchestrator process dies outright (Slurm
#                    preemption, node crash): os._exit at the surface,
#                    no cleanup, no handlers — resume must cope.
#
# Wire-level kinds (stage ``net``, interpreted by ChaosTransport against
# the control-plane link; ``latency`` is the outage window in seconds
# for the stateful kinds):
#   partition      — the link is severed: connects are refused instantly
#                    for the whole outage window (site firewall drop);
#   blackout       — the link is a black hole: requests hang until the
#                    client timeout expires, for the whole window;
#   flaky          — individual requests are dropped per-call at ``rate``
#                    (lossy WAN), no sustained outage;
#   slow_link      — requests are delivered after ``latency`` seconds of
#                    added delay (degraded WAN path);
#   reset          — the request is DELIVERED but the response is lost
#                    (connection reset after the server acted) — the
#                    at-least-once hazard that forces idempotent POSTs.
# Cache-volume kinds (stage ``cache``, interpreted by
# :class:`repro.cas.store.CASStore` against the shared artifact store):
#   cache_corrupt  — an object's bytes rot on the cache volume; the
#                    read-time digest check must quarantine it and the
#                    caller must fall back to the authoritative source;
#   cache_enospc   — the cache volume is full: a store attempt fails
#                    with ENOSPC, which the pipeline must absorb as "no
#                    future hit", never as a failed unit.
FAULT_KINDS = (
    "http_transient",
    "http_permanent",
    "slow_fetch",
    "torn_write",
    "corrupt_tile",
    "wan_degrade",
    "worker_stall",
    "crash",
    "partition",
    "blackout",
    "flaky",
    "slow_link",
    "reset",
    "cache_corrupt",
    "cache_enospc",
)

# Wire-only kinds: valid only with stage "net".
NET_KINDS = frozenset({"partition", "blackout", "flaky", "slow_link", "reset"})

# Cache-only kinds: valid only with stage "cache" (which also accepts
# "crash", for kills mid-materialization).
CACHE_KINDS = frozenset({"cache_corrupt", "cache_enospc"})

# Kinds that keep firing on every retry of the same key (times ignored).
_UNBOUNDED_KINDS = frozenset({"http_permanent", "corrupt_tile"})


def _rate(value: Any) -> float:
    result = number(value)
    if not 0.0 <= result <= 1.0:
        raise ValueError(f"expected a rate in [0, 1], got {result}")
    return result


def _non_negative_number(value: Any) -> float:
    result = number(value)
    if result < 0:
        raise ValueError(f"expected a non-negative number, got {result}")
    return result


def _positive_or_none(value: Any) -> Optional[int]:
    if value is None:
        return None
    result = integer(value)
    if result <= 0:
        raise ValueError(f"expected a positive integer or null, got {result}")
    return result


_FAULT = Schema(
    "chaos.faults[]",
    [
        Field("stage", string, choices=STAGES),
        Field("kind", string, choices=FAULT_KINDS),
        Field("rate", _rate, required=False, default=1.0),
        Field("times", _positive_or_none, required=False, default=1),
        Field("latency", _non_negative_number, required=False, default=0.05),
        Field("match", string, required=False, default=""),
    ],
)

def _fault_list(value: Any) -> List[Any]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list of fault mappings, got {type(value).__name__}")
    return list(value)


_CHAOS = Schema(
    "chaos",
    [
        Field("enabled", boolean, required=False, default=True),
        Field("seed", integer, required=False, default=0),
        Field("faults", _fault_list, required=False, default=[]),
    ],
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``rate`` selects which operation keys (filenames, granule keys, …)
    the fault applies to — the selection is a deterministic hash of the
    plan seed and the key, not a draw per call, so retries of the same
    key see a consistent world.  ``times`` caps how many times the fault
    fires per selected key (``None`` = every time; forced for kinds that
    model permanent damage).  ``latency`` is the injected delay, for the
    kinds that slow rather than fail — and, for the stateful wire kinds
    ``partition``/``blackout``, the *duration* of the outage window.
    ``match`` restricts the fault to operation keys starting with the
    given prefix; wire specs use it to pick the protocol *phase* that
    triggers an outage (e.g. ``match: "heartbeat"`` severs the link the
    first time a heartbeat crosses it).
    """

    stage: str
    kind: str
    rate: float = 1.0
    times: Optional[int] = 1
    latency: float = 0.05
    match: str = ""

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r} (stages: {STAGES})")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (kinds: {FAULT_KINDS})")
        if self.kind in NET_KINDS and self.stage != "net":
            raise ValueError(
                f"fault kind {self.kind!r} is wire-level and requires stage 'net'"
            )
        if self.stage == "net" and self.kind not in NET_KINDS:
            raise ValueError(
                f"stage 'net' only takes wire-level kinds {sorted(NET_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.kind in CACHE_KINDS and self.stage != "cache":
            raise ValueError(
                f"fault kind {self.kind!r} targets the artifact store and "
                f"requires stage 'cache'"
            )
        if self.stage == "cache" and self.kind not in CACHE_KINDS | {"crash"}:
            raise ValueError(
                f"stage 'cache' only takes kinds "
                f"{sorted(CACHE_KINDS | {'crash'})}, got {self.kind!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.times is not None and self.times <= 0:
            raise ValueError("times must be positive or None")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.kind in _UNBOUNDED_KINDS and self.times is not None:
            # Permanent damage does not heal after N observations.
            object.__setattr__(self, "times", None)

    def to_mapping(self) -> Dict[str, Any]:
        out = {
            "stage": self.stage,
            "kind": self.kind,
            "rate": self.rate,
            "times": self.times,
            "latency": self.latency,
        }
        if self.match:
            out["match"] = self.match
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative chaos schedule."""

    seed: int = 0
    enabled: bool = True
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @property
    def active(self) -> bool:
        return self.enabled and bool(self.faults)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.kind for spec in self.faults}))

    def stages(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.stage for spec in self.faults}))

    def for_stage(self, stage: str) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.faults if spec.stage == stage)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    @staticmethod
    def from_mapping(raw: Mapping[str, Any], path: str = "chaos") -> "FaultPlan":
        """Parse a ``chaos:`` section mapping into a plan."""
        top = _CHAOS.validate(raw, path)
        specs: List[FaultSpec] = []
        for index, entry in enumerate(top["faults"]):
            if not isinstance(entry, Mapping):
                raise ConfigError(
                    f"{path}.faults[{index}]",
                    f"expected a mapping, got {type(entry).__name__}",
                )
            resolved = _FAULT.validate(entry, f"{path}.faults[{index}]")
            specs.append(FaultSpec(**resolved))
        return FaultPlan(seed=top["seed"], enabled=top["enabled"], faults=tuple(specs))

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "seed": self.seed,
            "faults": [spec.to_mapping() for spec in self.faults],
        }


def load_plan(source: Mapping[str, Any] | str) -> FaultPlan:
    """Parse a chaos plan from YAML text or a mapping.

    Accepts either a bare chaos mapping (``enabled`` / ``seed`` /
    ``faults``) or a document with a top-level ``chaos:`` key, so the
    CLI flag can point at a standalone file or a full workflow config.
    """
    if isinstance(source, str):
        from repro.util.yamlish import loads as yaml_loads

        parsed = yaml_loads(source)
        if not isinstance(parsed, Mapping):
            raise ConfigError("chaos", "chaos plan must be a mapping")
        source = parsed
    if "chaos" in source and isinstance(source["chaos"], Mapping):
        source = source["chaos"]
    return FaultPlan.from_mapping(source)
