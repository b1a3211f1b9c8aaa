"""The fault-injection engine: deterministic decisions + a fault ledger.

:class:`FaultInjector` turns a :class:`~repro.chaos.plan.FaultPlan` into
per-operation decisions.  Two properties make the injected chaos usable
in tests and reproducible across runs:

* **Determinism under concurrency** — whether a fault hits operation
  ``key`` is a SHA-256 function of (plan seed, spec index, key), never of
  arrival order, so multi-threaded stages produce the same fault set no
  matter how the scheduler interleaves them.  Per-key firing *counts*
  (``times``) are tracked under a lock.
* **Observability** — every fired fault lands in a ledger of
  :class:`FaultEvent` records; :meth:`FaultInjector.summary` feeds the
  report's ``chaos`` block so a run can account for every injected
  fault.

Consumers hold ``Optional[FaultInjector]`` and guard every chaos branch
with ``if chaos is not None`` — a disabled plan yields ``None`` from
:func:`build_injector`, making the passthrough genuinely zero-overhead.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.chaos.plan import FaultPlan, FaultSpec

__all__ = ["FaultEvent", "FaultInjector", "build_injector"]

KIND_PREFIX = "faults.kind."
STAGE_PREFIX = "faults.stage."


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    stage: str
    kind: str
    key: str
    ordinal: int        # how many times this (spec, key) has fired, 1-based
    latency: float

    def describe(self) -> str:
        return f"{self.stage}/{self.kind} #{self.ordinal} on {self.key!r}"


class FaultInjector:
    """Evaluates a plan, fault by fault, operation by operation."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._fired: Dict[Tuple[int, str], int] = {}
        self.ledger: List[FaultEvent] = []
        # Pre-index specs by (stage, kind) so the hot path is a dict hit.
        self._by_site: Dict[Tuple[str, str], List[Tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(plan.faults):
            self._by_site.setdefault((spec.stage, spec.kind), []).append((index, spec))

    # -- decisions ----------------------------------------------------------

    def _selects(self, spec_index: int, key: str) -> bool:
        spec = self.plan.faults[spec_index]
        if spec.rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.plan.seed}:chaos:{spec_index}:{key}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "little") / 2**64
        return draw < spec.rate

    def fire(
        self, stage: str, kind: str, key: str = "",
        count_key: Optional[str] = None,
    ) -> List[FaultEvent]:
        """Decide whether faults of (stage, kind) hit ``key`` right now.

        Returns the fired events (empty list = proceed normally) and
        records them in the ledger.  A spec with ``times=N`` fires on the
        first N calls for each selected key; ``times=None`` fires on
        every call.

        ``count_key`` splits the two roles ``key`` normally plays:
        selection (the rate draw, the ``match`` prefix) still uses
        ``key``, but the ``times`` budget is counted against
        ``count_key`` instead.  The wire transport uses this — each call
        gets a unique key so ``rate`` behaves like per-packet loss, while
        ``times`` still caps how many calls per protocol phase a spec
        may hit.
        """
        specs = self._by_site.get((stage, kind))
        if not specs:
            return []
        budget_key = key if count_key is None else count_key
        events: List[FaultEvent] = []
        for spec_index, spec in specs:
            if spec.match and not key.startswith(spec.match):
                continue
            if not self._selects(spec_index, key):
                continue
            with self._lock:
                count = self._fired.get((spec_index, budget_key), 0)
                if spec.times is not None and count >= spec.times:
                    continue
                self._fired[(spec_index, budget_key)] = count + 1
                event = FaultEvent(
                    stage=stage, kind=kind, key=key,
                    ordinal=count + 1, latency=spec.latency,
                )
                self.ledger.append(event)
            events.append(event)
        return events

    def would_select(self, stage: str, kind: str, key: str) -> bool:
        """Is ``key`` in the blast radius of any (stage, kind) spec?

        A read-only probe: no counters move, nothing is recorded.
        """
        specs = self._by_site.get((stage, kind), [])
        return any(
            self._selects(index, key)
            for index, spec in specs
            if not spec.match or key.startswith(spec.match)
        )

    # -- accounting ---------------------------------------------------------

    @property
    def faults_injected(self) -> int:
        with self._lock:
            return len(self.ledger)

    def counts_by_kind(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {}
            for event in self.ledger:
                out[event.kind] = out.get(event.kind, 0) + 1
            return out

    def counts_by_stage(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {}
            for event in self.ledger:
                out[event.stage] = out.get(event.stage, 0) + 1
            return out

    def counters(self) -> Dict[str, int]:
        """The ledger as flat monotonic counters — the form that crosses
        a process boundary and sums with other injectors' ledgers."""
        out = {f"{KIND_PREFIX}{k}": n for k, n in self.counts_by_kind().items()}
        out.update(
            {f"{STAGE_PREFIX}{s}": n for s, n in self.counts_by_stage().items()}
        )
        return out

    def summary(
        self, counters: Optional[Mapping[str, float]] = None
    ) -> Dict[str, object]:
        """The fault ledger in report form.  ``counters`` — the sum of
        several injectors' :meth:`counters` (the driver's plus every pool
        worker's; other keys ignored) — stands in for this injector's
        own ledger, since a fault fires in whichever process ran the unit."""
        if counters is None:
            counters = self.counters()
        by_kind, by_stage = (
            {key[len(prefix):]: int(count)
             for key, count in sorted(counters.items()) if key.startswith(prefix)}
            for prefix in (KIND_PREFIX, STAGE_PREFIX)
        )
        return {
            "seed": self.plan.seed,
            "faults_injected": sum(by_kind.values()),
            "by_kind": by_kind,
            "by_stage": by_stage,
        }


def build_injector(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """The one constructor consumers use: ``None`` unless chaos is live."""
    if plan is None or not plan.active:
        return None
    return FaultInjector(plan)
