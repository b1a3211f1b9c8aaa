"""Work units: the one vocabulary every stage speaks.

A :class:`WorkUnit` is one retriable, journalable, chaos-injectable item
of stage work — one granule download, one granule-set preprocess, one
tile-file inference, one shipment move.  Stages *produce* units; the
:class:`~repro.runtime.executor.StageExecutor` runs them through an
ordered middleware stack that supplies every cross-cutting behaviour
(journal resume/complete, cache short circuits, chaos stalls,
retry/backoff/breaker, quarantine-and-continue) exactly once, so no
stage hand-wires its own copy.

This module (and the whole ``repro.runtime`` package) must never import
``repro.core``: the runtime is the layer under the stages, and pool
workers and site agents run the same units through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "DONE",
    "RESUMED",
    "SKIPPED",
    "CACHED",
    "RETRIED",
    "FAILED",
    "QUARANTINED",
    "OUTCOMES",
    "SUCCESS_OUTCOMES",
    "UnitFailed",
    "UnitResult",
    "RetrySpec",
    "FailurePolicy",
    "CachePolicy",
    "WorkUnit",
    "UnitContext",
]

# Unit outcomes.  The first five are successes (work is, or already was,
# done); the last two are handled failures (recorded, never raised).
DONE = "done"            # fresh work completed this run
RESUMED = "resumed"      # journaled completion verified; zero work redone
SKIPPED = "skipped"      # precheck short-circuit (artifact already present)
CACHED = "cached"        # served by the content-addressed store
RETRIED = "retried"      # completed after >= 1 retried failure
FAILED = "failed"        # retry budget exhausted, policy says record
QUARANTINED = "quarantined"  # body error set aside, policy says continue

OUTCOMES = (DONE, RESUMED, SKIPPED, CACHED, RETRIED, FAILED, QUARANTINED)
# Outcomes the journal records as completions.  CACHED is included: a
# materialized artifact is as real as a fetched one, and resume must be
# able to verify it on the next run.
SUCCESS_OUTCOMES = (DONE, RETRIED, SKIPPED, CACHED)

# Where a unit sits in the journal protocol (see :class:`WorkUnit`).
JOURNAL_PHASES = frozenset({"unit", "open", "close"})


class UnitFailed(RuntimeError):
    """A unit exhausted its retry budget under an abort-the-run policy."""


@dataclass
class UnitResult:
    """What one executed unit produced.

    ``payload`` carries the extra key/values the journal completion
    records (``tiles``, ``sha256``, ...); ``journal=False`` suppresses
    the completion record even on a success outcome (a delivered file
    whose destination digest mismatched must stay redoable).
    """

    outcome: str
    value: Any = None
    artifact: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 0
    seconds: float = 0.0
    journal: bool = True

    @property
    def ok(self) -> bool:
        return self.outcome in (DONE, RESUMED, SKIPPED, CACHED, RETRIED)


@dataclass(frozen=True)
class RetrySpec:
    """How RetryMiddleware treats this unit's failures."""

    retries: int = 0
    backoff: Any = None                 # net.retry.BackoffPolicy
    breaker: Any = None                 # net.retry.CircuitBreaker
    host: str = ""
    retry_on: Tuple[type, ...] = (OSError, RuntimeError)
    sleeper: Optional[Callable[[float], None]] = None
    # Runs before every attempt; whatever it raises aborts the unit
    # immediately (wall-clock deadlines), never retried.
    before_attempt: Optional[Callable[[], None]] = None


@dataclass(frozen=True)
class FailurePolicy:
    """What QuarantineMiddleware does when a unit cannot succeed.

    ``on_exhausted`` decides the retry-exhaustion fate: ``"raise"``
    aborts the stage with :class:`UnitFailed`, ``"record"`` returns a
    FAILED result and lets siblings continue.  ``catch`` lists exception
    types (outside any retry loop) converted to QUARANTINED results;
    ``on_caught`` is the side-effect hook (move the file aside, record
    the error) invoked with the error message.
    """

    on_exhausted: str = "raise"
    describe: Optional[Callable[[int, str], str]] = None  # (attempts, error)
    cleanup: Optional[Callable[[], None]] = None
    catch: Tuple[type, ...] = ()
    on_caught: Optional[Callable[[str], None]] = None


@dataclass(frozen=True)
class CachePolicy:
    """How CacheMiddleware treats this unit against the artifact store.

    ``lookup(ctx, cas)`` runs *before* the body (but after the journal's
    resume decision): return a CACHED :class:`UnitResult` to
    short-circuit, or ``None`` to fall through to the work.  ``store(ctx,
    cas, result)`` runs after a successful body and publishes whatever
    the unit produced into the store; it must never raise — the cache is
    an optimization, a failed store only means a future miss.
    """

    lookup: Optional[Callable[["UnitContext", Any], Optional[UnitResult]]] = None
    store: Optional[Callable[["UnitContext", Any, UnitResult], None]] = None


@dataclass
class WorkUnit:
    """One item of stage work plus its policies.

    ``journal_phase`` places the unit in the journal protocol:

    * ``"unit"`` — full cycle: resume decision, write-ahead intent (via
      :meth:`UnitContext.begin`), completion on success;
    * ``"open"`` — resume + intent only (the completion belongs to a
      later unit, e.g. inference parse before a fused assign), unless
      the unit's cache lookup hits: a CACHED result is the whole item
      and is completed here;
    * ``"close"`` — completion only (the intent was written by the
      matching ``"open"`` unit).
    """

    stage: str
    key: str
    body: Callable[["UnitContext"], Any]
    precheck: Optional[Callable[["UnitContext"], Optional[UnitResult]]] = None
    journal_phase: str = "unit"
    retry: Optional[RetrySpec] = None
    failure: FailurePolicy = field(default_factory=FailurePolicy)
    cache: Optional[CachePolicy] = None
    stall: bool = True  # eligible for injected worker_stall faults

    def __post_init__(self) -> None:
        if self.journal_phase not in JOURNAL_PHASES:
            raise ValueError(
                f"unknown journal_phase {self.journal_phase!r}; "
                f"expected one of {sorted(JOURNAL_PHASES)}"
            )


class UnitContext:
    """Mutable per-execution state threaded through the middleware."""

    def __init__(self, unit: WorkUnit, chaos: Any = None, journal: Any = None):
        self.unit = unit
        self.chaos = chaos
        self.journal = journal
        self.decision = None       # journal ResumeDecision, set by middleware
        self.attempt = 0           # 1-based inside the retry loop
        self._intent_written = False

    @property
    def redo(self) -> bool:
        """Did the journal rule the on-disk artifact untrustworthy?"""
        return self.decision is not None and self.decision.redo

    def begin(self) -> None:
        """Write the journal's write-ahead intent, exactly once.

        Bodies call this at the point where work becomes observable, so
        precheck short-circuits (skip_existing) record completions
        without ever writing an intent — the same protocol the stages
        spoke before the runtime existed.
        """
        if (
            self.journal is not None
            and not self._intent_written
            and self.unit.journal_phase in ("unit", "open")
        ):
            self.journal.intent(self.unit.stage, self.unit.key)
            self._intent_written = True
