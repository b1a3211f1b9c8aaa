"""The middleware stack: every cross-cutting stage behaviour, once.

Each middleware is a callable ``(ctx, call_next) -> UnitResult`` wrapping
the next layer (onion composition).  The canonical order, outermost
first — see :func:`repro.runtime.executor.build_executor`:

1. :class:`QuarantineMiddleware` — converts exhaustion/body errors into
   recorded FAILED/QUARANTINED results per the unit's policy;
2. :class:`JournalMiddleware` — resume decision before the work,
   completion record after it;
3. :class:`CacheMiddleware` — content-addressed short circuits and
   post-success store population, inside the journal (a cache hit still
   records a completion, so resume semantics are identical with the
   cache on or off) but outside chaos/precheck/retry (a hit must not
   burn a retry attempt or consult a breaker);
4. :class:`ChaosMiddleware` — injected worker stalls (the other fault
   surfaces live inside unit bodies, at the exact I/O boundary they
   model);
5. :class:`PrecheckMiddleware` — skip_existing-style short circuits,
   after the journal (a redo decision bypasses them) but before any
   retry machinery (a skip must not consult the circuit breaker);
6. :class:`RetryMiddleware` — bounded retries with backoff and breaker,
   delegating to :func:`repro.net.retry.retry_call`.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.chaos.surfaces import chaos_stall
from repro.net.retry import RetryExhausted, retry_call
from repro.runtime.unit import (
    CACHED,
    DONE,
    FAILED,
    QUARANTINED,
    RESUMED,
    RETRIED,
    SUCCESS_OUTCOMES,
    UnitContext,
    UnitFailed,
    UnitResult,
)

__all__ = [
    "Middleware",
    "QuarantineMiddleware",
    "JournalMiddleware",
    "CacheMiddleware",
    "ChaosMiddleware",
    "PrecheckMiddleware",
    "RetryMiddleware",
]

# A middleware is any callable with this shape.
Middleware = Callable[[UnitContext, Callable[[], UnitResult]], UnitResult]


class QuarantineMiddleware:
    """Set-aside-and-continue: failures become results, per unit policy."""

    def __call__(self, ctx: UnitContext, call_next: Callable[[], UnitResult]) -> UnitResult:
        policy = ctx.unit.failure
        try:
            return call_next()
        except RetryExhausted as exc:
            if policy.cleanup is not None:
                policy.cleanup()
            message = (
                policy.describe(exc.attempts, exc.last_error)
                if policy.describe is not None
                else str(exc)
            )
            if policy.on_exhausted == "raise":
                raise UnitFailed(message) from exc
            return UnitResult(outcome=FAILED, error=message, attempts=exc.attempts)
        except policy.catch as exc:
            message = str(exc)
            if policy.on_caught is not None:
                policy.on_caught(message)
            return UnitResult(outcome=QUARANTINED, error=message)


class JournalMiddleware:
    """Crash-consistent bookkeeping around the unit.

    Before the work: take the journal's resume decision; a verified
    completion short-circuits as a RESUMED result carrying the journaled
    payload.  After the work: record the completion for every success
    outcome (unless the result opted out) — a CACHED one whatever the
    unit's phase, since a hit finishes the item.  The write-ahead
    *intent* is the body's to place, via :meth:`UnitContext.begin`, so
    skip-existing paths never write one — exactly the protocol resume
    relies on.
    """

    def __init__(self, journal: Any = None):
        self.journal = journal

    def __call__(self, ctx: UnitContext, call_next: Callable[[], UnitResult]) -> UnitResult:
        unit = ctx.unit
        if self.journal is None:
            return call_next()
        ctx.journal = self.journal
        if unit.journal_phase in ("unit", "open"):
            decision = self.journal.resume(unit.stage, unit.key)
            ctx.decision = decision
            if decision.skip:
                payload = dict(decision.payload)
                return UnitResult(
                    outcome=RESUMED,
                    artifact=payload.get("artifact"),
                    payload=payload,
                )
        result = call_next()
        # A cache hit settles the whole item, so it completes even under
        # an "open" unit, whose computed completion a later unit owns.
        if (
            (unit.journal_phase in ("unit", "close") or result.outcome == CACHED)
            and result.journal
            and result.outcome in SUCCESS_OUTCOMES
        ):
            self.journal.complete(
                unit.stage, unit.key, artifact=result.artifact, **result.payload
            )
        return result


class CacheMiddleware:
    """Content-addressed short circuits around the unit body.

    Before the work: run the unit's cache ``lookup`` — a CAS hit returns
    a CACHED result without touching the network or recomputing; the
    enclosing :class:`JournalMiddleware` still records the completion,
    so a later crash+resume verifies the materialized artifact exactly
    like a fetched one.  After the work: ``store`` publishes fresh
    outputs into the CAS so the *next* run (or a co-located tenant)
    hits.  Both hooks are best-effort by contract: any exception is
    swallowed — the cache may only ever change performance, never
    outcome.
    """

    def __init__(self, cache: Any = None):
        self.cache = cache

    def __call__(self, ctx: UnitContext, call_next: Callable[[], UnitResult]) -> UnitResult:
        policy = ctx.unit.cache
        if self.cache is None or policy is None:
            return call_next()
        if policy.lookup is not None:
            try:
                hit = policy.lookup(ctx, self.cache)
            except Exception:
                hit = None
            if hit is not None:
                return hit
        result = call_next()
        # RESUMED carries no fresh bytes and CACHED came *from* the
        # store; neither has anything new to publish.
        if (
            policy.store is not None
            and result.outcome in SUCCESS_OUTCOMES
            and result.outcome not in (RESUMED, CACHED)
        ):
            try:
                policy.store(ctx, self.cache, result)
            except Exception:
                pass
        return result


class ChaosMiddleware:
    """The worker_stall fault surface, uniformly under every stage.

    Other fault kinds keep firing inside unit bodies (torn/corrupt
    writes at the NetCDF boundary, HTTP faults at the archive fetch,
    WAN degradation at the transfer move, crashes in their journaled
    windows) — a stall is the only fault that belongs to "a worker
    picked this unit up", which is precisely what this layer models.
    """

    def __init__(self, chaos: Any = None, sleeper: Callable[[float], None] = time.sleep):
        self.chaos = chaos
        self.sleeper = sleeper

    def __call__(self, ctx: UnitContext, call_next: Callable[[], UnitResult]) -> UnitResult:
        if ctx.chaos is None:
            ctx.chaos = self.chaos
        if self.chaos is not None and ctx.unit.stall:
            chaos_stall(self.chaos, ctx.unit.stage, ctx.unit.key, sleeper=self.sleeper)
        return call_next()


class PrecheckMiddleware:
    """Run the unit's short-circuit probe (skip_existing and friends)."""

    def __call__(self, ctx: UnitContext, call_next: Callable[[], UnitResult]) -> UnitResult:
        probe = ctx.unit.precheck
        if probe is not None:
            result = probe(ctx)
            if result is not None:
                return result
        return call_next()


class RetryMiddleware:
    """Bounded retries with backoff and circuit breaker, via retry_call."""

    def __init__(self, sleeper: Callable[[float], None] = time.sleep):
        self.sleeper = sleeper

    def __call__(self, ctx: UnitContext, call_next: Callable[[], UnitResult]) -> UnitResult:
        spec = ctx.unit.retry
        if spec is None:
            return call_next()

        def attempt() -> UnitResult:
            ctx.attempt += 1
            return call_next()

        result, failures = retry_call(
            attempt,
            retries=spec.retries,
            backoff=spec.backoff,
            key=ctx.unit.key,
            sleeper=spec.sleeper or self.sleeper,
            retry_on=spec.retry_on,
            before_attempt=spec.before_attempt,
            breaker=spec.breaker,
            host=spec.host,
        )
        result.attempts = failures
        if failures and result.outcome == DONE:
            result.outcome = RETRIED
        return result
