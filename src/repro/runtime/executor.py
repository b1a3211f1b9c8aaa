"""The stage executor: one composed middleware chain under every stage.

Whatever concurrency substrate runs a stage's units (a thread pool,
the inference worker threads, a pool worker process) calls
``executor.execute(unit)``; the executor itself is thread-safe because
all per-execution state lives in the
:class:`~repro.runtime.unit.UnitContext`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Sequence

from repro.runtime.middleware import (
    CacheMiddleware,
    ChaosMiddleware,
    JournalMiddleware,
    Middleware,
    PrecheckMiddleware,
    QuarantineMiddleware,
    RetryMiddleware,
)
from repro.runtime.unit import DONE, UnitContext, UnitResult, WorkUnit

__all__ = ["StageExecutor", "build_executor"]


class StageExecutor:
    """Run work units through an ordered middleware stack."""

    def __init__(self, middleware: Sequence[Middleware] = ()):
        self.middleware: List[Middleware] = list(middleware)

    def execute(self, unit: WorkUnit) -> UnitResult:
        ctx = UnitContext(unit)
        return self._invoke(0, ctx)

    def _invoke(self, index: int, ctx: UnitContext) -> UnitResult:
        if index == len(self.middleware):
            value = ctx.unit.body(ctx)
            if isinstance(value, UnitResult):
                return value
            return UnitResult(outcome=DONE, value=value)
        layer = self.middleware[index]
        return layer(ctx, lambda: self._invoke(index + 1, ctx))


def build_executor(
    journal: Any = None,
    chaos: Any = None,
    sleeper: Callable[[float], None] = time.sleep,
    cache: Any = None,
) -> StageExecutor:
    """The canonical stack (outermost first):

    Quarantine > Journal > Cache > Chaos > Precheck > Retry > body.

    Quarantine sits outside Journal so a failed unit never records a
    completion; Cache sits inside Journal so a CAS hit still records a
    completion (resume semantics identical with the cache on or off) but
    outside Chaos/Retry so a hit neither stalls nor burns an attempt;
    Chaos precedes Precheck so a stalled worker stalls before it can
    short-circuit; Precheck precedes Retry so a skip never consults the
    circuit breaker or burns an attempt.
    """
    return StageExecutor(
        [
            QuarantineMiddleware(),
            JournalMiddleware(journal),
            CacheMiddleware(cache),
            ChaosMiddleware(chaos, sleeper=sleeper),
            PrecheckMiddleware(),
            RetryMiddleware(sleeper=sleeper),
        ]
    )
