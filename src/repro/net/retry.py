"""Retry primitives for flaky remote endpoints: backoff + circuit breaker.

The paper's operational reality (Section III) includes LAADS 503s, slow
Slurm nodes, and WAN degradation between Defiant and Frontier.  Naive
immediate retries turn a transient archive hiccup into a retry storm;
this module provides the two standard defenses:

* :class:`BackoffPolicy` — capped exponential backoff with deterministic
  jitter.  Delay sequences are derived from SHA-256 of (seed, key,
  attempt), so a fixed seed reproduces the exact schedule — the same
  determinism discipline the rest of the codebase uses (docs/architecture
  "Determinism") — while distinct keys decorrelate, preventing
  synchronized thundering herds.
* :class:`CircuitBreaker` — per-host failure accounting with the classic
  closed / open / half-open state machine, so a persistently failing
  endpoint is probed instead of hammered.

Both are clock-agnostic: the breaker takes an injectable ``clock`` and
the policy only *computes* delays (callers decide how to sleep), so the
same objects serve the real wall-clock path and the simulated one.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, Callable, List

import time

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "EndpointPolicy",
    "ENDPOINT_POLICIES",
    "RetryExhausted",
    "retry_call",
]


def _unit_interval(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, key, attempt)."""
    digest = hashlib.sha256(f"{seed}:backoff:{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    The *cap* for attempt ``k`` is ``min(max_delay, base * factor**k)``
    — monotone non-decreasing in ``k``.  The actual delay is drawn
    deterministically in ``[(1 - jitter) * cap, cap]``.  ``max_total``
    bounds the cumulative sleep of any schedule: :meth:`schedule` clips
    the last delay and stops once the budget is exhausted.

    With ``full_jitter=True`` the delay is instead drawn over the whole
    ``[0, cap]`` interval (AWS "full jitter").  That is the right shape
    when a *fleet* retries against one endpoint — e.g. every site agent
    reconnecting the moment a network partition heals: partial jitter
    keeps the fleet clustered near the cap and the healed server eats a
    thundering herd, while full jitter spreads the reconnects across the
    whole window.  Determinism is unchanged — the draw is still a hash
    of (seed, key, attempt), so distinct agent keys decorrelate while a
    fixed seed reproduces the exact schedule.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 5.0
    max_total: float = 30.0
    jitter: float = 0.5
    seed: int = 0
    full_jitter: bool = False

    def __post_init__(self) -> None:
        if self.base < 0 or self.factor < 1.0:
            raise ValueError("base must be >= 0 and factor >= 1")
        if self.max_delay < 0 or self.max_total < 0:
            raise ValueError("delay bounds must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def cap(self, attempt: int) -> float:
        """The upper bound of the delay for ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(self.max_delay, self.base * self.factor**attempt)

    def delay(self, attempt: int, key: str = "") -> float:
        """The deterministic jittered delay for one attempt."""
        cap = self.cap(attempt)
        if self.full_jitter:
            return cap * _unit_interval(self.seed, key, attempt)
        if self.jitter == 0.0:
            return cap
        return cap * (1.0 - self.jitter * _unit_interval(self.seed, key, attempt))

    def delays(self, key: str = "") -> Iterator[float]:
        """Yield delays until the ``max_total`` sleep budget is spent."""
        total = 0.0
        attempt = 0
        while total < self.max_total:
            step = min(self.delay(attempt, key), self.max_total - total)
            total += step
            attempt += 1
            yield step

    def schedule(self, key: str = "", attempts: int = 8) -> List[float]:
        """The first ``attempts`` delays (fewer if the budget runs out)."""
        out: List[float] = []
        for step in self.delays(key):
            out.append(step)
            if len(out) >= attempts:
                break
        return out


@dataclass(frozen=True)
class EndpointPolicy:
    """The retry/timeout budget for one control-plane protocol phase.

    Retrying a request is only safe when re-applying it cannot change
    state: either the endpoint is **idempotent** (GETs, heartbeat
    extension, reconcile replay) or the caller holds a justification —
    a dedupe key the server replays (submit, lease) or a fencing token
    the server checks (complete).  ``idempotent=False`` means the client
    grants ZERO retries unless such a token accompanies the request.

    ``retries`` overrides the client's default retry count for the phase
    (``None`` = inherit); ``timeout_scale`` multiplies the client's base
    timeout — probes should give up fast (a partitioned agent must
    notice quickly), submissions may legitimately take longer (server-
    side config validation).
    """

    idempotent: bool
    retries: int | None = None
    timeout_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.retries is not None and self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.timeout_scale <= 0:
            raise ValueError("timeout_scale must be positive")


# The canonical per-phase budgets, keyed by repro.net.http.classify_phase
# phases.  Used by ControlPlaneClient; tests pin the safety-critical
# entries (lease/submit/complete are non-idempotent).
ENDPOINT_POLICIES: Dict[str, EndpointPolicy] = {
    "health": EndpointPolicy(idempotent=True, retries=0, timeout_scale=0.5),
    "metrics": EndpointPolicy(idempotent=True),
    "status": EndpointPolicy(idempotent=True),
    "control": EndpointPolicy(idempotent=True),
    "submit": EndpointPolicy(idempotent=False, timeout_scale=2.0),
    "lease": EndpointPolicy(idempotent=False),
    "heartbeat": EndpointPolicy(idempotent=True, retries=1, timeout_scale=0.5),
    "complete": EndpointPolicy(idempotent=False),
    "reconcile": EndpointPolicy(idempotent=True),
    "other": EndpointPolicy(idempotent=False, retries=0),
}


class RetryExhausted(RuntimeError):
    """A retry budget was spent without a success.

    ``attempts`` counts the failures (``retries + 1`` on exhaustion),
    ``last_error`` the final failure message, and ``last_exception`` the
    final raised exception — ``None`` when the last failure was a
    circuit-breaker refusal rather than an attempt.
    """

    def __init__(self, attempts: int, last_error: str,
                 last_exception: Exception | None = None):
        super().__init__(f"failed after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error
        self.last_exception = last_exception


def retry_call(
    fn: Callable[[], "object"],
    retries: int = 0,
    backoff: "BackoffPolicy | None" = None,
    key: str = "",
    sleeper: Callable[[float], None] = time.sleep,
    retry_on: tuple = (Exception,),
    before_attempt: Callable[[], None] | None = None,
    breaker: "CircuitBreaker | None" = None,
    host: str = "",
):
    """Run ``fn`` under the canonical retry discipline; ``(result, failures)``.

    Every retry consumer in the codebase (download fetches, shipment
    moves, the runtime's RetryMiddleware) shares this one loop, so the
    semantics stay uniform:

    * ``before_attempt`` runs ahead of *every* try (deadline checks);
      whatever it raises aborts the loop immediately, never retried;
    * with a ``breaker``, a refused host counts as a failed attempt with
      message ``circuit open for host '<host>'`` — no request is made and
      no breaker failure is recorded;
    * an exception matching ``retry_on`` counts as a failure (recorded on
      the breaker); anything else propagates untouched;
    * between attempts the caller sleeps exactly
      ``backoff.delay(failures - 1, key=key)`` — never an immediate retry;
    * once failures exceed ``retries``, :class:`RetryExhausted` carries
      the attempt count and the final error.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    failures = 0
    while True:
        if before_attempt is not None:
            before_attempt()
        if breaker is not None and not breaker.allow(host):
            last_error = f"circuit open for host {host!r}"
            failures += 1
            if failures > retries:
                raise RetryExhausted(failures, last_error)
            if backoff is not None:
                sleeper(backoff.delay(failures - 1, key=key))
            continue
        try:
            result = fn()
        except retry_on as exc:
            if breaker is not None:
                breaker.record_failure(host)
            failures += 1
            if failures > retries:
                raise RetryExhausted(failures, str(exc), exc) from exc
            if backoff is not None:
                sleeper(backoff.delay(failures - 1, key=key))
            continue
        if breaker is not None:
            breaker.record_success(host)
        return result, failures


class CircuitBreaker:
    """Per-host circuit breaker (closed -> open -> half-open -> closed).

    ``failure_threshold`` consecutive failures open the circuit; after
    ``reset_after`` seconds one probe is allowed (half-open); a probe
    success closes the circuit, a probe failure re-opens it.  Thread-safe
    — download workers share one breaker per archive host.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure threshold must be positive")
        if reset_after < 0:
            raise ValueError("reset window must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.clock = clock
        self.opened_total = 0
        self._lock = threading.Lock()
        self._failures: Dict[str, int] = {}
        self._opened_at: Dict[str, float] = {}
        self._probing: Dict[str, bool] = {}

    def state(self, host: str) -> str:
        with self._lock:
            return self._state_locked(host)

    def _state_locked(self, host: str) -> str:
        if host not in self._opened_at:
            return self.CLOSED
        if self.clock() - self._opened_at[host] >= self.reset_after:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self, host: str) -> bool:
        """May a request to ``host`` proceed right now?

        In the half-open state exactly one caller is admitted as the
        probe; others keep waiting until its outcome is recorded.
        """
        with self._lock:
            state = self._state_locked(host)
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN and not self._probing.get(host, False):
                self._probing[host] = True
                return True
            return False

    def record_success(self, host: str) -> None:
        with self._lock:
            self._failures[host] = 0
            self._opened_at.pop(host, None)
            self._probing.pop(host, None)

    def record_failure(self, host: str) -> None:
        with self._lock:
            was_open = host in self._opened_at
            self._failures[host] = self._failures.get(host, 0) + 1
            self._probing.pop(host, None)
            if self._failures[host] >= self.failure_threshold or was_open:
                # Threshold reached, or a half-open probe failed: (re)open.
                self._opened_at[host] = self.clock()
                if not was_open:
                    self.opened_total += 1

    def failures(self, host: str) -> int:
        with self._lock:
            return self._failures.get(host, 0)
