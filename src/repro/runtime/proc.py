"""Multi-process execution tier: picklable envelopes and a fixed-size
worker-process pool — the horizontal scale-out the paper's Fig. 6 runs
across facility cores.

* :class:`WorkEnvelope` / :class:`EnvelopeResult` — the picklable
  work-unit envelope.  A :class:`~repro.runtime.unit.WorkUnit` itself
  closes over live stage objects (archives, journals, models) and never
  crosses a process boundary; the envelope carries the *description* of
  the work (kind + sharding key + payload), and each worker process
  rebuilds its stage context once and drives the real
  :class:`~repro.runtime.executor.StageExecutor` middleware locally —
  the same shape as a control-plane site agent.
* :class:`ProcWorkerPool` — N worker processes, each fed through its own
  inbox (a plain ``multiprocessing`` queue) and answering on its own
  result pipe, with crash detection (a dead worker's in-flight
  envelopes are requeued up to ``max_requeues`` times, then their
  futures fail with :class:`WorkerCrashed`, and the dead worker is
  replaced), and per-worker accounting (units executed, busy seconds).
  The pool holds ``policy.min_workers`` processes (at least one) for
  its whole life; it does not scale with the backlog.
  ``submit`` returns a :class:`concurrent.futures.Future`, the same
  type every in-process executor hands back.

Worker code is addressed by a ``"module:callable"`` target string (a
factory that receives the spec payload and returns the envelope
handler), so the spec stays picklable under any start method.

This module (like the whole ``repro.runtime`` package) must not import
``repro.core``.
"""

from __future__ import annotations

import concurrent.futures as cf
import importlib
import multiprocessing
import os
from multiprocessing import connection as mp_connection
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.elastic import ElasticPolicy

__all__ = [
    "WorkEnvelope",
    "EnvelopeResult",
    "WorkerSpec",
    "WorkerCrashed",
    "WorkerTaskError",
    "WorkerStats",
    "PoolStats",
    "ProcWorkerPool",
]

# Fork where available (cheap, inherits loaded modules); the platform
# default elsewhere.  Specs and envelopes stay picklable, so spawn works
# too — fork is a fast path, not a correctness need.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None

# Envelopes in flight per worker: the next unit waits in the worker's
# inbox while the current one executes.  This is the only bound on an
# inbox — the queue itself is unbounded, so a put never blocks.
_DISPATCH_DEPTH = 2

# The dispatch thread's liveness-sweep period.  Not a floor on dispatch
# latency: submit() and close() wake the thread through a self-pipe.
_POLL_INTERVAL = 0.02


# ---------------------------------------------------------------------------
# The picklable work-unit envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkEnvelope:
    """One unit of work, serialized at the process boundary.

    ``kind`` routes inside the worker (one worker serves every stage),
    ``key`` is the sharding/journal key (a granule filename, a scene
    key, a tile-file basename), ``payload`` is the stage-specific
    picklable input.  ``ticket`` is pool bookkeeping, assigned at
    submit time.
    """

    kind: str
    key: str
    payload: Any = None
    ticket: int = -1


# What the pool puts in a worker's inbox to end its loop (the kind is
# reserved for this hand-shake).
_RETIRE = WorkEnvelope(kind="__retire__", key="")


@dataclass(frozen=True)
class EnvelopeResult:
    """What a worker sends back for one envelope.

    ``counters`` carries monotonic-counter deltas the handler accrued
    while executing this envelope (journal resume/replay counts,
    breaker trips), so the parent can fold per-worker accounting into
    the run report without shared memory.
    """

    ticket: int
    kind: str
    key: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0
    worker_id: int = -1
    pid: int = 0
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkerSpec:
    """How a worker process builds its handler.

    ``target`` is a ``"module:callable"`` factory; the worker imports it
    and calls ``factory(payload)`` once at startup.  The returned
    handler is called with each :class:`WorkEnvelope` and its return
    value becomes ``EnvelopeResult.value``.  A handler exposing a
    ``counters()`` method (returning a flat name -> number mapping) gets
    per-envelope deltas shipped back automatically.
    """

    target: str
    payload: Any = None


class WorkerCrashed(RuntimeError):
    """A worker process died executing an envelope and the requeue
    budget is exhausted (or the pool was terminated mid-flight)."""


class WorkerTaskError(RuntimeError):
    """The handler raised inside the worker; the message is the original
    exception's text, so parent-side quarantine records match the
    single-process path byte for byte."""


def _resolve_target(target: str) -> Callable[[Any], Callable[[WorkEnvelope], Any]]:
    module_name, sep, attr = target.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"worker target must be 'module:callable', got {target!r}"
        )
    obj: Any = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


# ---------------------------------------------------------------------------
# The worker process main loop
# ---------------------------------------------------------------------------


def _counter_snapshot(handler: Any) -> Dict[str, float]:
    counters = getattr(handler, "counters", None)
    if not callable(counters):
        return {}
    try:
        return {str(k): float(v) for k, v in dict(counters()).items()}
    except Exception:  # noqa: BLE001 - accounting must never kill a worker
        return {}


def _worker_main(spec: WorkerSpec, worker_id: int, inbox: Any, results: Any) -> None:
    """One worker process: build the handler, then serve envelopes.

    Failures inside the handler are *results* (``ok=False``), so one bad
    unit never kills the process; a genuine crash (an injected
    ``os._exit``, a SIGKILL, an OOM) simply stops the loop mid-envelope
    and the parent's liveness sweep requeues the work.

    ``inbox`` is this worker's own queue: the parent is its only writer
    and this process its only reader, so an idle worker sleeps in
    ``get()`` and a worker killed there takes nothing the parent waits
    on with it.  The retire envelope is the only close signal.

    ``results`` is this worker's **private** write-end of a pipe — never
    a queue shared with other workers.  A shared ``mp.Queue`` guards its
    pipe with one cross-process write-lock, and a worker killed inside
    the window between writing its bytes and releasing that lock (the
    chaos ``crash`` fault does exactly this on a busy single-core box)
    would poison the lock for every worker spawned after it.  With one
    single-writer pipe per worker there is no lock to abandon, and a
    death mid-write surfaces to the parent as EOF on the read end.
    """

    def send(message: Any) -> bool:
        try:
            results.send(message)
            return True
        except (BrokenPipeError, EOFError, OSError):
            return False  # parent is gone; nothing left to report to

    try:
        factory = _resolve_target(spec.target)
        handler = factory(spec.payload)
    except BaseException as exc:  # noqa: BLE001 - reported, then exit
        send(("spawn_failed", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    send(("ready", worker_id, os.getpid()))
    while True:
        envelope = inbox.get()
        if envelope.kind == _RETIRE.kind:
            break
        before = _counter_snapshot(handler)
        started = time.monotonic()
        try:
            value = handler(envelope)
            error = None
            succeeded = True
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            value = None
            error = str(exc) or type(exc).__name__
            succeeded = False
        seconds = time.monotonic() - started
        after = _counter_snapshot(handler)
        deltas = {
            key: after[key] - before.get(key, 0.0)
            for key in after
            if after[key] != before.get(key, 0.0)
        }
        delivered = send(
            (
                "result",
                EnvelopeResult(
                    ticket=envelope.ticket,
                    kind=envelope.kind,
                    key=envelope.key,
                    ok=succeeded,
                    value=value,
                    error=error,
                    seconds=seconds,
                    worker_id=worker_id,
                    pid=os.getpid(),
                    counters=deltas,
                ),
            )
        )
        if not delivered:
            return
    send(("retired", worker_id))
    results.close()


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


@dataclass
class WorkerStats:
    """One worker process's lifetime accounting."""

    worker_id: int
    pid: int = 0
    units: int = 0
    busy_seconds: float = 0.0
    alive: bool = False


@dataclass
class PoolStats:
    """The pool's rollup (always-present zeros when nothing ran)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    requeues: int = 0
    respawns: int = 0
    workers_launched: int = 0
    workers: List[WorkerStats] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def units_executed(self) -> int:
        return sum(w.units for w in self.workers)

    @property
    def busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self.workers)


@dataclass
class _Ticket:
    envelope: WorkEnvelope
    future: cf.Future
    requeues: int = 0


class _WorkerHandle:
    def __init__(self, worker_id: int, process: Any, inbox: Any, conn: Any):
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox  # the worker's task queue; only the parent puts
        self.conn = conn  # read end of this worker's private result pipe
        self.pid = 0
        self.inflight: set = set()  # dispatched, unresolved tickets
        self.retiring = False
        self.broken = False  # read end hit EOF / went bad
        self.stats = WorkerStats(worker_id=worker_id)


# ---------------------------------------------------------------------------
# ProcWorkerPool
# ---------------------------------------------------------------------------


class ProcWorkerPool:
    """A fixed-size pool of worker processes, one inbox and one pipe each.

    Each worker gets its own inbox (so ownership of every dispatched
    envelope is exact, and a dead worker's work is requeued precisely)
    and its own single-writer result pipe (so a worker killed mid-report
    can never wedge the others — see :func:`_worker_main`).  A dispatch
    thread in the parent multiplexes the result pipes with
    ``multiprocessing.connection.wait``, sweeps liveness, replaces a
    dead worker, and feeds idle workers — ``_DISPATCH_DEPTH`` envelopes
    per worker keep the next unit queued locally while the current one
    executes.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        policy: Optional[ElasticPolicy] = None,
        *,
        name: str = "pool",
        max_requeues: int = 1,
    ):
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        self.spec = spec
        # The pool's size for its whole life: a dead worker is replaced,
        # and the backlog never adds or retires one.
        self.size = max(1, (policy or ElasticPolicy.fixed(1)).min_workers)
        self.name = name
        self.max_requeues = max_requeues
        self._ctx = multiprocessing.get_context(_START_METHOD)
        self._lock = threading.Lock()
        self._pending: deque = deque()  # tickets awaiting dispatch
        self._tickets: Dict[int, _Ticket] = {}
        self._next_ticket = 0
        self._next_worker = 0
        self._workers: Dict[int, _WorkerHandle] = {}
        self._stats = PoolStats()
        self._spawn_error: Optional[str] = None
        self._closing = False
        self._terminated = False
        self._thread: Optional[threading.Thread] = None
        self._started = False
        # Self-pipe in the dispatch thread's wait set (open while the
        # thread runs): submit() and close() write a byte, so new work is
        # dispatched at once and ``_POLL_INTERVAL`` is only the
        # liveness-sweep period.
        self._wake_r = self._wake_w = -1

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ProcWorkerPool":
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        for _ in range(self.size):
            self._spawn()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name=f"{self.name}-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def submit(self, envelope: WorkEnvelope) -> cf.Future:
        """Enqueue one envelope; returns a future for its result.

        Callbacks run on the pool's dispatch thread — keep them short.
        """
        if not self._started or self._thread is None:
            raise RuntimeError("pool is not started")
        future: cf.Future = cf.Future()
        # Running from birth: a caller's cancel() must return False, not
        # leave the dispatch thread settling a cancelled future.
        future.set_running_or_notify_cancel()
        with self._lock:
            if self._closing:
                raise RuntimeError("pool is closing; no new work accepted")
            ticket_id = self._next_ticket
            self._next_ticket += 1
            ticket = _Ticket(envelope=replace(envelope, ticket=ticket_id), future=future)
            self._tickets[ticket_id] = ticket
            self._pending.append(ticket_id)
            self._stats.submitted += 1
            self._wake()
        return future

    def _wake(self) -> None:
        """Interrupt the dispatch thread's wait (call with the lock held)."""
        if self._wake_w < 0:
            return
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # pipe full: a wake-up is already pending

    def _join_dispatch(self, timeout: float) -> bool:
        """Join the dispatch thread; once it is gone, close its wake pipe."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                return False
            self._thread = None
        with self._lock:
            for fd in (self._wake_r, self._wake_w):
                if fd >= 0:
                    os.close(fd)
            self._wake_r = self._wake_w = -1
        return True

    def stats(self) -> PoolStats:
        with self._lock:
            workers = [
                WorkerStats(
                    worker_id=h.stats.worker_id,
                    pid=h.stats.pid,
                    units=h.stats.units,
                    busy_seconds=h.stats.busy_seconds,
                    alive=h.process.is_alive(),
                )
                for h in self._workers.values()
            ] + [w for w in self._stats.workers]
            workers.sort(key=lambda w: w.worker_id)
            return PoolStats(
                submitted=self._stats.submitted,
                completed=self._stats.completed,
                failed=self._stats.failed,
                requeues=self._stats.requeues,
                respawns=self._stats.respawns,
                workers_launched=self._stats.workers_launched,
                workers=workers,
                counters=dict(self._stats.counters),
            )

    def close(self, timeout: float = 60.0) -> None:
        """Drain outstanding work, retire every worker, join (idempotent)."""
        if not self._started or self._thread is None:
            return
        with self._lock:
            self._closing = True
            self._wake()
        if not self._join_dispatch(timeout):  # wedged: fall back to terminate
            self.terminate()

    def terminate(self) -> None:
        """Kill every worker now; outstanding futures fail (idempotent)."""
        with self._lock:
            self._closing = True
            self._terminated = True
            self._wake()
        self._join_dispatch(10.0)
        for handle in list(self._workers.values()):
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        with self._lock:
            self._workers.clear()
            outstanding = list(self._tickets.values())
            self._tickets.clear()
            self._pending.clear()
        for ticket in outstanding:
            ticket.future.set_exception(WorkerCrashed("pool terminated"))

    def __enter__(self) -> "ProcWorkerPool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    # -- dispatch-thread internals -------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        worker_id = self._next_worker
        self._next_worker += 1
        inbox = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.spec, worker_id, inbox, writer),
            name=f"{self.name}-{worker_id}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end right away: the worker
        # now holds the only one, so its death surfaces as EOF — and no
        # later-forked sibling can inherit a stray copy that would keep
        # the pipe open past the owner's death.
        writer.close()
        handle = _WorkerHandle(worker_id, process, inbox, reader)
        with self._lock:
            self._workers[worker_id] = handle
            self._stats.workers_launched += 1
        return handle

    def _live_workers(self) -> List[_WorkerHandle]:
        return [h for h in self._workers.values() if not h.retiring]

    def _handle_message(self, message: Tuple[Any, ...]) -> None:
        kind = message[0]
        if kind == "ready":
            _, worker_id, pid = message
            handle = self._workers.get(worker_id)
            if handle is not None:
                handle.pid = pid
                handle.stats.pid = pid
            return
        if kind == "spawn_failed":
            _, worker_id, error = message
            self._spawn_error = error
            return
        if kind == "retired":
            _, worker_id = message
            handle = self._workers.get(worker_id)
            if handle is not None:
                handle.process.join(timeout=5.0)
                self._forget(handle)
            return
        if kind != "result":
            return
        result: EnvelopeResult = message[1]
        with self._lock:
            ticket = self._tickets.pop(result.ticket, None)
            handle = self._workers.get(result.worker_id)
            if handle is not None:
                handle.inflight.discard(result.ticket)
                handle.stats.units += 1
                handle.stats.busy_seconds += result.seconds
            for key, delta in result.counters.items():
                self._stats.counters[key] = self._stats.counters.get(key, 0.0) + delta
            if ticket is None:
                return  # duplicate after a requeue raced a slow worker
            if result.ok:
                self._stats.completed += 1
            else:
                self._stats.failed += 1
        if result.ok:
            ticket.future.set_result(result.value)
        else:
            ticket.future.set_exception(
                WorkerTaskError(result.error or "worker task failed")
            )

    def _drain_conn(self, handle: _WorkerHandle) -> None:
        """Pull every complete message still sitting in a worker's pipe."""
        while not handle.broken:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                handle.broken = True
                return
            self._handle_message(message)

    def _reap_dead(self) -> bool:
        """Requeue (or fail) the work a dead worker held."""
        progressed = False
        for handle in list(self._workers.values()):
            if handle.process.is_alive():
                continue
            progressed = True
            # A fully-written result may still sit in the pipe; settle it
            # before deciding what died in flight.
            self._drain_conn(handle)
            orphans: List[_Ticket] = []
            with self._lock:
                for ticket_id in sorted(handle.inflight):
                    ticket = self._tickets.get(ticket_id)
                    if ticket is not None:
                        orphans.append(ticket)
                handle.inflight.clear()
            self._forget(handle)
            exhausted: List[_Ticket] = []
            with self._lock:
                for ticket in orphans:
                    if ticket.requeues < self.max_requeues:
                        ticket.requeues += 1
                        self._stats.requeues += 1
                        self._pending.appendleft(ticket.envelope.ticket)
                    else:
                        self._tickets.pop(ticket.envelope.ticket, None)
                        self._stats.failed += 1
                        exhausted.append(ticket)
            for ticket in exhausted:
                envelope = ticket.envelope
                ticket.future.set_exception(
                    WorkerCrashed(
                        f"worker {handle.worker_id} (pid {handle.pid}) died "
                        f"executing {envelope.kind}:{envelope.key} "
                        f"(attempt {ticket.requeues + 1})"
                    )
                )
        return progressed

    def _forget(self, handle: _WorkerHandle) -> None:
        """Retire ``handle``: live worker -> one final ``WorkerStats`` row.

        The transition happens once.  ``_reap_dead`` drains a dead
        worker's pipe first, which can deliver its pending ``retired``
        message and retire the handle right there; whoever arrives
        second finds the worker gone and must not report it again.
        """
        with self._lock:
            if self._workers.pop(handle.worker_id, None) is None:
                return
        handle.process.join(timeout=0.1)
        try:
            handle.conn.close()
        except OSError:
            pass
        with self._lock:
            final = WorkerStats(
                worker_id=handle.stats.worker_id,
                pid=handle.stats.pid,
                units=handle.stats.units,
                busy_seconds=handle.stats.busy_seconds,
                alive=False,
            )
            self._stats.workers.append(final)

    def _respawn(self) -> None:
        """Replace dead workers until the pool is back at its size."""
        if self._spawn_error is not None:
            return  # a broken factory would respawn forever
        for _ in range(self.size - len(self._live_workers())):
            self._spawn()
            with self._lock:
                self._stats.respawns += 1

    def _dispatch(self) -> bool:
        progressed = False
        while True:
            candidates = [
                h
                for h in self._live_workers()
                if h.pid and h.process.is_alive() and len(h.inflight) < _DISPATCH_DEPTH
            ]
            if not candidates:
                return progressed
            with self._lock:
                if not self._pending:
                    return progressed
                ticket_id = self._pending.popleft()
                ticket = self._tickets.get(ticket_id)
            if ticket is None:
                continue
            target = min(candidates, key=lambda h: (len(h.inflight), h.worker_id))
            with self._lock:
                target.inflight.add(ticket_id)
            target.inbox.put(ticket.envelope)
            progressed = True

    def _retire_all(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        for handle in self._live_workers():
            handle.retiring = True
            handle.inbox.put(_RETIRE)
        while self._workers and time.monotonic() < deadline:
            self._pump(_POLL_INTERVAL)
            self._reap_dead()
        for handle in list(self._workers.values()):
            if handle.process.is_alive():
                handle.process.terminate()
            self._forget(handle)

    def _fail_pending_on_spawn_error(self) -> None:
        with self._lock:
            error = self._spawn_error
            if error is None or self._workers or self._closing:
                return
            outstanding = [
                self._tickets.pop(tid) for tid in list(self._pending)
                if tid in self._tickets
            ]
            self._pending.clear()
        for ticket in outstanding:
            ticket.future.set_exception(
                WorkerCrashed(f"worker startup failed: {error}")
            )

    def _pump(self, timeout: float) -> bool:
        """Multiplex every live worker's result pipe; returns True if any
        message arrived.  A readable pipe is drained completely — EOF
        (the worker died or retired) just stops reads; the liveness
        sweep owns the consequences."""
        with self._lock:
            conns = {h.conn: h for h in self._workers.values() if not h.broken}
        try:
            ready = mp_connection.wait([*conns, self._wake_r], timeout=timeout)
        except OSError:
            return False
        progressed = False
        for conn in ready:
            if conn == self._wake_r:
                try:
                    os.read(self._wake_r, 4096)
                except BlockingIOError:
                    pass
                continue
            handle = conns[conn]
            while True:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    handle.broken = True
                    break
                progressed = True
                self._handle_message(message)
                try:
                    if not conn.poll():
                        break
                except (EOFError, OSError):
                    handle.broken = True
                    break
        return progressed

    def _dispatch_loop(self) -> None:
        while True:
            self._pump(_POLL_INTERVAL)
            self._reap_dead()
            with self._lock:
                terminated = self._terminated
                drained = self._closing and not self._tickets and not self._pending
            if terminated:
                return
            if drained:
                self._retire_all()
                return
            self._respawn()
            self._dispatch()
            self._fail_pending_on_spawn_error()
