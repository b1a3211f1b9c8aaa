"""The run context: what every unit of stage work shares, and where it runs.

A stage states *what* a unit of its work is — ``stage.execute(payload)``
— and hands units to :meth:`RunContext.submit`.  It never learns whether
a thread of this process, a forked pool worker or a leased site agent
runs them::

    stage.run() ── ctx.submit(stage, key, payload) ──┬─ threads   (this process)
                                                     └─ pool      (WorkEnvelope -> StageWorker
                                                                   -> its copy of the stage)
    site agent ── execute_unit ── node.run() ── the same stage.run(), in the agent's process

The context also carries the run's world — journal, chaos injector,
content-addressed store, metrics registry, sleeper, and the one
:class:`~repro.runtime.executor.StageExecutor` built from them — and
:func:`open_run` is the only function that opens it: the local driver,
every pool worker and every leased unit call it, so the three can never
disagree about how a run directory is (re)entered.

This module sits below the stages: they import it, never the reverse.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional

from repro.chaos import build_injector
from repro.core.artifact_cache import open_store
from repro.core.branches import model_slot
from repro.core.config import EOMLConfig
from repro.journal import WorkflowJournal
from repro.runtime import build_executor
from repro.runtime.proc import ProcWorkerPool, WorkEnvelope
from repro.telemetry import MetricsRegistry

__all__ = ["RunContext", "open_run"]


class RunContext:
    """One process's handle on a run.

    ``RunContext()`` is the bare context — no journal, chaos, cache or
    metrics — that a stage built on its own (examples, unit tests) runs
    under.  ``pool`` is attached by the driver once its workers are up;
    until then, and in every worker and agent, units run in-process.
    """

    def __init__(
        self,
        journal: Optional[WorkflowJournal] = None,
        chaos: Any = None,
        cache: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.journal = journal
        self.chaos = chaos
        self.cache = cache
        self.metrics = metrics
        self.sleeper = sleeper
        self.executor = build_executor(
            journal=journal, chaos=chaos, metrics=metrics, sleeper=sleeper, cache=cache
        )
        self.pool: Optional[ProcWorkerPool] = None
        self._threads: Dict[str, ThreadPoolExecutor] = {}
        self._lock = threading.Lock()

    def submit(self, stage: Any, key: str, payload: Any) -> Future:
        """Run ``stage.execute(payload)`` somewhere; returns its future.

        The only code that knows where.  With a pool attached the unit
        ships as ``WorkEnvelope(stage.kind, key, payload)`` (``key``
        shards it) and a worker's copy of the stage executes it;
        otherwise it runs here — on the stage's own threads when it
        keeps some (inference's micro-batching ``enqueue``), else on a
        ``stage.workers``-sized thread pool built on first use.

        Whichever executor ran the unit, the future is a
        :class:`concurrent.futures.Future` (so ``as_completed`` / ``wait``
        take any mix of them) and speaks one failure vocabulary:
        ``result()`` raises :class:`~repro.runtime.proc.WorkerCrashed`
        only for lost infrastructure, and any other exception's ``str()``
        is the unit's own error text.
        """
        if self.pool is not None:
            return self.pool.submit(WorkEnvelope(stage.kind, key, payload))
        enqueue = getattr(stage, "enqueue", None)
        if enqueue is not None:
            return enqueue(payload)
        with self._lock:
            threads = self._threads.get(stage.kind)
            if threads is None:
                threads = self._threads[stage.kind] = ThreadPoolExecutor(
                    max_workers=stage.workers, thread_name_prefix=stage.kind
                )
        return threads.submit(stage.execute, payload)

    def model_path(self, config: EOMLConfig) -> Optional[str]:
        """Where the model of ``config``'s branch persists.

        Without an explicit ``inference.model_path`` the journal directory
        hosts it, so a resumed run reloads instead of retraining.  Fan-out
        branch configs never carry a ``model_path`` (it names *one* model
        file), so their models always live in the journal directory, one
        file per branch tag.
        """
        if config.model_path:
            return config.model_path
        if self.journal is not None:
            return os.path.join(self.journal.directory, model_slot(config.branch)[1])
        return None

    def counters(self) -> Dict[str, float]:
        """Monotonic counters this process's journal, store and fault
        injector accrued.

        Pool workers ship these home as per-envelope deltas; the driver
        adds its own and folds the sum into the report, so the books
        read the same wherever the units ran.
        """
        out: Dict[str, float] = {}
        if self.journal is not None:
            out.update(self.journal.counters())
        if self.cache is not None:
            out.update(
                {f"cache.{key}": value for key, value in self.cache.counters().items()}
            )
        if self.chaos is not None:
            out.update(self.chaos.counters())
        return out

    def close(self) -> None:
        """Release the in-process thread pools and the journal file handle
        (so the same process can resume the run)."""
        with self._lock:
            pools, self._threads = list(self._threads.values()), {}
        for threads in pools:
            threads.shutdown()
        if self.journal is not None:
            self.journal.close()


def open_run(config: EOMLConfig, resume: bool, chaos: Any = None) -> RunContext:
    """Open ``config``'s run directory: the one way into a run.

    ``chaos`` is an already-built injector (an agent's, so its fault
    ledger spans units); by default the config's plan is built — ``None``
    when absent or disabled, and every stage hook then degenerates to
    the exact production path.  The store handle (``None`` with caching
    off) is this process's own on the *shared* CAS directory — branch
    configs inherit the root ``cache_dir`` and the store's atomic publish
    protocol makes concurrent handles safe, so the driver, its pool
    workers and co-located agents dedupe into one object space.

    ``resume`` replays a dead run's journal and turns every stage into
    an idempotent consumer.  Pool workers and leased agents always pass
    ``True``: a requeued unit whose first attempt completed (journal and
    manifest verify) resumes instead of re-running, a mid-flight crash
    is replayed from scratch, and a fresh directory replays nothing.
    """
    if chaos is None:
        chaos = build_injector(config.chaos)
    cache = open_store(config, chaos=chaos)
    journal: Optional[WorkflowJournal] = None
    if config.journal_enabled:
        journal = WorkflowJournal(config.journal_dir, durable=config.journal_durable)
        journal.start(resume=resume)
    return RunContext(
        journal=journal, chaos=chaos, cache=cache,
        metrics=MetricsRegistry(prefix="eo_ml"),
    )
