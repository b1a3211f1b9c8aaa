"""Contract tests for the multi-process tier (repro.runtime.proc).

ProcWorkerPool must execute envelopes, survive worker crashes by
requeueing exactly the lost work and replacing the dead worker, and
settle every future exactly once.
"""

from __future__ import annotations

import concurrent.futures as cf
import functools
import os
import pickle
import signal
import time

import pytest

from repro.runtime import proc
from repro.runtime.elastic import ElasticPolicy
from repro.runtime.proc import (
    _WorkerHandle,
    EnvelopeResult,
    ProcWorkerPool,
    WorkEnvelope,
    WorkerCrashed,
    WorkerSpec,
    WorkerTaskError,
)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def count_settles(futures):
    """Per-future settle counts, live: a ``cf.Future`` settled twice
    raises on the dispatch thread, one never settled stays at 0."""
    counts = [0] * len(futures)

    def settled(index, _future):
        counts[index] += 1

    for index, future in enumerate(futures):
        future.add_done_callback(functools.partial(settled, index))
    return counts


# ---------------------------------------------------------------------------
# ElasticPolicy bounds and demand rule
# ---------------------------------------------------------------------------


class TestElasticPolicy:
    def test_fixed_pins_bounds(self):
        policy = ElasticPolicy.fixed(3)
        assert policy.min_workers == 3
        assert policy.max_workers == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticPolicy(min_workers=-1)
        with pytest.raises(ValueError):
            ElasticPolicy(max_workers=0)
        with pytest.raises(ValueError):
            ElasticPolicy(min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            ElasticPolicy(tasks_per_worker_target=0)

    def test_scale_out_when_backlog_exceeds_target(self):
        policy = ElasticPolicy(min_workers=0, max_workers=4, tasks_per_worker_target=2.0)
        assert policy.wants_scale_out(queued=10, workers=1)
        assert not policy.wants_scale_out(queued=2, workers=1)  # 2 <= 2.0 * 1
        assert policy.wants_scale_out(queued=1, workers=0)  # nothing provisioned
        assert not policy.wants_scale_out(queued=0, workers=0)  # no demand


# ---------------------------------------------------------------------------
# Envelope pickling
# ---------------------------------------------------------------------------


class TestEnvelopePickling:
    def test_envelope_roundtrip(self):
        env = WorkEnvelope("download", "g1.hdf", payload={"a": [1, 2]}, ticket=7)
        assert pickle.loads(pickle.dumps(env)) == env

    def test_result_roundtrip(self):
        res = EnvelopeResult(
            ticket=3, kind="inference", key="f.nc", ok=False,
            error="boom", seconds=0.5, worker_id=1, pid=123,
            counters={"resumed_items": 2.0},
        )
        assert pickle.loads(pickle.dumps(res)) == res

    def test_spec_roundtrip(self):
        spec = WorkerSpec(target="tests.runtime.proc_targets:build_echo", payload={"x": 1})
        assert pickle.loads(pickle.dumps(spec)) == spec


# ---------------------------------------------------------------------------
# ProcWorkerPool
# ---------------------------------------------------------------------------


ECHO = WorkerSpec(target="tests.runtime.proc_targets:build_echo")
FLAKY = WorkerSpec(target="tests.runtime.proc_targets:build_flaky")
COUNTING = WorkerSpec(target="tests.runtime.proc_targets:build_counting")


class TestProcWorkerPool:
    def test_executes_and_returns_values(self):
        with ProcWorkerPool(ECHO, ElasticPolicy.fixed(2), name="t") as pool:
            futures = [
                pool.submit(WorkEnvelope("stage", f"k{i}", payload=i)) for i in range(8)
            ]
            values = [f.result(timeout=30.0) for f in futures]
        for i, (kind, key, payload, pid) in enumerate(values):
            assert kind == "stage"
            assert key == f"k{i}"
            assert payload == i
            assert pid != os.getpid()

    def test_work_spreads_across_workers(self):
        spec = WorkerSpec(target="tests.runtime.proc_targets:build_sleeper", payload=0.05)
        with ProcWorkerPool(spec, ElasticPolicy.fixed(3), name="t") as pool:
            futures = [pool.submit(WorkEnvelope("s", str(i))) for i in range(12)]
            pids = {f.result(timeout=30.0) for f in futures}
        assert len(pids) == 3

    def test_gather_yields_all_results(self):
        with ProcWorkerPool(ECHO, ElasticPolicy.fixed(2), name="t") as pool:
            futures = [pool.submit(WorkEnvelope("s", str(i), payload=i)) for i in range(6)]
            payloads = sorted(f.result()[2] for f in cf.as_completed(futures, timeout=30.0))
        assert payloads == list(range(6))

    def test_handler_error_becomes_task_error_not_crash(self):
        with ProcWorkerPool(FLAKY, ElasticPolicy.fixed(1), name="t") as pool:
            bad = pool.submit(WorkEnvelope("s", "bad-one"))
            good = pool.submit(WorkEnvelope("s", "fine"))
            with pytest.raises(WorkerTaskError, match="cannot process bad-one"):
                bad.result(timeout=30.0)
            assert good.result(timeout=30.0) == "FINE"
            stats = pool.stats()
        assert stats.failed == 1
        assert stats.completed == 1
        assert stats.requeues == 0

    def test_worker_crash_requeues_then_fails_when_exhausted(self):
        with ProcWorkerPool(FLAKY, ElasticPolicy.fixed(1), name="t", max_requeues=1) as pool:
            doomed = pool.submit(WorkEnvelope("s", "die-hard"))
            with pytest.raises(WorkerCrashed, match="die-hard"):
                doomed.result(timeout=60.0)
            stats = pool.stats()
        assert stats.requeues == 1
        assert stats.failed == 1
        assert stats.respawns >= 1

    def test_sigkill_mid_stage_requeues_onto_fresh_worker(self):
        """Killed mid-unit with a second envelope waiting in its inbox:
        both in-flight tickets are requeued once, each settles once."""
        spec = WorkerSpec(target="tests.runtime.proc_targets:build_sleeper", payload=0.3)
        pool = ProcWorkerPool(spec, ElasticPolicy.fixed(1), name="t", max_requeues=1).start()
        try:
            futures = [pool.submit(WorkEnvelope("s", key)) for key in ("victim", "queued")]
            settles = count_settles(futures)
            assert wait_until(
                lambda: [len(h.inflight) for h in pool._workers.values()] == [2]
            )
            victim_pid = next(w.pid for w in pool.stats().workers if w.pid)
            # let the worker pick the envelope up, then kill it mid-unit
            time.sleep(0.1)
            os.kill(victim_pid, signal.SIGKILL)
            survivor_pids = {future.result(timeout=60.0) for future in futures}
            assert victim_pid not in survivor_pids
            stats = pool.stats()
            assert stats.requeues == 2
            assert stats.completed == 2
            assert stats.respawns == 1
            assert settles == [1, 1]
        finally:
            pool.close()

    def test_sigkill_while_idle_on_the_inbox_is_reaped_and_replaced(self):
        """A worker killed while blocked in ``inbox.get()`` holds nothing
        the parent waits on: it is reaped, replaced, and the next unit
        runs on the replacement with nothing requeued."""
        pool = ProcWorkerPool(ECHO, ElasticPolicy.fixed(1), name="t").start()
        try:
            warm = pool.submit(WorkEnvelope("s", "warm"))
            victim_pid = warm.result(timeout=30.0)[3]
            time.sleep(0.05)  # the worker is back in get()
            os.kill(victim_pid, signal.SIGKILL)
            assert wait_until(lambda: pool.stats().respawns == 1)
            after = pool.submit(WorkEnvelope("s", "after"))
            settles = count_settles([warm, after])
            assert after.result(timeout=30.0)[3] != victim_pid
            stats = pool.stats()
            assert [w.alive for w in stats.workers] == [False, True]
            assert stats.requeues == 0
            assert stats.completed == 2
            assert settles == [1, 1]
        finally:
            pool.close()

    def test_cancel_is_refused_and_the_unit_still_settles(self):
        """A submitted future is running from birth: ``cancel()`` cannot
        leave the dispatch thread holding a cancelled future."""
        spec = WorkerSpec(target="tests.runtime.proc_targets:build_sleeper", payload=0.1)
        with ProcWorkerPool(spec, ElasticPolicy.fixed(1), name="t") as pool:
            futures = [pool.submit(WorkEnvelope("s", str(i))) for i in range(4)]
            assert [future.cancel() for future in futures] == [False] * 4
            done, pending = cf.wait(futures, timeout=30.0)
        assert not pending
        assert all(not future.cancelled() and future.result() for future in done)

    def test_counter_deltas_fold_into_pool_stats(self):
        with ProcWorkerPool(COUNTING, ElasticPolicy.fixed(2), name="t") as pool:
            futures = [pool.submit(WorkEnvelope("s", str(i))) for i in range(6)]
            for f in futures:
                f.result(timeout=30.0)
            stats = pool.stats()
        # "executed" grows by 1 per envelope; "constant" never changes so
        # its delta is never shipped.
        assert stats.counters.get("executed") == 6.0
        assert "constant" not in stats.counters
        assert stats.units_executed == 6
        assert stats.busy_seconds >= 0.0

    def test_close_idempotent(self):
        pool = ProcWorkerPool(ECHO, ElasticPolicy.fixed(1), name="t").start()
        pool.submit(WorkEnvelope("s", "a")).result(timeout=30.0)
        pool.close()
        pool.close()
        pool.terminate()

    def test_submit_after_close_raises(self):
        pool = ProcWorkerPool(ECHO, ElasticPolicy.fixed(1), name="t").start()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(WorkEnvelope("s", "late"))

    def test_spawn_failure_fails_pending_futures(self):
        spec = WorkerSpec(target="tests.runtime.proc_targets:build_broken")
        pool = ProcWorkerPool(spec, ElasticPolicy.fixed(1), name="t").start()
        try:
            future = pool.submit(WorkEnvelope("s", "never"))
            with pytest.raises(WorkerCrashed, match="factory exploded"):
                future.result(timeout=30.0)
        finally:
            pool.terminate()

    def test_terminate_fails_outstanding(self):
        spec = WorkerSpec(target="tests.runtime.proc_targets:build_sleeper", payload=5.0)
        pool = ProcWorkerPool(spec, ElasticPolicy.fixed(1), name="t").start()
        future = pool.submit(WorkEnvelope("s", "slow"))
        time.sleep(0.2)
        pool.terminate()
        with pytest.raises(WorkerCrashed):
            future.result(timeout=10.0)

    def test_stats_always_present_zeros(self):
        pool = ProcWorkerPool(ECHO, ElasticPolicy.fixed(1), name="t")
        stats = pool.stats()
        assert stats.submitted == 0
        assert stats.requeues == 0
        assert stats.units_executed == 0


# ---------------------------------------------------------------------------
# Worker retirement is one state transition
# ---------------------------------------------------------------------------


class _ExitedProcess:
    """A worker process that has already exited."""

    def is_alive(self) -> bool:
        return False

    def join(self, timeout=None) -> None:
        pass


class _ScriptedConn:
    """A result pipe still holding ``messages`` when its writer exited."""

    def __init__(self, messages):
        self._messages = list(messages)
        self.closed = 0

    def poll(self, timeout=0.0) -> bool:
        return bool(self._messages)

    def recv(self):
        if not self._messages:
            raise EOFError
        return self._messages.pop(0)

    def close(self) -> None:
        self.closed += 1


class TestRetirementIsOneTransition:
    def test_retired_message_drained_by_reap_reports_worker_once(self):
        """The tier-1 flake, made deterministic: the worker exits right
        after sending its last result and ``retired``; the liveness sweep
        sees it dead, drains the pipe (which retires it) and then retires
        it itself.  One worker, one ``WorkerStats`` row."""
        pool = ProcWorkerPool(ECHO, ElasticPolicy.fixed(1), name="t")
        result = EnvelopeResult(
            ticket=0, kind="s", key="k", ok=True, value=1, seconds=0.25, worker_id=0, pid=4242
        )
        conn = _ScriptedConn([("result", result), ("retired", 0)])
        handle = _WorkerHandle(0, _ExitedProcess(), inbox=None, conn=conn)
        handle.retiring = True
        pool._workers[0] = handle

        assert pool._reap_dead() is True
        stats = pool.stats()
        assert [(w.worker_id, w.units, w.alive) for w in stats.workers] == [(0, 1, False)]
        assert sum(w.units for w in stats.workers) == stats.units_executed == 1
        assert stats.busy_seconds == 0.25
        assert conn.closed == 1
        assert pool._workers == {}

        # A third caller (the close-time sweep) changes nothing either.
        pool._forget(handle)
        assert len(pool.stats().workers) == 1


class TestSubmitWakesDispatch:
    def test_roundtrip_does_not_wait_out_the_poll_interval(self, monkeypatch):
        """``_POLL_INTERVAL`` is the liveness-sweep period, not a floor on
        dispatch latency: with a 2 s sweep, ten round trips still finish
        in well under one sweep."""
        monkeypatch.setattr(proc, "_POLL_INTERVAL", 2.0)
        with ProcWorkerPool(ECHO, ElasticPolicy.fixed(1), name="t") as pool:
            pool.submit(WorkEnvelope("s", "warm")).result(timeout=30.0)
            time.sleep(0.05)  # let the dispatch thread go back to waiting
            started = time.monotonic()
            for index in range(10):
                pool.submit(WorkEnvelope("s", f"k{index}")).result(timeout=30.0)
                time.sleep(0.01)
            elapsed = time.monotonic() - started
        assert elapsed < 1.5
