"""The unified stage runtime: executor + middleware contracts.

Every cross-cutting stage behaviour now lives in exactly one middleware,
so these tests pin the contracts the five stages rely on: outcome
vocabulary, retry/backoff delegation, quarantine-and-continue,
journal resume/intent/complete phases, injected worker stalls, precheck
short-circuits, and per-unit metrics — plus the canonical stack order
(Metrics > Quarantine > Journal > Chaos > Precheck > Retry > body).
"""

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.journal import WorkflowJournal
from repro.net.retry import BackoffPolicy, CircuitBreaker
from repro.runtime import (
    CACHED,
    DONE,
    FAILED,
    QUARANTINED,
    RESUMED,
    RETRIED,
    SKIPPED,
    SUCCESS_OUTCOMES,
    CacheMiddleware,
    CachePolicy,
    ChaosMiddleware,
    FailurePolicy,
    JournalMiddleware,
    PrecheckMiddleware,
    QuarantineMiddleware,
    RetryMiddleware,
    RetrySpec,
    StageExecutor,
    UnitFailed,
    UnitResult,
    WorkUnit,
    build_executor,
)


class RecordingSleeper:
    """Stands in for time.sleep; keeps the delays a unit asked for."""

    def __init__(self):
        self.delays = []

    def __call__(self, delay):
        self.delays.append(delay)


def injector(stage, kind, rate=1.0, times=1, latency=0.002, seed=0):
    return FaultInjector(FaultPlan(seed=seed, faults=(
        FaultSpec(stage, kind, rate=rate, times=times, latency=latency),
    )))


def unit(body, **kwargs):
    kwargs.setdefault("stage", "teststage")
    kwargs.setdefault("key", "item-0")
    return WorkUnit(body=body, **kwargs)


FAST_BACKOFF = BackoffPolicy(base=0.0, factor=1.0, max_delay=0.0)


class TestExecutorBasics:
    def test_plain_return_value_wraps_as_done(self):
        result = StageExecutor().execute(unit(lambda ctx: 42))
        assert result.outcome == DONE
        assert result.ok
        assert result.value == 42
        assert result.attempts == 0

    def test_unit_result_passes_through_unwrapped(self):
        inner = UnitResult(outcome=DONE, value="x", artifact="/a", payload={"n": 1})
        result = StageExecutor().execute(unit(lambda ctx: inner))
        assert result is inner

    def test_body_exception_propagates_without_quarantine(self):
        executor = StageExecutor()
        with pytest.raises(KeyError):
            executor.execute(unit(lambda ctx: (_ for _ in ()).throw(KeyError("boom"))))

    def test_canonical_stack_order(self):
        executor = build_executor()
        assert [type(layer) for layer in executor.middleware] == [
            QuarantineMiddleware,
            JournalMiddleware,
            CacheMiddleware,
            ChaosMiddleware,
            PrecheckMiddleware,
            RetryMiddleware,
        ]

    def test_success_outcomes_never_include_failures(self):
        assert FAILED not in SUCCESS_OUTCOMES
        assert QUARANTINED not in SUCCESS_OUTCOMES
        assert RESUMED not in SUCCESS_OUTCOMES  # already journaled; no re-record


class TestRetryMiddleware:
    def test_transient_failures_retried_then_marked_retried(self):
        sleeper = RecordingSleeper()
        executor = build_executor(sleeper=sleeper)
        calls = []

        def body(ctx):
            calls.append(ctx.attempt)
            if len(calls) < 3:
                raise OSError("flaky")
            return "ok"

        result = executor.execute(unit(
            body, retry=RetrySpec(retries=3, backoff=FAST_BACKOFF),
        ))
        assert result.outcome == RETRIED
        assert result.ok
        assert result.value == "ok"
        assert result.attempts == 2          # two *failed* attempts
        assert calls == [1, 2, 3]            # ctx.attempt is 1-based
        assert len(sleeper.delays) == 2      # one backoff sleep per failure

    def test_no_retry_spec_means_single_attempt(self):
        calls = []

        def body(ctx):
            calls.append(1)
            raise OSError("boom")

        executor = build_executor()
        with pytest.raises(OSError):
            executor.execute(unit(body))
        assert calls == [1]

    def test_non_matching_exception_not_retried(self):
        calls = []

        def body(ctx):
            calls.append(1)
            raise ValueError("not transient")

        executor = build_executor()
        with pytest.raises(ValueError):
            executor.execute(unit(
                body, retry=RetrySpec(retries=3, backoff=FAST_BACKOFF,
                                      retry_on=(OSError,)),
            ))
        assert calls == [1]

    def test_breaker_threaded_through_to_retry_call(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_after=60.0)
        executor = build_executor(sleeper=RecordingSleeper())

        def body(ctx):
            raise OSError("host down")

        result = executor.execute(unit(
            body,
            retry=RetrySpec(retries=1, backoff=FAST_BACKOFF, breaker=breaker,
                            host="archive.example"),
            failure=FailurePolicy(on_exhausted="record"),
        ))
        assert result.outcome == FAILED
        assert breaker.state("archive.example") == CircuitBreaker.OPEN

    def test_before_attempt_exception_bypasses_retry(self):
        calls = []

        def deadline():
            raise TimeoutError("deadline exceeded")

        def body(ctx):
            calls.append(1)
            return "never"

        executor = build_executor()
        result = executor.execute(unit(
            body,
            retry=RetrySpec(retries=5, backoff=FAST_BACKOFF,
                            before_attempt=deadline),
            failure=FailurePolicy(catch=(TimeoutError,)),
        ))
        assert result.outcome == QUARANTINED
        assert "deadline exceeded" in result.error
        assert calls == []                   # the body never ran


class TestQuarantineMiddleware:
    def test_exhaustion_raises_unit_failed_by_default(self):
        executor = build_executor(sleeper=RecordingSleeper())
        with pytest.raises(UnitFailed):
            executor.execute(unit(
                lambda ctx: (_ for _ in ()).throw(OSError("down")),
                retry=RetrySpec(retries=1, backoff=FAST_BACKOFF),
            ))

    def test_exhaustion_recorded_with_describe_and_cleanup(self):
        cleaned = []
        executor = build_executor(sleeper=RecordingSleeper())
        result = executor.execute(unit(
            lambda ctx: (_ for _ in ()).throw(OSError("archive down")),
            retry=RetrySpec(retries=2, backoff=FAST_BACKOFF),
            failure=FailurePolicy(
                on_exhausted="record",
                describe=lambda attempts, error: f"gave up after {attempts}: {error}",
                cleanup=lambda: cleaned.append(True),
            ),
        ))
        assert result.outcome == FAILED
        assert not result.ok
        assert result.error == "gave up after 3: archive down"
        assert result.attempts == 3
        assert cleaned == [True]

    def test_caught_exception_becomes_quarantined(self):
        noted = []
        executor = build_executor()
        result = executor.execute(unit(
            lambda ctx: (_ for _ in ()).throw(ValueError("corrupt tile file")),
            failure=FailurePolicy(catch=(ValueError,),
                                  on_caught=noted.append),
        ))
        assert result.outcome == QUARANTINED
        assert result.error == "corrupt tile file"
        assert noted == ["corrupt tile file"]

    def test_uncaught_exception_type_still_propagates(self):
        executor = build_executor()
        with pytest.raises(KeyError):
            executor.execute(unit(
                lambda ctx: (_ for _ in ()).throw(KeyError("bug")),
                failure=FailurePolicy(catch=(ValueError,)),
            ))


class TestPrecheckMiddleware:
    def test_precheck_short_circuits_body(self):
        ran = []
        skip = UnitResult(outcome=SKIPPED, artifact="/already/there.nc")
        result = build_executor().execute(unit(
            lambda ctx: ran.append(1),
            precheck=lambda ctx: skip,
        ))
        assert result is skip
        assert ran == []

    def test_precheck_none_falls_through_to_body(self):
        result = build_executor().execute(unit(
            lambda ctx: "worked",
            precheck=lambda ctx: None,
        ))
        assert result.outcome == DONE
        assert result.value == "worked"

    def test_skip_never_burns_a_retry_attempt(self):
        result = build_executor().execute(unit(
            lambda ctx: "fresh",
            precheck=lambda ctx: UnitResult(outcome=SKIPPED),
            retry=RetrySpec(retries=3, backoff=FAST_BACKOFF),
        ))
        assert result.outcome == SKIPPED
        assert result.attempts == 0


class TestJournalMiddleware:
    def run_once(self, tmp_path, body, resume=False, store=None, **unit_kwargs):
        journal = WorkflowJournal(str(tmp_path / "journal"))
        journal.start(resume=resume)
        try:
            executor = build_executor(journal=journal, cache=store)
            return executor.execute(unit(body, **unit_kwargs))
        finally:
            journal.close()

    def make_artifact(self, tmp_path, name="artifact.nc", data=b"tiles"):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    def test_completion_recorded_then_resumed_with_payload(self, tmp_path):
        path = self.make_artifact(tmp_path)

        def body(ctx):
            ctx.begin()
            return UnitResult(outcome=DONE, artifact=path, payload={"tiles": 7})

        first = self.run_once(tmp_path, body)
        assert first.outcome == DONE

        ran = []
        second = self.run_once(
            tmp_path, lambda ctx: ran.append(1), resume=True)
        assert second.outcome == RESUMED
        assert second.ok
        assert ran == []                          # zero work redone
        assert second.payload["tiles"] == 7
        assert second.artifact == path            # abspath round-trips
        assert second.payload["sha256"]

    def test_intent_without_completion_forces_redo(self, tmp_path):
        def crash_body(ctx):
            ctx.begin()
            raise ValueError("power cut")

        first = self.run_once(
            tmp_path, crash_body,
            failure=FailurePolicy(catch=(ValueError,)))
        assert first.outcome == QUARANTINED

        seen = []

        def body(ctx):
            seen.append(ctx.redo)
            ctx.begin()
            return "redone"

        second = self.run_once(tmp_path, body, resume=True)
        assert second.outcome == DONE
        assert seen == [True]                     # journal ruled the item redo

    def test_journal_false_suppresses_completion(self, tmp_path):
        path = self.make_artifact(tmp_path)

        def body(ctx):
            ctx.begin()
            return UnitResult(outcome=DONE, artifact=path, journal=False)

        self.run_once(tmp_path, body)
        ran = []

        def again(ctx):
            ctx.begin()
            ran.append(1)
            return "redelivered"

        second = self.run_once(tmp_path, again, resume=True)
        assert second.outcome == DONE             # not RESUMED: stayed redoable
        assert ran == [1]

    def test_phase_open_resumes_but_never_completes(self, tmp_path):
        def body(ctx):
            ctx.begin()
            return "parsed"

        self.run_once(tmp_path, body, journal_phase="open")
        # No completion was written, so resume sees the bare intent: REPLAY.
        seen = []

        def again(ctx):
            seen.append(ctx.redo)
            ctx.begin()
            return "reparsed"

        second = self.run_once(tmp_path, again, resume=True,
                               journal_phase="open")
        assert second.outcome == DONE
        assert seen == [True]

    def test_cache_hit_completes_even_in_phase_open(self, tmp_path):
        # A hit is the whole item, not the first half of one: it is
        # journaled where it happens, so the next run resumes it.
        path = self.make_artifact(tmp_path)
        hit = UnitResult(outcome=CACHED, artifact=path, payload={"tiles": 5})
        first = self.run_once(
            tmp_path, lambda ctx: "unreached", journal_phase="open",
            store=object(), cache=CachePolicy(lookup=lambda ctx, cas: hit))
        assert first is hit

        second = self.run_once(tmp_path, lambda ctx: "unreached", resume=True,
                               journal_phase="open")
        assert second.outcome == RESUMED
        assert second.payload["tiles"] == 5

    def test_a_misspelt_phase_raises_where_the_unit_is_built(self):
        # An unknown phase would pass the journal middleware with no
        # resume decision and no completion: crash-resume lost silently.
        with pytest.raises(ValueError, match="unti"):
            WorkUnit(stage="inference", key="k", body=lambda ctx: None,
                     journal_phase="unti")

    def test_phase_close_completes_but_never_resumes(self, tmp_path):
        path = self.make_artifact(tmp_path)

        def body(ctx):
            return UnitResult(outcome=DONE, artifact=path)

        self.run_once(tmp_path, body, journal_phase="close")
        ran = []
        # A "close" unit never consults resume, so it runs again even
        # though a completion exists — the matching "open" unit is the
        # one that would have skipped.
        second = self.run_once(
            tmp_path, lambda ctx: ran.append(1) or "again",
            resume=True, journal_phase="close")
        assert second.outcome == DONE
        assert ran == [1]

    def test_skip_records_completion_without_intent(self, tmp_path):
        path = self.make_artifact(tmp_path)
        skip = UnitResult(outcome=SKIPPED, artifact=path, payload={"tiles": 3})
        self.run_once(tmp_path, lambda ctx: "unreached",
                      precheck=lambda ctx: skip)
        # skip_existing recorded a completion (no intent), so the next
        # run resumes without redo.
        second = self.run_once(tmp_path, lambda ctx: "unreached",
                               resume=True)
        assert second.outcome == RESUMED
        assert second.payload["tiles"] == 3


class TestChaosMiddleware:
    # FaultSpec validates its stage name, so these units use a real one.
    def test_worker_stall_sleeps_the_injected_latency(self):
        sleeper = RecordingSleeper()
        chaos = injector("inference", "worker_stall", latency=0.25)
        executor = build_executor(chaos=chaos, sleeper=sleeper)
        result = executor.execute(unit(lambda ctx: "done", stage="inference"))
        assert result.outcome == DONE
        assert sleeper.delays == [0.25]

    def test_stall_false_units_are_exempt(self):
        sleeper = RecordingSleeper()
        chaos = injector("inference", "worker_stall", latency=0.25)
        executor = build_executor(chaos=chaos, sleeper=sleeper)
        executor.execute(unit(lambda ctx: "done", stage="inference", stall=False))
        assert sleeper.delays == []

    def test_chaos_threaded_into_context_for_body_surfaces(self):
        chaos = injector("inference", "worker_stall")
        seen = []
        executor = build_executor(chaos=chaos, sleeper=RecordingSleeper())
        executor.execute(unit(lambda ctx: seen.append(ctx.chaos),
                              stage="inference", stall=False))
        assert seen == [chaos]
