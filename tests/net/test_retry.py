"""Retry primitives: backoff schedule properties + circuit breaker.

The backoff schedule is a contract other layers rely on (the download
stage sleeps exactly these delays), so its invariants are checked as
properties over the whole parameter space, not just spot values:
caps are monotone non-decreasing, jittered delays stay inside the cap
window, cumulative sleep never exceeds ``max_total``, and a fixed seed
reproduces the exact schedule.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import BackoffPolicy, CircuitBreaker
from repro.net.retry import ENDPOINT_POLICIES, EndpointPolicy

policies = st.builds(
    BackoffPolicy,
    base=st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
    factor=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    max_delay=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    max_total=st.floats(min_value=0.01, max_value=60.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
)


class TestBackoffProperties:
    @settings(max_examples=120, deadline=None)
    @given(policy=policies, attempts=st.integers(min_value=1, max_value=12))
    def test_caps_monotone_non_decreasing(self, policy, attempts):
        caps = [policy.cap(k) for k in range(attempts)]
        assert all(a <= b for a, b in zip(caps, caps[1:]))
        assert all(c <= policy.max_delay for c in caps)

    @settings(max_examples=120, deadline=None)
    @given(policy=policies, attempt=st.integers(min_value=0, max_value=12),
           key=st.text(max_size=20))
    def test_delay_within_jitter_window(self, policy, attempt, key):
        cap = policy.cap(attempt)
        delay = policy.delay(attempt, key=key)
        assert (1.0 - policy.jitter) * cap <= delay + 1e-12
        assert delay <= cap + 1e-12

    @settings(max_examples=120, deadline=None)
    @given(policy=policies, key=st.text(max_size=20))
    def test_total_sleep_bounded(self, policy, key):
        schedule = policy.schedule(key=key, attempts=64)
        assert sum(schedule) <= policy.max_total + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(policy=policies, key=st.text(max_size=20))
    def test_deterministic_under_fixed_seed(self, policy, key):
        twin = BackoffPolicy(
            base=policy.base, factor=policy.factor, max_delay=policy.max_delay,
            max_total=policy.max_total, jitter=policy.jitter, seed=policy.seed,
        )
        assert policy.schedule(key=key) == twin.schedule(key=key)
        assert [policy.delay(k, key) for k in range(8)] == [
            twin.delay(k, key) for k in range(8)
        ]

    @settings(max_examples=60, deadline=None)
    @given(attempt=st.integers(min_value=0, max_value=12), key=st.text(max_size=20))
    def test_zero_jitter_hits_cap_exactly(self, attempt, key):
        policy = BackoffPolicy(jitter=0.0)
        assert policy.delay(attempt, key=key) == policy.cap(attempt)

    def test_distinct_keys_decorrelate(self):
        policy = BackoffPolicy(seed=7)
        schedules = {tuple(policy.schedule(key=f"file-{i}")) for i in range(10)}
        assert len(schedules) > 1  # no synchronized thundering herd

    def test_distinct_seeds_decorrelate(self):
        a = BackoffPolicy(seed=1).schedule(key="x")
        b = BackoffPolicy(seed=2).schedule(key="x")
        assert a != b

    def test_delays_generator_exhausts_budget(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, max_delay=8.0,
                               max_total=10.0, jitter=0.0)
        steps = list(policy.delays())
        assert math.isclose(sum(steps), 10.0)
        assert steps[-1] <= steps[-2]  # final step clipped to the budget

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": -0.1},
            {"factor": 0.5},
            {"max_delay": -1.0},
            {"max_total": -1.0},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy().cap(-1)


class TestFullJitter:
    @settings(max_examples=120, deadline=None)
    @given(policy=policies, attempt=st.integers(min_value=0, max_value=12),
           key=st.text(max_size=20))
    def test_full_jitter_spans_zero_to_cap(self, policy, attempt, key):
        full = BackoffPolicy(
            base=policy.base, factor=policy.factor, max_delay=policy.max_delay,
            max_total=policy.max_total, seed=policy.seed, full_jitter=True,
        )
        delay = full.delay(attempt, key=key)
        assert 0.0 <= delay <= full.cap(attempt) + 1e-12

    def test_full_jitter_reaches_low_delays_partial_cannot(self):
        # Partial jitter (the default) keeps delays >= (1-jitter)*cap —
        # a reconnecting fleet clusters near the cap.  Full jitter
        # spreads over the whole [0, cap] window.
        partial = BackoffPolicy(seed=3)
        full = BackoffPolicy(seed=3, full_jitter=True)
        keys = [f"agent-{i}" for i in range(50)]
        floor = (1.0 - partial.jitter) * partial.cap(4)
        assert all(partial.delay(4, key=k) >= floor - 1e-12 for k in keys)
        assert any(full.delay(4, key=k) < floor for k in keys)

    def test_full_jitter_is_deterministic(self):
        a = BackoffPolicy(seed=11, full_jitter=True)
        b = BackoffPolicy(seed=11, full_jitter=True)
        assert [a.delay(k, "agent-a") for k in range(8)] == [
            b.delay(k, "agent-a") for k in range(8)
        ]
        assert a.delay(3, "agent-a") != a.delay(3, "agent-b")


class TestEndpointPolicies:
    def test_non_idempotent_phases_are_pinned(self):
        """The safety-critical entries: submit/lease/complete must never
        be blind-retried (the client requires a dedupe key or fencing
        token before granting them a retry budget)."""
        for phase in ("submit", "lease", "complete"):
            assert ENDPOINT_POLICIES[phase].idempotent is False
        for phase in ("status", "heartbeat", "reconcile", "health"):
            assert ENDPOINT_POLICIES[phase].idempotent is True

    def test_unknown_phase_falls_back_to_no_retries(self):
        other = ENDPOINT_POLICIES["other"]
        assert other.idempotent is False
        assert other.retries == 0

    def test_probe_phases_time_out_faster(self):
        assert ENDPOINT_POLICIES["health"].timeout_scale < 1.0
        assert ENDPOINT_POLICIES["heartbeat"].timeout_scale < 1.0
        assert ENDPOINT_POLICIES["submit"].timeout_scale > 1.0

    @pytest.mark.parametrize("kwargs", [
        {"idempotent": True, "retries": -1},
        {"idempotent": True, "timeout_scale": 0.0},
        {"idempotent": True, "timeout_scale": -2.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EndpointPolicy(**kwargs)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, threshold=3, reset_after=10.0):
        clock = FakeClock()
        return CircuitBreaker(failure_threshold=threshold, reset_after=reset_after,
                              clock=clock), clock

    def test_starts_closed_and_allows(self):
        breaker, _clock = self.make()
        assert breaker.state("laads") == CircuitBreaker.CLOSED
        assert breaker.allow("laads")

    def test_opens_after_threshold_failures(self):
        breaker, _clock = self.make(threshold=3)
        for _ in range(3):
            assert breaker.allow("laads")
            breaker.record_failure("laads")
        assert breaker.state("laads") == CircuitBreaker.OPEN
        assert not breaker.allow("laads")
        assert breaker.opened_total == 1

    def test_half_open_admits_single_probe(self):
        breaker, clock = self.make(threshold=2, reset_after=5.0)
        breaker.record_failure("laads")
        breaker.record_failure("laads")
        clock.advance(5.0)
        assert breaker.state("laads") == CircuitBreaker.HALF_OPEN
        assert breaker.allow("laads")       # the probe
        assert not breaker.allow("laads")   # everyone else keeps waiting

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=2, reset_after=5.0)
        breaker.record_failure("laads")
        breaker.record_failure("laads")
        clock.advance(5.0)
        assert breaker.allow("laads")
        breaker.record_success("laads")
        assert breaker.state("laads") == CircuitBreaker.CLOSED
        assert breaker.allow("laads")
        assert breaker.failures("laads") == 0

    def test_probe_failure_reopens_without_new_trip_count(self):
        breaker, clock = self.make(threshold=2, reset_after=5.0)
        breaker.record_failure("laads")
        breaker.record_failure("laads")
        assert breaker.opened_total == 1
        clock.advance(5.0)
        assert breaker.allow("laads")
        breaker.record_failure("laads")
        assert breaker.state("laads") == CircuitBreaker.OPEN
        assert breaker.opened_total == 1  # a re-open is the same outage
        clock.advance(5.0)
        assert breaker.allow("laads")  # probed again after another window

    def test_hosts_are_independent(self):
        breaker, _clock = self.make(threshold=1)
        breaker.record_failure("laads")
        assert not breaker.allow("laads")
        assert breaker.allow("orion")

    def test_success_resets_failure_count(self):
        breaker, _clock = self.make(threshold=3)
        breaker.record_failure("laads")
        breaker.record_failure("laads")
        breaker.record_success("laads")
        breaker.record_failure("laads")
        assert breaker.state("laads") == CircuitBreaker.CLOSED

    @pytest.mark.parametrize("kwargs", [{"failure_threshold": 0},
                                        {"reset_after": -1.0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)
