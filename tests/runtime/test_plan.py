"""Pipeline plans: validation, barriers, gates, overlaps, and streams.

The plan is the workflow's structure as data — these tests pin that the
``after`` edges really are barriers (violations raise instead of
silently reordering), that ``when`` gates skip without running, that an
``overlaps`` edge opens the owner's scope *before* the overlapped node
works and closes it after the owner's own body — the Fig. 6
monitor/inference window — and that ``stream`` edges carry per-item
tokens between concurrently running nodes under backpressure (the
:class:`StreamingPlanRunner`) while degrading to a buffered hand-off
under every sequential driver.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.runtime import (
    STREAMS_KEY,
    PipelinePlan,
    PlanError,
    PlanExecution,
    PlanRunner,
    StageNode,
    StreamConfig,
    StreamingPlanRunner,
)


def node(name, value=None, **kwargs):
    return StageNode(name=name, run=lambda state: value or name, **kwargs)


class TestPlanValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(PlanError, match="duplicate"):
            PipelinePlan([node("a"), node("a")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(PlanError, match="unknown node"):
            PipelinePlan([node("a", after=("ghost",))])

    def test_self_reference_rejected(self):
        with pytest.raises(PlanError, match="references itself"):
            PipelinePlan([node("a", overlaps=("a",))])

    def test_forward_reference_rejected(self):
        # Listed order must already satisfy every edge.
        with pytest.raises(PlanError, match="must come after"):
            PipelinePlan([node("a", after=("b",)), node("b")])

    def test_names_nodes_and_edges(self):
        plan = PipelinePlan([
            node("a"),
            node("b", after=("a",)),
            node("c", after=("a", "b"), overlaps=("b",)),
        ])
        assert [n.name for n in plan.nodes] == ["a", "b", "c"]
        assert plan.node("b").after == ("a",)
        assert plan.node("c").after == ("a", "b")
        assert plan.node("c").overlaps == ("b",)
        with pytest.raises(PlanError, match="no node"):
            plan.node("ghost")
        assert [owner.name for owner in plan.owners_of("b")] == ["c"]

    def test_stream_edges_validated_like_after(self):
        with pytest.raises(PlanError, match="unknown node"):
            PipelinePlan([node("a", stream=("ghost",))])
        with pytest.raises(PlanError, match="references itself"):
            PipelinePlan([node("a", stream=("a",))])
        with pytest.raises(PlanError, match="must come after"):
            PipelinePlan([node("a", stream=("b",)), node("b")])
        plan = PipelinePlan([node("a"), node("b", stream=("a",))])
        assert plan.node("b").stream == ("a",)
        assert plan.stream_edges() == [("a", "b")]

    def test_reserved_state_key_rejected_as_node_name(self):
        with pytest.raises(PlanError, match="reserved"):
            PipelinePlan([node(STREAMS_KEY)])


class TestPlanExecution:
    def test_barrier_violation_raises(self):
        plan = PipelinePlan([node("a"), node("b", after=("a",))])
        execution = PlanExecution(plan)
        with pytest.raises(PlanError, match="before its barrier"):
            execution.run_node("b")

    def test_node_cannot_run_twice(self):
        plan = PipelinePlan([node("a")])
        execution = PlanExecution(plan)
        execution.run_node("a")
        with pytest.raises(PlanError, match="already ran"):
            execution.run_node("a")

    def test_values_land_in_state(self):
        state = {"seeded": True}
        plan = PipelinePlan([node("a", value=41), node("b", value=42)])
        execution = PlanExecution(plan, state=state)
        execution.run_node("a")
        execution.run_node("b")
        assert state == {"seeded": True, "a": 41, "b": 42}

    def test_when_gate_skips_but_satisfies_barriers(self):
        ran = []
        plan = PipelinePlan([
            StageNode("a", run=lambda s: ran.append("a")),
            StageNode("b", run=lambda s: ran.append("b"),
                      after=("a",), when=lambda s: False),
            StageNode("c", run=lambda s: ran.append("c") or "done",
                      after=("b",)),
        ])
        begun = []
        execution = PlanExecution(plan, on_begin=begun.append)
        for stage in plan.nodes:
            execution.run_node(stage.name)
        assert ran == ["a", "c"]
        assert execution.state["b"] is None
        assert execution.skipped == {"b"}
        assert begun == ["a", "c"]           # a skipped node never begins

    def test_driver_order_free_when_barriers_allow(self):
        # The streaming runner's node threads reach run_node in any legal order.
        plan = PipelinePlan([node("a"), node("b"), node("c", after=("a", "b"))])
        execution = PlanExecution(plan)
        execution.run_node("b")
        execution.run_node("a")
        assert execution.run_node("c") == "c"


class TestOverlapWindows:
    def make_plan(self, events, inference_when=None):
        @contextmanager
        def scope(state):
            events.append("scope+")
            yield
            events.append("scope-")

        return PipelinePlan([
            StageNode("preprocess", run=lambda s: events.append("preprocess")),
            StageNode("inference", run=lambda s: events.append("drain"),
                      after=("preprocess",), overlaps=("preprocess",),
                      scope=scope, when=inference_when),
        ])

    def test_owner_scope_brackets_the_overlapped_node(self):
        events = []
        PlanRunner().run(self.make_plan(events))
        # The worker/crawler window opens before preprocess produces its
        # first tile file and closes only after the drain.
        assert events == ["scope+", "preprocess", "drain", "scope-"]

    def test_gated_owner_never_opens_its_scope(self):
        events = []
        PlanRunner().run(self.make_plan(events, inference_when=lambda s: False))
        assert events == ["preprocess"]

    def test_owner_with_skipped_partner_still_gets_scope(self):
        events = []

        @contextmanager
        def scope(state):
            events.append("scope+")
            yield
            events.append("scope-")

        plan = PipelinePlan([
            StageNode("preprocess", run=lambda s: events.append("preprocess"),
                      when=lambda s: False),
            StageNode("inference", run=lambda s: events.append("drain"),
                      overlaps=("preprocess",), scope=scope),
        ])
        PlanRunner().run(plan)
        assert events == ["scope+", "drain", "scope-"]

    def test_close_tears_down_open_windows(self):
        events = []
        plan = self.make_plan(events)
        execution = PlanExecution(plan)
        execution.run_node("preprocess")      # opens inference's window
        assert events == ["scope+", "preprocess"]
        execution.close()                     # aborted run: window torn down
        assert events == ["scope+", "preprocess", "scope-"]
        execution.close()                     # idempotent
        assert events == ["scope+", "preprocess", "scope-"]


class TestPlanRunner:
    def test_hooks_mirror_the_timeline_vocabulary(self):
        calls = []
        plan = PipelinePlan([
            StageNode("download", run=lambda s: 3, workers=2,
                      counts=lambda v: {"files": v}),
            StageNode("shipment", run=lambda s: "r", after=("download",)),
        ])
        runner = PlanRunner(
            on_begin=lambda name: calls.append(("begin", name)),
            on_end=lambda name, **counts: calls.append(("end", name, counts)),
            on_workers=lambda name, delta: calls.append(("workers", name, delta)),
        )
        state = runner.run(plan)
        assert state["download"] == 3
        assert calls == [
            ("begin", "download"),
            ("workers", "download", 2),
            ("workers", "download", -2),
            ("end", "download", {"files": 3}),
            ("begin", "shipment"),
            ("end", "shipment", {}),
        ]

    def test_failing_node_still_closes_windows(self):
        events = []

        @contextmanager
        def scope(state):
            events.append("scope+")
            yield
            events.append("scope-")

        plan = PipelinePlan([
            StageNode("a", run=lambda s: (_ for _ in ()).throw(
                RuntimeError("stage blew up"))),
            StageNode("b", run=lambda s: "unreached", overlaps=("a",),
                      scope=scope),
        ])
        with pytest.raises(RuntimeError, match="stage blew up"):
            PlanRunner().run(plan)
        assert events == ["scope+", "scope-"]


def stream_plan(produced, consumed, count=5):
    """producer -> consumer over one stream edge."""

    def produce(state):
        writer = state[STREAMS_KEY].writer("producer")
        for item in range(count):
            writer.put(item)
            produced.append(item)
        return count

    def consume(state):
        for item in state[STREAMS_KEY].reader("consumer"):
            consumed.append(item)
        return len(consumed)

    return PipelinePlan([
        StageNode("producer", run=produce),
        StageNode("consumer", run=consume, stream=("producer",)),
    ])


class TestSequentialStreamExecution:
    def test_plan_runner_buffers_the_whole_stream(self):
        # The listed-order driver runs the producer to completion first;
        # the relaxed channel buffers everything, the consumer drains it
        # afterwards — same bodies, no deadlock, no capacity limit.
        produced, consumed = [], []
        state = PlanRunner().run(stream_plan(produced, consumed, count=50))
        assert consumed == list(range(50))
        assert state["producer"] == 50 and state["consumer"] == 50
        assert STREAMS_KEY in state

    def test_streamless_plan_keeps_state_clean(self):
        # Engines assert exact state contents; no hub key appears unless
        # the plan actually carries stream edges.
        state = PlanRunner().run(PipelinePlan([node("a")]))
        assert STREAMS_KEY not in state

    def test_out_of_order_driver_still_flows(self):
        # A sequential driver calls run_node itself; the execution only
        # requires the producer's tokens to be buffered first.
        produced, consumed = [], []
        execution = PlanExecution(stream_plan(produced, consumed))
        execution.run_node("producer")
        execution.run_node("consumer")
        assert consumed == list(range(5))


class TestStreamingPlanRunner:
    def test_tokens_flow_concurrently_in_order(self):
        produced, consumed = [], []
        state = StreamingPlanRunner().run(stream_plan(produced, consumed))
        assert consumed == list(range(5))
        assert state["consumer"] == 5

    def test_backpressure_bounds_the_producer_lead(self):
        lead = []
        gate = threading.Event()

        def produce(state):
            writer = state[STREAMS_KEY].writer("producer")
            for item in range(10):
                writer.put(item)
            return 10

        def consume(state):
            reader = state[STREAMS_KEY].reader("consumer")
            gate.wait(5.0)
            total = 0
            for _ in reader:
                lead.append(len(reader))
                total += 1
            return total

        plan = PipelinePlan([
            StageNode("producer", run=produce),
            StageNode("consumer", run=consume, stream=("producer",)),
        ])
        runner = StreamingPlanRunner(stream=StreamConfig(capacity=2))
        # Let the producer hit the bound before the consumer starts.
        timer = threading.Timer(0.3, gate.set)
        timer.start()
        try:
            state = runner.run(plan)
        finally:
            timer.cancel()
            gate.set()
        assert state["consumer"] == 10
        stats = state[STREAMS_KEY].channel("producer", "consumer").stats()
        assert stats.max_depth <= 2            # never more than capacity queued
        assert stats.producer_stall_seconds > 0.0

    def test_after_edges_are_still_barriers(self):
        order = []
        plan = PipelinePlan([
            StageNode("a", run=lambda s: order.append("a")),
            StageNode("b", run=lambda s: order.append("b"), after=("a",)),
            StageNode("c", run=lambda s: order.append("c"), after=("b",)),
        ])
        StreamingPlanRunner().run(plan)
        assert order == ["a", "b", "c"]

    def test_a_scope_that_blocks_does_not_stall_other_nodes(self):
        """An overlap owner's scope may wait on another node (the
        inference window waits for its model): entering it must not hold
        the execution lock that node needs to start and finish."""
        entering = threading.Event()
        trained = threading.Event()

        @contextmanager
        def window(state):
            entering.set()
            assert trained.wait(5.0), "the model node never got to run"
            yield

        def gate(state):
            # Finishes — and so releases "model" — only once the window
            # is being entered, the moment the old lock was held.
            assert entering.wait(5.0)

        plan = PipelinePlan([
            StageNode("gate", run=gate),
            StageNode("model", run=lambda s: trained.set(), after=("gate",)),
            StageNode("work", run=lambda s: "tiles"),
            StageNode("window", run=lambda s: "drained", after=("work", "model"),
                      overlaps=("work",), scope=window),
        ])
        done = {}
        runner = threading.Thread(
            target=lambda: done.update(StreamingPlanRunner().run(plan)),
            daemon=True,
        )
        runner.start()
        runner.join(15.0)
        assert not runner.is_alive(), "plan deadlocked on a blocking scope"
        assert done["window"] == "drained"

    def test_skipped_consumer_relaxes_the_producer(self):
        def produce(state):
            writer = state[STREAMS_KEY].writer("producer")
            for item in range(20):  # far beyond capacity 1
                writer.put(item)
            return 20

        plan = PipelinePlan([
            StageNode("producer", run=produce),
            StageNode("consumer", run=lambda s: "unreached",
                      stream=("producer",), when=lambda s: False),
        ])
        runner = StreamingPlanRunner(stream=StreamConfig(capacity=1))
        state = runner.run(plan)  # must not deadlock
        assert state["producer"] == 20
        assert state["consumer"] is None

    def test_dead_consumer_does_not_deadlock_the_producer(self):
        def produce(state):
            writer = state[STREAMS_KEY].writer("producer")
            for item in range(20):
                writer.put(item)
            return 20

        def consume(state):
            raise RuntimeError("consumer died")

        plan = PipelinePlan([
            StageNode("producer", run=produce),
            StageNode("consumer", run=consume, stream=("producer",)),
        ])
        runner = StreamingPlanRunner(stream=StreamConfig(capacity=1))
        with pytest.raises(RuntimeError, match="consumer died"):
            runner.run(plan)

    def test_failed_dependency_aborts_dependents_and_closes_channels(self):
        ran = []

        def consume(state):
            ran.append("consumer")
            return list(state[STREAMS_KEY].reader("consumer"))

        plan = PipelinePlan([
            StageNode("bad", run=lambda s: (_ for _ in ()).throw(
                RuntimeError("boom"))),
            StageNode("producer", run=lambda s: s[STREAMS_KEY]
                      .writer("producer").close() or 1, after=("bad",)),
            StageNode("consumer", run=consume, stream=("producer",)),
        ])
        with pytest.raises(RuntimeError, match="boom"):
            StreamingPlanRunner().run(plan)
        # The consumer saw end-of-stream from the aborted producer and
        # finished with what arrived (nothing) instead of hanging.
        assert ran == ["consumer"]

    def test_hooks_are_serialized_across_node_threads(self):
        active = []
        peak = []
        lock = threading.Lock()

        def on_begin(name):
            with lock:
                active.append(name)
                peak.append(len(active))
            # hold the hook open long enough for a race to show
            threading.Event().wait(0.01)
            with lock:
                active.remove(name)

        plan = PipelinePlan([node("a"), node("b"), node("c")])
        StreamingPlanRunner(on_begin=on_begin).run(plan)
        assert max(peak) == 1  # the shared hook lock admits one at a time
