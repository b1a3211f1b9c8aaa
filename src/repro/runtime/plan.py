"""Declarative pipeline plans: stages as nodes, policies as edges.

A :class:`PipelinePlan` states the workflow's structure — the scene
hand-off, the tile-file announcements inference labels as they arrive —
as data instead of interleaved control flow:

* an ``after`` edge is a **barrier**: the node's body runs only once
  every named predecessor has completed;
* a ``stream`` edge is a **per-item dataflow**: the producer hands
  tokens (completed scenes, tile files, labelled file names) to the
  consumer through a :class:`~repro.runtime.channel.StreamChannel`;
* an ``overlaps`` edge names a **partner** whose run the node's body
  overlaps under the listed-order runner: :class:`PlanRunner` starts the
  owner's body on a thread when the partner starts, so the owner reads
  the partner's stream while it is still being written — Fig. 6's
  labelling while tiling still runs.  Overlaps chain (an owner's start
  starts its own owners), and never bypass an ``after`` barrier.

The runner decides what a stream edge costs.  :class:`PlanExecution`
carries the mechanics of honouring the edges for both runners, which
call :meth:`PlanExecution.run_node` from their own schedulers:
:class:`PlanRunner` walks nodes in listed order over unbounded channels,
so each producer finishes before its consumer starts (the paper's
"preprocessing is delayed until all downloads are complete") unless an
``overlaps`` edge starts the consumer early, and
:class:`StreamingPlanRunner` runs stream-connected nodes concurrently,
one thread each, under backpressure, so makespan approaches max(stage)
instead of sum(stages) — same plan, same node bodies.
This module must not import ``repro.core``; nodes close over their
stage objects.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.channel import StreamChannel, StreamConfig, StreamHub, edge_name

__all__ = [
    "PlanError",
    "StageNode",
    "PipelinePlan",
    "PlanExecution",
    "PlanRunner",
    "StreamingPlanRunner",
    "STREAMS_KEY",
]


class PlanError(ValueError):
    """A plan is malformed or was driven out of contract."""


# Reserved state key under which a plan execution publishes its
# StreamHub, so node bodies can look up their channels without the
# runtime ever importing stage code.
STREAMS_KEY = "@streams"


@dataclass(frozen=True)
class StageNode:
    """One pipeline stage: a body plus its structural edges.

    ``run`` receives the shared mutable state mapping and returns the
    node's value (stored under ``state[name]``).  ``counts`` maps that
    value to the keyword counts reported when the node ends (timeline
    annotations).  ``when`` gates the node (a skipped node stores
    ``None`` and still satisfies its dependents' barriers).  ``stream``
    names producer nodes this node consumes tokens from; unlike
    ``after`` it is not a barrier — a concurrent runner starts both ends
    together and the channel carries the ordering.  ``overlaps`` names
    partners the listed-order runner starts this node's body alongside.
    """

    name: str
    run: Callable[[Dict[str, Any]], Any]
    workers: int = 0
    after: Tuple[str, ...] = ()
    overlaps: Tuple[str, ...] = ()
    stream: Tuple[str, ...] = ()
    when: Optional[Callable[[Dict[str, Any]], bool]] = None
    counts: Optional[Callable[[Any], Dict[str, Any]]] = None


class PipelinePlan:
    """A validated sequence of stage nodes with explicit edges."""

    def __init__(self, nodes: List[StageNode]):
        self.nodes = list(nodes)
        self._by_name: Dict[str, StageNode] = {}
        for node in self.nodes:
            if node.name == STREAMS_KEY:
                raise PlanError(f"node name {STREAMS_KEY!r} is reserved")
            if node.name in self._by_name:
                raise PlanError(f"duplicate node name {node.name!r}")
            self._by_name[node.name] = node
        seen: set = set()
        for node in self.nodes:
            for dep in (*node.after, *node.overlaps, *node.stream):
                if dep == node.name:
                    raise PlanError(f"node {node.name!r} references itself")
                if dep not in self._by_name:
                    raise PlanError(
                        f"node {node.name!r} references unknown node {dep!r}"
                    )
                if dep not in seen:
                    raise PlanError(
                        f"node {node.name!r} must come after {dep!r} in the plan"
                    )
            seen.add(node.name)

    def node(self, name: str) -> StageNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise PlanError(f"plan has no node {name!r}") from None

    def stream_edges(self) -> List[Tuple[str, str]]:
        """All (producer, consumer) stream edges in plan order."""
        return [
            (dep, node.name) for node in self.nodes for dep in node.stream
        ]

    def owners_of(self, name: str) -> List[StageNode]:
        """Nodes the listed-order runner starts alongside ``name``."""
        return [node for node in self.nodes if name in node.overlaps]


class PlanExecution:
    """One run of a plan: barrier checks, gates, stream channels.

    Drivers call :meth:`run_node` in any order that satisfies the
    ``after`` edges; violations raise :class:`PlanError` instead of
    silently reordering the pipeline.  Hooks mirror the wall-clock
    timeline's vocabulary: ``on_begin(name)``, ``on_end(name, **counts)``
    and ``on_workers(name, delta)``.

    Stream channels are created for every ``stream`` edge and published
    in ``state[STREAMS_KEY]`` as a :class:`~repro.runtime.channel.
    StreamHub`.  They are **bounded only when** ``concurrent=True`` (a
    runner that genuinely overlaps producer and consumer); a sequential
    driver — the listed-order :class:`PlanRunner` — gets relaxed
    (unbounded) channels, so the producer's full output buffers and the
    consumer drains it afterwards with identical bodies and no deadlock.
    A node's outgoing channels are closed when its body returns (or
    raises, or the node skips), and its incoming channels are relaxed
    once it can no longer consume.  :meth:`run_node` is safe to call from
    several threads at once.
    """

    def __init__(
        self,
        plan: PipelinePlan,
        state: Optional[Dict[str, Any]] = None,
        on_begin: Optional[Callable[[str], None]] = None,
        on_end: Optional[Callable[..., None]] = None,
        on_workers: Optional[Callable[[str, int], None]] = None,
        stream: Optional[StreamConfig] = None,
        concurrent: bool = False,
    ):
        self.plan = plan
        self.state: Dict[str, Any] = state if state is not None else {}
        self.done: set = set()
        self.skipped: set = set()
        self._on_begin = on_begin
        self._on_end = on_end
        self._on_workers = on_workers
        self._lock = threading.Lock()
        capacity = (stream or StreamConfig()).capacity
        self.hub = StreamHub()
        for src, dst in plan.stream_edges():
            self.hub.connect(
                src,
                dst,
                StreamChannel(
                    edge_name(src, dst), capacity=capacity, bounded=concurrent
                ),
            )
        if len(self.hub):
            self.state[STREAMS_KEY] = self.hub

    def _settle_streams(self, node: StageNode) -> None:
        """A finished (or skipped, or dead) node's channel obligations:
        its outputs end, and its inputs will never be consumed again."""
        self.hub.close_outputs(node.name)
        self.hub.relax_inputs(node.name)

    def run_node(self, name: str) -> Any:
        node = self.plan.node(name)
        with self._lock:
            if name in self.done:
                raise PlanError(f"node {name!r} already ran")
            missing = [dep for dep in node.after if dep not in self.done]
        if missing:
            raise PlanError(
                f"node {name!r} ran before its barrier: waiting on {missing}"
            )
        if node.when is not None and not node.when(self.state):
            with self._lock:
                self.state[name] = None
                self.done.add(name)
                self.skipped.add(name)
            self._settle_streams(node)
            return None
        if self._on_begin is not None:
            self._on_begin(name)
        if self._on_workers is not None and node.workers:
            self._on_workers(name, node.workers)
        try:
            value = node.run(self.state)
        finally:
            if self._on_workers is not None and node.workers:
                self._on_workers(name, -node.workers)
            self._settle_streams(node)
        with self._lock:
            self.state[name] = value
            self.done.add(name)
        if self._on_end is not None:
            counts = node.counts(value) if node.counts is not None else {}
            self._on_end(name, **counts)
        return value

    def close(self) -> None:
        """End every channel (aborted runs)."""
        self.hub.close_all()


class PlanRunner:
    """The local sequential driver: nodes in listed order, edges enforced.

    The one exception to listed order is an ``overlaps`` edge: when a
    partner begins, each owner whose ``when`` gate passes and whose
    ``after`` barriers are met starts its body on a thread (and its own
    owners with it), and the driver joins it when it reaches the owner.
    Over the relaxed channels each owner reads its partner's tokens as
    they are written, and the partner ending (or failing) ends the
    owner's input.  The hooks may then fire from several threads, so
    they are serialized.
    """

    def __init__(
        self,
        on_begin: Optional[Callable[[str], None]] = None,
        on_end: Optional[Callable[..., None]] = None,
        on_workers: Optional[Callable[[str, int], None]] = None,
    ):
        hook_lock = threading.Lock()

        def locked(hook):
            if hook is None:
                return None

            def call(*args, **kwargs):
                with hook_lock:
                    return hook(*args, **kwargs)

            return call

        self._on_begin = locked(on_begin)
        self._on_end = locked(on_end)
        self._on_workers = locked(on_workers)

    def run(
        self, plan: PipelinePlan, state: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        early: Dict[str, Future] = {}
        owners = ThreadPoolExecutor(thread_name_prefix="plan")
        starting = threading.Lock()

        def begin(name: str) -> None:
            # A partner has begun: its overlap owners start alongside,
            # unless a barrier of theirs still holds.
            if self._on_begin is not None:
                self._on_begin(name)
            for owner in plan.owners_of(name):
                with starting:
                    if (
                        owner.name not in early
                        and all(dep in execution.done for dep in owner.after)
                        and (owner.when is None or owner.when(execution.state))
                    ):
                        early[owner.name] = owners.submit(execution.run_node, owner.name)

        execution = PlanExecution(
            plan,
            state=state,
            on_begin=begin,
            on_end=self._on_end,
            on_workers=self._on_workers,
        )
        try:
            for node in plan.nodes:
                if node.name in early:
                    early[node.name].result()
                else:
                    execution.run_node(node.name)
        finally:
            # In listed order, wait for each early owner (by then any owner
            # it started is known) and end the outputs of each node that
            # never ran, so every owner finishes with what arrived.
            for node in plan.nodes:
                if node.name in early:
                    early[node.name].exception()
                elif node.name not in execution.done:
                    execution.hub.close_outputs(node.name)
            owners.shutdown()
            execution.close()
        return execution.state


class StreamingPlanRunner(PlanRunner):
    """The concurrent driver: one thread per node, channels bounded.

    ``after`` edges are still honoured (a dependent waits for its
    predecessors to finish), but stream-connected nodes start together
    and exchange tokens through channels bounded at the
    :class:`~repro.runtime.channel.StreamConfig` capacity; an
    ``overlaps`` edge adds nothing, since every node already runs
    alongside every other.

    Failure containment: a node that raises closes its outputs (its
    consumers see end-of-stream and finish with what arrived) and
    relaxes its inputs (its producers never block on a dead consumer);
    nodes whose ``after`` dependencies failed are marked aborted without
    running.  The first error is re-raised once every thread has
    settled, so no channel is left holding a blocked producer.
    """

    def __init__(
        self,
        on_begin: Optional[Callable[[str], None]] = None,
        on_end: Optional[Callable[..., None]] = None,
        on_workers: Optional[Callable[[str, int], None]] = None,
        stream: Optional[StreamConfig] = None,
    ):
        super().__init__(on_begin=on_begin, on_end=on_end, on_workers=on_workers)
        self.stream_config = stream or StreamConfig()

    def run(
        self, plan: PipelinePlan, state: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        execution = PlanExecution(
            plan,
            state=state,
            on_begin=self._on_begin,
            on_end=self._on_end,
            on_workers=self._on_workers,
            stream=self.stream_config,
            concurrent=True,
        )
        finished = {node.name: threading.Event() for node in plan.nodes}
        aborted: set = set()
        errors: List[BaseException] = []
        guard = threading.Lock()

        def drive(node: StageNode) -> None:
            ok = True
            try:
                for dep in node.after:
                    finished[dep].wait()
                with guard:
                    dead = any(dep in aborted for dep in node.after)
                if dead:
                    ok = False
                else:
                    execution.run_node(node.name)
            except BaseException as exc:  # noqa: BLE001 - re-raised after join
                ok = False
                with guard:
                    errors.append(exc)
            finally:
                if not ok:
                    with guard:
                        aborted.add(node.name)
                    # run_node settles channels itself on every path it
                    # reaches; an aborted node must settle its own.
                    execution.hub.close_outputs(node.name)
                    execution.hub.relax_inputs(node.name)
                finished[node.name].set()

        threads = [
            threading.Thread(
                target=drive, args=(node,), name=f"plan-{node.name}"
            )
            for node in plan.nodes
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            execution.close()
        if errors:
            raise errors[0]
        return execution.state
