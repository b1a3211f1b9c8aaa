"""Declarative pipeline plans: stages as nodes, policies as edges.

A :class:`PipelinePlan` states the workflow's structure — the scene
hand-off, the tile-file announcements inference labels as they arrive —
as data instead of interleaved control flow:

* an ``after`` edge is a **barrier**: the node's body runs only once
  every named predecessor has completed;
* a ``stream`` edge is a **per-item dataflow**: the producer hands
  tokens (completed scenes, tile files, labelled file names) to the
  consumer through a :class:`~repro.runtime.channel.StreamChannel`
  while both run.

One driver, :class:`PlanRunner`, runs every node on its own thread and
:class:`PlanExecution` carries the mechanics of honouring the edges.
Barrier or pipeline is a plan shape, not a driver: a consumer that also
lists its producer in ``after`` starts once the producer's whole output
is buffered (the paper's "preprocessing is delayed until all downloads
are complete"), and one that does not reads each token as it is written
— Fig. 6's labelling while tiling still runs.
This module must not import ``repro.core``; nodes close over their
stage objects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.channel import StreamChannel, StreamConfig, StreamHub, edge_name

__all__ = [
    "PlanError",
    "StageNode",
    "PipelinePlan",
    "PlanExecution",
    "PlanRunner",
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
    ``after`` it is not a barrier — the runner starts both ends together
    and the channel carries the ordering.
    """

    name: str
    run: Callable[[Dict[str, Any]], Any]
    workers: int = 0
    after: Tuple[str, ...] = ()
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
            for dep in (*node.after, *node.stream):
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


class PlanExecution:
    """One run of a plan: barrier checks, gates, stream channels.

    Drivers call :meth:`run_node` in any order that satisfies the
    ``after`` edges; violations raise :class:`PlanError` instead of
    silently reordering the pipeline.  Hooks mirror the wall-clock
    timeline's vocabulary: ``on_begin(name)``, ``on_end(name, **counts)``
    and ``on_workers(name, delta)``.

    Stream channels are created for every ``stream`` edge and published
    in ``state[STREAMS_KEY]`` as a :class:`~repro.runtime.channel.
    StreamHub`.  They are bounded at ``stream``'s capacity, or unbounded
    when ``stream`` is ``None``.  A channel whose consumer also lists its
    producer in ``after`` is never bounded: the consumer starts only once
    the producer's full output is buffered, so a bound would deadlock
    both ends.  A node's outgoing channels are closed when its body
    returns (or raises, or the node skips), and its incoming channels
    are relaxed once it can no longer consume.  :meth:`run_node` is safe
    to call from several threads at once.
    """

    def __init__(
        self,
        plan: PipelinePlan,
        state: Optional[Dict[str, Any]] = None,
        on_begin: Optional[Callable[[str], None]] = None,
        on_end: Optional[Callable[..., None]] = None,
        on_workers: Optional[Callable[[str, int], None]] = None,
        stream: Optional[StreamConfig] = None,
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
            bounded = stream is not None and src not in plan.node(dst).after
            self.hub.connect(
                src,
                dst,
                StreamChannel(edge_name(src, dst), capacity=capacity, bounded=bounded),
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
    """The plan driver: one thread per node, every edge honoured.

    A node waits for its ``after`` predecessors to finish; stream-connected
    nodes run together and exchange tokens through channels bounded at
    ``stream``'s capacity (``None``: unbounded).  The hooks fire from
    several threads, so they are serialized.

    Failure containment: a node that raises closes its outputs (its
    consumers see end-of-stream and finish with what arrived) and
    relaxes its inputs (its producers never block on a dead consumer);
    nodes whose ``after`` dependencies failed are marked aborted without
    running.  Once every thread has settled, so no channel is left
    holding a blocked producer, the error of the first failed node in
    plan order is re-raised.
    """

    def __init__(
        self,
        on_begin: Optional[Callable[[str], None]] = None,
        on_end: Optional[Callable[..., None]] = None,
        on_workers: Optional[Callable[[str, int], None]] = None,
        stream: Optional[StreamConfig] = None,
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
        self._stream = stream

    def run(
        self, plan: PipelinePlan, state: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        execution = PlanExecution(
            plan,
            state=state,
            on_begin=self._on_begin,
            on_end=self._on_end,
            on_workers=self._on_workers,
            stream=self._stream,
        )
        finished = {node.name: threading.Event() for node in plan.nodes}
        aborted: set = set()
        errors: Dict[str, BaseException] = {}
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
                    errors[node.name] = exc
            finally:
                if not ok:
                    with guard:
                        aborted.add(node.name)
                    # run_node settles channels itself on every path it
                    # reaches; an aborted node must settle its own.
                    execution._settle_streams(node)
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
        for node in plan.nodes:
            if node.name in errors:
                raise errors[node.name]
        return execution.state
