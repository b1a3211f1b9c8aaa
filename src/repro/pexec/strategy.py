"""Elastic scaling strategy (Parsl's block scale-out/scale-in).

Fig. 6's point is adaptive resource management: the workflow "increases
resource allocation after completing the network-intensive ... download
task", "dynamically scales down resources as workers complete their
tasks", and runs stages concurrently.  The executor already scales *in*
(workers exit and blocks retire when the queue drains); this strategy
adds demand-driven scale-*out*: watch the queue, add blocks up to a cap
while demand persists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.pexec.simexec import SimHtexExecutor
from repro.runtime.elastic import ElasticPolicy
from repro.sim import Event, Simulation

__all__ = ["ElasticStrategy"]


@dataclass
class ElasticStrategy:
    """Demand-driven block scale-out for a :class:`SimHtexExecutor`.

    ``tasks_per_worker_target`` controls aggressiveness: another block is
    requested while queued tasks exceed target * provisioned workers.
    The demand rule is :meth:`ElasticPolicy.wants_scale_out`.
    """

    sim: Simulation
    executor: SimHtexExecutor
    nodes_per_block: int = 1
    max_blocks: int = 4
    poll_interval: float = 1.0
    tasks_per_worker_target: float = 2.0

    def __post_init__(self) -> None:
        if self.max_blocks < 1 or self.nodes_per_block < 1:
            raise ValueError("block limits must be >= 1")
        if self.poll_interval <= 0:
            raise ValueError("poll interval must be positive")
        self._stop: Optional[Event] = None
        # min_workers=0: the executor handles its own scale-in; this
        # strategy only ever asks the policy the scale-out question.
        self._policy = ElasticPolicy(
            min_workers=0,
            max_workers=max(1, self.max_blocks),
            tasks_per_worker_target=self.tasks_per_worker_target,
        )

    def start(self) -> None:
        self._stop = self.sim.event()
        self.sim.process(self._loop(), name="elastic-strategy")

    def stop(self) -> None:
        if self._stop is not None and not self._stop.triggered:
            self._stop.succeed(None)

    def _provisioned_workers(self) -> int:
        return sum(
            block.num_nodes * block.workers_per_node
            for block in self.executor.blocks
            if not block.job.state.terminal
        )

    def _active_blocks(self) -> int:
        return sum(1 for block in self.executor.blocks if not block.job.state.terminal)

    def _loop(self) -> Generator:
        while self._stop is not None and not self._stop.triggered:
            queued = len(self.executor.queue)
            workers = self._provisioned_workers()
            if self._active_blocks() < self.max_blocks and self._policy.wants_scale_out(
                queued, workers
            ):
                self.executor.scale_out(self.nodes_per_block)
            yield self.sim.timeout(self.poll_interval)
