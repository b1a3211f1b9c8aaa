"""Worker-count bounds and the demand-driven scale-out rule.

Fig. 6's adaptive resource management is reproduced by the simulated
twin: :class:`repro.pexec.strategy.ElasticStrategy` models Parsl's block
scale-out against a simulated executor, and this module states the rule
it uses: scale out while the backlog exceeds ``tasks_per_worker_target``
tasks per provisioned worker ("the workflow increases resource
allocation ... and dynamically scales down resources as workers
complete their tasks").

The live process pool (:mod:`repro.runtime.proc`) does not scale: it
holds ``min_workers`` processes for the whole run and replaces a dead
one, so it is built with ``ElasticPolicy.fixed(n)``.

This module (like the whole ``repro.runtime`` package) must not import
``repro.core``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ElasticPolicy"]


@dataclass(frozen=True)
class ElasticPolicy:
    """Worker-count bounds plus the scale-out demand rule.

    ``min_workers`` may be 0 for consumers that scale from nothing (the
    simulated strategy); the live pool always keeps at least one worker.
    """

    min_workers: int = 1
    max_workers: int = 1
    tasks_per_worker_target: float = 2.0

    def __post_init__(self) -> None:
        if self.min_workers < 0:
            raise ValueError(
                f"min_workers must be >= 0, got {self.min_workers}"
            )
        if self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= "
                f"min_workers ({self.min_workers})"
            )
        if self.tasks_per_worker_target <= 0:
            raise ValueError("tasks_per_worker_target must be positive")

    @classmethod
    def fixed(cls, workers: int) -> "ElasticPolicy":
        """A pool pinned at exactly ``workers`` processes."""
        return cls(min_workers=workers, max_workers=workers)

    def wants_scale_out(self, queued: int, workers: int) -> bool:
        """Demand check alone, with no cap: backlog exceeds the target.

        The simulated strategy applies its own cap in *blocks* rather
        than workers, so it consumes the bare predicate.
        """
        return queued > 0 and (
            workers == 0 or queued > self.tasks_per_worker_target * workers
        )
