"""repro.runtime — the unified stage runtime.

One :class:`StageExecutor` with an ordered middleware stack
(quarantine, journal, cache, chaos, precheck, retry) runs the
:class:`WorkUnit`\\ s every stage produces, and one declarative
:class:`PipelinePlan` states the workflow's structure (scene hand-off,
tile-file announcements, the preprocess/inference overlap) as explicit
edges that :class:`PlanRunner` (as barriers) and
:class:`StreamingPlanRunner` (as a pipeline) both drive.

Layering contract: this package must not import ``repro.core`` (checked
by ``tools/check_layering.py`` and CI).
"""

from repro.runtime.channel import (
    DEFAULT_CAPACITY,
    ChannelStats,
    StreamChannel,
    StreamClosed,
    StreamConfig,
    StreamHub,
    StreamWriter,
    edge_name,
)
from repro.runtime.elastic import ElasticPolicy
from repro.runtime.executor import StageExecutor, build_executor
from repro.runtime.middleware import (
    CacheMiddleware,
    ChaosMiddleware,
    JournalMiddleware,
    Middleware,
    PrecheckMiddleware,
    QuarantineMiddleware,
    RetryMiddleware,
)
from repro.runtime.proc import (
    EnvelopeResult,
    PoolStats,
    ProcWorkerPool,
    WorkEnvelope,
    WorkerCrashed,
    WorkerSpec,
    WorkerStats,
    WorkerTaskError,
)
from repro.runtime.plan import (
    STREAMS_KEY,
    PipelinePlan,
    PlanError,
    PlanExecution,
    PlanRunner,
    StageNode,
    StreamingPlanRunner,
)
from repro.runtime.unit import (
    CACHED,
    DONE,
    FAILED,
    OUTCOMES,
    QUARANTINED,
    RESUMED,
    RETRIED,
    SKIPPED,
    SUCCESS_OUTCOMES,
    CachePolicy,
    FailurePolicy,
    RetrySpec,
    UnitContext,
    UnitFailed,
    UnitResult,
    WorkUnit,
)

__all__ = [
    "DONE",
    "RESUMED",
    "SKIPPED",
    "CACHED",
    "RETRIED",
    "FAILED",
    "QUARANTINED",
    "OUTCOMES",
    "SUCCESS_OUTCOMES",
    "UnitFailed",
    "UnitResult",
    "RetrySpec",
    "FailurePolicy",
    "CachePolicy",
    "WorkUnit",
    "UnitContext",
    "Middleware",
    "QuarantineMiddleware",
    "JournalMiddleware",
    "CacheMiddleware",
    "ChaosMiddleware",
    "PrecheckMiddleware",
    "RetryMiddleware",
    "StageExecutor",
    "build_executor",
    "PlanError",
    "StageNode",
    "PipelinePlan",
    "PlanExecution",
    "PlanRunner",
    "StreamingPlanRunner",
    "STREAMS_KEY",
    "DEFAULT_CAPACITY",
    "ChannelStats",
    "StreamChannel",
    "StreamClosed",
    "StreamConfig",
    "StreamHub",
    "StreamWriter",
    "edge_name",
    "ElasticPolicy",
    "WorkEnvelope",
    "EnvelopeResult",
    "WorkerSpec",
    "WorkerStats",
    "PoolStats",
    "ProcWorkerPool",
    "WorkerCrashed",
    "WorkerTaskError",
]
