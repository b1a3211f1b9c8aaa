"""Parsl's role in the simulated twin: the HighThroughputExecutor over
Slurm blocks (:class:`SimHtexExecutor`) and its elastic scaling strategy.

On the real execution path Parsl's job — fan one task per granule set
over provisioned workers — is done by ``RunContext.submit`` in
:mod:`repro.core.context`: a thread pool in-process, or
:class:`repro.runtime.proc.ProcWorkerPool` across processes.
"""

from repro.pexec.simexec import Block, SimHtexExecutor, SimTaskSpec, TaskResult
from repro.pexec.strategy import ElasticStrategy

__all__ = [
    "SimHtexExecutor",
    "SimTaskSpec",
    "TaskResult",
    "Block",
    "ElasticStrategy",
]
