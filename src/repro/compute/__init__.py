"""Globus-Compute-like function service: endpoints.

Two endpoint flavours share the submit/future shape: the simulated
endpoint runs behaviours on the discrete-event kernel (used by the
benchmarks), the local endpoint runs real callables on a thread pool
(used by the examples and the real execution path).
"""

from repro.compute.endpoint import ComputeTask, SimComputeEndpoint
from repro.compute.local import LocalComputeEndpoint

__all__ = [
    "SimComputeEndpoint",
    "ComputeTask",
    "LocalComputeEndpoint",
]
