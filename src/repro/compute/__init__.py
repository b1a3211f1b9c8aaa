"""Globus-Compute-like function service: the simulated endpoint.

:class:`SimComputeEndpoint` runs behaviours on the discrete-event kernel
(the twin and the figure benchmarks).  There is no real-path half here:
real callables run wherever :meth:`repro.core.context.RunContext.submit`
places them, on the standard library's executors.
"""

from repro.compute.endpoint import ComputeTask, SimComputeEndpoint

__all__ = [
    "SimComputeEndpoint",
    "ComputeTask",
]
