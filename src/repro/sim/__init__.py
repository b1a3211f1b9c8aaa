"""Discrete-event simulation kernel: events, processes, resources, tracing."""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulation,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Flow, FluidPipe, Store
from repro.sim.trace import Span, StepSeries, Tracer

__all__ = [
    "Simulation",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Store",
    "FluidPipe",
    "Flow",
    "Tracer",
    "Span",
    "StepSeries",
]
