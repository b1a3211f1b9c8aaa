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
from repro.sim.resources import Container, Flow, FluidPipe, Resource, Store
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
    "Resource",
    "Store",
    "Container",
    "FluidPipe",
    "Flow",
    "Tracer",
    "Span",
    "StepSeries",
]
