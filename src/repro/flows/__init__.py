"""Globus-Flows-like automation: definitions and engine."""

from repro.flows.definition import FlowError, resolve_ref, validate
from repro.flows.engine import FlowRun, FlowsEngine, RunStatus, StateRecord

__all__ = [
    "validate",
    "resolve_ref",
    "FlowError",
    "FlowsEngine",
    "FlowRun",
    "RunStatus",
    "StateRecord",
]
