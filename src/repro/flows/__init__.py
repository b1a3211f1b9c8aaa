"""Globus-Flows-like automation: definitions, engine, registry."""

from repro.flows.cwl import CwlError, cwl_to_flow, extract_outputs
from repro.flows.definition import FlowError, resolve_ref, validate
from repro.flows.engine import FlowRun, FlowsEngine, RunStatus, StateRecord
from repro.flows.registry import FlowRegistry, PublishedFlow

__all__ = [
    "validate",
    "resolve_ref",
    "FlowError",
    "cwl_to_flow",
    "extract_outputs",
    "CwlError",
    "FlowsEngine",
    "FlowRun",
    "RunStatus",
    "StateRecord",
    "FlowRegistry",
    "PublishedFlow",
]
