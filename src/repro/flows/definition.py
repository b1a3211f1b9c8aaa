"""Flow definitions: a Globus-Flows / Amazon-States-Language-style schema.

A flow is a JSON-able mapping::

    {
      "Comment": "inference pipeline",
      "StartAt": "Crawl",
      "States": {
        "Crawl":   {"Type": "Action", "ActionUrl": "crawler",
                     "Parameters": {"prefix": "$.watch_dir"},
                     "ResultPath": "fresh", "Next": "AnyNew"},
        "AnyNew":  {"Type": "Choice",
                     "Choices": [{"Variable": "$.fresh_count",
                                   "GreaterThan": 0, "Next": "Infer"}],
                     "Default": "Done"},
        "Infer":   {"Type": "Action", "ActionUrl": "compute", ...},
        "Done":    {"Type": "Succeed"}
      }
    }

Supported state types: ``Action``, ``Choice``, ``Wait``, ``Pass``,
``Succeed``, ``Fail``.  ``$.`` strings reference keys of the run's current
document.  :func:`validate` checks structural integrity up front so broken
flows fail at registration, not mid-run — part of the paper's "publishing
clear input and output schemas for each workflow component" goal (S V-A).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

__all__ = ["FlowError", "validate", "STATE_TYPES"]

STATE_TYPES = ("Action", "Choice", "Wait", "Pass", "Succeed", "Fail", "Parallel", "Map")

_COMPARATORS = ("Equals", "NotEquals", "GreaterThan", "GreaterThanOrEqual", "LessThan", "LessThanOrEqual")


class FlowError(ValueError):
    """Raised for invalid flow definitions or runtime flow errors."""


def _check_state(name: str, state: Mapping[str, Any], all_states: Mapping[str, Any]) -> None:
    if not isinstance(state, Mapping):
        raise FlowError(f"state {name!r} must be a mapping")
    state_type = state.get("Type")
    if state_type not in STATE_TYPES:
        raise FlowError(f"state {name!r} has unknown Type {state_type!r}; expected one of {STATE_TYPES}")

    def check_next(key: str = "Next", required: bool = True) -> None:
        target = state.get(key)
        if target is None:
            if required:
                raise FlowError(f"state {name!r} ({state_type}) requires {key!r}")
            return
        if target not in all_states:
            raise FlowError(f"state {name!r} transitions to unknown state {target!r}")

    if state_type == "Action":
        if not isinstance(state.get("ActionUrl"), str):
            raise FlowError(f"Action state {name!r} requires a string 'ActionUrl'")
        if "Parameters" in state and not isinstance(state["Parameters"], Mapping):
            raise FlowError(f"Action state {name!r}: 'Parameters' must be a mapping")
        retry = state.get("Retry")
        if retry is not None:
            if not isinstance(retry, Mapping):
                raise FlowError(f"Action state {name!r}: 'Retry' must be a mapping")
            attempts = retry.get("MaxAttempts")
            if not isinstance(attempts, int) or isinstance(attempts, bool) or attempts < 1:
                raise FlowError(
                    f"Action state {name!r}: Retry.MaxAttempts must be a positive int"
                )
            interval = retry.get("IntervalSeconds", 0)
            if not isinstance(interval, (int, float)) or isinstance(interval, bool) or interval < 0:
                raise FlowError(
                    f"Action state {name!r}: Retry.IntervalSeconds must be >= 0"
                )
        catch = state.get("Catch")
        if catch is not None:
            if not isinstance(catch, Mapping) or "Next" not in catch:
                raise FlowError(f"Action state {name!r}: 'Catch' must be a mapping with 'Next'")
            if catch["Next"] not in all_states:
                raise FlowError(
                    f"Action state {name!r}: Catch.Next targets unknown state "
                    f"{catch['Next']!r}"
                )
        if not state.get("End"):
            check_next()
    elif state_type == "Map":
        items_path = state.get("ItemsPath")
        if not isinstance(items_path, str) or not items_path.startswith("$."):
            raise FlowError(f"Map state {name!r} requires an 'ItemsPath' reference")
        iterator = state.get("Iterator")
        if not isinstance(iterator, Mapping):
            raise FlowError(f"Map state {name!r} requires an 'Iterator' flow")
        try:
            validate(iterator)
        except FlowError as exc:
            raise FlowError(f"Map state {name!r}: iterator: {exc}") from exc
        concurrency = state.get("MaxConcurrency", 0)
        if not isinstance(concurrency, int) or isinstance(concurrency, bool) or concurrency < 0:
            raise FlowError(f"Map state {name!r}: MaxConcurrency must be an int >= 0")
        if not state.get("End"):
            check_next()
    elif state_type == "Parallel":
        branches = state.get("Branches")
        if not isinstance(branches, list) or not branches:
            raise FlowError(f"Parallel state {name!r} requires a non-empty 'Branches' list")
        for index, branch in enumerate(branches):
            if not isinstance(branch, Mapping):
                raise FlowError(f"Parallel state {name!r}: branch {index} must be a flow")
            try:
                validate(branch)
            except FlowError as exc:
                raise FlowError(f"Parallel state {name!r}: branch {index}: {exc}") from exc
        if not state.get("End"):
            check_next()
    elif state_type == "Choice":
        choices = state.get("Choices")
        if not isinstance(choices, list) or not choices:
            raise FlowError(f"Choice state {name!r} requires a non-empty 'Choices' list")
        for index, choice in enumerate(choices):
            if not isinstance(choice, Mapping):
                raise FlowError(f"Choice state {name!r}: choice {index} must be a mapping")
            if "Variable" not in choice:
                raise FlowError(f"Choice state {name!r}: choice {index} lacks 'Variable'")
            comparators = [key for key in choice if key in _COMPARATORS]
            if len(comparators) != 1:
                raise FlowError(
                    f"Choice state {name!r}: choice {index} needs exactly one "
                    f"comparator of {_COMPARATORS}"
                )
            target = choice.get("Next")
            if target not in all_states:
                raise FlowError(f"Choice state {name!r}: choice {index} 'Next' unknown: {target!r}")
        default = state.get("Default")
        if default is not None and default not in all_states:
            raise FlowError(f"Choice state {name!r}: 'Default' unknown: {default!r}")
    elif state_type == "Wait":
        seconds = state.get("Seconds")
        if not isinstance(seconds, (int, float)) or isinstance(seconds, bool) or seconds < 0:
            raise FlowError(f"Wait state {name!r} requires non-negative 'Seconds'")
        if not state.get("End"):
            check_next()
    elif state_type == "Pass":
        if not state.get("End"):
            check_next()
    # Succeed/Fail are terminal and need nothing else.


def validate(definition: Mapping[str, Any]) -> None:
    """Validate a definition; raises :class:`FlowError` with a pointed message."""
    if not isinstance(definition, Mapping):
        raise FlowError("flow definition must be a mapping")
    states = definition.get("States")
    if not isinstance(states, Mapping) or not states:
        raise FlowError("flow requires a non-empty 'States' mapping")
    start = definition.get("StartAt")
    if start not in states:
        raise FlowError(f"'StartAt' ({start!r}) is not a state")
    for name, state in states.items():
        _check_state(name, state, states)
    # Reachability: warn-level issue promoted to an error (a dead state in
    # a flow definition is almost certainly a typo).
    reachable = set()
    frontier: List[str] = [start]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        state = states[name]
        for key in ("Next", "Default"):
            if isinstance(state.get(key), str):
                frontier.append(state[key])
        for choice in state.get("Choices", []) or []:
            if isinstance(choice.get("Next"), str):
                frontier.append(choice["Next"])
        catch = state.get("Catch")
        if isinstance(catch, Mapping) and isinstance(catch.get("Next"), str):
            frontier.append(catch["Next"])
    orphans = sorted(set(states) - reachable)
    if orphans:
        raise FlowError(f"unreachable states: {orphans}")
    # Termination: at least one terminal state must be reachable.
    terminal = [
        name
        for name in reachable
        if states[name]["Type"] in ("Succeed", "Fail") or states[name].get("End")
    ]
    if not terminal:
        raise FlowError("no reachable terminal state (Succeed/Fail/End)")


def resolve_ref(value: Any, document: Mapping[str, Any]) -> Any:
    """Resolve ``$.key`` / ``$.a.b`` references against the run document.

    Non-string values and strings not starting with ``$.`` pass through;
    mappings/lists are resolved recursively.
    """
    if isinstance(value, str) and value.startswith("$."):
        current: Any = document
        for part in value[2:].split("."):
            if not isinstance(current, Mapping) or part not in current:
                raise FlowError(f"reference {value!r} not found in run document")
            current = current[part]
        return current
    if isinstance(value, Mapping):
        return {key: resolve_ref(item, document) for key, item in value.items()}
    if isinstance(value, list):
        return [resolve_ref(item, document) for item in value]
    return value
