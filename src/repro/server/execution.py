"""Standalone execution of one plan node — the agent side of a lease.

The server hands an agent ``(run config, unit name)``; this module turns
that into real stage work by rebuilding the run's
:class:`~repro.runtime.plan.PipelinePlan` and driving exactly one node
of it.  Its edges are enforced by the *server* as barriers (a unit only
becomes leasable once its dependencies completed), so the local driver's
job is the node's immediate needs:

* a ``stream`` edge crosses processes as a token log: each unit saves
  the tokens it wrote on its outgoing channels, and its consumer's
  incoming channel is filled from that log before the body runs
  (:mod:`repro.server.wire`) — the hand-off a barrier edge makes in one
  process, where the consumer drains its producer's buffered stream;
* ``when`` gates are honoured; the plan is built in its streaming shape,
  since the server only leases a unit once its producers completed and
  so already holds every edge as a barrier;
* the run is opened through :func:`repro.core.context.open_run` — the
  same opener the local driver and the pool workers use — with
  ``resume=True`` every time, so a requeued or retried unit replays its
  history and every stage behaves as the idempotent journal consumer it
  already is — re-execution can never double-ship or corrupt artifacts.

Stage bodies still run through the :class:`~repro.runtime.executor.
StageExecutor` middleware stack (quarantine, journal, cache, chaos,
precheck, retry); nothing about *how* work executes changes when it is
driven remotely.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.core import EOMLWorkflow, load_config
from repro.core.config import EOMLConfig
from repro.core.context import open_run
from repro.runtime import STREAMS_KEY, PlanExecution, StageNode
from repro.server import wire

__all__ = ["LeaseLost", "unit_graph", "validate_remote_config", "execute_unit"]


class LeaseLost(RuntimeError):
    """The agent's lease was fenced away mid-execution: stand down.

    Raised from :func:`execute_unit` when its ``cancel`` event fires (a
    heartbeat learned the lease expired and the unit was requeued).  The
    agent treats it as a clean relinquish — no completion POST, no
    failure record — because the unit's new owner is authoritative and
    the journal makes that owner's re-execution byte-identical.
    """


def unit_graph(config: EOMLConfig) -> List[Tuple[str, List[str]]]:
    """The run's work-units: the plan's nodes, depending on their
    ``after`` and ``stream`` edges.

    Derived from the real :meth:`EOMLWorkflow.build_plan` (its streaming
    shape, whose only edges are the stream chain) so the control plane
    can never drift from the workflow's actual topology.  Nodes
    whose ``when`` gate is statically off (shipment with
    ``shipment.enabled: false``) are dropped, and edges into dropped
    nodes are dropped with them.
    """
    plan = EOMLWorkflow(config).build_plan(streaming=True)
    kept: List[Tuple[str, List[str]]] = []
    names: set = set()
    for node in plan.nodes:
        if node.when is not None and not node.when({}):
            continue
        names.add(node.name)
        deps = [dep for dep in (*node.after, *node.stream) if dep in names]
        kept.append((node.name, deps))
    return kept


def validate_remote_config(raw: Mapping[str, Any]) -> EOMLConfig:
    """Parse and vet a submitted config for remote execution.

    Remote runs need the journal: it is both the crash-consistency story
    (requeued units replay it) and the cross-unit hand-off point (the
    bootstrapped model and the token logs live in the journal directory).
    """
    config = load_config(dict(raw))
    if not config.journal_enabled:
        raise ValueError(
            "remote runs require journaling (journal.enabled: true): the "
            "journal directory carries cross-unit state and makes requeued "
            "work-units idempotent"
        )
    return config


def _rehydrate(
    node: StageNode,
    config: EOMLConfig,
    handles: Dict[str, Any],
    state: Dict[str, Any],
) -> None:
    """Load the dependency state this node's body actually reads.

    Each incoming stream channel is filled from its producer's token log
    and closed, so the body drains exactly the tokens the producer
    wrote — inference's carries the model's path and every tile file.
    Preprocess also skips the scenes the model unit already tiled: the
    bootstrap walks complete scenes in planned order, so what it
    consumed (its cursor) is a prefix of those.
    """
    tokens: List[Any] = []
    for src in node.stream:
        tokens = wire.tokens_from_wire(
            wire.load_state(config.journal_dir, src)["tokens"]
        )
        channel = state[STREAMS_KEY].channel(src, node.name)
        for token in tokens:
            channel.put(token)
        channel.close()
    if node.name == "preprocess":
        consumed = int(wire.load_state(config.journal_dir, "model")["consumed"])
        planned = next((t[1] for t in tokens if t[0] == "planned"), [])
        complete = {t[1] for t in tokens if t[0] == "scene" and t[2] is not None}
        handles["heads"] = dict.fromkeys(
            [key for key in planned if key in complete][:consumed]
        )


def _result_payload(unit: str, value: Any, handles: Dict[str, Any]) -> Dict[str, Any]:
    """The completion record POSTed back to the control plane.

    The model and preprocess units tile scenes, so their readers may
    fetch a granule again when the store can not deliver it; those
    bytes ride their records as ``refetched_bytes``.
    """
    if unit == "download":
        return {
            "files": value.files, "nbytes": value.nbytes,
            "skipped": value.skipped, "resumed": value.resumed,
            "cached": value.cached, "fetched_bytes": value.fetched_bytes,
            "scenes": len(value.granule_sets),
            "failed": len(value.failed), "incomplete": len(value.incomplete),
        }
    if unit == "model":
        return {
            "consumed": len(handles["heads"]),
            "refetched_bytes": handles["downloader"].refetched_bytes,
        }
    if unit == "preprocess":
        return {
            "tiles": value.total_tiles,
            "files": sum(1 for r in value.results if r.tile_path),
            "quarantined": len(value.quarantined),
            "refetched_bytes": handles["downloader"].refetched_bytes,
        }
    if unit == "inference":
        return {
            "files": len(value.results),
            "tiles": sum(r.tiles for r in value.results),
            "quarantined": len(value.quarantined),
            "errors": list(value.errors),
        }
    if unit == "shipment":
        return {
            "files": len(value.moved), "nbytes": value.nbytes,
            "retries": value.retries, "mismatches": len(value.mismatches),
            "deduped": value.deduped,
        }
    return {}


def execute_unit(
    raw_config: Mapping[str, Any],
    unit: str,
    chaos: Any = None,
    cancel: Any = None,
) -> Dict[str, Any]:
    """Run one work-unit of a submitted run to completion.

    Returns the result payload for the completion POST.  Raises on
    failure — the agent reports the exception as a failed unit.  The
    paths inside ``raw_config`` are taken literally: agents of one run
    must share the filesystem those paths live on (or be the only
    facility executing the stages that touch them).

    ``cancel`` is an optional ``threading.Event``-like object (anything
    with ``is_set()``): when the agent's heartbeat thread learns the
    lease was fenced away, it fires the event and the execution raises
    :class:`LeaseLost` at the next checkpoint instead of racing the
    unit's new owner through the publish path.
    """

    def _check_cancel(where: str) -> None:
        if cancel is not None and cancel.is_set():
            raise LeaseLost(f"lease fenced away ({where}); standing down")

    _check_cancel("before start")
    config = validate_remote_config(raw_config)
    # Same wiring as the local path (a chaos: section in the submitted
    # config drives the stage fault surfaces remotely too), and always
    # resume: a fresh run directory replays an empty journal, a requeued
    # unit replays its own half-finished history.  Co-located agents
    # (shared filesystem) dedupe into one CAS object space; an agent on
    # its own filesystem simply opens an empty store there and every
    # lookup misses — the stages fall back to a real fetch, which is
    # exactly the non-cached path.
    ctx = open_run(config, resume=True, chaos=chaos)
    try:
        handles: Dict[str, Any] = {}
        plan = EOMLWorkflow(config).build_plan(ctx, handles=handles, streaming=True)
        node = plan.node(unit)
        # Unbounded channels (no stream config): the unit's inputs are
        # filled from its producers' token logs, its outputs become its
        # own.
        state: Dict[str, Any] = {}
        hub = PlanExecution(plan, state=state).hub
        _rehydrate(node, config, handles, state)
        if node.when is not None and not node.when(state):
            return {"skipped": True}
        _check_cancel("before node body")
        value = node.run(state)
        hub.close_outputs(unit)
        # The fencing checkpoint that matters most: the body finished but
        # nothing is published to the control plane yet.  If the lease was
        # lost while computing, stop here — the journal keeps the local
        # work for whoever re-executes, and the new owner's POST is the
        # only one the server will accept anyway.
        _check_cancel("after node body")
        result = _result_payload(unit, value, handles)
        # The token log is saved under the unit name; the model's carries
        # its record too (preprocess reads the bootstrap cursor from it).
        outgoing = [dst for src, dst in plan.stream_edges() if src == unit]
        if outgoing:
            log = dict(result) if unit == "model" else {}
            log["tokens"] = wire.tokens_to_wire(hub.channel(unit, outgoing[0]))
            wire.save_state(config.journal_dir, unit, log)
        return result
    finally:
        ctx.close()
