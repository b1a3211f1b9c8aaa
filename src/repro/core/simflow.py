"""The simulated end-to-end EO-ML workflow (Figs. 6 and 7).

Wires every simulated substrate together the way Fig. 2 draws the system:

* LAADS HTTPS server + Globus-Compute download endpoint (3 workers),
* the download barrier, then Parsl-over-Slurm preprocessing on Defiant
  (32 workers across 4 nodes by default),
* an asynchronous monitor process that crawls the Lustre namespace and
  triggers a Globus Flow per batch of fresh tile files,
* the flow runs inference on a single-worker compute endpoint and moves
  labelled files to the transfer-out directory,
* Globus Transfer ships everything to Frontier's Orion.

The run returns the Fig. 6 worker-gauge timeline, the Fig. 7 stage spans
and flow-hop latency, and full event logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.flows import FlowsEngine
from repro.hpc import Facility, build_defiant, build_frontier
from repro.net import HttpServer, WanLink
from repro.compute import SimComputeEndpoint
from repro.pexec import SimHtexExecutor, SimTaskSpec
from repro.sim import Simulation, Tracer
from repro.transfer import SimTransferClient, TransferTask
from repro.util.logging import EventLog

__all__ = ["SimWorkflowParams", "SimWorkflowResult", "SimulatedEOMLWorkflow"]


@dataclass(frozen=True)
class SimWorkflowParams:
    """Knobs for the simulated day-slice run (defaults follow the paper's
    Fig. 6 demonstration: 3 download workers, 32 preprocess workers, 1
    inference worker)."""

    num_granule_sets: int = 24
    download_workers: int = 3
    preprocess_nodes: int = 4
    workers_per_node: int = 8
    inference_workers: int = 1
    tiles_per_file: int = 150
    base_tile_rate: float = 10.52          # tiles/s on one uncontended worker
    granule_set_bytes: int = 202_000_000   # MOD02+MOD03+MOD06 ~ (32+8.4+18)GB/288
    tile_file_bytes: int = 40_000_000
    download_launch_latency: float = 5.63  # Fig. 7: GC launch + LAADS connect + listing
    parsl_start_latency: float = 0.8
    slurm_alloc_latency: float = 1.5
    flow_action_latency: float = 0.05      # Fig. 7: ~50 ms
    inference_seconds_per_file: float = 0.35
    monitor_poll_interval: float = 1.0
    wan_bandwidth: float = 12.5e9
    seed: int = 0
    # Failure injection (0.0 = the paper's healthy-run scenario).
    download_failure_rate: float = 0.0
    download_max_retries: int = 5
    preprocess_failure_rate: float = 0.0
    preprocess_max_retries: int = 5
    # Demand-driven block scale-out (Fig. 6's adaptive allocation) instead
    # of one static block of preprocess_nodes.
    elastic: bool = False


@dataclass
class SimWorkflowResult:
    """Artifacts of one simulated end-to-end run."""

    makespan: float
    tracer: Tracer
    stage_spans: Dict[str, tuple]          # stage -> (start, end)
    flow_hop_latency: float
    tiles: int
    files_shipped: int
    transfer: Optional[TransferTask]
    log: EventLog
    flow_runs: int = 0
    stage_gaps: Dict[str, float] = field(default_factory=dict)


class SimulatedEOMLWorkflow:
    """Builds and runs the full simulated pipeline on one Simulation."""

    def __init__(self, params: Optional[SimWorkflowParams] = None):
        self.params = params or SimWorkflowParams()

    def run(self) -> SimWorkflowResult:
        p = self.params
        sim = Simulation()
        log = EventLog()
        tracer = Tracer()

        defiant: Facility = build_defiant(sim, log=log, allocation_latency=p.slurm_alloc_latency)
        frontier: Facility = build_frontier(sim, log=log)
        laads = HttpServer(
            sim, log=log, failure_rate=p.download_failure_rate, seed=p.seed
        )
        link = WanLink(sim, "defiant", "frontier", bandwidth=p.wan_bandwidth, latency=0.01)
        transfer = SimTransferClient(
            sim,
            endpoints={"defiant": defiant.filesystem, "frontier": frontier.filesystem},
            links={("defiant", "frontier"): link},
        )
        download_ep = SimComputeEndpoint(
            sim, "download", max_workers=p.download_workers,
            startup_latency=0.0, task_overhead=0.05, tracer=tracer,
            gauge="workers:download", log=log,
        )
        preprocess = SimHtexExecutor(
            sim, defiant, workers_per_node=p.workers_per_node, tracer=tracer,
            gauge="workers:preprocess", seed=p.seed, log=log, label="preprocess",
            task_failure_rate=p.preprocess_failure_rate,
            max_task_retries=p.preprocess_max_retries,
        )
        inference_ep = SimComputeEndpoint(
            sim, "inference", max_workers=p.inference_workers,
            startup_latency=0.0, task_overhead=0.0, tracer=tracer,
            gauge="workers:inference", log=log,
        )

        flows = FlowsEngine(sim, action_latency=p.flow_action_latency, log=log)
        state = {
            "labelled": [],        # tile files that finished inference
            "flow_runs": 0,
            "spans": {},
            "transfer_task": None,
        }

        def infer_action(engine: FlowsEngine, params: dict):
            """Flow action: run inference for a batch of tile files."""
            paths = params["paths"]

            def task(ctx, path):
                yield ctx.sim.timeout(p.inference_seconds_per_file)
                return path

            futures = [inference_ep.submit(task, path) for path in paths]
            return sim.all_of(futures)

        def move_action(engine: FlowsEngine, params: dict):
            """Flow action: rename labelled files into the transfer-out dir
            (a metadata move, no data traffic — same filesystem)."""
            for path in params["paths"]:
                entry = defiant.filesystem.entry(path)
                out_path = path.replace("/preproc/", "/outbox/")
                entry.path = out_path
                defiant.filesystem.files[out_path] = entry
                del defiant.filesystem.files[path]
                state["labelled"].append(out_path)
            return len(params["paths"])

        flows.register_provider("infer", infer_action)
        flows.register_provider("move", move_action)

        inference_flow = {
            "StartAt": "Infer",
            "States": {
                "Infer": {
                    "Type": "Action", "ActionUrl": "infer",
                    "Parameters": {"paths": "$.paths"}, "ResultPath": "inferred",
                    "Next": "Move",
                },
                "Move": {
                    "Type": "Action", "ActionUrl": "move",
                    "Parameters": {"paths": "$.paths"}, "ResultPath": "moved",
                    "Next": "Done",
                },
                "Done": {"Type": "Succeed"},
            },
        }

        preprocess_done = sim.event()
        all_inferred = sim.event()
        finished = sim.event()
        hop_latencies: List[float] = []

        def download_task(ctx, index):
            attempts = 0
            while True:
                attempts += 1
                try:
                    result = yield laads.request(p.granule_set_bytes, label=f"set{index}")
                    break
                except Exception as exc:  # noqa: BLE001 - HttpError retried
                    if attempts > p.download_max_retries:
                        raise RuntimeError(
                            f"set{index} failed after {attempts} attempts: {exc}"
                        ) from exc
            yield defiant.filesystem.write(f"/staging/set{index}", p.granule_set_bytes)
            return result

        def driver() -> Generator:
            # (1) Download: Globus Compute launch + LAADS connection +
            # file-list configuration (Fig. 7's 5.63 s), then the pulls.
            state["spans"]["download_launch"] = (sim.now, sim.now + p.download_launch_latency)
            yield sim.timeout(p.download_launch_latency)
            dl_start = sim.now
            futures = [download_ep.submit(download_task, i) for i in range(p.num_granule_sets)]
            yield sim.all_of(futures)
            state["spans"]["download"] = (dl_start, sim.now)

            # (2) The barrier held: now preprocess.
            pre_start = sim.now
            yield sim.timeout(p.parsl_start_latency)  # Parsl DFK startup
            specs = [
                SimTaskSpec(
                    label=f"set{i}",
                    base_duration=p.tiles_per_file / p.base_tile_rate,
                    tiles=p.tiles_per_file,
                    output_bytes=p.tile_file_bytes,
                )
                for i in range(p.num_granule_sets)
            ]
            events = preprocess.submit_all(specs)
            if p.elastic:
                from repro.pexec import ElasticStrategy

                strategy = ElasticStrategy(
                    sim, preprocess, nodes_per_block=1,
                    max_blocks=p.preprocess_nodes, poll_interval=1.0,
                )
                strategy.start()
                yield sim.all_of(events)
                strategy.stop()
            else:
                preprocess.scale_out(num_nodes=p.preprocess_nodes)
                yield sim.all_of(events)
            state["spans"]["preprocess"] = (pre_start, sim.now)
            preprocess_done.succeed(None)

        def monitor() -> Generator:
            # (3) The asynchronous crawler: new closed files under /preproc
            # trigger one Flow per batch.
            last_seen = 0.0
            processed = 0
            pending_flows: List = []
            inf_started = None
            while True:
                fresh = defiant.filesystem.created_since("/preproc/", last_seen)
                if fresh:
                    last_seen = max(entry.closed_at for entry in fresh)
                    paths = [entry.path for entry in fresh]
                    processed += len(paths)
                    if inf_started is None:
                        inf_started = sim.now
                    run = flows.run(inference_flow, {"paths": paths})
                    state["flow_runs"] += 1
                    pending_flows.append(run)
                if preprocess_done.triggered and processed >= p.num_granule_sets:
                    break
                yield sim.timeout(p.monitor_poll_interval)
            for run in pending_flows:
                if not run.done.triggered:
                    yield run.done
                for record in run.history:
                    if record.state_type in ("Succeed", "Pass") and record.exited_at is not None:
                        hop_latencies.append(record.duration)
            state["spans"]["inference"] = (
                inf_started if inf_started is not None else sim.now,
                sim.now,
            )
            all_inferred.succeed(None)

        def shipper() -> Generator:
            # (5) Ship labelled files to Orion once inference completes.
            yield all_inferred
            ship_start = sim.now
            pairs = [
                (path, path.replace("/outbox/", "/orion/")) for path in state["labelled"]
            ]
            task = transfer.submit("defiant", "frontier", pairs, label="shipment")
            state["transfer_task"] = task
            yield task.done
            state["spans"]["shipment"] = (ship_start, sim.now)
            finished.succeed(None)

        sim.process(driver(), name="driver")
        sim.process(monitor(), name="monitor")
        sim.process(shipper(), name="shipper")
        sim.run(stop=finished)

        return SimWorkflowResult(
            makespan=sim.now,
            tracer=tracer,
            stage_spans=dict(state["spans"]),
            flow_hop_latency=(
                sum(hop_latencies) / len(hop_latencies) if hop_latencies else 0.0
            ),
            tiles=sum(result.tiles for result in preprocess.results),
            files_shipped=len(state["labelled"]),
            transfer=state["transfer_task"],
            log=log,
            flow_runs=state["flow_runs"],
            stage_gaps=_gaps(state["spans"]),
        )


def _gaps(spans: Dict[str, tuple]) -> Dict[str, float]:
    """Inter-stage gaps in Fig. 7's chain order."""
    order = ["download_launch", "download", "preprocess", "inference", "shipment"]
    gaps: Dict[str, float] = {}
    previous = None
    for stage in order:
        if stage not in spans:
            continue
        if previous is not None:
            gaps[f"{previous}->{stage}"] = max(0.0, spans[stage][0] - spans[previous][1])
        previous = stage
    return gaps
