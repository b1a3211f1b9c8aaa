"""The seven workloads: how each drives the five stages, and what is checked.

Every workload is a function ``(ctx, run_dir) -> Sample`` that runs the
whole workflow once into a fresh ``run_dir`` and returns what the harness
measures from outside: wall seconds of the run, CPU seconds it cost, the
destination directories it filled, and the public report objects.

Load is batch, closed loop: all inputs are available at t=0; worker
processes / agent threads = ``ctx.workers`` (``min(2, nproc)``).
"""

from __future__ import annotations

import datetime as dt
import os
import resource
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro import netcdf
from repro.core import EOMLWorkflow, load_config
from repro.core.contracts import LABELLED_TILE_FILE
from repro.server import ControlPlaneClient, ControlPlaneServer, SiteAgent, execute_unit
from repro.util.digest import digest_file

from corpus import CORPUS_SEED, INSTRUMENT_NAME, START_DATE, ReplayArchive, Size

AGENT_POLL_INTERVAL = 0.02
AGENT_IDLE_EXIT_AFTER = 4


@dataclass
class Context:
    """What one measuring process shares across its repeats."""

    size: Size
    archive: ReplayArchive
    model_path: str
    workers: int            # min(2, nproc): pool processes / agent threads
    days: int               # corpus days used (fewer under --quick)
    per_day: int


@dataclass
class Sample:
    """One run of one workload, as seen from outside the program."""

    wall_s: float
    cpu_s: float
    wall_start: float                 # time.time() at run start
    destinations: List[str]
    units_attempted: int
    errors: List[str] = field(default_factory=list)   # every failed unit or check
    reports: List[Any] = field(default_factory=list)      # WorkflowReport(s)
    agent_stats: List[Any] = field(default_factory=list)  # AgentStats
    server_metrics: Optional[Dict[str, Any]] = None       # GET /v1/metrics
    final_runs: List[Any] = field(default_factory=list)   # RunSummary, with units
    # filled by measure():
    digests: Dict[str, str] = field(default_factory=dict)
    first_shipped_s: float = 0.0
    shipped_bytes: int = 0


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def raw_config(
    ctx: Context,
    run_dir: str,
    *,
    first_day: int = 0,
    days: Optional[int] = None,
    pool_workers: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """The workflow YAML (as a mapping) for ``days`` corpus days."""
    days = ctx.days if days is None else days
    start = START_DATE + dt.timedelta(days=first_day)
    end = start + dt.timedelta(days=days - 1)
    raw: Dict[str, Any] = {
        "name": "e2e-bench",
        "archive": {
            "instrument": INSTRUMENT_NAME,
            "start_date": start.isoformat(),
            "end_date": end.isoformat(),
            "max_granules_per_day": ctx.per_day,
            "seed": CORPUS_SEED,
        },
        "paths": {
            key: os.path.join(run_dir, key)
            for key in ("staging", "preprocessed", "transfer_out", "destination", "quarantine")
        },
        # One thread per stage: concurrency comes only from what a workload
        # is about (stream overlap, pool processes, agent threads).
        "download": {"workers": 1},
        "preprocess": {"workers": 1, "tile_size": ctx.size.tile_size},
        "inference": {"model_path": ctx.model_path, "poll_interval": 0.02},
        "journal": {"enabled": True, "durable": True, "dir": os.path.join(run_dir, "journal")},
        "runtime": {"workers": pool_workers},
    }
    if cache_dir is not None:
        raw["cache"] = {"enabled": True, "dir": cache_dir}
    return raw


def _report_units(report: Any) -> int:
    shipped = len(report.shipment.moved) if report.shipment is not None else 0
    return (
        report.download.files + len(report.preprocess.results)
        + len(report.inference) + shipped + 1  # + the model node
    )


def run_in_process(
    ctx: Context,
    run_dir: str,
    *,
    streaming: bool = False,
    pool_workers: int = 1,
    cache_dir: Optional[str] = None,
) -> Sample:
    """``EOMLWorkflow.run`` in this process (barrier, streaming or pooled)."""
    config = load_config(
        raw_config(ctx, run_dir, pool_workers=pool_workers, cache_dir=cache_dir)
    )
    workflow = EOMLWorkflow(config, archive=ctx.archive)
    cpu0, wall_start, t0 = cpu_seconds(), time.time(), time.perf_counter()
    report = workflow.run(provenance=False, streaming=streaming)
    wall_s, cpu_s = time.perf_counter() - t0, cpu_seconds() - cpu0
    errors = list(report.errors)
    if report.quarantined and not errors:
        errors.append(f"{report.quarantined} item(s) quarantined")
    if report.labelled_tiles != report.total_tiles:
        errors.append(
            f"labelled {report.labelled_tiles} of {report.total_tiles} tiles"
        )
    return Sample(
        wall_s=wall_s, cpu_s=cpu_s, wall_start=wall_start,
        destinations=[config.destination],
        units_attempted=_report_units(report), errors=errors, reports=[report],
    )


def run_agents(ctx: Context, run_dir: str, executor: Any = execute_unit) -> Sample:
    """One-day runs submitted up front to a control plane, drained by site
    agents over loopback HTTP.  Wall time is submit -> last completion.

    ``executor`` is ``SiteAgent``'s unit-execution hook; the traced pass
    wraps it to get one span per leased unit.
    """
    raws = [
        raw_config(ctx, os.path.join(run_dir, f"day{day:02d}"), first_day=day, days=1)
        for day in range(ctx.days)
    ]
    os.makedirs(run_dir, exist_ok=True)
    server = ControlPlaneServer(os.path.join(run_dir, "control-plane.db"))
    agents = [
        SiteAgent(ControlPlaneClient(server.url), name=f"agent-{index}",
                  site="bench", poll_interval=AGENT_POLL_INTERVAL, executor=executor)
        for index in range(ctx.workers)
    ]
    threads = [
        threading.Thread(
            target=agent.run, kwargs={"idle_exit_after": AGENT_IDLE_EXIT_AFTER},
            name=agent.name,
        )
        for agent in agents
    ]
    errors: List[str] = []
    server.start()
    try:
        client = ControlPlaneClient(server.url)
        cpu0, wall_start = cpu_seconds(), time.time()
        runs = [client.submit(raw, name=f"day{i:02d}") for i, raw in enumerate(raws)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu_s = cpu_seconds() - cpu0
        finals = [client.run(run.run_id) for run in runs]
        last = max(
            event["at"] for run in runs for event in client.events(run.run_id)
        )
        server_metrics = client.metrics()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        server.stop()
        server.store.close()
    units = sum(len(run.units) for run in finals)
    completed = sum(agent.stats.completed for agent in agents)
    errors.extend(
        f"run {run.name} ended {run.status}" for run in finals if run.status != "completed"
    )
    if completed != units:
        errors.append(f"agents completed {completed} of {units} units")
    for agent in agents:
        errors.extend(f"{key}: {text.splitlines()[-1]}" for key, text in agent.stats.errors.items())
    for run in finals:
        for unit in run.units:
            errors.extend(f"{run.name}/{unit.name}: {e}" for e in (unit.result or {}).get("errors", []))
    return Sample(
        wall_s=last - wall_start, cpu_s=cpu_s, wall_start=wall_start,
        destinations=[raw["paths"]["destination"] for raw in raws],
        units_attempted=units, errors=errors,
        agent_stats=[agent.stats for agent in agents],
        server_metrics=server_metrics, final_runs=finals,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    size: str                              # key into corpus.SIZES
    run: Callable[[Context, str], Sample]  # (ctx, run_dir)
    # Runs once before the timed repeats, after the reference run
    # (cache_warm fills its CAS here).
    prepare: Optional[Callable[[Context, str], Sample]] = None


def _cache_cold(ctx: Context, run_dir: str) -> Sample:
    return run_in_process(ctx, run_dir, cache_dir=os.path.join(run_dir, "cas"))


def _cache_warm(ctx: Context, run_dir: str) -> Sample:
    # One store beside the run directories, shared by every run of the invocation.
    return run_in_process(
        ctx, run_dir, cache_dir=os.path.join(os.path.dirname(run_dir), "warm-cas")
    )


# Why each exists is recorded in BENCHMARK.json and the README table.
# swath_pool2 always gets a real pool (runtime.workers >= 2 is what creates
# one); on a one-core machine its two workers time-share and the result says so.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("swath_serial", "paper", run_in_process),
        Workload("swath_stream", "paper", partial(run_in_process, streaming=True)),
        Workload("swath_pool2", "paper", partial(run_in_process, pool_workers=2)),
        Workload("small_units", "mini", run_in_process),
        Workload("cache_cold", "mini", _cache_cold),
        Workload("cache_warm", "mini", _cache_warm, prepare=_cache_warm),
        Workload("agents_wire", "mini", run_agents),
    )
}


# -- what is checked ----------------------------------------------------------


def _shipped_files(sample: Sample) -> List[str]:
    return sorted(
        os.path.join(root, name)
        for directory in sample.destinations
        for root, _dirs, files in os.walk(directory)
        for name in files
    )


def measure(sample: Sample, reference: Optional[Dict[str, str]]) -> Sample:
    """Read the destination trees of a finished run and check them.

    Against ``reference`` digests the check is byte identity; without (the
    reference run itself) every file is parsed and validated.  Problems
    are appended to ``sample.errors``.
    """
    first = None
    for path in _shipped_files(sample):
        name = os.path.basename(path)
        if name in sample.digests:
            sample.errors.append(f"{name} shipped to two destinations")
        sample.digests[name], nbytes = digest_file(path)
        sample.shipped_bytes += nbytes
        mtime = os.stat(path).st_mtime
        first = mtime if first is None else min(first, mtime)
    sample.first_shipped_s = (first - sample.wall_start) if first is not None else 0.0
    sample.errors.extend(
        check_structure(sample) if reference is None else check_against(sample, reference)
    )
    return sample


def check_structure(sample: Sample) -> List[str]:
    """Every shipped file parses and honours the labelled-tile contract."""
    problems: List[str] = []
    for path in _shipped_files(sample):
        name = os.path.basename(path)
        with open(path, "rb") as handle:
            dataset = netcdf.from_bytes(handle.read())
        try:
            LABELLED_TILE_FILE.validate(dataset)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if len(dataset["label"].data) != int(dataset.get_attr("num_tiles")[0]):
            problems.append(f"{name}: label column shorter than num_tiles")
    if not sample.digests:
        problems.append("nothing was shipped")
    return problems


def check_against(sample: Sample, reference: Dict[str, str]) -> List[str]:
    """The cross-driver invariant: the same files, byte for byte."""
    problems = [f"missing at destination: {n}" for n in sorted(set(reference) - set(sample.digests))]
    problems += [f"unexpected at destination: {n}" for n in sorted(set(sample.digests) - set(reference))]
    problems += [
        f"bytes differ from the reference run: {n}"
        for n in sorted(set(reference) & set(sample.digests))
        if reference[n] != sample.digests[n]
    ]
    return problems
