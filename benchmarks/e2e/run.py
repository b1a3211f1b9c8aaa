#!/usr/bin/env python3
"""End-to-end benchmark of the five-stage workflow: one command, every metric.

    python3 benchmarks/e2e/run.py --workload swath_serial --seed 7 --seconds 8 --trace 0
    python3 benchmarks/e2e/run.py                   # every workload, then the traced pass
    python3 benchmarks/e2e/run.py --quick --only small_units

One invocation measures one workload.  The parent process picks a work
directory, makes sure the input corpus exists, and starts one measuring
child with a pinned environment; the child sets up (trains the model for
``--seed``), runs the reference driver once (warm-up, and the digests every
later run must reproduce), then repeats the workload for ``--seconds``.
The last line of standard output is the result object of BENCHMARK.json's
contract; a fuller record goes to ``--out`` for ``compare.py``.

See README.md in this directory for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CACHE_ROOT = os.path.join(HERE, ".cache")
DEFAULT_OUT = os.path.join(HERE, ".out")
DEFAULT_SEED = 2024
MIN_REPEATS = 3
SETUP_SAMPLES = 3
WORKDIR_PREFIX = "eoml-e2e-"
MIN_FREE_BYTES = 2 * 1024**3
EXIT_STALE_CORPUS = 3

# The measuring child's environment.  One BLAS thread, so a stage thread or
# pool worker is one core and two of them do not oversubscribe two cores.
# The malloc settings keep freed memory in the process (one arena, no mmap,
# no trimming): with glibc's defaults a paper-size run took 410 k page
# faults and 1.9-5.1 s of *system* time here against a steady 1.6 s of user
# time, so the benchmark would have measured the VM's page-fault cost.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(16 * 1024**3),
    "MALLOC_TOP_PAD_": str(256 * 1024**2),
    "PYTHONHASHSEED": "0",
}

# -- where the run directories live -------------------------------------------


def _filesystem_type(path: str) -> str:
    """The filesystem type ``path`` is on, from /proc/mounts (longest match)."""
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _device, mount, kind = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (path + "/").startswith(prefix) and len(mount) > len(best):
                    best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def choose_workdir_root(requested: Optional[str]) -> str:
    """Memory-backed storage when there is some, else the checkout.

    On a disk the same run took 1.4-4.7 s here (writeback and discard of
    the previous run's files); on tmpfs 1.4-1.6 s.  Durable-write cost is
    reported by the per-layer rows instead (``journal.append_durable_us``,
    ``io.fsync_count``).
    """
    if requested:
        os.makedirs(requested, exist_ok=True)
        return requested
    shm = "/dev/shm"
    if (
        _filesystem_type(shm) == "tmpfs"
        and os.access(shm, os.W_OK)
        and shutil.disk_usage(shm).free >= 2 * MIN_FREE_BYTES
    ):
        return shm
    local = os.path.join(HERE, ".work")
    os.makedirs(local, exist_ok=True)
    return local


def sweep_stale_workdirs(root: str) -> None:
    """Remove work directories whose owning process is gone (a killed run)."""
    for name in os.listdir(root):
        if not name.startswith(WORKDIR_PREFIX):
            continue
        try:
            pid = int(name[len(WORKDIR_PREFIX):].split("-")[0])
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
        except (ValueError, PermissionError):
            continue


# -- the measuring child --------------------------------------------------------


def _vm_hwm_kb() -> Optional[int]:
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _reset_peak_rss() -> bool:
    """Restart this process's peak-RSS watermark, so set-up does not count.

    The pinned malloc never trims on its own, so the heap that training
    grew is handed back explicitly first.
    """
    try:
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
        malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
        malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w", encoding="utf-8") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(reset_ok: bool) -> float:
    own_kb = _vm_hwm_kb() if reset_ok else None
    if own_kb is None:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def _summary(values: List[float]) -> Dict[str, Any]:
    return {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values),
    }


def child_main(params: Dict[str, Any]) -> int:
    """Set up, run the reference, repeat the workload, verify; write the result."""
    import_started = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import corpus
    import workloads as wl

    import_s = time.perf_counter() - import_started

    workload = wl.WORKLOADS[params["workload"]]
    size = corpus.SIZES[workload.size]
    work = params["workdir"]
    quick, seed, trace = params["quick"], params["seed"], params["trace"]
    try:
        manifest = corpus.load_manifest(CACHE_ROOT)
    except (FileNotFoundError, ValueError) as exc:
        print(f"corpus unusable ({exc}); rebuilding", file=sys.stderr)
        return EXIT_STALE_CORPUS
    pool_dir = os.path.join(corpus.corpus_dir(CACHE_ROOT), size.name)
    nproc = os.cpu_count() or 1

    # Set-up: train and save this seed's model, several times over; the
    # median sample plus the interpreter's import time is ``setup_s``.
    setup_samples: List[float] = []
    model_path = ""
    for index in range(1 if quick else SETUP_SAMPLES):
        model_path = os.path.join(work, f"model-{index}.npz")
        started = time.perf_counter()
        corpus.train_model(size, pool_dir, seed, model_path)
        setup_samples.append(time.perf_counter() - started)
        if index:
            os.remove(os.path.join(work, f"model-{index - 1}.npz"))
    setup_s = import_s + statistics.median(setup_samples)

    ctx = wl.Context(
        size=size,
        archive=corpus.register_replay(pool_dir, size),
        model_path=model_path,
        workers=min(2, nproc),
        days=max(1, size.days // 2) if quick else size.days,
        per_day=max(1, size.per_day // 2) if quick else size.per_day,
    )
    problems: List[str] = []
    attempted = [0]     # work units over every run, timed or not

    def one_run(driver, label: str, reference: Optional[Dict[str, str]]) -> wl.Sample:
        """Run once into a fresh directory, check what it shipped, clean up."""
        run_dir = os.path.join(work, label)
        gc.collect()
        try:
            sample = wl.measure(driver(ctx, run_dir), reference)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        problems.extend(f"{label}: {problem}" for problem in sample.errors)
        attempted[0] += sample.units_attempted
        print(f"{label}: wall {sample.wall_s:.3f} s, cpu {sample.cpu_s:.3f} s, "
              f"first shipped {sample.first_shipped_s:.3f} s", file=sys.stderr)
        return sample

    # The reference: the plain in-process barrier driver, journal on, cache
    # off.  Its shipped bytes are what every driver must reproduce.
    reference = one_run(wl.run_in_process, "reference", None)
    reference_digests = reference.digests
    scenes = len(reference_digests)
    expected_digests = "not-checked"    # only the default seed at full size is on file
    if seed == DEFAULT_SEED and not quick:
        with open(os.path.join(HERE, "expected_digests.json"), encoding="utf-8") as handle:
            on_file = json.load(handle)[size.name]
        expected_digests = "match" if on_file == reference_digests else "differ"
        if expected_digests == "differ":
            print("warning: shipped bytes differ from expected_digests.json "
                  "(see README: float kernels differ between CPUs)", file=sys.stderr)
    tiles = sum(report.total_tiles for report in reference.reports)
    if workload.prepare is not None:
        one_run(workload.prepare, "prepare", reference_digests)

    # Peak RSS counts from here; then one untimed run of the workload itself,
    # so the first timed run does not pay for growing the heap.
    gc.collect()
    rss_reset = _reset_peak_rss()
    one_run(workload.run, "warm-up", reference_digests)
    samples: List[wl.Sample] = []
    budget = 0.0 if quick else float(params["seconds"]) * (0.5 if trace else 1.0)
    least = 2 if (quick or trace) else MIN_REPEATS
    loop_started = time.perf_counter()
    while True:
        sample = one_run(workload.run, f"run-{len(samples):02d}", reference_digests)
        sample.reports = []
        samples.append(sample)
        # Stop when another repeat would not fit into the budget.
        spent = time.perf_counter() - loop_started
        if len(samples) >= least and spent + spent / len(samples) > budget:
            break
    peak_rss_mb = _peak_rss_mb(rss_reset)

    walls = [s.wall_s for s in samples]
    end_to_end = {
        "setup_s": setup_s,
        "scenes_per_s": scenes / statistics.median(walls),
        "first_shipped_s": statistics.median(s.first_shipped_s for s in samples),
        "cpu_s_per_scene": statistics.median(s.cpu_s for s in samples) / scenes,
        "peak_rss_mb": peak_rss_mb,
    }
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "nproc": nproc,
        "workers": ctx.workers,
        "workdir_fs": params["workdir_fs"],
        "rss_reset": rss_reset,
        "pinned_env": PINNED_ENV,
        "corpus_seed": manifest["corpus_seed"],
        "scenes": scenes,
        "tiles": tiles,
        "attempted": attempted[0],
        "failed": len(problems),
        "problems": problems,
        "end_to_end": end_to_end,
        "samples": {
            "wall_s": _summary(walls),
            "scenes_per_s": _summary([scenes / w for w in walls]),
            "first_shipped_s": _summary([s.first_shipped_s for s in samples]),
            "cpu_s_per_scene": _summary([s.cpu_s / scenes for s in samples]),
            "setup_s": _summary([import_s + s for s in setup_samples]),
        },
        "derived": {
            "tiles_per_s": tiles / statistics.median(walls),
            "shipped_mb_per_s": reference.shipped_bytes / 1e6 / statistics.median(walls),
        },
        "import_s": import_s,
        "reference_digests": reference_digests,
        "expected_digests": expected_digests,
    }
    if trace:
        import ledger

        result["per_layer"], result["spans"], traced_problems = ledger.traced_pass(
            ctx, workload, work, reference_digests,
            untraced_wall_s=statistics.median(walls),
            setup={"bootstrap_s": statistics.median(setup_samples),
                   "generate_granule_s": manifest["generate_granule_s"]},
            cache_root=CACHE_ROOT, names=sorted(declared_metrics()["per_layer"]),
        )
        problems.extend(f"traced: {problem}" for problem in traced_problems)
        problems.extend(f"trace: {problem}" for problem in ledger.check_spans(result["spans"]))
        result["failed"] = len(problems)
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# -- the parent -----------------------------------------------------------------


def _run_python(args: List[str], env: Dict[str, str]) -> int:
    """Run a python child in its own process group; never leave it behind."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *args],
        env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        return child.wait()
    finally:
        # The child, if we are leaving early, and any straggler of its group
        # (pool workers of a child that died).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def build_corpus_main() -> int:
    sys.path[:0] = [SRC, HERE]
    import corpus

    started = time.perf_counter()
    shutil.rmtree(corpus.corpus_dir(CACHE_ROOT), ignore_errors=True)
    os.makedirs(CACHE_ROOT, exist_ok=True)
    summary = corpus.build_corpus(CACHE_ROOT, min(2, os.cpu_count() or 1))
    print(
        f"corpus: {summary['granules']} granules generated in "
        f"{time.perf_counter() - started:.1f} s wall "
        f"({summary['generate_granule_s']:.1f} s in generate_granule)",
        file=sys.stderr,
    )
    return 0


def run_workload(args: argparse.Namespace, name: str, trace: int) -> Dict[str, Any]:
    """One workload, one child; returns the child's result record."""
    root = choose_workdir_root(args.workdir)
    sweep_stale_workdirs(root)
    free = shutil.disk_usage(root).free
    if free < MIN_FREE_BYTES:
        raise SystemExit(
            f"work directory {root} has {free / 1e9:.1f} GB free; "
            f"{MIN_FREE_BYTES / 1e9:.0f} GB are needed"
        )
    work = tempfile.mkdtemp(prefix=f"{WORKDIR_PREFIX}{os.getpid()}-", dir=root)
    env = dict(os.environ, **PINNED_ENV)
    params = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "quick": args.quick, "workdir": work,
        "workdir_fs": _filesystem_type(work),
    }
    try:
        code = _run_python(["--child", json.dumps(params)], env)
        if code == EXIT_STALE_CORPUS:   # first run in this checkout, or a damaged corpus
            if _run_python(["--build-corpus"], env):
                raise SystemExit("corpus build failed")
            code = _run_python(["--child", json.dumps(params)], env)
        if code:
            raise SystemExit(f"measuring child for {name} exited with code {code}")
        with open(os.path.join(work, "result.json"), encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def contract_object(record: Dict[str, Any], trace: int) -> Dict[str, Any]:
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    values = record["per_layer"] if trace else record["end_to_end"]
    if set(declared) != set(values):
        raise SystemExit(
            f"BENCHMARK.json and the harness disagree on metric names: "
            f"{sorted(set(declared) ^ set(values))}"
        )
    return {
        "correct": not record["problems"],
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in declared.items()
        },
    }


def print_record(record: Dict[str, Any], trace: int) -> None:
    print(
        f"# {record['workload']}: seed {record['seed']}, {record['scenes']} scenes, "
        f"{record['tiles']} tiles, n={record['samples']['wall_s']['n']} runs, "
        f"workdir on {record['workdir_fs']}, nproc {record['nproc']}, "
        f"workers {record['workers']}"
    )
    units = declared_metrics()
    for name, unit in units["end_to_end"].items():
        spread = record["samples"].get(name)
        detail = (
            f"  (min {spread['min']:.4g}, max {spread['max']:.4g}, n {spread['n']})"
            if spread else ""
        )
        print(f"{name:32s} {record['end_to_end'][name]:14.6g} {unit}{detail}")
    for name, value in record["derived"].items():
        print(f"derived.{name:24s} {value:14.6g}")
    if trace:
        for name in sorted(record["per_layer"]):
            print(f"{name:32s} {record['per_layer'][name]:14.6g} {units['per_layer'].get(name, '')}")
    print(f"expected_digests: {record['expected_digests']}")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")


def save_record(out_dir: str, record: Dict[str, Any], trace: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    spans = record.pop("spans", None)
    suffix = "-traced" if trace else ""
    with open(os.path.join(out_dir, f"{record['workload']}{suffix}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(out_dir, f"{record['workload']}-trace.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(spans, handle)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--only", dest="workload", default=None,
                        help="one workload (default: all of them, then their traced passes)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed repeats last (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1),
                        help="1: per-layer metrics from the traced pass; 0: end-to-end metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: quarter-size inputs, two repeats, no steady numbers")
    parser.add_argument("--workdir", default=None,
                        help="where run directories go (default: /dev/shm if tmpfs, else the checkout)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for the result and trace files")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--build-corpus", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.child is not None:
        return child_main(json.loads(args.child))
    if args.build_corpus:
        return build_corpus_main()

    # Turn SIGTERM into an exception so every ``finally`` (child kill,
    # work-directory removal) runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
            return 2
        trace = args.trace or 0
        record = run_workload(args, args.workload, trace)
        last = contract_object(record, trace)
        print_record(record, trace)
        save_record(args.out, record, trace)
        print(json.dumps(last))
        return 0 if last["correct"] else 1

    # Every workload: untimed-by-trace numbers first, then (unless --trace 0)
    # the traced pass of each.
    correct = True
    records: Dict[str, Dict[str, Any]] = {}
    for trace in ((0,) if args.trace == 0 else (0, 1)):
        for name in names:
            record = run_workload(args, name, trace)
            correct &= contract_object(record, trace)["correct"]
            print_record(record, trace)
            save_record(args.out, record, trace)
            if not trace:
                records[name] = record
    serial, pool2 = records.get("swath_serial"), records.get("swath_pool2")
    if serial and pool2:
        efficiency = pool2["end_to_end"]["scenes_per_s"] / (2 * serial["end_to_end"]["scenes_per_s"])
        print(f"derived.scaling_efficiency         {efficiency:14.6g}  "
              f"(swath_pool2 / (2 x swath_serial))")
    print(f"results written to {args.out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
