"""Subprocess driver for the kill-and-resume harness.

Runs the real five-stage workflow in its own process so an injected
``crash`` fault (``os._exit``) kills a *whole process*, exactly like a
Slurm preemption — then the harness launches this driver again with
``--resume`` and checks the delivered corpus.

Usage:
    python crash_driver.py ROOT [--crash-stage STAGE] [--resume]

Prints ``key=value`` lines the harness parses.
"""

import argparse
import os
import sys


def build_raw_config(root: str, granules: int) -> dict:
    return {
        "archive": {
            "start_date": "2022-01-01",
            "max_granules_per_day": granules,
            "seed": 3,
        },
        "paths": {
            "staging": os.path.join(root, "data", "raw"),
            "preprocessed": os.path.join(root, "data", "tiles"),
            "transfer_out": os.path.join(root, "data", "outbox"),
            "destination": os.path.join(root, "data", "orion"),
            "quarantine": os.path.join(root, "data", "quarantine"),
        },
        "download": {"workers": 2},
        "preprocess": {"workers": 2},
        "inference": {"workers": 1},
        "journal": {"dir": os.path.join(root, "data", "journal")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", help="run directory (all paths live under it)")
    parser.add_argument("--crash-stage", default=None,
                        help="inject a seeded crash fault at this stage")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--granules", type=int, default=2)
    parser.add_argument("--streaming", action="store_true",
                        help="run the streaming plan (no download barrier)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run stages across N worker processes")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="enable the content-addressed cache rooted at DIR")
    args = parser.parse_args()

    from repro.core import EOMLWorkflow, load_config
    from repro.modis import MINI_SWATH, LaadsArchive

    raw = build_raw_config(args.root, args.granules)
    runtime = {}
    if args.streaming:
        runtime["stream"] = {"enabled": True}
    if args.workers is not None:
        runtime["workers"] = args.workers
    if runtime:
        raw["runtime"] = runtime
    if args.cache:
        raw["cache"] = {"enabled": True, "dir": args.cache}
    if args.crash_stage:
        raw["chaos"] = {
            "seed": 0,
            "faults": [{"stage": args.crash_stage, "kind": "crash"}],
        }
    config = load_config(raw)
    workflow = EOMLWorkflow(config, archive=LaadsArchive(seed=3, swath=MINI_SWATH))
    report = workflow.run(provenance=False, resume=args.resume)

    shipped = len(report.shipment.moved) if report.shipment else 0
    fetched = report.download.files - report.download.skipped - report.download.resumed
    print(f"fetched={fetched}")
    print(f"resumed_downloads={report.download.resumed}")
    print(f"resumed_items={report.resumed_items}")
    print(f"replayed_items={report.replayed_items}")
    print(f"manifest_mismatches={report.manifest_mismatches}")
    print(f"shipped={shipped}")
    print(f"errors={len(report.errors)}")
    print(f"pool_units={report.scaleout['units_executed']}")
    print(f"pool_requeues={report.scaleout['requeues']}")
    print(f"pool_workers={report.scaleout['workers_launched']}")
    print(f"cache_hits={report.cache['hits']}")
    print(f"cache_stores={report.cache['stores']}")
    print(f"download_cached={report.cache['download_cached']}")
    print(f"inference_cached={report.cache['inference_cached']}")
    print(f"fetched_bytes={report.cache['fetched_bytes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
