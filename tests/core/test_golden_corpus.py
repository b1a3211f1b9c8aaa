"""Golden-corpus equivalence: the refactor must not move a byte.

``golden_corpus.json`` pins the SHA-256 of every file a fixed-seed
end-to-end run ships to the destination.  Any change to the stage
internals — including re-expressing them over the unified runtime — must
leave this corpus byte-identical; a legitimate numerical change must
regenerate the fixture *deliberately* (see the header it carries).
"""

import hashlib
import json
import os

import pytest

from tests.core.crash_driver import build_raw_config

from repro.core import EOMLWorkflow, load_config
from repro.modis import MINI_SWATH, LaadsArchive

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_corpus.json")


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def delivered(config):
    return {
        name: sha256_file(os.path.join(config.destination, name))
        for name in sorted(os.listdir(config.destination))
    }


# The five-stage graph as (name, after, overlaps, stream) rows: one
# stream chain, with inference started alongside preprocess.
PLAN = [
    ("download", (), (), ()),
    ("model", (), (), ("download",)),
    ("preprocess", (), (), ("model",)),
    ("inference", (), ("preprocess",), ("preprocess",)),
    ("shipment", (), (), ("inference",)),
]


def topology(plan):
    return [(n.name, n.after, n.overlaps, n.stream) for n in plan.nodes]


class TestPlanTopology:
    """One graph, whichever runner a config picks."""

    @pytest.mark.parametrize("stream_enabled", [False, True])
    def test_plan_is_the_five_stage_table(self, stream_enabled, tmp_path):
        raw = build_raw_config(str(tmp_path), 1)
        raw["runtime"] = {"stream": {"enabled": stream_enabled}}
        assert topology(EOMLWorkflow(load_config(raw)).build_plan()) == PLAN


def test_fixed_seed_run_ships_the_golden_corpus(tmp_path):
    with open(GOLDEN) as handle:
        golden = json.load(handle)

    config = load_config(build_raw_config(str(tmp_path), golden["granules"]))
    workflow = EOMLWorkflow(
        config, archive=LaadsArchive(seed=golden["seed"], swath=MINI_SWATH)
    )
    report = workflow.run(provenance=False)
    assert report.errors == []
    assert delivered(config) == golden["files"]
