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

from tests.core.crash_driver import build_raw_config
from tests.core.test_fanout import topology

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


def test_plural_spelling_of_the_single_branch_is_the_same_plan_and_corpus(tmp_path):
    """``instruments: [modis]`` x ``models: [ricc]`` is a product of size
    one: bare node names, root paths, golden bytes."""
    with open(GOLDEN) as handle:
        golden = json.load(handle)

    singular = load_config(build_raw_config(str(tmp_path / "s"), golden["granules"]))
    raw = build_raw_config(str(tmp_path), golden["granules"])
    raw["archive"]["instruments"] = ["modis"]
    raw["inference"] = dict(raw["inference"], models=["ricc"])
    config = load_config(raw)
    assert topology(EOMLWorkflow(config).build_plan()) == \
        topology(EOMLWorkflow(singular).build_plan())

    workflow = EOMLWorkflow(
        config, archive=LaadsArchive(seed=golden["seed"], swath=MINI_SWATH)
    )
    report = workflow.run(provenance=False)
    assert report.errors == []
    assert delivered(config) == golden["files"]


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
