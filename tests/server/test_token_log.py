"""Token logs: a plan ``stream`` edge across processes.  ``execute_unit``
saves what a unit wrote on its outgoing channels as ``units/<unit>.json``
and fills each incoming channel from its producer's log; driven here
without a server, unit by unit in plan order, as agents would lease them.
"""

import contextlib
import os

import pytest

from tests.core.crash_driver import build_raw_config
from tests.core.test_golden_corpus import sha256_file

from repro.core import EOMLWorkflow, load_config
from repro.core.download import GranuleSet
from repro.runtime import StreamChannel
from repro.server import execute_unit, wire


def tile_files(tiles):
    names = [name for name in os.listdir(tiles) if name.endswith(".nc")]
    return {name: sha256_file(os.path.join(tiles, name)) for name in names}


@pytest.fixture(scope="module")
def remote(tmp_path_factory):
    """download, model and preprocess of a one-day run, each with the
    tokens its body put on its own outgoing edges, and its saved log."""
    raw = build_raw_config(str(tmp_path_factory.mktemp("units")), 2)
    config, puts, written, results, logs = load_config(raw), [], {}, {}, {}
    put = StreamChannel.put
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamChannel, "put",
                      lambda ch, item: puts.append((ch.edge, item)) or put(ch, item))
        for unit in ("download", "model", "preprocess"):
            puts.clear()  # filling the inputs puts too, on the producer's edge
            results[unit] = execute_unit(raw, unit)
            written[unit] = [item for edge, item in puts if edge.startswith(unit + "->")]
            with contextlib.suppress(FileNotFoundError):  # no outgoing edge, no log
                logs[unit] = wire.load_state(config.journal_dir, unit)
    return config, results, written, logs


def test_each_log_is_exactly_the_tokens_its_body_wrote(remote):
    _config, results, written, logs = remote
    for unit in ("download", "model"):
        assert wire.tokens_from_wire(logs[unit]["tokens"]) == written[unit]
    # The model relays what it was fed and keeps its cursor beside it;
    # preprocess has no outgoing stream edge, so it writes and saves nothing.
    assert written["model"] == written["download"]
    assert logs["model"]["consumed"] == results["model"]["consumed"] >= 1
    assert written["preprocess"] == [] and "preprocess" not in logs

    (kind, planned), *scenes = written["download"]
    assert kind == "planned" and planned == sorted(planned) and len(planned) == 2
    assert sorted(key for _kind, key, _set in scenes) == planned
    for (_kind, key, granules), raw in zip(scenes, logs["download"]["tokens"][1:]):
        # Plain JSON, never pickle: a GranuleSet is its key, its paths and
        # the digest of every product the download fetched.
        assert isinstance(granules, GranuleSet)
        assert set(granules.digests) == set(granules.paths)
        assert raw == ["scene", key, {
            "key": key, "paths": granules.paths, "digests": granules.digests,
        }]


def test_preprocess_publishes_what_a_local_barrier_run_does(remote, tmp_path):
    config = remote[0]
    local = load_config(build_raw_config(str(tmp_path), 2))
    assert EOMLWorkflow(local).run(provenance=False).errors == []
    assert tile_files(config.preprocessed)
    assert tile_files(config.preprocessed) == tile_files(local.preprocessed)
