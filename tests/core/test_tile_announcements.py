"""Stage 3 as announcements: preprocess names each tile file it settles.

Inference labels exactly what the ``preprocess -> inference`` stream
announces, so the monitor stage's promise — presence implies
completeness — holds by construction (``test_monitor_race.py`` pins it
under torn writes).  An announced file whose bytes no longer hash to the
announced digest is an inference error for that file — in the report
and in an agent's completion record — counted once as a manifest
mismatch.  The check hashes the very map the parser reads, so a file
that rots after it was announced is caught however late it rots, and is
left where it lies even when it also fails to parse.
"""

import os

import pytest

from tests.core.crash_driver import build_raw_config

from repro.core import EOMLWorkflow, load_config
from repro.core.inference import _ParsedFile
from repro.core.preprocess import PreprocessStage
from repro.modis import MINI_SWATH, LaadsArchive
from repro.server import execute_unit
from repro.util import digest as digest_module

LAST_SCENE = "scene.terra.2022-01-01.002"


def published(directory):
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
        if name.endswith(".nc")
    )


def rot(path):
    """Flip the last byte in place: same size, other digest."""
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 0xFF]))


def break_header(path):
    """Overwrite the magic bytes: same size, other digest, unparseable."""
    with open(path, "r+b") as handle:
        handle.write(b"XXXX")


@pytest.fixture(params=["inline", "helper"])
def slices(request, monkeypatch):
    """Run with the real slice sizes (mini files hash inline), or with
    slices so small that every tile file is hashed on a helper thread."""
    if request.param == "helper":
        monkeypatch.setattr(digest_module, "HASH_SLICE", 64 * 1024)
        monkeypatch.setattr(digest_module, "OVERLAP_SLICE", 16 * 1024)
    return request.param


def run(raw):
    config = load_config(raw)
    archive = LaadsArchive(seed=3, swath=MINI_SWATH)
    return config, EOMLWorkflow(config, archive=archive).run(provenance=False)


def rot_last_scene(monkeypatch, damage=rot):
    """Damage the last scene's tile file right after its completion."""
    rotted = []
    execute = PreprocessStage.execute

    def execute_then_rot(stage, granules):
        result = execute(stage, granules)
        if granules.key == LAST_SCENE and result.tile_path:
            damage(result.tile_path)
            rotted.append(result.tile_path)
        return result

    monkeypatch.setattr(PreprocessStage, "execute", execute_then_rot)
    return rotted


def test_a_rotted_tile_file_is_an_inference_error(tmp_path, monkeypatch):
    rotted = rot_last_scene(monkeypatch)
    config, report = run(build_raw_config(str(tmp_path), 3))

    assert len(rotted) == 1
    assert report.manifest_mismatches == 1
    assert [e for e in report.errors if rotted[0] in e] == report.errors != []
    assert rotted[0] not in {r.src_path for r in report.inference}
    assert 0 < report.labelled_tiles < report.total_tiles
    # Left where it lies, for a resume to re-tile, not quarantined.
    assert os.path.exists(rotted[0]) and report.inference_quarantined == []


def test_an_agent_reports_a_rotted_tile_file(tmp_path, monkeypatch):
    rotted = rot_last_scene(monkeypatch)
    raw = build_raw_config(str(tmp_path), 3)
    for unit in ("download", "model", "preprocess"):
        execute_unit(raw, unit)
    result = execute_unit(raw, "inference")

    assert len(rotted) == 1
    assert [e for e in result["errors"] if rotted[0] in e] == result["errors"] != []
    assert result["files"] == len(published(load_config(raw).preprocessed)) - 1


def test_a_rotted_tile_file_that_cannot_parse_is_not_quarantined(
    tmp_path, monkeypatch, slices
):
    """The parse fails too, but the verdict on the bytes comes first: an
    error, left where it lies for a resume to re-tile."""
    rotted = rot_last_scene(monkeypatch, damage=break_header)
    config, report = run(build_raw_config(str(tmp_path), 3))

    assert len(rotted) == 1
    assert report.manifest_mismatches == 1
    assert [e for e in report.errors if rotted[0] in e] == report.errors != []
    assert report.inference_quarantined == []
    assert os.path.exists(rotted[0])
    assert not os.path.exists(config.quarantine) or os.listdir(config.quarantine) == []


def test_a_tile_file_rotted_just_before_its_parse_is_never_published(
    tmp_path, monkeypatch, slices
):
    """Rotted after any check that reads the file apart from the parse
    could have passed it: the bytes parsed are the bytes hashed."""
    rotted = []
    real_open = _ParsedFile.open

    def rot_then_open(path, *rest):
        if os.path.basename(path).endswith("_002.nc"):
            rot(path)
            rotted.append(path)
        return real_open(path, *rest)

    monkeypatch.setattr(_ParsedFile, "open", rot_then_open)
    config, report = run(build_raw_config(str(tmp_path), 3))

    assert len(rotted) == 1
    name = os.path.basename(rotted[0])
    assert report.manifest_mismatches == 1
    assert [e for e in report.errors if rotted[0] in e] == report.errors != []
    assert rotted[0] not in {r.src_path for r in report.inference}
    assert name not in os.listdir(config.transfer_out)
    assert name not in os.listdir(config.destination)
    assert os.path.exists(rotted[0]) and report.inference_quarantined == []
