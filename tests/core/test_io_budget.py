"""I/O budget: how often a mini run reads and hashes what it ships.

The stages are supposed to touch every byte once per purpose.  These
tests count it from outside — ``hashlib.sha256`` and ``open`` wrapped for
the duration of a real stage run — so a re-introduced verification pass
or blob copy shows up as a number, not as a slower benchmark.
"""

import builtins
import hashlib
import os
from collections import Counter

import pytest

from tests.core.crash_driver import build_raw_config
from tests.core.test_cache import run_cached

from repro.cas import object_relpath
from repro.chaos import surfaces
from repro.core import DownloadStage, EOMLWorkflow, ShipmentStage, load_config
from repro.core.context import MODEL_FILE, RunContext
from repro.core.inference import _ParsedFile
from repro.journal import JOURNAL_NAME, WorkflowJournal
from repro.modis import MINI_SWATH, LaadsArchive
from repro.ricc.aicca import AICCAModel
from repro.server import execute_unit
from repro.transfer import LocalTransferClient, TransferError
from repro.transfer import client as client_module
from repro.util import digest as digest_module
from repro.util.digest import atomic_publish_bytes, digest_file

FILES = {f"tiles_{index}.nc": b"CDF\x01" + bytes([index]) * (40_000 + index) for index in range(3)}


class IoCounter:
    """Counts read-opens by path, and SHA-256 passes by the bytes each
    hasher was fed (key-derivation hashes of a few bytes are not passes
    over an artifact and are ignored)."""

    def __init__(self, monkeypatch):
        self.reads = Counter()
        self._fed = []  # one [nbytes] cell per hasher created
        real_open, real_sha256 = builtins.open, hashlib.sha256
        counter = self

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode and "+" not in mode and isinstance(file, (str, os.PathLike)):
                counter.reads[os.path.abspath(os.fspath(file))] += 1
            return real_open(file, mode, *args, **kwargs)

        class CountingSha256:
            def __init__(self, data=b""):
                self._inner = real_sha256()
                self._cell = [0]
                counter._fed.append(self._cell)
                self.update(data)

            def update(self, data):
                self._cell[0] += memoryview(data).nbytes
                self._inner.update(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(hashlib, "sha256", CountingSha256)

    @property
    def passes(self):
        """Bytes fed to each hasher that digested an artifact."""
        return sorted(cell[0] for cell in self._fed if cell[0] >= 1024)


def make_config(tmp_path):
    return load_config(
        {
            "archive": {"start_date": "2022-01-01", "max_granules_per_day": 1, "seed": 3},
            "paths": {
                "staging": str(tmp_path / "raw"),
                "preprocessed": str(tmp_path / "tiles"),
                "transfer_out": str(tmp_path / "outbox"),
                "destination": str(tmp_path / "orion"),
            },
            "journal": {"dir": str(tmp_path / "journal")},
        }
    )


@pytest.fixture
def outbox(tmp_path):
    """Labelled files published the way inference publishes them: bytes
    on disk, digest in the journal."""
    config = make_config(tmp_path)
    os.makedirs(config.transfer_out)
    journal = WorkflowJournal(str(tmp_path / "journal"), durable=False)
    journal.start()
    for name, payload in FILES.items():
        path = os.path.join(config.transfer_out, name)
        nbytes, digest = atomic_publish_bytes(path, payload, durable=False)
        journal.complete("inference", name, artifact=path, sha256=digest, nbytes=nbytes)
    yield config, journal
    journal.close()


class TestShipmentBudget:
    def test_two_reads_and_one_hash_pass_per_shipped_file(self, outbox, monkeypatch):
        config, journal = outbox
        counter = IoCounter(monkeypatch)
        report = ShipmentStage(config, RunContext(journal=journal)).run()
        monkeypatch.undo()

        assert report.error is None and report.mismatches == []
        assert report.verified == len(FILES)
        shipped_bytes = sum(len(payload) for payload in FILES.values())
        assert report.nbytes == shipped_bytes
        for name, payload in FILES.items():
            src = os.path.abspath(os.path.join(config.transfer_out, name))
            dst = os.path.abspath(os.path.join(config.destination, name))
            # One read of the source (copied, not hashed: the journal
            # knows its digest), one of the destination (hashed where it
            # landed and compared with the journal's digest).
            assert counter.reads[src] == 1, name
            assert counter.reads[dst] == 1, name
            assert report.checksums[name] == hashlib.sha256(payload).hexdigest()
        assert counter.passes == sorted(len(payload) for payload in FILES.values())

    def test_bytes_damaged_in_transit_are_refused(self, outbox, monkeypatch):
        """The copy is not hashed, so only the landed bytes can show the
        damage: they disagree with the journal, the source still agrees,
        and the move raises (to be retried) with nothing left behind."""
        config, journal = outbox
        name = sorted(FILES)[0]
        real_chunks = client_module.read_chunks

        def damaging_chunks(path, *args, **kwargs):
            for chunk in real_chunks(path, *args, **kwargs):
                yield bytes(chunk[:-1]) + bytes([chunk[-1] ^ 0xFF])

        monkeypatch.setattr(client_module, "read_chunks", damaging_chunks)
        client = LocalTransferClient()
        with pytest.raises(TransferError, match=f"integrity check failed for {name}"):
            client.move_one(
                config.transfer_out, config.destination, name,
                expected=journal.expected_sha(os.path.join(config.transfer_out, name)),
            )
        assert os.listdir(config.destination) == []
        assert client.bytes_transferred == 0

    def test_journal_digest_still_catches_a_rotted_outbox_file(self, outbox):
        config, journal = outbox
        victim = sorted(FILES)[1]
        with open(os.path.join(config.transfer_out, victim), "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff\xff")
        report = ShipmentStage(config, RunContext(journal=journal)).run()
        assert report.mismatches == [victim]
        assert report.verified == len(FILES) - 1


    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_run_checks_delivery_against_the_published_digest(
        self, tmp_path, monkeypatch, workers
    ):
        """Labelled elsewhere or here, a file rotted in the outbox right
        before its move ships as a mismatch: a pooled labeller journals
        in its own process, so the digest rides the stream token."""
        raw = build_raw_config(str(tmp_path), 3)
        raw["runtime"] = {"workers": workers}
        config = load_config(raw)
        real_move = LocalTransferClient.move_one
        rotted = []

        def rot_then_move(client, src_dir, dst_dir, name, *args, **kwargs):
            with open(os.path.join(src_dir, name), "r+b") as handle:
                handle.seek(-1, os.SEEK_END)
                last = handle.read(1)
                handle.seek(-1, os.SEEK_END)
                handle.write(bytes([last[0] ^ 0xFF]))
            rotted.append(name)
            return real_move(client, src_dir, dst_dir, name, *args, **kwargs)

        monkeypatch.setattr(LocalTransferClient, "move_one", rot_then_move)
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        report = EOMLWorkflow(config, archive=archive).run(provenance=False)

        assert len(rotted) == 3
        assert sorted(report.shipment.mismatches) == sorted(rotted)
        assert report.shipment.verified == 0


class TestDownloadBudget:
    def test_granules_are_published_without_a_serialized_blob(self, tmp_path, monkeypatch):
        """Download streams each fetched dataset's own buffers to disk:
        ``to_bytes`` (the blob serializer) is never called, and every
        published byte is hashed exactly once, while it is written."""
        config = make_config(tmp_path)

        def no_blob(_dataset):
            raise AssertionError("download serialized a granule into one blob")

        monkeypatch.setattr(surfaces, "to_bytes", no_blob)
        counter = IoCounter(monkeypatch)
        report = DownloadStage(config, archive=LaadsArchive(seed=3, swath=MINI_SWATH)).run()
        monkeypatch.undo()

        assert report.files == 3
        staged = [
            os.path.join(config.staging, name) for name in sorted(os.listdir(config.staging))
        ]
        assert len(staged) == 3 and not any(p.endswith(".part") for p in staged)
        assert counter.passes == sorted(os.path.getsize(p) for p in staged)
        assert all(counter.reads[os.path.abspath(p)] == 0 for p in staged)


def listed(directory):
    return [os.path.join(directory, name) for name in sorted(os.listdir(directory))]


class TestColdRunBudget:
    def test_a_cold_run_stores_what_it_hashed_without_hashing_it_again(
        self, tmp_path, monkeypatch
    ):
        """Against an empty store every object is the inode the run just
        published, adopted by hardlink: a granule is hashed once (while
        written), a tile file twice (written, crawler gate) and a labelled
        file twice (published, verified by shipment's materialize)."""
        counter = IoCounter(monkeypatch)
        config, report = run_cached(tmp_path / "cold", tmp_path / "cas")
        monkeypatch.undo()
        assert report.errors == []

        expected, passes_by_size, staged = Counter(), {}, []
        for directory, passes in ((config.staging, 1), (config.preprocessed, 2),
                                  (config.destination, 2)):
            for path in listed(directory):
                stat = os.stat(path)
                # Granules, tile files and labelled files are told apart by size.
                assert passes_by_size.setdefault(stat.st_size, passes) == passes
                expected[stat.st_size] += passes
                staged.append(stat.st_ino)
        assert {size: counter.passes.count(size) for size in expected} == expected

        objects = [
            path
            for shard in listed(os.path.join(config.cache_dir, "objects"))
            if os.path.basename(shard) != "incoming"
            for path in listed(shard)
        ]
        assert sorted(os.stat(path).st_ino for path in objects) == sorted(staged)
        assert report.cache["linked_stores"] == report.cache["stores"] == len(objects)


class TestModelBudget:
    def test_a_resumed_run_hashes_the_model_once(self, tmp_path, monkeypatch):
        """Resuming checks the journaled model file against its digest —
        one full read — and the completion it records again names that
        verified digest instead of reading the file a second time."""
        config = load_config(build_raw_config(str(tmp_path), 2))
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        assert EOMLWorkflow(config, archive=archive).run(provenance=False).errors == []
        model_path = os.path.abspath(os.path.join(config.journal_dir, MODEL_FILE))
        passes = []
        real_chunks = digest_module.read_chunks

        def counting_chunks(path, *args, **kwargs):
            if os.path.abspath(path) == model_path:
                passes.append(path)
            return real_chunks(path, *args, **kwargs)

        monkeypatch.setattr(digest_module, "read_chunks", counting_chunks)
        report = EOMLWorkflow(config, archive=archive).run(provenance=False, resume=True)
        monkeypatch.undo()
        assert report.errors == [] and report.resumed_items > 0
        assert len(passes) == 1


class TestWarmRunBudget:
    @staticmethod
    def sizes(directory):
        return sorted(
            os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
        )

    def test_a_warm_run_labels_nothing_and_hashes_what_it_verifies(
        self, tmp_path, monkeypatch
    ):
        """Against a filled store the labelled bytes are only verified:
        the model is never asked, no tile file is mapped or parsed, and
        each labelled file is hashed twice — as it is materialized into
        the transfer-out directory and again into the destination.  No
        granule is staged, opened or hashed: a download hit is a store
        lookup, and with every tile file a hit nothing reads a granule."""
        cold, report = run_cached(tmp_path / "cold", tmp_path / "cas")
        assert report.errors == []
        tile_sizes = self.sizes(cold.preprocessed)
        labelled_sizes = self.sizes(cold.destination)
        granule_sizes = self.sizes(cold.staging)
        assert len(set(tile_sizes + labelled_sizes)) == 4  # told apart by size
        assert not set(granule_sizes) & set(tile_sizes + labelled_sizes)
        granule_objects = {
            os.path.join(cold.cache_dir, "objects", object_relpath(digest_file(path)[0]))
            for path in listed(cold.staging)
        }

        model_calls = []

        def no_labels(self, tiles):
            model_calls.append(len(tiles))
            raise AssertionError("a warm run asked the model for labels")

        def no_parse(path):
            raise AssertionError(f"a warm run mapped {path}")

        monkeypatch.setattr(AICCAModel, "assign", no_labels)
        monkeypatch.setattr(_ParsedFile, "open", no_parse)
        counter = IoCounter(monkeypatch)
        warm, report = run_cached(tmp_path / "warm", tmp_path / "cas")
        monkeypatch.undo()

        assert report.errors == [] and model_calls == []
        assert report.cache["inference_cached"] == len(report.inference) == 2
        assert self.sizes(warm.destination) == labelled_sizes
        for size in labelled_sizes:
            assert counter.passes.count(size) == 2
        # A tile file is hashed as it is materialized and once more by the
        # crawler's integrity gate, which is what vouches for the digest
        # the labels key is built from.
        for size in tile_sizes:
            assert counter.passes.count(size) == 2
        assert os.path.isdir(warm.staging) and os.listdir(warm.staging) == []
        assert not any(counter.passes.count(size) for size in granule_sizes)
        opened = [
            path for path in counter.reads
            if path in granule_objects or path.startswith(warm.staging + os.sep)
        ]
        assert opened == []


class TestFsyncBudget:
    """Every ``os.fsync`` of a 3-granule mini run, counted: the durable
    journal appends and the atomic publishes of granules, tile files,
    the model, labelled files and token logs.  The journal is the run
    directory's one book — no index snapshot is published beside it."""

    PLAIN_RUN = 71
    PER_UNIT = {"download": 38, "model": 8, "preprocess": 10, "inference": 14, "shipment": 9}

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls, real_fsync = [], os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
        return calls

    @pytest.mark.parametrize("streaming", [False, True], ids=["barrier", "streaming"])
    def test_a_plain_run_fsyncs_a_fixed_count(self, tmp_path, fsyncs, streaming):
        config = load_config(build_raw_config(str(tmp_path), 3))
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        report = EOMLWorkflow(config, archive=archive).run(streaming=streaming)
        assert report.errors == []
        assert len(fsyncs) == self.PLAIN_RUN
        assert sorted(os.listdir(config.journal_dir)) == [MODEL_FILE, JOURNAL_NAME]

    def test_each_leased_unit_fsyncs_a_fixed_count(self, tmp_path, fsyncs):
        raw = build_raw_config(str(tmp_path), 3)
        counts = {}
        for unit in self.PER_UNIT:
            del fsyncs[:]
            execute_unit(raw, unit)
            counts[unit] = len(fsyncs)
        assert counts == self.PER_UNIT
        assert sorted(os.listdir(load_config(raw).journal_dir)) == [
            MODEL_FILE, JOURNAL_NAME, "units",
        ]

    def test_a_pooled_run_writes_only_the_journal_and_the_model(self, tmp_path):
        raw = build_raw_config(str(tmp_path), 3)
        raw["runtime"] = {"workers": 2}
        config = load_config(raw)
        archive = LaadsArchive(seed=3, swath=MINI_SWATH)
        assert EOMLWorkflow(config, archive=archive).run(provenance=False).errors == []
        assert sorted(os.listdir(config.journal_dir)) == [MODEL_FILE, JOURNAL_NAME]
