"""Unit tests for the content-addressed store: layout, integrity, GC."""

import errno
import hashlib
import os

import numpy as np
import pytest

from repro.cas import CASStore, object_relpath
from repro.cas import store as store_module
from repro.chaos import FaultInjector, FaultPlan, FaultSpec, chaos_atomic_write, damage_file
from repro.netcdf import Dataset
from repro.util.digest import atomic_publish_bytes


def digest_of(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture
def store(tmp_path):
    return CASStore(str(tmp_path / "cas"), durable=False)


def files_under(*roots):
    return sorted(
        os.path.join(dirpath, name)
        for root in roots
        for dirpath, _, names in os.walk(root)
        for name in names
    )


def object_files(store):
    """Every file under ``objects/``, the ``incoming/`` staging area included."""
    return files_under(os.path.join(store.root, "objects"))


def object_path(store, digest):
    return os.path.join(store.root, "objects", object_relpath(digest))


def publish(tmp_path, payload, durable=False, name="published.bin"):
    """A file published the way the stages publish theirs."""
    path = str(tmp_path / name)
    _, digest = atomic_publish_bytes(path, payload, durable=durable)
    return path, digest


def put(store, payload):
    """Store ``payload`` through a plain file: copied in, and refused
    unless its bytes hash to the digest claimed for them."""
    digest = digest_of(payload)
    src = os.path.join(os.path.dirname(store.root), "payloads", digest)
    os.makedirs(os.path.dirname(src), exist_ok=True)
    with open(src, "wb") as handle:
        handle.write(payload)
    return store.store_file(src, digest=digest)


def read_back(store, digest):
    """An object's bytes as a reader gets them — verified by
    ``materialize`` — or ``None`` on a miss."""
    dest = os.path.join(os.path.dirname(store.root), "read", digest)
    if store.materialize(digest, dest) is None:
        return None
    with open(dest, "rb") as handle:
        return handle.read()


def failing_replace(*args, **kwargs):
    raise OSError(errno.EIO, "replace failed")


class TestLayout:
    def test_object_relpath_shards_by_prefix(self):
        digest = "ab" + "c" * 62
        assert object_relpath(digest) == os.path.join("ab", "c" * 62)

    def test_store_file_lands_in_sharded_layout(self, store):
        payload = b"hello cas"
        digest = digest_of(payload)
        assert put(store, payload) == digest
        obj = os.path.join(store.root, "objects", object_relpath(digest))
        assert os.path.isfile(obj)
        assert open(obj, "rb").read() == payload

    def test_store_file_computes_digest(self, store, tmp_path):
        src = tmp_path / "src.bin"
        src.write_bytes(b"x" * 4096)
        assert store.store_file(str(src)) == digest_of(b"x" * 4096)

    def test_duplicate_store_is_deduped(self, store):
        payload = b"same bytes"
        digest = digest_of(payload)
        assert put(store, payload) == digest
        assert put(store, payload) == digest
        counters = store.counters()
        assert counters["stores"] == 1
        assert counters["dedup_stores"] == 1

    def test_claimed_digest_mismatch_is_refused(self, store, tmp_path):
        src = tmp_path / "torn.bin"
        src.write_bytes(b"actual content")
        wrong = digest_of(b"something else")
        assert store.store_file(str(src), digest=wrong) is None
        assert not store.has(wrong)
        assert store.counters()["store_errors"] == 1


class TestMaterialize:
    def test_roundtrip(self, store, tmp_path):
        payload = b"roundtrip" * 100
        digest = digest_of(payload)
        put(store, payload)
        dest = tmp_path / "out" / "artifact.bin"
        assert store.materialize(digest, str(dest)) == len(payload)
        assert dest.read_bytes() == payload
        assert store.counters()["hits"] == 1

    def test_failed_lru_touch_after_delivery_is_still_a_hit(
        self, store, tmp_path, monkeypatch
    ):
        payload = b"delivered" * 100
        digest = digest_of(payload)
        put(store, payload)

        def read_only_volume(path, *args, **kwargs):
            raise PermissionError(13, "read-only store volume", path)

        monkeypatch.setattr(os, "utime", read_only_volume)
        dest = tmp_path / "artifact.bin"
        assert store.materialize(digest, str(dest)) == len(payload)
        assert dest.read_bytes() == payload
        counters = store.counters()
        assert (counters["hits"], counters["misses"]) == (1, 0)
        assert counters["bytes_saved"] == len(payload)

    def test_absent_object_is_a_miss(self, store, tmp_path):
        assert store.materialize("0" * 64, str(tmp_path / "x")) is None
        assert store.counters()["misses"] == 1

    def test_corrupt_object_quarantined_not_delivered(self, store, tmp_path):
        payload = b"will rot" * 50
        digest = digest_of(payload)
        put(store, payload)
        obj = os.path.join(store.root, "objects", object_relpath(digest))
        with open(obj, "r+b") as handle:
            handle.write(b"ROT")
        dest = tmp_path / "poisoned.bin"
        assert store.materialize(digest, str(dest)) is None
        assert not dest.exists()
        assert not os.path.exists(obj)  # moved aside
        assert os.path.exists(os.path.join(store.root, "quarantine", digest))
        counters = store.counters()
        assert counters["corrupt_evictions"] == 1
        assert counters["misses"] == 1

    def test_lookup_counts_a_hit_without_reading(self, store, monkeypatch):
        payload = b"left in the store" * 100
        digest = digest_of(payload)
        put(store, payload)
        obj = object_path(store, digest)
        os.utime(obj, (1, 1))

        def no_reads(*args, **kwargs):
            raise AssertionError("a lookup opened the object")

        monkeypatch.setattr("builtins.open", no_reads)
        assert store.lookup(digest) == len(payload)
        assert store.lookup("0" * 64) is None
        monkeypatch.undo()
        assert os.stat(obj).st_mtime > 1  # young again for the LRU sweep
        counters = store.counters()
        assert (counters["hits"], counters["misses"]) == (1, 1)
        assert counters["bytes_saved"] == len(payload)

    def test_a_second_read_verifies_too(self, store):
        payload = b"read twice"
        digest = digest_of(payload)
        put(store, payload)
        assert read_back(store, digest) == payload
        obj = os.path.join(store.root, "objects", object_relpath(digest))
        os.unlink(os.path.join(os.path.dirname(store.root), "read", digest))
        with open(obj, "r+b") as handle:
            handle.write(b"???")
        assert read_back(store, digest) is None
        assert store.counters()["corrupt_evictions"] == 1


class TestAdoption:
    """``store_file`` hardlinks the inode the run just published and
    hashed — and copies and verifies everything it cannot prove is that."""

    def test_a_published_file_is_adopted_without_a_hash_pass(
        self, store, tmp_path, monkeypatch
    ):
        payload = os.urandom(64 * 1024)
        path, digest = publish(tmp_path, payload)
        hashers = []
        real_sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *a: hashers.append(a) or real_sha256(*a))
        assert store.store_file(path, digest=digest) == digest
        monkeypatch.undo()

        assert hashers == []
        obj = object_path(store, digest)
        assert os.stat(obj).st_ino == os.stat(path).st_ino
        assert os.stat(obj).st_nlink == 2
        assert object_files(store) == [obj]
        counters = store.counters()
        assert (counters["stores"], counters["linked_stores"]) == (1, 1)
        assert counters["bytes_stored"] == len(payload)

    def test_a_durable_store_adopts_only_fsynced_writes(self, tmp_path):
        store = CASStore(str(tmp_path / "cas"), durable=True)
        loose, loose_digest = publish(tmp_path, b"a" * 4096, durable=False, name="loose")
        synced, synced_digest = publish(tmp_path, b"b" * 4096, durable=True, name="synced")
        assert store.store_file(loose, digest=loose_digest) == loose_digest
        assert store.store_file(synced, digest=synced_digest) == synced_digest
        assert os.stat(object_path(store, loose_digest)).st_ino != os.stat(loose).st_ino
        assert os.stat(object_path(store, synced_digest)).st_ino == os.stat(synced).st_ino
        counters = store.counters()
        assert (counters["stores"], counters["linked_stores"]) == (2, 1)

    def test_a_file_replaced_after_publication_is_refused(self, store, tmp_path):
        path, digest = publish(tmp_path, b"a" * 8192)
        with open(path + ".new", "wb") as handle:
            handle.write(b"b" * 8192)
        os.replace(path + ".new", path)
        assert store.store_file(path, digest=digest) is None
        counters = store.counters()
        assert (counters["store_errors"], counters["stores"]) == (1, 0)
        assert object_files(store) == []

    def test_an_in_place_rewrite_is_copied_and_refused(self, store, tmp_path):
        path, digest = publish(tmp_path, b"a" * 8192)
        mtime = os.stat(path).st_mtime_ns
        with open(path, "r+b") as handle:
            handle.seek(100)
            handle.write(b"\xff" * 4)
        # Moved explicitly: the check must not hang on timestamp granularity.
        os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
        assert store.store_file(path, digest=digest) is None
        assert store.counters()["store_errors"] == 1
        assert object_files(store) == []

    def test_a_touched_file_is_copied_not_adopted(self, store, tmp_path):
        path, digest = publish(tmp_path, b"a" * 8192)
        mtime = os.stat(path).st_mtime_ns
        os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
        assert store.store_file(path, digest=digest) == digest
        assert os.stat(object_path(store, digest)).st_ino != os.stat(path).st_ino
        assert store.counters()["linked_stores"] == 0

    def test_a_cross_device_link_falls_back_to_a_verified_copy(
        self, store, tmp_path, monkeypatch
    ):
        payload = os.urandom(16 * 1024)
        path, digest = publish(tmp_path, payload)

        def cross_device(src, dst, *args, **kwargs):
            raise OSError(errno.EXDEV, "Invalid cross-device link", src)

        monkeypatch.setattr(os, "link", cross_device)
        assert store.store_file(path, digest=digest) == digest
        monkeypatch.undo()

        assert os.stat(object_path(store, digest)).st_ino != os.stat(path).st_ino
        counters = store.counters()
        assert (counters["stores"], counters["linked_stores"]) == (1, 0)
        assert read_back(store, digest) == payload

    def test_corrupt_tile_bytes_are_stored_under_their_own_digest(self, store, tmp_path):
        chaos = FaultInjector(
            FaultPlan(seed=0, faults=(FaultSpec("preprocess", "corrupt_tile"),))
        )
        ds = Dataset()
        ds.create_dimension("x", 4096)
        ds.create_variable("v", "f4", ("x",), np.arange(4096, dtype=np.float32))
        final = str(tmp_path / "tiles_a.nc")
        _, digest = chaos_atomic_write(ds, final, chaos=chaos, stage="preprocess", key="a")
        with open(final, "rb") as handle:
            damaged = handle.read()
        assert digest == digest_of(damaged)

        assert store.store_file(final, digest=digest) == digest
        assert read_back(store, digest) == damaged
        assert os.stat(object_path(store, digest)).st_ino != os.stat(final).st_ino
        assert store.counters()["linked_stores"] == 0

    def test_damage_through_the_run_name_spares_the_object_but_not_its_own(
        self, store, tmp_path
    ):
        payload = os.urandom(16 * 1024)
        path, digest = publish(tmp_path, payload)
        assert store.store_file(path, digest=digest) == digest
        assert store.counters()["linked_stores"] == 1

        damage_file(path)  # temp + replace: the object keeps the old inode
        dest = tmp_path / "out" / "delivered.bin"
        assert store.materialize(digest, str(dest)) == len(payload)
        assert dest.read_bytes() == payload

        damage_file(object_path(store, digest))
        assert store.materialize(digest, str(tmp_path / "again.bin")) is None
        assert os.path.exists(os.path.join(store.root, "quarantine", digest))
        assert store.counters()["corrupt_evictions"] == 1


class TestTempsNeverLeak:
    """Every failure path unlinks its own ``*.part.*`` temp: GC never
    walks ``incoming/`` and an orphaned link would pin a whole inode."""

    @pytest.mark.parametrize("adopted", [True, False], ids=["adopted", "copied"])
    def test_a_failed_publish_leaves_no_temp(self, store, tmp_path, monkeypatch, adopted):
        payload = os.urandom(16 * 1024)
        if adopted:
            path, digest = publish(tmp_path, payload)
        else:
            path, digest = str(tmp_path / "plain.bin"), digest_of(payload)
            with open(path, "wb") as handle:
                handle.write(payload)
        monkeypatch.setattr(os, "replace", failing_replace)
        assert store.store_file(path, digest=digest) is None
        monkeypatch.undo()
        assert store.counters()["store_errors"] == 1
        assert object_files(store) == []

    def test_a_source_vanishing_mid_copy_leaves_no_temp(self, store, tmp_path, monkeypatch):
        path = tmp_path / "vanishing.bin"
        path.write_bytes(os.urandom(64 * 1024))

        def vanishing(source, *args, **kwargs):
            yield memoryview(b"x" * 1024)
            os.unlink(source)
            raise FileNotFoundError(errno.ENOENT, "source vanished", source)

        monkeypatch.setattr(store_module, "read_chunks", vanishing)
        assert store.store_file(str(path)) is None
        assert store.counters()["store_errors"] == 1
        assert object_files(store) == []

    def test_a_failed_materialize_leaves_no_temp(self, store, tmp_path, monkeypatch):
        payload = b"delivered" * 100
        digest = digest_of(payload)
        put(store, payload)
        run_dir = tmp_path / "run"
        monkeypatch.setattr(os, "replace", failing_replace)
        assert store.materialize(digest, str(run_dir / "artifact.bin")) is None
        monkeypatch.undo()
        assert store.counters()["misses"] == 1
        assert files_under(str(run_dir)) == []
        assert object_files(store) == [object_path(store, digest)]

    def test_materializing_onto_a_link_of_the_object_leaves_no_temp(self, store, tmp_path):
        """Renaming a link onto another link of the same inode is a no-op
        that leaves the source name in place."""
        payload = b"twice" * 100
        digest = digest_of(payload)
        put(store, payload)
        dest = tmp_path / "run" / "artifact.bin"
        for _ in range(2):
            assert store.materialize(digest, str(dest)) == len(payload)
        assert files_under(str(tmp_path / "run")) == [str(dest)]
        assert dest.read_bytes() == payload


class TestDerivedKeys:
    def test_put_get_roundtrip(self, store):
        record = {"digest": "ab" * 32, "tiles": 7}
        store.put_key("tiles:modis:scene-1:ts=32", record)
        assert store.get_key("tiles:modis:scene-1:ts=32") == record
        assert store.counters()["key_hits"] == 1

    def test_missing_key_counts_a_key_miss(self, store):
        assert store.get_key("granule:modis:3:nothing") is None
        assert store.counters()["key_misses"] == 1


class TestPinsAndGC:
    def _populate(self, store, count: int, size: int = 1024):
        digests = []
        for index in range(count):
            payload = bytes([index]) * size
            digest = digest_of(payload)
            put(store, payload)
            digests.append(digest)
        return digests

    def test_gc_respects_budget_oldest_first(self, store):
        digests = self._populate(store, 4)
        # Ages: refresh the two newest so the two oldest are victims.
        for digest in digests[2:]:
            path = os.path.join(store.root, "objects", object_relpath(digest))
            os.utime(path, (2_000_000_000, 2_000_000_000))
        for digest in digests[:2]:
            path = os.path.join(store.root, "objects", object_relpath(digest))
            os.utime(path, (1_000_000_000, 1_000_000_000))
        report = store.gc(budget_bytes=2 * 1024)
        assert report["evicted"] == 2
        assert not store.has(digests[0]) and not store.has(digests[1])
        assert store.has(digests[2]) and store.has(digests[3])

    def test_gc_never_evicts_pinned(self, store):
        digests = self._populate(store, 3)
        store.pin(digests[0], owner="run-a")
        report = store.gc(budget_bytes=0)
        assert store.has(digests[0])
        assert report["evicted"] == 2
        # Unpinned, the survivor becomes collectable.
        store.unpin(digests[0], owner="run-a")
        assert store.gc(budget_bytes=0)["evicted"] == 1

    def test_pin_is_per_owner(self, store):
        (digest,) = self._populate(store, 1)
        store.pin(digest, owner="a")
        store.pin(digest, owner="b")
        store.unpin(digest, owner="a")
        assert store.pinned(digest)
        store.unpin(digest, owner="b")
        assert not store.pinned(digest)

    def test_no_budget_gc_is_inventory_only(self, store):
        self._populate(store, 3)
        report = store.gc()
        assert report["evicted"] == 0
        assert report["scanned"] == 3

    def test_stats_counts_objects_and_bytes(self, store):
        self._populate(store, 2, size=512)
        stats = store.stats()
        assert stats["objects"] == 2
        assert stats["total_bytes"] == 2 * 512
