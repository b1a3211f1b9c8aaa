"""Unit tests for the content-addressed store: layout, integrity, GC."""

import hashlib
import os

import pytest

from repro.cas import CASStore, object_relpath


def digest_of(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture
def store(tmp_path):
    return CASStore(str(tmp_path / "cas"), durable=False)


class TestLayout:
    def test_object_relpath_shards_by_prefix(self):
        digest = "ab" + "c" * 62
        assert object_relpath(digest) == os.path.join("ab", "c" * 62)

    def test_store_bytes_lands_in_sharded_layout(self, store):
        payload = b"hello cas"
        digest = digest_of(payload)
        assert store.store_bytes(payload, digest) == digest
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
        store.store_bytes(payload, digest)
        store.store_bytes(payload, digest)
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
        store.store_bytes(payload, digest)
        dest = tmp_path / "out" / "artifact.bin"
        assert store.materialize(digest, str(dest)) == len(payload)
        assert dest.read_bytes() == payload
        assert store.counters()["hits"] == 1

    def test_failed_lru_touch_after_delivery_is_still_a_hit(
        self, store, tmp_path, monkeypatch
    ):
        payload = b"delivered" * 100
        digest = digest_of(payload)
        store.store_bytes(payload, digest)

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
        store.store_bytes(payload, digest)
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

    def test_load_bytes_verifies_too(self, store):
        payload = b"in-memory object"
        digest = digest_of(payload)
        store.store_bytes(payload, digest)
        assert store.load_bytes(digest) == payload
        obj = os.path.join(store.root, "objects", object_relpath(digest))
        with open(obj, "r+b") as handle:
            handle.write(b"???")
        assert store.load_bytes(digest) is None
        assert store.counters()["corrupt_evictions"] == 1


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
            store.store_bytes(payload, digest)
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
