"""Concurrency safety of the CAS: racing writers may never tear an object.

Three layers:

* a **fork-based stress test** — real processes all storing the same
  digest (and materializing it back) at once, the exact co-located
  pool-worker / site-agent race the store's unique-temp-name + atomic
  rename protocol exists for, by copy and by adoption;
* a **thread stress test** over the process-wide noted-write table that
  adoption rests on;
* a **Hypothesis interleaving** — two logical actors whose store /
  materialize / gc steps are interleaved in every order the shrinker
  finds interesting, with the invariant that a reader sees either a
  miss or the complete, digest-verified content — never torn bytes.
"""

import hashlib
import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.cas import CASStore, object_relpath
from repro.util.digest import atomic_publish_bytes


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _temps(root: str) -> list:
    return [
        name
        for _, _, names in os.walk(os.path.join(root, "objects"))
        for name in names
        if ".part." in name
    ]


def _read(store: CASStore, digest: str, dest: str):
    """The object's bytes through ``materialize`` (verified), or ``None``."""
    if store.materialize(digest, dest) is None:
        return None
    with open(dest, "rb") as handle:
        return handle.read()


def _race_store(root: str, payload: bytes, out_dir: str, index: int) -> None:
    store = CASStore(root, durable=False)
    digest = _digest(payload)
    src = os.path.join(out_dir, f"src-{index}.bin")
    with open(src, "wb") as handle:
        handle.write(payload)
    assert store.store_file(src, digest=digest) == digest
    dest = os.path.join(out_dir, f"copy-{index}.bin")
    assert store.materialize(digest, dest) == len(payload)
    with open(dest, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == digest


class TestForkStress:
    def test_many_processes_store_same_digest(self, tmp_path):
        """N processes racing on one digest: exactly one object, no tears."""
        root = str(tmp_path / "cas")
        out_dir = str(tmp_path / "out")
        os.makedirs(out_dir)
        payload = os.urandom(256 * 1024)
        digest = _digest(payload)
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_race_store, args=(root, payload, out_dir, index))
            for index in range(8)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = CASStore(root, durable=False)
        obj = os.path.join(root, "objects", object_relpath(digest))
        assert os.path.isfile(obj)
        with open(obj, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest
        assert _temps(root) == []  # no leftover temp files from the race
        assert store.stats()["objects"] == 1

    def test_store_file_race_from_processes(self, tmp_path):
        """store_file's copy-in staging also races safely."""
        src = tmp_path / "src.bin"
        payload = os.urandom(64 * 1024)
        src.write_bytes(payload)
        root = str(tmp_path / "cas")

        def worker() -> None:
            store = CASStore(root, durable=False)
            assert store.store_file(str(src)) == _digest(payload)

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=worker) for _ in range(6)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = CASStore(root, durable=False)
        assert _read(store, _digest(payload), str(tmp_path / "out.bin")) == payload

    def test_two_processes_adopt_equal_files_at_once(self, tmp_path):
        """Two runs publish the same bytes under their own names and store
        them at the same instant: each adopts (or finds) the object, and
        the one that remains is one of the two inodes, whole."""
        root = str(tmp_path / "cas")
        payload = os.urandom(256 * 1024)
        digest = _digest(payload)
        paths = [str(tmp_path / f"run-{index}.bin") for index in range(2)]
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(len(paths))

        def worker(path: str) -> None:
            # The noted-write table is per process: each run publishes its own.
            assert atomic_publish_bytes(path, payload, durable=False)[1] == digest
            barrier.wait(timeout=30)
            store = CASStore(root, durable=False)
            assert store.store_file(path, digest=digest) == digest
            counters = store.counters()
            assert counters["linked_stores"] + counters["dedup_stores"] == 1
            assert counters["stores"] == counters["linked_stores"]

        procs = [ctx.Process(target=worker, args=(path,)) for path in paths]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = CASStore(root, durable=False)
        obj = os.path.join(root, "objects", object_relpath(digest))
        assert os.stat(obj).st_ino in {os.stat(path).st_ino for path in paths}
        assert _read(store, digest, str(tmp_path / "out.bin")) == payload
        assert store.stats()["objects"] == 1
        assert _temps(root) == []


class TestThreadStress:
    def test_threads_publishing_and_storing_at_once_all_adopt(self, tmp_path):
        """The noted-write table is shared by every thread of a process: a
        lost or torn entry would turn an adoption into a copy."""
        store = CASStore(str(tmp_path / "cas"), durable=False)
        threads, files = 8, 16

        def worker(index: int) -> None:
            for number in range(files):
                path = str(tmp_path / f"run-{index}-{number}.bin")
                payload = f"{index}-{number}".encode() * 512
                _, digest = atomic_publish_bytes(path, payload, durable=False)
                assert store.store_file(path, digest=digest) == digest

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                list(pool.map(worker, range(threads)))
        finally:
            sys.setswitchinterval(interval)
        counters = store.counters()
        assert counters["linked_stores"] == counters["stores"] == threads * files


# Each actor's script: a sequence of (op, object-index) steps over a
# tiny object universe, so interleavings collide on the same digests.
_STEP = st.tuples(
    st.sampled_from(["store", "materialize", "gc"]),
    st.integers(min_value=0, max_value=2),
)


class TestInterleaving:
    @given(
        script_a=st.lists(_STEP, max_size=6),
        script_b=st.lists(_STEP, max_size=6),
        schedule=st.lists(st.booleans(), max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_actors_never_observe_torn_state(
        self, tmp_path_factory, script_a, script_b, schedule
    ):
        tmp_path = tmp_path_factory.mktemp("interleave")
        root = str(tmp_path / "cas")
        payloads = [bytes([33 + index]) * (1024 * (index + 1)) for index in range(3)]
        digests = [_digest(payload) for payload in payloads]
        sources = [str(tmp_path / f"src-{index}.bin") for index in range(3)]
        for src, payload in zip(sources, payloads):
            with open(src, "wb") as handle:
                handle.write(payload)
        actors = [
            (CASStore(root, durable=False), list(script_a), "a"),
            (CASStore(root, durable=False), list(script_b), "b"),
        ]
        dest_counter = [0]

        def run_step(store: CASStore, op: str, index: int, tag: str) -> None:
            digest = digests[index]
            if op == "store":
                result = store.store_file(sources[index], digest=digest)
                assert result == digest
            elif op == "materialize":
                dest_counter[0] += 1
                dest = os.path.join(
                    str(tmp_path), f"out-{tag}-{dest_counter[0]}.bin"
                )
                nbytes = store.materialize(digest, dest)
                if nbytes is not None:  # a hit must be the true content
                    with open(dest, "rb") as handle:
                        assert handle.read() == payloads[index]
            else:  # gc with a budget that keeps one object's worth
                store.gc(budget_bytes=2048)

        # Deterministic round-robin scheduler driven by the boolean tape.
        tape = iter(schedule + [True] * 24)
        while any(script for _, script, _ in actors):
            pick = 0 if next(tape) else 1
            store, script, tag = actors[pick]
            if not script:
                store, script, tag = actors[1 - pick]
            op, index = script.pop(0)
            run_step(store, op, index, tag)

        # Whatever survived GC must verify; counters stay consistent.
        survivor_store = CASStore(root, durable=False)
        for digest, payload in zip(digests, payloads):
            loaded = _read(survivor_store, digest, str(tmp_path / f"survivor-{digest}"))
            assert loaded is None or loaded == payload
        assert survivor_store.counters()["corrupt_evictions"] == 0
