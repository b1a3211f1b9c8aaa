"""The digest primitives against ``hashlib``: one table of sizes and
buffer kinds, inline and on the helper threads alike.

Large slices are hashed on a helper while the caller writes or reads
them; whatever ran where, every digest must equal the one a plain
single-threaded ``hashlib.sha256`` computes over the same bytes.
"""

import hashlib
import io
import mmap
import os
import random
import signal

import pytest

from repro.util import digest as digest_module
from repro.util.digest import (
    HASH_SLICE,
    digest_buffer,
    digest_file,
    read_chunks,
    sha256_file,
    write_digested,
)

SIZES = [0, 1, HASH_SLICE - 1, HASH_SLICE, HASH_SLICE + 1, 3 * HASH_SLICE + 7]


def payload(size):
    return random.Random(size).randbytes(size)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("digest")
    made = {}
    for size in SIZES:
        data = payload(size)
        path = directory / f"blob_{size}"
        path.write_bytes(data)
        made[size] = (str(path), data, hashlib.sha256(data).hexdigest())
    return made


def as_bytes(path, data):
    return [data]


def as_memoryviews(path, data):
    # Uneven chunks: slices of every size straddle a chunk edge somewhere.
    view = memoryview(data)
    cuts = [0, len(data) // 3, len(data) // 3 + 1, len(data)]
    return [view[start:end] for start, end in zip(cuts, cuts[1:])]


def as_mmap(path, data):
    if not data:
        return [b""]  # an empty file cannot be mapped
    with open(path, "rb") as handle:
        return [mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)]


def as_read_chunks(path, data):
    # One reused buffer: a hash still running when the next read lands
    # would see the next chunk's bytes.
    return read_chunks(path)


CHUNKERS = [as_bytes, as_memoryviews, as_mmap, as_read_chunks]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("chunker", CHUNKERS, ids=lambda chunker: chunker.__name__)
def test_write_digested_matches_hashlib(files, size, chunker):
    path, data, expected = files[size]
    sink = io.BytesIO()
    nbytes, digest = write_digested(sink, chunker(path, data))
    assert (nbytes, digest) == (size, expected)
    assert sink.getvalue() == data


@pytest.mark.parametrize("size", SIZES)
def test_digest_file_matches_hashlib(files, size):
    path, _data, expected = files[size]
    assert digest_file(path) == (expected, size)
    assert sha256_file(path) == expected


@pytest.mark.parametrize("chunk_size", [4096, HASH_SLICE - 1, 2 * HASH_SLICE])
def test_digest_file_matches_hashlib_at_any_chunk_size(files, chunk_size):
    path, _data, expected = files[3 * HASH_SLICE + 7]
    assert digest_file(path, chunk_size) == (expected, 3 * HASH_SLICE + 7)


@pytest.mark.parametrize("size", SIZES)
def test_digest_buffer_matches_hashlib(files, size):
    _path, data, expected = files[size]
    assert digest_buffer(data).result() == expected


def test_double_buffered_views_alternate(files):
    """With two buffers, chunk k is still intact while chunk k+1 is read."""
    path, data, _expected = files[3 * HASH_SLICE + 7]
    chunks = read_chunks(path, buffers=2)
    previous = next(chunks)
    offset = 0
    for chunk in chunks:
        assert bytes(previous) == data[offset : offset + len(previous)]
        offset += len(previous)
        previous = chunk
    assert offset + len(previous) == len(data)


def test_a_helper_failure_surfaces_after_the_write(files, monkeypatch):
    """A slice's hash that raises fails the call; it is never lost."""
    _path, data, _expected = files[HASH_SLICE + 1]

    class Exploding:
        def update(self, _data):
            raise RuntimeError("hash failed")

    monkeypatch.setattr(hashlib, "sha256", Exploding)
    with pytest.raises(RuntimeError, match="hash failed"):
        write_digested(io.BytesIO(), [data])


def test_small_passes_never_reach_a_helper(files, monkeypatch):
    """Files under two slices and slices under the overlap size hash on
    the calling thread: no thread handoff for mini-sized artifacts."""

    def no_helper():
        raise AssertionError("a small pass was handed to a helper")

    monkeypatch.setattr(digest_module, "_helper", no_helper)
    for size in (0, 1, HASH_SLICE - 1, HASH_SLICE + 1):
        path, data, expected = files[size]
        assert digest_file(path) == (expected, size)
        assert digest_buffer(data).result() == expected
    chunks = [b"x" * (digest_module.OVERLAP_SLICE - 1)] * 3
    expected = hashlib.sha256(b"".join(chunks)).hexdigest()
    assert write_digested(io.BytesIO(), chunks)[1] == expected


def test_large_passes_run_beside_their_io(files, monkeypatch):
    """Files of two slices or more, and slices of the overlap size or
    more, are hashed on a helper."""
    handed = []
    real = digest_module._helper

    def counting_helper():
        handed.append(1)
        return real()

    monkeypatch.setattr(digest_module, "_helper", counting_helper)
    path, data, expected = files[3 * HASH_SLICE + 7]
    assert digest_file(path) == (expected, len(data))
    assert len(handed) == 3  # three full slices; the 7-byte tail inline
    assert digest_buffer(data).result() == expected
    assert len(handed) == 4
    assert write_digested(io.BytesIO(), [data]) == (len(data), expected)
    assert len(handed) == 7


def test_a_forked_child_hashes_on_its_own_helpers(files):
    """The parent's helper threads do not exist in a fork: the child
    starts its own, and its digests match."""
    path, data, expected = files[3 * HASH_SLICE + 7]
    # Start the parent's helpers first, so the child inherits a pool.
    assert digest_file(path) == (expected, len(data))
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then leave without cleanup
        signal.alarm(30)  # a helper the child waits on forever kills it
        try:
            sink = io.BytesIO()
            nbytes, written = write_digested(sink, read_chunks(path))
            read, _ = digest_file(path)
            line = f"{nbytes} {written} {read} {digest_buffer(data).result()}"
            os.write(write_end, line.encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        reported = pipe.read().decode().split()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert reported == [str(len(data)), expected, expected, expected]
