"""Shared digest + atomic-publish primitives: one hash loop for everyone.

The workflow's integrity story rests on a handful of operations, and
every layer (journal manifest, content-addressed store, transfer and
shipment verification, chaos surfaces) must perform them *identically*:

* :func:`read_chunks` — a file's content as views of one reusable
  buffer (or of two taking turns), so a read loop is pure I/O, not
  allocator churn.
* :func:`sha256_file` / :func:`digest_file` — streaming SHA-256 over
  those chunks.  ``digest_file`` additionally counts the bytes *while
  hashing*, so callers that need ``(digest, size)`` get a pair observed
  from the same read pass — no second ``stat`` racing a concurrent
  writer.
* :func:`write_digested` — write buffers to an open file and hash them
  on the way: publishing a dataset chunk by chunk, copying a file into
  the store or to the destination, all cost one pass over the bytes.
* :func:`digest_buffer` — SHA-256 of a buffer already in memory (a
  mapped file a parser reads), as a future.
* :func:`atomic_publish_chunks` / :func:`atomic_publish_bytes` — the
  crash-consistency triple (temp name in the same directory, file fsync,
  ``os.replace``, directory fsync) around :func:`write_digested`.
* :func:`note_published` / :func:`noted_write` — what this process just
  published: the inode it wrote and the digest it computed on the way,
  so the content-addressed store can adopt that inode instead of copying
  and re-hashing it.  :func:`digest_file` never consults the table.

Every large pass runs *beside* the bytes it guards: ``hashlib`` and file
I/O both release the GIL, so a slice of :data:`OVERLAP_SLICE` or more is
hashed on a helper thread while the caller writes that same slice
(``write_digested``), reads the next one (``digest_file``, double
buffered), or parses and labels (``digest_buffer``).  Smaller
slices, and files or buffers under two :data:`HASH_SLICE` lengths, are
hashed inline on the calling thread: a thread handoff would cost more
than it hides.  Each slice's hash finishes before its buffer can be
reused, so every digest is the one a single-threaded loop would
compute.  The helpers are a bounded per-process pool, started on first
use and forgotten in a forked child.

This module sits below ``repro.journal``, ``repro.cas`` and
``repro.transfer`` in the import graph; import from here directly.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import BinaryIO, Iterable, Iterator, Optional, Tuple, Union

__all__ = [
    "TEMP_SUFFIX",
    "HASH_SLICE",
    "OVERLAP_SLICE",
    "fsync_dir",
    "sha256_file",
    "read_chunks",
    "digest_file",
    "write_digested",
    "digest_buffer",
    "atomic_publish_bytes",
    "atomic_publish_chunks",
    "note_published",
    "noted_write",
]

# The shared temp-name convention: writers publish ``<final>.part`` and
# rename; directory sweeps (shipment's) skip the suffix unconditionally.
TEMP_SUFFIX = ".part"

# Digest-while-writing slice: large enough to amortize hashlib call
# overhead, small enough to stay cache-friendly.
HASH_SLICE = 4 * 1024 * 1024

# The smallest slice hashed on a helper thread beside its write or read;
# below it the handoff costs more than the overlap wins.
OVERLAP_SLICE = 1024 * 1024

# Helper threads per process: one beside each of two busy callers.
_HELPERS = 2

Buffer = Union[bytes, bytearray, memoryview, mmap.mmap]
PathLike = Union[str, "os.PathLike[str]"]

# One noted publication: ((st_dev, st_ino, st_size, st_mtime_ns) of the
# inode written, its sha256, whether it was fsynced).
NotedWrite = Tuple[Tuple[int, int, int, int], str, bool]

# Bounded and process-local: a forgotten entry only costs the store a copy.
_NOTED_MAX = 1024
_noted: "OrderedDict[str, NotedWrite]" = OrderedDict()
_noted_lock = threading.Lock()


_helpers: Optional[ThreadPoolExecutor] = None
_helpers_lock = threading.Lock()


def _reset_in_child() -> None:
    # Another thread may have held a lock at fork, and the parent's
    # helper threads do not exist here: the child starts its own.
    global _noted_lock, _helpers, _helpers_lock
    _noted_lock = threading.Lock()
    _noted.clear()
    _helpers_lock = threading.Lock()
    _helpers = None


os.register_at_fork(after_in_child=_reset_in_child)


def _helper() -> ThreadPoolExecutor:
    """This process's hashing helpers, started on first use."""
    global _helpers
    if _helpers is None:
        with _helpers_lock:
            if _helpers is None:
                _helpers = ThreadPoolExecutor(_HELPERS, thread_name_prefix="digest")
    return _helpers


def note_published(path: str, stat: os.stat_result, digest: str, synced: bool) -> None:
    """Remember that the inode ``stat`` describes, now published at
    ``path``, holds bytes hashing to ``digest``.  Call right after the
    ``os.replace``, with ``stat`` from ``fstat`` of the written handle
    once it was flushed (and fsynced when ``synced``)."""
    identity = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
    key = os.path.abspath(path)
    with _noted_lock:
        _noted[key] = (identity, digest, synced)
        _noted.move_to_end(key)
        if len(_noted) > _NOTED_MAX:
            _noted.popitem(last=False)


def noted_write(path: str) -> Optional[NotedWrite]:
    """The last publication this process noted at ``path``, if any."""
    with _noted_lock:
        return _noted.get(os.path.abspath(path))


def fsync_dir(directory: str) -> None:
    """Best-effort directory fsync (makes a completed rename durable)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # platform or filesystem without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def sha256_file(path: PathLike, chunk_size: int = HASH_SLICE) -> str:
    """Streaming SHA-256 of a file's content."""
    digest, _ = digest_file(path, chunk_size=chunk_size)
    return digest


def read_chunks(
    path: PathLike, chunk_size: int = HASH_SLICE, buffers: int = 1
) -> Iterator[memoryview]:
    """A file's content as successive views of reusable buffers.

    ``readinto`` fills the same buffer every time instead of allocating
    a fresh bytes object per chunk, so each view is only valid until the
    next one is requested.  With ``buffers=2`` two buffers take turns, so
    a view stays valid until the one after next is requested: the
    consumer may hash chunk k on a helper while chunk k+1 is read.  Each
    buffer is sized to the file (one byte over, so a file that has not
    grown ends on the second, empty read) and capped at ``chunk_size``:
    zero-filling 4 MiB to hash a tile file of a few hundred kilobytes
    cost more than the hash.
    """
    with open(path, "rb") as handle:
        size = min(chunk_size, os.fstat(handle.fileno()).st_size + 1)
        views = [memoryview(bytearray(size)) for _ in range(buffers)]
        turn = 0
        while True:
            view = views[turn % buffers]
            got = handle.readinto(view)
            if not got:
                return
            yield view[:got]
            turn += 1


def digest_file(path: PathLike, chunk_size: int = HASH_SLICE) -> Tuple[str, int]:
    """Streaming SHA-256 plus byte count, from one read pass.

    The size is summed from the same reads that feed the hash, so the
    ``(digest, nbytes)`` pair always describes a single observation of
    the file — a concurrent writer can never make the size disagree
    with the digest.

    A file of two :data:`HASH_SLICE` lengths or more is read double buffered:
    a helper hashes chunk k while chunk k+1 is read into the other
    buffer, and chunk k's hash finishes before its buffer is refilled.
    """
    sha = hashlib.sha256()
    nbytes = 0
    try:
        size = os.stat(path).st_size
    except OSError:
        size = 0  # the read below raises, or finds the file after all
    if size < 2 * HASH_SLICE or chunk_size < OVERLAP_SLICE:
        for chunk in read_chunks(path, chunk_size):
            sha.update(chunk)
            nbytes += len(chunk)
        return sha.hexdigest(), nbytes
    hashing: Optional[Future] = None
    try:
        for chunk in read_chunks(path, chunk_size, buffers=2):
            if hashing is not None:
                hashing.result()
                hashing = None
            if len(chunk) < OVERLAP_SLICE:
                sha.update(chunk)
            else:
                hashing = _helper().submit(sha.update, chunk)
            nbytes += len(chunk)
    finally:
        if hashing is not None:
            hashing.result()
    return sha.hexdigest(), nbytes


def write_digested(handle: BinaryIO, chunks: Iterable[Buffer]) -> Tuple[int, str]:
    """Write ``chunks`` to ``handle`` in order, hashing each slice as it
    is written; returns ``(nbytes, sha256_hex)``.

    The one write-while-hashing loop: publication, copy-in and shipment
    all touch a byte once for both purposes instead of writing a file
    and reading it back.  A slice of :data:`OVERLAP_SLICE` or more is
    hashed on a helper while this thread writes it, and its hash
    finishes before the next slice (or the next chunk: a
    :func:`read_chunks` source refills its buffer) is touched; a smaller
    one is written, then hashed, inline.  Chunks are buffers of bytes
    (``bytes``, or a 1-D ``B`` memoryview) and are never copied here;
    runs of small ones are merged by the handle's own write buffer.
    Flushing and fsync stay with the caller, who owns the handle.
    """
    digest = hashlib.sha256()
    nbytes = 0
    for chunk in chunks:
        view = memoryview(chunk)
        for start in range(0, view.nbytes, HASH_SLICE):
            piece = view[start : start + HASH_SLICE]
            if piece.nbytes < OVERLAP_SLICE:
                handle.write(piece)
                digest.update(piece)
                continue
            hashing = _helper().submit(digest.update, piece)
            try:
                handle.write(piece)
            finally:
                hashing.result()
        nbytes += view.nbytes
    return nbytes, digest.hexdigest()


def digest_buffer(buffer: Buffer) -> "Future[str]":
    """SHA-256 of ``buffer``, as a future of its hex digest.

    A buffer of two :data:`HASH_SLICE` lengths or more is hashed on a helper,
    so the caller can go on reading the same bytes (parsing a mapped
    file) meanwhile; a smaller one is hashed inline and the future comes
    back done.  ``buffer`` must stay valid and unchanged until the
    future is done.
    """
    if memoryview(buffer).nbytes >= 2 * HASH_SLICE:
        return _helper().submit(_sha256_hex, buffer)
    done: "Future[str]" = Future()
    done.set_result(_sha256_hex(buffer))
    return done


def _sha256_hex(buffer: Buffer) -> str:
    return hashlib.sha256(buffer).hexdigest()


def atomic_publish_bytes(
    path: str, payload: Buffer, durable: bool = True
) -> Tuple[int, str]:
    """:func:`atomic_publish_chunks` of one buffer."""
    return atomic_publish_chunks(path, (payload,), durable=durable)


def atomic_publish_chunks(
    path: str, chunks: Iterable[Buffer], durable: bool = True
) -> Tuple[int, str]:
    """Atomic write that also digests; returns ``(nbytes, sha256_hex)``.

    The chunks are hashed in slices *while they stream to the temp file*,
    so publication and integrity recording cost one pass over the bytes
    instead of a write followed by a full re-read.  With ``durable`` the
    temp file is fsynced before the rename and the directory after it,
    so a crash at any instant leaves either the previous content or the
    complete new content — never a torn file under the final name.  The
    publication is noted (:func:`note_published`) for the store to adopt.
    """
    temp_path = path + TEMP_SUFFIX
    with open(temp_path, "wb") as handle:
        nbytes, digest = write_digested(handle, chunks)
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
        written = os.fstat(handle.fileno())
    os.replace(temp_path, path)
    note_published(path, written, digest, durable)
    if durable:
        fsync_dir(os.path.dirname(path))
    return nbytes, digest
