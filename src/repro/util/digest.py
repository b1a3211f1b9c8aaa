"""Shared digest + atomic-publish primitives: one hash loop for everyone.

The workflow's integrity story rests on a handful of operations, and
every layer (journal manifest, content-addressed store, transfer and
shipment verification, chaos surfaces) must perform them *identically*:

* :func:`read_chunks` — a file's content as views of one reusable
  buffer, so a read loop is pure I/O, not allocator churn.
* :func:`sha256_file` / :func:`digest_file` — streaming SHA-256 over
  those chunks.  ``digest_file`` additionally counts the bytes *while
  hashing*, so callers that need ``(digest, size)`` get a pair observed
  from the same read pass — no second ``stat`` racing a concurrent
  writer.
* :func:`write_digested` — write buffers to an open file and hash them
  on the way: publishing a dataset chunk by chunk, copying a file into
  the store or to the destination, all cost one pass over the bytes.
* :func:`atomic_publish_chunks` / :func:`atomic_publish_bytes` — the
  crash-consistency triple (temp name in the same directory, file fsync,
  ``os.replace``, directory fsync) around :func:`write_digested`.
* :func:`note_published` / :func:`noted_write` — what this process just
  published: the inode it wrote and the digest it computed on the way,
  so the content-addressed store can adopt that inode instead of copying
  and re-hashing it.  :func:`digest_file` never consults the table.

This module sits below ``repro.journal``, ``repro.cas`` and
``repro.transfer`` in the import graph; import from here directly.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import threading
from collections import OrderedDict
from typing import BinaryIO, Iterable, Iterator, Optional, Tuple, Union

__all__ = [
    "TEMP_SUFFIX",
    "HASH_SLICE",
    "fsync_dir",
    "sha256_file",
    "read_chunks",
    "digest_file",
    "write_digested",
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

Buffer = Union[bytes, bytearray, memoryview, mmap.mmap]
PathLike = Union[str, "os.PathLike[str]"]

# One noted publication: ((st_dev, st_ino, st_size, st_mtime_ns) of the
# inode written, its sha256, whether it was fsynced).
NotedWrite = Tuple[Tuple[int, int, int, int], str, bool]

# Bounded and process-local: a forgotten entry only costs the store a copy.
_NOTED_MAX = 1024
_noted: "OrderedDict[str, NotedWrite]" = OrderedDict()
_noted_lock = threading.Lock()


def _forget_noted_in_child() -> None:
    global _noted_lock
    _noted_lock = threading.Lock()  # another thread may have held it at fork
    _noted.clear()


os.register_at_fork(after_in_child=_forget_noted_in_child)


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


def read_chunks(path: PathLike, chunk_size: int = HASH_SLICE) -> Iterator[memoryview]:
    """A file's content as successive views of one reusable buffer.

    ``readinto`` fills the same buffer every time instead of allocating
    a fresh bytes object per chunk, so each view is only valid until the
    next one is requested.  The buffer is sized to the file (one byte
    over, so a file that has not grown ends on the second, empty read)
    and capped at ``chunk_size``: zero-filling 4 MiB to hash a tile file
    of a few hundred kilobytes cost more than the hash.
    """
    with open(path, "rb") as handle:
        buffer = bytearray(min(chunk_size, os.fstat(handle.fileno()).st_size + 1))
        view = memoryview(buffer)
        while True:
            got = handle.readinto(buffer)
            if not got:
                return
            yield view[:got]


def digest_file(path: PathLike, chunk_size: int = HASH_SLICE) -> Tuple[str, int]:
    """Streaming SHA-256 plus byte count, from one read pass.

    The size is summed from the same reads that feed the hash, so the
    ``(digest, nbytes)`` pair always describes a single observation of
    the file — a concurrent writer can never make the size disagree
    with the digest.
    """
    sha = hashlib.sha256()
    nbytes = 0
    for chunk in read_chunks(path, chunk_size):
        sha.update(chunk)
        nbytes += len(chunk)
    return sha.hexdigest(), nbytes


def write_digested(handle: BinaryIO, chunks: Iterable[Buffer]) -> Tuple[int, str]:
    """Write ``chunks`` to ``handle`` in order, hashing each slice right
    after it is written; returns ``(nbytes, sha256_hex)``.

    The one write-while-hashing loop: publication, copy-in and shipment
    all touch a byte once for both purposes instead of writing a file
    and reading it back.  Chunks are buffers of bytes (``bytes``, or a
    1-D ``B`` memoryview) and are never copied here; runs of small ones
    are merged by the handle's own write buffer.  Flushing and fsync
    stay with the caller, who owns the handle.
    """
    digest = hashlib.sha256()
    nbytes = 0
    for chunk in chunks:
        view = memoryview(chunk)
        for start in range(0, view.nbytes, HASH_SLICE):
            piece = view[start : start + HASH_SLICE]
            handle.write(piece)
            digest.update(piece)
        nbytes += view.nbytes
    return nbytes, digest.hexdigest()


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
