"""The content-addressed store: sharded objects, derived keys, pins, GC.

Layout under one root directory (typically shared by every run and every
co-located site agent of a facility)::

    objects/ab/cdef...   immutable blobs named by their SHA-256
    keys/ab/cdef...      derived-key table: sha256(logical key) -> JSON
    pins/<digest>/<owner>  ref-count pins (one empty file per owner)
    quarantine/          objects whose bytes stopped matching their name

Design rules, in order of importance:

* **The cache is an optimization, never a source of truth.**  Every
  store failure (ENOSPC, permissions, races) is swallowed and counted;
  every read is digest-verified before a byte reaches a consumer, and a
  mismatch quarantines the object and reports a miss so the caller
  re-fetches.  A corrupt or missing CAS can only make the workflow
  slower, never wrong.
* **Publication is atomic and race-safe.**  An object enters under a
  per-process/per-thread temp name and is ``os.replace``\\ d into the
  sharded final name; every failure path unlinks its temp.  Two
  processes storing the same digest both succeed: the replace is
  last-writer-wins over identical content.
* **What the run already hashed is adopted, not copied.**  When the
  claimant's digest comes from a write this process noted
  (:func:`~repro.util.digest.note_published`) and the path is still that
  inode — same device, inode number, size and mtime, fsynced if the
  store is durable — the file is hardlinked in: no byte is copied or
  re-hashed.  Anything else (no claim, no note, a replaced or rewritten
  file, ``EXDEV``) is copied in and digested while streaming, and a claim
  the bytes do not match is refused.  Sharing the inode is safe because
  published files are immutable (writers replace, never rewrite;
  ``tools/check_layering.py`` enforces it) and every read below
  re-verifies the bytes anyway.
* **Materialization is hardlink-or-copy.**  A hit hardlinks the object
  to the destination when the filesystem allows it (zero-copy) and
  falls back to a plain copy across devices; either way the object is
  verified first and its mtime refreshed, so GC's LRU order follows use.
* **GC never evicts a pinned object.**  The budget sweep walks objects
  oldest-first and stops at the budget; pinned digests are skipped no
  matter how old.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.util.digest import (
    digest_file,
    fsync_dir,
    noted_write,
    read_chunks,
    write_digested,
)

__all__ = ["CASStore", "object_relpath", "CACHE_COUNTERS"]

_OBJECTS = "objects"
_KEYS = "keys"
_PINS = "pins"
_QUARANTINE = "quarantine"

# The always-present counter family (zeros when the cache is idle), so
# reports and metrics never grow or shrink keys between runs.
CACHE_COUNTERS = (
    "hits",            # lookups and materializations served from the store
    "misses",          # lookups that found no (valid) object
    "stores",          # objects newly published into the store
    "linked_stores",   # objects adopted by hardlink: no byte copied or re-hashed
    "dedup_stores",    # store calls whose object already existed
    "key_hits",        # derived-key lookups that resolved
    "key_misses",      # derived-key lookups that did not
    "bytes_saved",     # bytes NOT re-fetched/re-computed thanks to hits
    "bytes_stored",    # bytes that entered the store, adopted or copied
    "store_errors",    # swallowed store failures (ENOSPC and friends)
    "corrupt_evictions",  # objects quarantined by the read-time digest check
    "evicted_objects",    # GC victims
    "evicted_bytes",
)


def _discard(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def object_relpath(digest: str) -> str:
    """Sharded relative path of one object: ``ab/cdef...``."""
    if len(digest) < 3:
        raise ValueError(f"not a sha256 digest: {digest!r}")
    return os.path.join(digest[:2], digest[2:])


class CASStore:
    """One content-addressed store rooted at a directory.

    ``chaos`` is an optional :class:`~repro.chaos.engine.FaultInjector`;
    the store is itself a fault surface (stage ``cache``): a scheduled
    ``cache_corrupt`` damages the object's bytes just before the
    read-time verification (modeling bit-rot on the shared cache
    volume), and ``cache_enospc`` makes a store attempt fail with
    ENOSPC.  Both must be invisible to correctness.
    """

    def __init__(
        self,
        root: str,
        budget_bytes: Optional[int] = None,
        durable: bool = True,
        chaos: Any = None,
    ):
        self.root = os.path.abspath(root)
        self.budget_bytes = budget_bytes
        self.durable = durable
        self.chaos = chaos
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in CACHE_COUNTERS}
        for sub in (_OBJECTS, _KEYS, _PINS, _QUARANTINE):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)

    # -- bookkeeping ---------------------------------------------------------

    def _note(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @staticmethod
    @contextmanager
    def _temp(final_path: str) -> Iterator[str]:
        """A temp name beside ``final_path``, unique per process AND
        thread (two writers racing on one digest never share a temp).

        It is unlinked on entry (a dead writer's leftover may be a link
        to a published inode; writing through it would alias) and on
        exit, so a failed copy, link or replace leaves nothing behind —
        GC never walks ``incoming/`` and would never reclaim it.  After
        a successful rename the exit unlink finds nothing, or removes
        the temp a no-op rename (onto a link of the same inode) left.
        """
        temp_path = f"{final_path}.part.{os.getpid()}.{threading.get_ident()}"
        _discard(temp_path)
        try:
            yield temp_path
        finally:
            _discard(temp_path)

    def _object_path(self, digest: str) -> str:
        return os.path.join(self.root, _OBJECTS, object_relpath(digest))

    def has(self, digest: str) -> bool:
        return os.path.isfile(self._object_path(digest))

    # -- chaos hooks ---------------------------------------------------------

    def _chaos_enospc(self, key: str) -> None:
        if self.chaos is not None and self.chaos.fire("cache", "cache_enospc", key):
            raise OSError(errno.ENOSPC, "chaos: cache volume out of space")

    def _chaos_corrupt(self, digest: str, path: str) -> None:
        if self.chaos is not None and self.chaos.fire("cache", "cache_corrupt", digest):
            from repro.chaos.surfaces import damage_file

            damage_file(path)

    def _chaos_crash(self, key: str) -> None:
        if self.chaos is not None:
            from repro.chaos.surfaces import chaos_crash

            chaos_crash(self.chaos, "cache", key)

    # -- storing -------------------------------------------------------------

    def store_file(self, path: str, digest: Optional[str] = None) -> Optional[str]:
        """Publish a file's content as an object; returns its digest.

        When ``digest`` is supplied it is an integrity *claim*.  A claim
        backed by this process's noted write of the very inode at
        ``path`` is adopted by hardlink (:meth:`_adopt`); otherwise the
        content is copied (digesting while streaming) and a claim the
        bytes hash differently from is refused (counted, not raised) — a
        torn source file must never be immortalized under a healthy
        name.  Either way the object enters under a unique temp name and
        is atomically renamed, so concurrent stores of the same digest
        are safe.  All failures return ``None``.
        """
        try:
            claimed = digest
            if claimed is not None and self.has(claimed):
                self._note("dedup_stores")
                return claimed
            self._chaos_enospc(digest or os.path.basename(path))
            staging = os.path.join(self.root, _OBJECTS, "incoming")
            os.makedirs(staging, exist_ok=True)
            with self._temp(os.path.join(staging, "obj")) as temp_path:
                if claimed is not None:
                    nbytes = self._adopt(path, claimed, temp_path)
                    if nbytes is not None:
                        self._publish(temp_path, claimed, nbytes)
                        self._note("linked_stores")
                        return claimed
                observed, nbytes = self._copy_in(path, temp_path)
                if claimed is not None and observed != claimed:
                    self._note("store_errors")
                    return None
                return self._publish(temp_path, observed, nbytes)
        except OSError:
            self._note("store_errors")
            return None

    def store_bytes(self, payload: bytes, digest: str) -> Optional[str]:
        """Publish an in-memory payload whose digest is already known."""
        try:
            if self.has(digest):
                self._note("dedup_stores")
                return digest
            self._chaos_enospc(digest)
            final_path = self._object_path(digest)
            os.makedirs(os.path.dirname(final_path), exist_ok=True)
            with self._temp(final_path) as temp_path:
                with open(temp_path, "wb") as handle:
                    handle.write(payload)
                    if self.durable:
                        handle.flush()
                        os.fsync(handle.fileno())
                return self._publish(temp_path, digest, len(payload))
        except OSError:
            self._note("store_errors")
            return None

    def _adopt(self, path: str, claimed: str, temp_path: str) -> Optional[int]:
        """Hardlink ``path`` to ``temp_path`` if it is provably the inode
        whose bytes hashed to ``claimed``; returns its size, or ``None``
        with nothing linked, for the caller to copy and verify instead.

        The proof is the write this process noted at ``path``: same
        digest, fsynced unless the store itself is not durable, and the
        linked inode's device, number, size and mtime unchanged since.
        A file replaced after publication is another inode; one
        rewritten in place moved its size or mtime.
        """
        noted = noted_write(path)
        if noted is None:
            return None
        identity, digest, synced = noted
        if digest != claimed or (self.durable and not synced):
            return None
        try:
            os.link(path, temp_path)
        except OSError:  # EXDEV, a vanished file, no hardlinks here
            return None
        stat = os.stat(temp_path)
        if (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns) != identity:
            os.unlink(temp_path)  # never copy into a link of the source
            return None
        return stat.st_size

    def _copy_in(self, path: str, temp_path: str) -> Tuple[str, int]:
        """Copy ``path`` to ``temp_path``, hashing on the way."""
        with open(temp_path, "wb") as dst:
            nbytes, digest = write_digested(dst, read_chunks(path))
            if self.durable:
                dst.flush()
                os.fsync(dst.fileno())
        return digest, nbytes

    def _publish(self, temp_path: str, digest: str, nbytes: int) -> str:
        final_path = self._object_path(digest)
        os.makedirs(os.path.dirname(final_path), exist_ok=True)
        os.replace(temp_path, final_path)
        if self.durable:
            fsync_dir(os.path.dirname(final_path))
        self._note("stores")
        self._note("bytes_stored", nbytes)
        return digest

    # -- reading -------------------------------------------------------------

    def materialize(self, digest: str, dest: str, counted: bool = True) -> Optional[int]:
        """Produce ``dest`` with the object's content; returns its size.

        The object is digest-verified *before* it is handed out; a
        mismatch (bit-rot, a poisoned entry) quarantines the object and
        returns ``None`` — the caller falls back to the authoritative
        source, so bad bytes are never shipped.  Delivery is hardlink
        when possible, copy otherwise, always via a unique temp name and
        an atomic rename under the final destination.  ``counted=False``
        delivers an object whose hit a :meth:`lookup` already counted.
        """
        obj = self._object_path(digest)
        if not os.path.isfile(obj):
            self._note("misses")
            return None
        try:
            self._chaos_corrupt(digest, obj)
            observed, nbytes = digest_file(obj)
            if observed != digest:
                self._quarantine(digest, obj)
                self._note("corrupt_evictions")
                self._note("misses")
                return None
            os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
            with self._temp(dest) as temp_path:
                try:
                    os.link(obj, temp_path)
                except OSError:
                    shutil.copyfile(obj, temp_path)
                self._chaos_crash(digest)
                os.replace(temp_path, dest)
            if self.durable:
                fsync_dir(os.path.dirname(dest))
        except OSError:
            self._note("misses")
            return None
        self._touch(obj)
        if counted:
            self._note("hits")
            self._note("bytes_saved", nbytes)
        return nbytes

    def lookup(self, digest: str) -> Optional[int]:
        """Count a hit on an object nobody reads yet; returns its size.

        Nothing is linked, read or hashed: the object is only found,
        sized and made young again.  Its bytes are verified whenever a
        reader later :meth:`materialize`\\ s it, so a hit on an object that
        rotted since costs that reader a re-fetch, never a wrong byte.
        """
        obj = self._object_path(digest)
        try:
            nbytes = os.stat(obj).st_size
        except OSError:
            self._note("misses")
            return None
        self._touch(obj)
        self._note("hits")
        self._note("bytes_saved", nbytes)
        return nbytes

    def load_bytes(self, digest: str) -> Optional[bytes]:
        """Read an object into memory, digest-verified like materialize.

        Same contract as :meth:`materialize`: a damaged object is
        quarantined and reported as a miss, never handed out.
        """
        obj = self._object_path(digest)
        if not os.path.isfile(obj):
            self._note("misses")
            return None
        try:
            self._chaos_corrupt(digest, obj)
            with open(obj, "rb") as handle:
                payload = handle.read()
        except OSError:
            self._note("misses")
            return None
        import hashlib

        if hashlib.sha256(payload).hexdigest() != digest:
            self._quarantine(digest, obj)
            self._note("corrupt_evictions")
            self._note("misses")
            return None
        self._touch(obj)
        self._note("hits")
        self._note("bytes_saved", len(payload))
        return payload

    @staticmethod
    def _touch(obj: str) -> None:
        """LRU: a hit makes the object young again.  Best-effort — the
        bytes are already delivered, so a failed touch is not a miss."""
        try:
            os.utime(obj)
        except OSError:
            pass

    def _quarantine(self, digest: str, obj: str) -> None:
        """Move a failed object aside so the next lookup misses cleanly."""
        target = os.path.join(self.root, _QUARANTINE, digest)
        try:
            os.replace(obj, target)
        except OSError:
            _discard(obj)

    # -- derived keys --------------------------------------------------------
    #
    # Outputs (tile files) whose content digest is unknown before the
    # computation are cached under a *logical* key — the action-cache
    # pattern: sha256(key string) names a small JSON record that points
    # at the object digest plus whatever payload the stage journaled.

    def _key_path(self, key: str) -> str:
        import hashlib

        hashed = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self.root, _KEYS, object_relpath(hashed))

    def put_key(self, key: str, value: Dict[str, Any]) -> bool:
        """Record ``key -> value`` (value must be JSON-serializable)."""
        try:
            self._chaos_enospc(key)
            path = self._key_path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            payload = json.dumps({"key": key, "value": value}, sort_keys=True)
            with self._temp(path) as temp_path:
                with open(temp_path, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                    if self.durable:
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(temp_path, path)
            return True
        except OSError:
            self._note("store_errors")
            return False

    def get_key(self, key: str) -> Optional[Dict[str, Any]]:
        """Resolve a derived key; ``None`` on absence or damage."""
        try:
            with open(self._key_path(key), "r", encoding="utf-8") as handle:
                parsed = json.load(handle)
        except (OSError, ValueError):
            self._note("key_misses")
            return None
        if not isinstance(parsed, dict) or parsed.get("key") != key:
            self._note("key_misses")
            return None
        self._note("key_hits")
        value = parsed.get("value")
        return value if isinstance(value, dict) else None

    # -- pins ----------------------------------------------------------------

    @staticmethod
    def _owner_name(owner: str) -> str:
        return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in owner) or "_"

    def pin(self, digest: str, owner: str) -> None:
        pin_dir = os.path.join(self.root, _PINS, digest)
        os.makedirs(pin_dir, exist_ok=True)
        pin_path = os.path.join(pin_dir, self._owner_name(owner))
        with open(pin_path, "w", encoding="utf-8"):
            pass

    def unpin(self, digest: str, owner: str) -> None:
        pin_path = os.path.join(self.root, _PINS, digest, self._owner_name(owner))
        try:
            os.unlink(pin_path)
        except OSError:
            return
        try:
            os.rmdir(os.path.dirname(pin_path))
        except OSError:
            pass  # other owners still pin it

    def pinned(self, digest: str) -> bool:
        pin_dir = os.path.join(self.root, _PINS, digest)
        try:
            return bool(os.listdir(pin_dir))
        except OSError:
            return False

    # -- inventory & GC ------------------------------------------------------

    def _walk_objects(self) -> List[Tuple[str, str, int, float]]:
        """All objects as ``(digest, path, nbytes, mtime)``."""
        out: List[Tuple[str, str, int, float]] = []
        objects_root = os.path.join(self.root, _OBJECTS)
        for shard in sorted(os.listdir(objects_root)):
            if len(shard) != 2:
                continue  # the incoming/ staging area, never an object shard
            shard_dir = os.path.join(objects_root, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            for name in names:
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                out.append((shard + name, path, stat.st_size, stat.st_mtime))
        return out

    def stats(self) -> Dict[str, Any]:
        objects = self._walk_objects()
        pinned = sum(1 for digest, _, _, _ in objects if self.pinned(digest))
        summary: Dict[str, Any] = {
            "root": self.root,
            "objects": len(objects),
            "total_bytes": sum(nbytes for _, _, nbytes, _ in objects),
            "pinned_objects": pinned,
            "budget_bytes": self.budget_bytes,
        }
        summary.update(self.counters())
        return summary

    def gc(self, budget_bytes: Optional[int] = None) -> Dict[str, Any]:
        """Evict oldest unpinned objects until the store fits the budget.

        ``budget_bytes=None`` falls back to the store's configured
        budget; with neither set the sweep is a no-op inventory pass.
        Pinned objects are never victims, even if the budget cannot be
        met without them.
        """
        budget = self.budget_bytes if budget_bytes is None else budget_bytes
        objects = self._walk_objects()
        total = sum(nbytes for _, _, nbytes, _ in objects)
        report = {
            "scanned": len(objects),
            "total_bytes": total,
            "evicted": 0,
            "evicted_bytes": 0,
            "budget_bytes": budget,
        }
        if budget is None or total <= budget:
            return report
        for digest, path, nbytes, _ in sorted(objects, key=lambda item: item[3]):
            if total <= budget:
                break
            if self.pinned(digest):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= nbytes
            report["evicted"] += 1
            report["evicted_bytes"] += nbytes
            self._note("evicted_objects")
            self._note("evicted_bytes", nbytes)
        report["total_bytes"] = total
        return report
