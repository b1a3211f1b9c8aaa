"""Globus-Transfer-like client: simulated and real-filesystem flavours.

Stage 5 of the workflow ("Shipment") moves labelled NetCDF files to
Frontier's Orion via Globus Transfer.  :class:`SimTransferClient` executes
batches over :class:`~repro.net.wan.WanLink` pipes between simulated
shared filesystems, with per-file integrity verification and bounded
concurrency (Globus's concurrent-file fan-out).  :class:`LocalTransferClient`
does the same thing for real on local directories: copy + SHA-256 verify.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.hpc.filesystem import SharedFilesystem
from repro.net.retry import BackoffPolicy, RetryExhausted, retry_call
from repro.net.wan import WanLink
from repro.sim import Simulation, Store
from repro.transfer.task import TransferItem, TransferState, TransferTask
from repro.util.digest import TEMP_SUFFIX, read_chunks, sha256_file, write_digested
from repro.util.logging import EventLog

__all__ = ["SimTransferClient", "LocalTransferClient", "TransferError"]


class TransferError(RuntimeError):
    """A transfer task failed (integrity or endpoint error)."""


class SimTransferClient:
    """Executes transfer tasks between simulated filesystems over WAN links."""

    def __init__(
        self,
        sim: Simulation,
        endpoints: Dict[str, SharedFilesystem],
        links: Dict[Tuple[str, str], WanLink],
        concurrent_files: int = 4,
        verify_overhead: float = 0.01,
        log: Optional[EventLog] = None,
    ):
        if concurrent_files < 1:
            raise ValueError("need at least one concurrent file slot")
        self.sim = sim
        self.endpoints = dict(endpoints)
        self.links = dict(links)
        self.concurrent_files = concurrent_files
        self.verify_overhead = verify_overhead
        self.log = log or EventLog()
        self._next_id = 1

    def submit(
        self,
        src: str,
        dst: str,
        paths: Sequence[Tuple[str, str]],
        label: str = "",
        sync: bool = False,
    ) -> TransferTask:
        """Move ``paths`` ([(src_path, dst_path), ...]) from ``src`` to ``dst``.

        With ``sync`` (Globus's sync-level semantics) a file whose
        destination already exists with the same size is skipped without
        moving bytes.  Returns the task; its ``done`` event fires on
        completion (and fails with :class:`TransferError` if any file
        cannot be moved).
        """
        if src not in self.endpoints or dst not in self.endpoints:
            unknown = [e for e in (src, dst) if e not in self.endpoints]
            raise KeyError(f"unknown endpoint(s) {unknown!r}")
        if (src, dst) not in self.links:
            raise KeyError(f"no WAN link {src!r} -> {dst!r}")
        items = [TransferItem(src_path=a, dst_path=b) for a, b in paths]
        task = TransferTask(
            task_id=self._next_id,
            label=label or f"transfer-{self._next_id}",
            src_endpoint=src,
            dst_endpoint=dst,
            items=items,
            submitted_at=self.sim.now,
            done=self.sim.event(),
        )
        self._next_id += 1
        self.log.emit(self.sim.now, "transfer", "submit", task_id=task.task_id, files=len(items))
        self.sim.process(self._execute(task, sync=sync), name=f"transfer-{task.task_id}")
        return task

    def _execute(self, task: TransferTask, sync: bool = False) -> Generator:
        src_fs = self.endpoints[task.src_endpoint]
        dst_fs = self.endpoints[task.dst_endpoint]
        link = self.links[(task.src_endpoint, task.dst_endpoint)]
        queue = Store(self.sim)
        for item in task.items:
            queue.put(item)
        failures: List[str] = []

        def mover() -> Generator:
            while len(queue) > 0:
                item: TransferItem = yield queue.get()
                try:
                    entry = src_fs.entry(item.src_path)
                    if not entry.closed:
                        raise OSError(f"{item.src_path} still open")
                except (FileNotFoundError, OSError) as exc:
                    failures.append(str(exc))
                    task.faults += 1
                    continue
                item.nbytes = entry.nbytes
                if sync and dst_fs.exists(item.dst_path):
                    existing = dst_fs.entry(item.dst_path)
                    if existing.closed and existing.nbytes == entry.nbytes:
                        item.skipped = True
                        item.done = True
                        item.verified = True
                        continue
                yield src_fs.read(item.src_path)
                yield link.send(entry.nbytes)
                if dst_fs.exists(item.dst_path):
                    dst_fs.unlink(item.dst_path)
                yield dst_fs.write(item.dst_path, entry.nbytes, metadata=dict(entry.metadata))
                if self.verify_overhead > 0:
                    yield self.sim.timeout(self.verify_overhead)
                item.verified = True
                item.done = True
                task.bytes_transferred += entry.nbytes

        movers = [
            self.sim.process(mover(), name=f"transfer-{task.task_id}-m{index}")
            for index in range(min(self.concurrent_files, max(1, len(task.items))))
        ]
        yield self.sim.all_of(movers)
        task.finished_at = self.sim.now
        if failures:
            task.state = TransferState.FAILED
            task.error = "; ".join(failures)
            self.log.emit(self.sim.now, "transfer", "failed", task_id=task.task_id, error=task.error)
            task.done.fail(TransferError(task.error))
        else:
            task.state = TransferState.SUCCEEDED
            self.log.emit(
                self.sim.now, "transfer", "succeeded",
                task_id=task.task_id, nbytes=task.bytes_transferred,
            )
            task.done.succeed(task)


class LocalTransferClient:
    """Real file movement between local directories with SHA-256 verify.

    ``retries`` re-attempts an individual file that fails to move
    (missing source, integrity mismatch — both transient realities on a
    shared filesystem mid-workflow), sleeping a :class:`BackoffPolicy`
    delay between attempts; ``timeout`` bounds one :meth:`transfer`
    call's wall-clock time.  The defaults (no retries, no timeout)
    reproduce the original fail-fast behaviour exactly.
    """

    def __init__(
        self,
        retries: int = 0,
        backoff: Optional[BackoffPolicy] = None,
        timeout: Optional[float] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.retries = retries
        self.backoff = backoff or BackoffPolicy(base=0.02, max_delay=1.0, max_total=5.0)
        self.timeout = timeout
        self._sleeper = sleeper
        self.tasks_completed = 0
        self.bytes_transferred = 0
        self.files_skipped = 0
        self.retries_used = 0
        # Per-file accounting for the most recent transfer() call, with
        # the delivered checksum populated (end-to-end integrity).
        self.last_records: List[TransferItem] = []

    def _move_one(
        self,
        src_root: Path,
        dst_root: Path,
        name: str,
        sync: bool,
        expected: Optional[str] = None,
    ) -> Tuple[str, str, bool]:
        """Move a single file; the per-file failure surface subclasses wrap.

        Returns ``(dst_path, delivered_sha256, skipped)``.  The copy is
        atomic at the destination (temp name + fsync + ``os.replace``):
        a consumer or a resumed run never observes a half-copied file
        under the final name, even if this process dies mid-move.

        The source is read once and the destination once, after the
        rename: ``delivered_sha256`` is the digest of the bytes where
        they landed, never the copy loop's own account of them.  Without
        ``expected`` the source is hashed while it is copied and the two
        digests must agree.  With it — the digest the file was published
        with — the copy hashes nothing, and the landed bytes are compared
        with ``expected``; only a mismatch hashes the source, to tell
        transit damage (raised, so the move is retried) from a source
        that rotted before the move (its faithful copy is returned, and
        the caller sees the mismatch).
        """
        src = src_root / name
        if not src.is_file():
            raise TransferError(f"source missing: {src}")
        dst = dst_root / name
        if sync and dst.is_file():
            src_digest = sha256_file(src)
            if src_digest == sha256_file(dst):
                self.files_skipped += 1
                return str(dst), src_digest, True
        temp = dst_root / (name + TEMP_SUFFIX)
        with open(temp, "wb") as writer:
            if expected is None:
                nbytes, src_digest = write_digested(writer, read_chunks(src))
            else:
                nbytes, src_digest = 0, expected
                for chunk in read_chunks(src):
                    writer.write(chunk)
                    nbytes += len(chunk)
            writer.flush()
            os.fsync(writer.fileno())
        os.replace(temp, dst)
        delivered = sha256_file(dst)
        if delivered != src_digest and (
            expected is None or sha256_file(src) != delivered
        ):
            dst.unlink(missing_ok=True)
            raise TransferError(f"integrity check failed for {name}")
        self.bytes_transferred += nbytes
        return str(dst), delivered, False

    def move_one(
        self,
        src_dir: str,
        dst_dir: str,
        name: str,
        sync: bool = False,
        expected: Optional[str] = None,
    ) -> Tuple[str, str, bool]:
        """Move a single file, no retry: ``(dst_path, sha256, skipped)``.

        The single-attempt primitive for callers that own their own
        retry policy (the shipment stage's work units).  ``expected`` is
        the digest the caller knows the source was published with.
        """
        dst_root = Path(dst_dir)
        dst_root.mkdir(parents=True, exist_ok=True)
        return self._move_one(Path(src_dir), dst_root, name, sync, expected)

    def transfer(
        self,
        src_dir: str,
        dst_dir: str,
        names: Sequence[str],
        sync: bool = False,
    ) -> List[str]:
        """Copy ``names`` from src_dir to dst_dir; verify; return dst paths.

        With ``sync`` a destination whose SHA-256 already matches the
        source is not re-copied (it is still returned as delivered).
        Raises :class:`TransferError` once a file's retry budget is
        spent, or when the per-call ``timeout`` deadline passes.
        """
        src_root, dst_root = Path(src_dir), Path(dst_dir)
        dst_root.mkdir(parents=True, exist_ok=True)
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        moved: List[str] = []
        self.last_records = []
        for name in names:

            def check_deadline(name: str = name) -> None:
                # Raised outside retry_call's catch: a spent batch budget
                # aborts the whole call rather than burning attempts.
                if deadline is not None and time.monotonic() > deadline:
                    raise TransferError(
                        f"transfer timed out after {self.timeout}s while moving {name}"
                    )

            try:
                (dst_path, checksum, skipped), failures = retry_call(
                    lambda name=name: self._move_one(src_root, dst_root, name, sync),
                    retries=self.retries,
                    backoff=self.backoff,
                    key=name,
                    sleeper=self._sleeper,
                    retry_on=(TransferError,),
                    before_attempt=check_deadline,
                )
            except RetryExhausted as exc:
                self.retries_used += exc.attempts - 1
                raise exc.last_exception
            self.retries_used += failures
            moved.append(dst_path)
            self.last_records.append(
                TransferItem(
                    src_path=str(src_root / name),
                    dst_path=dst_path,
                    nbytes=os.path.getsize(dst_path),
                    done=True,
                    verified=True,
                    skipped=skipped,
                    checksum=checksum,
                )
            )
        self.tasks_completed += 1
        return moved
