"""Chaos surfaces: where injected faults meet the real workflow objects.

Each surface wraps one of the workflow's genuine failure points and
translates fired :class:`~repro.chaos.engine.FaultEvent` records into the
*same observable behaviour* the paper's operational failures produce:

* :class:`ChaosArchive` — LAADS 503s (transient and permanent) and slow
  HTTPS streams, at the archive ``fetch`` boundary;
* :func:`chaos_atomic_write` — torn writes (a dead writer's ``.part``
  litter) and post-completion corruption (well-named partials /
  bit-rot) at the NetCDF write boundary;
* :class:`ChaosTransferClient` — WAN degradation on the shipment path;
* :func:`chaos_stall` — compute workers that hang before progressing;
* :class:`ChaosTransport` — the control-plane *wire* itself: partitions,
  blackouts, lossy links, and reset-after-delivery between a
  :class:`~repro.server.client.ControlPlaneClient` and the service.

Every wrapper takes ``Optional[FaultInjector]`` and degenerates to the
undecorated behaviour when it is ``None``, so production code paths pay
nothing when chaos is off.
"""

from __future__ import annotations

import os
import threading
import time
import urllib.parse
import urllib.request
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.chaos.engine import FaultInjector
from repro.netcdf import WRITE_BUFFER, Dataset, to_bytes, to_chunks
from repro.transfer import LocalTransferClient, TransferError
from repro.util.digest import (
    TEMP_SUFFIX,
    digest_file,
    fsync_dir,
    note_published,
    write_digested,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ChaosArchive",
    "ChaosTransferClient",
    "ChaosTransport",
    "chaos_atomic_write",
    "chaos_crash",
    "chaos_stall",
    "damage_file",
]

# Distinctive exit status for an injected crash, so harnesses can tell a
# scheduled kill from an ordinary failure.
CRASH_EXIT_CODE = 86

# Indirection over os._exit so tests can observe crashes without dying.
_abort = os._exit


def chaos_crash(chaos: Optional[FaultInjector], stage: str, key: str = "") -> None:
    """Die like a preempted job: immediate process abort, no cleanup.

    ``os._exit`` skips atexit handlers, finally blocks, and buffered
    flushes — the honest model of SIGKILL-class death.  Fired at a
    surface *between* an artifact's publication and its journal record,
    it exercises exactly the window crash-consistent resume must close.
    """
    if chaos is not None and chaos.fire(stage, "crash", key):
        _abort(CRASH_EXIT_CODE)


def chaos_stall(
    chaos: Optional[FaultInjector],
    stage: str,
    key: str,
    sleeper: Callable[[float], None] = time.sleep,
) -> float:
    """Apply any ``worker_stall`` faults; returns the injected seconds."""
    if chaos is None:
        return 0.0
    stalled = 0.0
    for event in chaos.fire(stage, "worker_stall", key):
        sleeper(event.latency)
        stalled += event.latency
    return stalled


def damage_file(path: str, keep_fraction: float = 0.5) -> None:
    """Replace a completed file with a truncated copy of itself,
    simulating partial/corrupted content.

    Truncation is the corruption classic NetCDF reliably detects (the
    header promises more data than the file holds), unlike single-byte
    flips which may land in data sections and parse cleanly.  The short
    copy is renamed over the name, never cut in place: a reader that has
    the file mapped (or another hardlink to it) keeps the whole content.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    keep = max(1, int(os.path.getsize(path) * keep_fraction))
    # Unique per caller: two workers may damage one cached object at once.
    temp_path = f"{path}.{os.getpid()}.{threading.get_ident()}{TEMP_SUFFIX}"
    with open(path, "rb") as src, open(temp_path, "wb") as dst:
        dst.write(src.read(keep))
    os.replace(temp_path, path)


def chaos_atomic_write(
    ds: Dataset,
    final_path: str,
    chaos: Optional[FaultInjector] = None,
    stage: str = "preprocess",
    key: str = "",
) -> Tuple[int, str]:
    """Atomic (temp + rename) NetCDF write with torn/corrupt injection.

    Returns ``(nbytes, sha256_hex)`` of the *published* file.  The
    dataset is never serialized into one blob: its chunks (header, each
    variable's own buffer, record slab) stream to the temp file and are
    hashed on the way, so publication costs one pass over the bytes and
    no copy of them.  Under ``corrupt_tile`` the damaged on-disk content
    is re-digested — the manifest must describe what the filesystem
    actually holds, so the integrity gate and resume logic see the
    corruption.

    * ``torn_write`` — the writer "dies" mid-file: a truncated ``.part``
      temp file is left behind (never renamed) and :class:`OSError` is
      raised, exactly what a crashed worker leaves on a shared
      filesystem.  Nothing announces it to a consumer.
    * ``corrupt_tile`` — the rename completes but the file's bytes are
      damaged (truncated), i.e. a *well-named* partial: downstream
      readers see a well-named file whose parse fails.
    * ``crash`` — the process aborts after the temp file is fully
      written but *before* the rename: the exact torn window resume
      logic must treat as "never happened".

    The production path (no chaos) is the full crash-consistency
    triple: temp write, file fsync, atomic rename, directory fsync; the
    publication is noted so the store can adopt the inode.  A
    ``corrupt_tile`` rewrite replaces that inode, so the store copies the
    damaged bytes in under their own digest instead.
    """
    key = key or final_path
    temp_path = final_path + TEMP_SUFFIX
    if chaos is not None and chaos.fire(stage, "torn_write", key):
        blob = to_bytes(ds)
        with open(temp_path, "wb") as handle:
            handle.write(blob[: max(1, len(blob) // 3)])
        raise OSError(f"chaos: torn write, partial left at {os.path.basename(temp_path)}")
    chunks = to_chunks(ds)  # validates first: a refused dataset leaves no temp file
    with open(temp_path, "wb", buffering=WRITE_BUFFER) as handle:
        nbytes, digest = write_digested(handle, chunks)
        handle.flush()
        os.fsync(handle.fileno())
        written = os.fstat(handle.fileno())
    chaos_crash(chaos, stage, key)
    os.replace(temp_path, final_path)
    note_published(final_path, written, digest, synced=True)
    fsync_dir(os.path.dirname(final_path))
    if chaos is not None and chaos.fire(stage, "corrupt_tile", key):
        damage_file(final_path)
        digest, nbytes = digest_file(final_path)
    return nbytes, digest


class ChaosArchive:
    """A LAADS archive whose ``fetch`` exhibits scheduled HTTP failures.

    Wraps any archive object (composition, not subclassing, so it also
    wraps test doubles); everything but ``fetch`` delegates unchanged.
    """

    def __init__(
        self,
        inner,
        chaos: FaultInjector,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self._inner = inner
        self._chaos = chaos
        self._sleeper = sleeper

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def fetch(self, ref, bands: Optional[Iterable[int]] = None):
        key = ref.filename
        chaos_crash(self._chaos, "download", key)
        for event in self._chaos.fire("download", "slow_fetch", key):
            self._sleeper(event.latency)
        if self._chaos.fire("download", "http_permanent", key):
            raise OSError(f"chaos: HTTP 503 Service Unavailable (permanent) for {key}")
        if self._chaos.fire("download", "http_transient", key):
            raise OSError(f"chaos: HTTP 503 Service Unavailable for {key}")
        return self._inner.fetch(ref, bands)


class ChaosTransport:
    """The control-plane wire as a failure surface.

    An ``opener``-compatible callable for
    :class:`~repro.server.client.ControlPlaneClient` — drop-in for
    ``urllib.request.urlopen`` — that interprets the plan's ``net``-stage
    fault kinds against a **stateful link model**:

    * ``partition`` / ``blackout`` are *outages*: the first request whose
      protocol phase matches the spec's ``match`` prefix trigger-trips the
      link, and for the next ``latency`` seconds **every** phase is
      severed — a partitioned site cannot even reach ``/v1/health``.
      Partition refuses connections instantly
      (:class:`ConnectionRefusedError`); blackout is a black hole — the
      caller burns its full timeout before :class:`TimeoutError`.
    * ``flaky`` drops individual requests per-call at the spec's ``rate``
      (keys are ``{phase}#{seq}``, so the drop pattern is seeded and
      repeatable).
    * ``slow_link`` delivers after ``latency`` seconds of added delay.
    * ``reset`` is the nastiest: the request IS delivered to the server,
      then the response is torn away — the client cannot tell "server
      never saw it" from "server acted and the ack was lost".  This is
      the at-least-once hazard that forces dedupe keys and fencing on
      every non-idempotent POST.

    Share one instance across every client of a site to model one
    physical link: when the link is down, the agent's poll loop, its
    heartbeat thread, and its reconnect probes all see the same outage.
    Thread-safe; ``clock`` and ``sleeper`` are injectable for tests.
    """

    def __init__(
        self,
        chaos: FaultInjector,
        inner: Optional[Callable[..., object]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self._chaos = chaos
        self._inner = inner or urllib.request.urlopen
        self._clock = clock
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._seq = 0
        self._outage_kind: Optional[str] = None
        self._outage_until = 0.0
        self.stats: dict = {
            "outages": 0, "refused": 0, "blackholed": 0,
            "dropped": 0, "delayed": 0, "resets": 0, "delivered": 0,
        }

    def _bump(self, name: str) -> None:
        with self._lock:
            self.stats[name] += 1

    @property
    def severed(self) -> bool:
        """Is an outage window open right now?"""
        with self._lock:
            return self._clock() < self._outage_until

    def heal(self) -> None:
        """Close any open outage window (operator fixed the link)."""
        with self._lock:
            self._outage_until = 0.0
            self._outage_kind = None

    def __call__(self, req, timeout: Optional[float] = None):
        phase = _request_phase(req)
        with self._lock:
            self._seq += 1
            key = f"{phase}#{self._seq}"
            now = self._clock()
            active = now < self._outage_until
            kind = self._outage_kind
            remaining = self._outage_until - now
        if not active:
            # An un-severed link: a matched phase may trip a new outage.
            for want in ("partition", "blackout"):
                events = self._chaos.fire("net", want, phase)
                if events:
                    with self._lock:
                        self._outage_kind = want
                        self._outage_until = now + events[0].latency
                        self.stats["outages"] += 1
                    active, kind, remaining = True, want, events[0].latency
                    break
        if active:
            if kind == "blackout":
                wait = remaining if timeout is None else min(timeout, remaining)
                self._sleeper(max(0.0, wait))
                self._bump("blackholed")
                raise TimeoutError(f"chaos: blackout, {phase} request timed out")
            self._bump("refused")
            raise ConnectionRefusedError(
                f"chaos: partition, {phase} connection refused"
            )
        for event in self._chaos.fire("net", "slow_link", key, count_key=phase):
            self._sleeper(event.latency)
            self._bump("delayed")
        if self._chaos.fire("net", "flaky", key, count_key=phase):
            self._bump("dropped")
            raise ConnectionResetError(f"chaos: flaky wire dropped {phase} request")
        if self._chaos.fire("net", "reset", key, count_key=phase):
            # Deliver the request, then tear the response away: the server
            # acted, the client will never know.
            response = self._inner(req, timeout=timeout)
            try:
                response.read()
            finally:
                response.close()
            self._bump("resets")
            raise ConnectionResetError(
                f"chaos: connection reset after {phase} request was delivered"
            )
        self._bump("delivered")
        return self._inner(req, timeout=timeout)


def _request_phase(req) -> str:
    """The protocol phase of one urllib Request (lazy import: net.http)."""
    from repro.net.http import classify_phase

    return classify_phase(req.get_method(), urllib.parse.urlsplit(req.full_url).path)


class ChaosTransferClient(LocalTransferClient):
    """A transfer client whose per-file moves suffer WAN degradation."""

    def __init__(
        self,
        chaos: FaultInjector,
        sleeper: Callable[[float], None] = time.sleep,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self._chaos = chaos
        self._sleeper = sleeper

    def _move_one(self, src_root, dst_root, name: str, sync: bool, expected=None):
        chaos_crash(self._chaos, "shipment", name)
        events = self._chaos.fire("shipment", "wan_degrade", name)
        for event in events:
            self._sleeper(event.latency)
        if events:
            raise TransferError(f"chaos: WAN degraded moving {name}")
        return super()._move_one(src_root, dst_root, name, sync, expected)
