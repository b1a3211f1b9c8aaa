"""Stage 5 — Shipment: move labelled files to the destination filesystem.

Real-execution flavour of Section III stage 5: the labelled NetCDFs in
the transfer-out directory move to the destination ("Frontier's Orion")
with integrity verification, via the Globus-Transfer-like local client.

Each file is one :class:`~repro.runtime.unit.WorkUnit`: the stage
runtime's retry middleware re-attempts an individual move with the
shared :class:`~repro.net.retry.BackoffPolicy` (``shipment.retries``),
a batch-wide deadline (``shipment.timeout``, charged only for time
spent moving) aborts before any further attempt, and the quarantine
middleware converts a spent budget into ``ShipmentReport.error`` rather
than a crash — delivery can be re-driven later (transfers are
sync-idempotent).  The journal middleware makes delivery idempotent: a
file whose journaled shipment still verifies at the destination is
skipped outright.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.chaos.surfaces import ChaosTransferClient
from repro.core.config import EOMLConfig
from repro.core.context import RunContext
from repro.runtime import (
    CACHED,
    FAILED,
    QUARANTINED,
    RESUMED,
    CachePolicy,
    FailurePolicy,
    RetrySpec,
    UnitResult,
    WorkUnit,
)
from repro.transfer import LocalTransferClient, TransferError
from repro.util.digest import sha256_file

__all__ = ["ShipmentReport", "ShipmentStage"]


@dataclass(frozen=True)
class ShipmentReport:
    moved: List[str]
    nbytes: int
    seconds: float
    retries: int = 0
    error: Optional[str] = None
    resumed: int = 0                  # journaled deliveries still intact
    verified: int = 0                 # destination digests confirmed this run
    deduped: int = 0                  # satisfied without a WAN transfer (CAS)
    mismatches: List[str] = field(default_factory=list)  # file names
    # file name -> SHA-256 of the delivered bytes (end-to-end identity)
    checksums: Dict[str, str] = field(default_factory=dict)


class ShipmentStage:
    def __init__(
        self,
        config: EOMLConfig,
        ctx: Optional[RunContext] = None,
        client: LocalTransferClient | None = None,
    ):
        self.config = config
        self.ctx = ctx or RunContext()
        if client is not None:
            self.client = client
        else:
            kwargs = dict(
                retries=config.shipment_retries,
                backoff=config.shipment_backoff,
                timeout=config.shipment_timeout,
            )
            self.client = (
                ChaosTransferClient(self.ctx.chaos, **kwargs)
                if self.ctx.chaos is not None
                else LocalTransferClient(**kwargs)
            )

    def _unit_for(self, name: str, spent: Callable[[], float]) -> WorkUnit:
        """One file's move + destination verification as a work unit;
        ``spent()`` is the batch's time in moves so far."""
        src_path = os.path.join(self.config.transfer_out, name)
        timeout = self.config.shipment_timeout

        def check_deadline() -> None:
            # Raised *outside* the retry loop's catch, so a spent batch
            # budget aborts immediately instead of burning attempts.
            if timeout is not None and spent() > timeout:
                raise TransferError(f"transfer timed out after {timeout}s while moving {name}")

        def body(ctx) -> UnitResult:
            ctx.begin()
            # Destination-side verification: ``delivered`` is what the
            # client digested where the bytes landed, after the rename.
            # Against the journal's digest — the one the labelled file was
            # *published* with — the client hashes only those landed
            # bytes: transit damage raises (and is retried), and a
            # transfer-out copy that rotted before shipping comes back as
            # its faithful copy, caught here as a mismatch.  Without a
            # journal the client checks the copy against the source.
            expected: Optional[str] = None
            if ctx.journal is not None:
                expected = ctx.journal.expected_sha(src_path)
            dst_path, delivered, _ = self.client.move_one(
                self.config.transfer_out, self.config.destination, name,
                expected=expected,
            )
            if expected is not None and delivered != expected:
                return UnitResult(
                    outcome="done",
                    artifact=dst_path,
                    value="mismatch",
                    payload={"sha256": delivered},
                    journal=False,
                )
            return UnitResult(
                outcome="done", artifact=dst_path, payload={"sha256": delivered}
            )

        dst_path = os.path.join(self.config.destination, name)

        def _source_digest(ctx) -> Optional[str]:
            expected = None
            if ctx.journal is not None:
                expected = ctx.journal.expected_sha(src_path)
            if expected is None:
                try:
                    expected = sha256_file(src_path)
                except OSError:
                    expected = None
            return expected

        def _consume_source() -> None:
            # Shipment is a *move*: once the destination holds the
            # bytes, the transfer-out copy must go, exactly as the
            # transfer client would have taken it.
            try:
                os.unlink(src_path)
            except OSError:
                pass

        def cache_lookup(ctx, cas) -> Optional[UnitResult]:
            expected = _source_digest(ctx)
            if expected is None:
                return None
            # Dedupe: the destination already holds these exact bytes
            # (a co-located prior run, or a crash after the move) — no
            # transfer needed at all.
            if os.path.exists(dst_path):
                try:
                    if sha256_file(dst_path) == expected:
                        _consume_source()
                        return UnitResult(
                            outcome=CACHED, artifact=dst_path,
                            payload={"sha256": expected},
                        )
                except OSError:
                    pass
            # Co-located CAS: materialize at the destination instead of
            # paying the WAN move (digest-verified on the way out).
            nbytes = cas.materialize(expected, dst_path)
            if nbytes is None:
                return None
            _consume_source()
            return UnitResult(
                outcome=CACHED, artifact=dst_path,
                payload={"sha256": expected, "nbytes": nbytes},
            )

        def cache_store(ctx, cas, result) -> None:
            # Only verified deliveries may seed the store.
            if result.value == "mismatch" or result.artifact is None:
                return
            cas.store_file(
                result.artifact, digest=(result.payload or {}).get("sha256")
            )

        return WorkUnit(
            stage="shipment",
            key=name,
            body=body,
            cache=CachePolicy(lookup=cache_lookup, store=cache_store),
            retry=RetrySpec(
                retries=self.config.shipment_retries,
                backoff=self.config.shipment_backoff,
                retry_on=(TransferError,),
                before_attempt=check_deadline,
            ),
            failure=FailurePolicy(
                on_exhausted="record",
                describe=lambda attempts, error: error,
                catch=(TransferError,),
            ),
        )

    def _pending_names(self) -> List[str]:
        """Shippable files currently in the transfer-out directory."""
        src = self.config.transfer_out
        if not os.path.isdir(src):
            return []
        return sorted(
            name for name in os.listdir(src)
            if name.endswith(".nc") and not name.endswith(".part")
        )

    def run(self, names: Iterable[str] = ()) -> ShipmentReport:
        """Ship ``names`` as they arrive, then sweep the transfer-out directory.

        ``names`` are labelled-file basenames an upstream producer
        announces (a stream channel, so delivery overlaps the inference
        drain); with nothing announced the sweep alone ships everything
        currently in the directory.  Names are deduplicated, only time
        spent inside moves is charged to the batch deadline (never time
        idly waiting on the stream), and the closing sweep picks up
        anything not announced — files published by a prior crashed run
        must still ship.

        With a journal, delivery is idempotent: a file whose journaled
        shipment still verifies at the destination is skipped outright,
        and every newly moved file's digest is re-read *from the
        destination* and compared against the labelled artifact's
        journaled digest — the end-to-end integrity check.
        """
        started = time.monotonic()
        before = self.client.bytes_transferred
        charged = 0.0  # seconds spent in finished moves
        seen: set = set()
        checksums: Dict[str, str] = {}
        moved: List[str] = []
        mismatches: List[str] = []
        resumed = 0
        verified = 0
        deduped = 0
        retries_total = 0
        error: Optional[str] = None
        stopped = False

        def ship(name: str) -> None:
            nonlocal charged, error, retries_total, resumed, verified
            nonlocal deduped, stopped
            if name in seen or stopped:
                return
            seen.add(name)
            began = time.monotonic()
            result = self.ctx.executor.execute(
                self._unit_for(name, lambda: charged + time.monotonic() - began)
            )
            charged += time.monotonic() - began
            if result.outcome == RESUMED:
                moved.append(
                    result.payload.get("artifact")
                    or os.path.join(self.config.destination, name)
                )
                if result.payload.get("sha256"):
                    checksums[name] = result.payload["sha256"]
                resumed += 1
                return
            if result.outcome == CACHED:
                # Satisfied without a WAN transfer: destination already
                # matched, or the shared CAS materialized it in place.
                moved.append(result.artifact)
                checksums[name] = result.payload["sha256"]
                verified += 1
                deduped += 1
                return
            if result.outcome in (FAILED, QUARANTINED):
                # Budget spent (retries or deadline): record and stop —
                # the remaining files wait for a later re-drive.
                if result.outcome == FAILED:
                    retries_total += max(0, result.attempts - 1)
                error = result.error
                stopped = True
                return
            retries_total += result.attempts
            moved.append(result.artifact)
            if result.value == "mismatch":
                mismatches.append(name)
                if result.payload.get("sha256"):
                    checksums[name] = result.payload["sha256"]
            else:
                checksums[name] = result.payload["sha256"]
                verified += 1

        for name in names:
            ship(name)
            if stopped:
                break
        if not stopped:
            for name in self._pending_names():
                ship(name)
                if stopped:
                    break
        return ShipmentReport(
            moved=moved,
            nbytes=self.client.bytes_transferred - before,
            seconds=time.monotonic() - started,
            retries=retries_total,
            error=error,
            resumed=resumed,
            verified=verified,
            deduped=deduped,
            mismatches=mismatches,
            checksums=checksums,
        )
