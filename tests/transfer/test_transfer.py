"""Transfer service tests: simulated WAN transfers and real local copies."""

import hashlib
import os

import pytest

from repro.hpc.filesystem import SharedFilesystem
from repro.net import WanLink
from repro.sim import Simulation
from repro.transfer import (
    LocalTransferClient,
    SimTransferClient,
    TransferError,
    TransferState,
)
from repro.util.digest import digest_file


def make_sites(bandwidth=100.0, concurrent_files=4):
    sim = Simulation()
    defiant = SharedFilesystem(sim, "defiant", aggregate_bw=1e6)
    orion = SharedFilesystem(sim, "orion", aggregate_bw=1e6)
    link = WanLink(sim, "defiant", "orion", bandwidth=bandwidth, latency=0.0)
    client = SimTransferClient(
        sim,
        endpoints={"defiant": defiant, "orion": orion},
        links={("defiant", "orion"): link},
        concurrent_files=concurrent_files,
        verify_overhead=0.0,
    )
    return sim, defiant, orion, client


class TestSimTransfer:
    def test_moves_files(self):
        sim, defiant, orion, client = make_sites()
        defiant.write("/out/a.nc", 500)
        defiant.write("/out/b.nc", 300)
        sim.run()
        task = client.submit(
            "defiant", "orion",
            [("/out/a.nc", "/in/a.nc"), ("/out/b.nc", "/in/b.nc")],
        )
        sim.run()
        assert task.state is TransferState.SUCCEEDED
        assert orion.exists("/in/a.nc") and orion.exists("/in/b.nc")
        assert orion.entry("/in/a.nc").nbytes == 500
        assert task.bytes_transferred == 800
        assert task.files_done == 2
        assert all(item.verified for item in task.items)

    def test_missing_source_fails_task(self):
        sim, defiant, orion, client = make_sites()
        defiant.write("/out/a.nc", 100)
        sim.run()
        task = client.submit("defiant", "orion", [("/out/ghost.nc", "/in/g.nc")])
        failed = {}

        def watcher():
            try:
                yield task.done
            except TransferError as exc:
                failed["error"] = str(exc)

        sim.process(watcher())
        sim.run()
        assert task.state is TransferState.FAILED
        assert "ghost" in failed["error"]
        assert task.faults == 1

    def test_partial_failure_moves_good_files(self):
        sim, defiant, orion, client = make_sites()
        defiant.write("/out/a.nc", 100)
        sim.run()
        task = client.submit(
            "defiant", "orion",
            [("/out/a.nc", "/in/a.nc"), ("/out/ghost.nc", "/in/g.nc")],
        )

        def swallow():
            try:
                yield task.done
            except TransferError:
                pass

        sim.process(swallow())
        sim.run()
        assert orion.exists("/in/a.nc")
        assert task.state is TransferState.FAILED

    def test_unknown_endpoint_or_link(self):
        sim, defiant, orion, client = make_sites()
        with pytest.raises(KeyError):
            client.submit("mars", "orion", [])
        with pytest.raises(KeyError):
            client.submit("orion", "defiant", [])  # no reverse link

    def test_concurrency_bounded_by_config(self):
        """With 1 concurrent file, files move sequentially over the link."""
        sim, defiant, orion, client = make_sites(bandwidth=100.0, concurrent_files=1)
        for index in range(3):
            defiant.write(f"/out/{index}.nc", 1000)
        sim.run()
        start = sim.now
        task = client.submit(
            "defiant", "orion", [(f"/out/{i}.nc", f"/in/{i}.nc") for i in range(3)]
        )
        sim.run()
        sequential = task.finished_at - start
        # Same setup, 3 concurrent movers: WAN is shared, so the link time
        # is identical, but src reads/dst writes overlap -> strictly faster
        # or equal, never slower.
        sim2, defiant2, orion2, client2 = make_sites(bandwidth=100.0, concurrent_files=3)
        for index in range(3):
            defiant2.write(f"/out/{index}.nc", 1000)
        sim2.run()
        start2 = sim2.now
        task2 = client2.submit(
            "defiant", "orion", [(f"/out/{i}.nc", f"/in/{i}.nc") for i in range(3)]
        )
        sim2.run()
        assert task2.finished_at - start2 <= sequential + 1e-9

    def test_effective_rate(self):
        sim, defiant, orion, client = make_sites(bandwidth=100.0, concurrent_files=1)
        defiant.write("/out/a.nc", 1000)
        sim.run()
        task = client.submit("defiant", "orion", [("/out/a.nc", "/in/a.nc")])
        sim.run()
        assert task.effective_rate < 100.0  # reads/writes add time
        assert task.effective_rate > 30.0

    def test_overwrite_existing_destination(self):
        sim, defiant, orion, client = make_sites()
        defiant.write("/out/a.nc", 100)
        orion.write("/in/a.nc", 999)
        sim.run()
        task = client.submit("defiant", "orion", [("/out/a.nc", "/in/a.nc")])
        sim.run()
        assert task.state is TransferState.SUCCEEDED
        assert orion.entry("/in/a.nc").nbytes == 100


class TestLocalTransfer:
    def test_copies_and_verifies(self, tmp_path):
        src = tmp_path / "src"
        dst = tmp_path / "dst"
        src.mkdir()
        (src / "tile0.nc").write_bytes(b"CDF\x01" + b"x" * 100)
        (src / "tile1.nc").write_bytes(b"CDF\x01" + b"y" * 50)
        client = LocalTransferClient()
        moved = client.transfer(str(src), str(dst), ["tile0.nc", "tile1.nc"])
        assert len(moved) == 2
        assert (dst / "tile0.nc").read_bytes() == (src / "tile0.nc").read_bytes()
        assert client.bytes_transferred == 104 + 54
        assert client.tasks_completed == 1

    def test_missing_source(self, tmp_path):
        client = LocalTransferClient()
        with pytest.raises(TransferError, match="missing"):
            client.transfer(str(tmp_path), str(tmp_path / "dst"), ["nope.nc"])

    def test_delivered_digest_is_of_the_destination(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        payload = b"CDF\x01" + bytes(range(256)) * 40
        (src / "tile.nc").write_bytes(payload)
        dst_path, delivered, skipped = LocalTransferClient().move_one(
            str(src), str(tmp_path / "dst"), "tile.nc"
        )
        assert not skipped
        assert delivered == hashlib.sha256(payload).hexdigest()
        assert delivered == digest_file(dst_path)[0]

    def test_destination_corrupted_after_rename_is_rejected_and_unlinked(
        self, tmp_path, monkeypatch
    ):
        """The source is hashed while it is copied, but that digest is
        never taken as proof of delivery: the destination is re-read after
        the rename, so damage landing in between is caught."""
        src = tmp_path / "src"
        dst = tmp_path / "dst"
        src.mkdir()
        (src / "tile.nc").write_bytes(b"CDF\x01" + b"z" * 5000)
        real_replace = os.replace

        def replace_then_rot(temp, final):
            real_replace(temp, final)
            with open(final, "r+b") as handle:
                handle.seek(100)
                handle.write(b"\xff")

        monkeypatch.setattr("repro.transfer.client.os.replace", replace_then_rot)
        client = LocalTransferClient()
        with pytest.raises(TransferError, match="integrity check failed for tile.nc"):
            client.move_one(str(src), str(dst), "tile.nc")
        assert not (dst / "tile.nc").exists()
        assert not (dst / "tile.nc.part").exists()
        assert client.bytes_transferred == 0
        assert (src / "tile.nc").exists()
