"""CLI tests (argument parsing and command execution)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_choices(self):
        args = build_parser().parse_args(["figures", "fig4", "headline"])
        assert args.targets == ["fig4", "headline"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig99"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Multi-Facility" in out

    def test_catalog(self, capsys):
        assert main(["catalog", "MOD02", "2022-01-01", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "MOD021KM.A2022001" in out
        assert "day total: 288 granules" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--granules", "6"]) == 0
        out = capsys.readouterr().out
        assert "download" in out and "makespan" in out

    def test_figures_headline(self, capsys):
        assert main(["figures", "headline", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "12000 tiles" in out

    def test_figures_all_targets(self, capsys):
        targets = ["fig3", "fig4", "fig5", "fig6", "fig7", "table1"]
        assert main(["figures", *targets, "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        for target in targets:
            assert f"=== {target} ===" in out
        assert "shape ratio" in out          # comparisons rendered
        assert "download_launch" in out      # fig7 rows
        assert "preprocess" in out           # fig6 timeline

    def test_run_from_config_file(self, tmp_path, capsys):
        config = tmp_path / "wf.yaml"
        config.write_text(
            "name: cli-test\n"
            "archive:\n"
            "  start_date: 2022-01-01\n"
            "  max_granules_per_day: 1\n"
            "  seed: 3\n"
            "paths:\n"
            f"  staging: {tmp_path}/raw\n"
            f"  preprocessed: {tmp_path}/tiles\n"
            f"  transfer_out: {tmp_path}/outbox\n"
            f"  destination: {tmp_path}/orion\n"
            "preprocess:\n"
            "  workers: 2\n"
            "  tile_size: 16\n"
        )
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert "tiles labelled" in out
        assert "provenance:" in out

    def test_shipped_quickstart_config_parses_and_runs(self, tmp_path, capsys, monkeypatch):
        """The config shipped in examples/configs/ is valid and runnable."""
        import pathlib
        import shutil

        repo_config = pathlib.Path(__file__).parent.parent / "examples/configs/quickstart.yaml"
        target = tmp_path / "quickstart.yaml"
        shutil.copyfile(repo_config, target)
        monkeypatch.chdir(tmp_path)  # relative data/ paths land in tmp
        assert main(["run", str(target)]) == 0
        out = capsys.readouterr().out
        assert "tiles labelled" in out
        assert (tmp_path / "data" / "orion").is_dir()

    def test_run_without_provenance(self, tmp_path, capsys):
        config = tmp_path / "wf.yaml"
        config.write_text(
            "archive:\n  start_date: 2022-01-01\n  max_granules_per_day: 1\n  seed: 3\n"
            "paths:\n"
            f"  staging: {tmp_path}/raw\n"
            f"  preprocessed: {tmp_path}/tiles\n"
            f"  transfer_out: {tmp_path}/outbox\n"
            f"  destination: {tmp_path}/orion\n"
            "preprocess: {workers: 2, tile_size: 16}\n"
        )
        assert main(["run", str(config), "--no-provenance"]) == 0
        assert "provenance:" not in capsys.readouterr().out


def write_remote_config(tmp_path):
    """A minimal journaled config file for submit/agent commands."""
    from tests.core.crash_driver import build_raw_config
    from tests.util.yaml_dump import dumps

    config = tmp_path / "remote.yaml"
    config.write_text(dumps(build_raw_config(str(tmp_path), 1)))
    return config


# A routable address nothing listens on: connection refused, fast.
DEAD_SERVER = "http://127.0.0.1:9"


@pytest.fixture()
def plane(tmp_path):
    """A live control plane; yields (server, base URL, config path)."""
    from tests.server.harness import control_plane

    with control_plane() as (server, _client):
        yield server, server.url, write_remote_config(tmp_path)


class TestControlPlaneCommands:
    def test_submit_and_status_round_trip(self, plane, capsys):
        _server, url, config = plane
        assert main(["submit", str(config), "--server", url]) == 0
        out = capsys.readouterr().out
        assert "submitted run-" in out
        assert "'download'" in out and "'shipment'" in out
        run_id = out.split()[1]

        assert main(["status", "--server", url]) == 0
        assert run_id in capsys.readouterr().out

        assert main(["status", run_id, "--server", url, "--events"]) == 0
        detail = capsys.readouterr().out
        assert "download" in detail and "pending" in detail
        assert "submitted" in detail  # the event log

    def test_submit_server_down_exits_2_with_message(self, tmp_path, capsys):
        config = write_remote_config(tmp_path)
        assert main(["submit", str(config), "--server", DEAD_SERVER]) == 2
        err = capsys.readouterr().err
        assert "unreachable" in err

    def test_submit_rejected_config_exits_1(self, plane, tmp_path, capsys):
        from tests.core.crash_driver import build_raw_config
        from tests.util.yaml_dump import dumps

        _server, url, _config = plane
        raw = build_raw_config(str(tmp_path), 1)
        raw["journal"] = {"enabled": False}  # remote runs require the journal
        bad = tmp_path / "bad.yaml"
        bad.write_text(dumps(raw))
        assert main(["submit", str(bad), "--server", url]) == 1
        assert "journal" in capsys.readouterr().err

    def test_submit_non_mapping_yaml_exits_2(self, plane, tmp_path, capsys):
        _server, url, _config = plane
        bad = tmp_path / "list.yaml"
        bad.write_text("- just\n- a\n- list\n")
        assert main(["submit", str(bad), "--server", url]) == 2
        assert "mapping" in capsys.readouterr().err

    def test_status_unknown_run_exits_1(self, plane, capsys):
        _server, url, _config = plane
        assert main(["status", "run-ghost", "--server", url]) == 1
        assert "run-ghost" in capsys.readouterr().err

    def test_status_server_down_exits_2(self, capsys):
        assert main(["status", "--server", DEAD_SERVER]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_agent_drains_submitted_run(self, plane, capsys):
        _server, url, config = plane
        assert main(["submit", str(config), "--server", url]) == 0
        capsys.readouterr()
        assert main([
            "agent", "--server", url, "--name", "cli-agent", "--site", "alcf",
            "--poll-interval", "0.01", "--drain",
        ]) == 0
        out = capsys.readouterr().out
        assert "cli-agent" in out and "5 completed" in out

        assert main(["status", "--server", url]) == 0
        assert "completed" in capsys.readouterr().out

    def test_agent_server_down_exits_2(self, capsys):
        assert main([
            "agent", "--server", DEAD_SERVER, "--poll-interval", "0.01", "--drain",
        ]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_failed_run_status_exits_1(self, plane, capsys):
        server, url, config = plane
        assert main(["submit", str(config), "--server", url]) == 0
        run_id = capsys.readouterr().out.split()[1]
        lease = server.store.lease("saboteur")
        server.store.complete(lease["lease_id"], status="failed", error="boom")
        assert main(["status", run_id, "--server", url]) == 1
        assert "boom" in capsys.readouterr().out
