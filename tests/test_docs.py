"""Documentation consistency checks.

Docs rot silently; these tests pin the promises README/DESIGN make to the
actual tree: every documented package exists, every example referenced is
runnable-by-name, and the deliverable files are present.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


class TestDeliverables:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"]
    )
    def test_file_exists(self, name):
        assert (ROOT / name).is_file()

    def test_docs_folder(self):
        assert (ROOT / "docs" / "calibration.md").is_file()
        assert (ROOT / "docs" / "architecture.md").is_file()


class TestReadmeConsistency:
    def readme(self):
        return (ROOT / "README.md").read_text()

    def test_package_table_matches_tree(self):
        for match in re.finditer(r"`repro\.([a-z_]+)`", self.readme()):
            package = match.group(1)
            module = importlib.import_module(f"repro.{package}")
            assert module is not None

    def test_examples_referenced_exist(self):
        for match in re.finditer(r"examples/([a-z_]+\.py)", self.readme()):
            assert (ROOT / "examples" / match.group(1)).is_file(), match.group(0)

    def test_quickstart_snippet_is_valid(self):
        """The README's embedded YAML config parses."""
        text = self.readme()
        snippet = re.search(r'load_config\("""\n(.*?)"""\)', text, re.DOTALL)
        assert snippet is not None
        from repro.core import load_config

        config = load_config(snippet.group(1))
        assert config.name == "demo"


class TestDesignConsistency:
    def test_every_subpackage_documented(self):
        design = (ROOT / "DESIGN.md").read_text()
        src = ROOT / "src" / "repro"
        for package_dir in sorted(src.iterdir()):
            if package_dir.is_dir() and (package_dir / "__init__.py").exists():
                assert package_dir.name + "/" in design or package_dir.name in design, (
                    f"package {package_dir.name!r} missing from DESIGN.md"
                )

    def test_benchmarks_cover_every_declared_experiment(self):
        """DESIGN's per-experiment index maps to real benchmark files."""
        design = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/(bench_[a-z0-9_]+\.py)", design):
            assert (ROOT / "benchmarks" / match.group(1)).is_file(), match.group(0)


class TestControlPlaneDocs:
    """The control-plane docs track the real service contract."""

    def architecture(self):
        return (ROOT / "docs" / "architecture.md").read_text()

    def test_architecture_has_the_section(self):
        text = self.architecture()
        assert "## Control-plane service" in text
        # The operational pieces the section promises.
        for needle in ("lease", "heartbeat", "requeue", "repro serve",
                       "repro submit", "repro agent", "golden_corpus.json"):
            assert needle in text, f"control-plane docs missing {needle!r}"

    def test_every_api_route_is_documented(self):
        from repro.server.api import ROUTES

        text = self.architecture()
        for _method, pattern, _handler in ROUTES:
            route = (
                pattern.strip("^$")
                .replace("(?P<run>[^/]+)", "{run}")
                .replace("(?P<unit>[^/]+)", "{unit}")
                .replace("(?P<lease>[^/]+)", "{lease}")
            )
            assert route in text, f"route {route} missing from architecture.md"

    def test_readme_points_at_the_server_package(self):
        readme = (ROOT / "README.md").read_text()
        assert "`repro.server`" in readme
        assert "Control-plane service" in readme

    def test_cli_subcommands_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        text = parser.format_help()
        for command in ("serve", "submit", "status", "agent"):
            assert command in text


class TestScaleOutDocs:
    """The horizontal scale-out docs track the real pool contract."""

    def architecture(self):
        return (ROOT / "docs" / "architecture.md").read_text()

    def test_architecture_has_the_section(self):
        text = self.architecture()
        assert "## Horizontal scale-out" in text
        # The operational pieces the section promises.
        for needle in ("runtime.workers", "--workers", "runtime.elastic",
                       "WorkEnvelope", "byte-identical", "requeued",
                       "report.scaleout"):
            assert needle in text, f"scale-out docs missing {needle!r}"

    def test_sharding_keys_documented_per_stage(self):
        text = self.architecture()
        for needle in ("granule filename", "scene key", "tile-file basename"):
            assert needle in text, f"sharding key {needle!r} undocumented"

    def test_envelope_table_has_one_copy_in_this_section(self):
        import repro.core.scaleout as scaleout

        section = self.architecture().split("## Horizontal scale-out")[1]
        section = section.split("## Control-plane service")[0]
        for needle in ("`download`", "`preprocess`", "`inference`",
                       "model source", "StageWorker.counters()"):
            assert needle in section, f"scale-out section missing {needle!r}"
        # The module points here instead of carrying its own table.
        assert "Horizontal\nscale-out" in scaleout.__doc__
        assert "tile-file basename" not in scaleout.__doc__

    def test_stage_runtime_section_is_drawn_around_the_run_context(self):
        """One context, one opener, one unit entry point per stage, and
        the one diagram of where a submitted unit runs."""
        section = self.architecture().split("## Stage runtime & middleware")[1]
        section = section.split("### Streaming dataflow")[0]
        for needle in ("RunContext", "`open_run(config, resume, chaos=None)`",
                       "`ctx.submit(stage, key, payload)`",
                       "`DownloadStage.execute(ref)`", "`label(tiles)`",
                       "ctx.submit(stage, key, payload) ─┬─ threads",
                       "└─ pool:", "site agent ─ execute_unit ─ open_run",
                       "`WorkerCrashed`", "bare context"):
            assert needle in section, f"stage-runtime docs missing {needle!r}"
        # The documented opener and entry points are the real ones.
        import inspect

        from repro.core import DownloadStage, InferenceWorker, PreprocessStage
        from repro.core.context import RunContext, open_run

        assert list(inspect.signature(open_run).parameters) == [
            "config", "resume", "chaos"
        ]
        assert list(inspect.signature(RunContext.submit).parameters) == [
            "self", "stage", "key", "payload"
        ]
        for stage in (DownloadStage, PreprocessStage, InferenceWorker):
            assert callable(stage.execute)
        assert callable(InferenceWorker.label)

    def test_lease_lifecycle_names_the_shared_opener(self):
        section = self.architecture().split("### Work-units & the lease lifecycle")[1]
        section = section.split("### Disconnected agents")[0]
        for needle in ("`execute_unit`", "open_run(config, resume=True, chaos=...)",
                       "`LeaseLost`", "checkpoints the journal"):
            assert needle in section, f"lease-lifecycle docs missing {needle!r}"

    def test_readme_and_design_point_at_the_section(self):
        assert "Horizontal scale-out" in (ROOT / "README.md").read_text()
        assert "Horizontal scale-out" in (ROOT / "DESIGN.md").read_text()

    def test_elastic_policy_knobs_match_the_config(self):
        """Every policy knob named in the docs is a real ElasticPolicy
        field, so the section cannot drift from the dataclass."""
        import dataclasses

        from repro.runtime.elastic import ElasticPolicy

        fields = {f.name for f in dataclasses.fields(ElasticPolicy)}
        text = self.architecture()
        for knob in ("min_workers", "max_workers", "tasks_per_worker_target",
                     "idle_retire_seconds"):
            assert knob in fields
            assert knob in text, f"policy knob {knob!r} undocumented"

    def test_cli_exposes_workers_flag(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "--workers" in subparsers.choices["run"].format_help()


class TestInstrumentDocs:
    """The pluggable-instrument docs track the real registry."""

    def architecture(self):
        return (ROOT / "docs" / "architecture.md").read_text()

    def test_architecture_has_the_section(self):
        text = self.architecture()
        assert "## Pluggable instruments" in text
        # The operational pieces the section promises.
        for needle in ("Instrument", "get_instrument", "register_instrument",
                       "archive.instrument", "classified_by",
                       "byte-identical", "ConfigError"):
            assert needle in text, f"instrument docs missing {needle!r}"

    def test_every_registered_name_is_documented(self):
        """The registry's built-ins all appear in the section, so a new
        registration must document itself."""
        from repro.instruments import available_instruments

        text = self.architecture()
        for name in available_instruments():
            assert f"`{name}`" in text, f"registered name {name!r} undocumented"

    def test_plan_diagram_documented(self):
        """The five nodes, the model relay and the overlap window are
        drawn in the plan section."""
        section = self.architecture().split("### The plan")[1]
        section = section.split("## Stage runtime & middleware")[0]
        for needle in ("download ──▶ model ──▶ preprocess", "┆ overlaps",
                       "inference ──▶ shipment", "TestPlanTopology"):
            assert needle in section, f"plan diagram missing {needle!r}"

    def test_readme_and_design_point_at_the_section(self):
        readme = (ROOT / "README.md").read_text()
        assert "Pluggable instruments" in readme
        assert "`repro.instruments`" in readme
        assert "Pluggable instruments" in (ROOT / "DESIGN.md").read_text()

    def test_cli_exposes_instrument_flag(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "--instrument" in subparsers.choices["catalog"].format_help()


class TestPartitionDocs:
    """The partition-tolerance docs track the real fault machinery."""

    def architecture(self):
        return (ROOT / "docs" / "architecture.md").read_text()

    def test_wire_fault_kinds_documented(self):
        """Every wire-level chaos kind the engine accepts is in the
        fault-kind table, so the docs cannot drift from the injector."""
        text = self.architecture()
        for kind in ("partition", "blackout", "flaky", "slow_link", "reset"):
            assert f"`{kind}`" in text, f"wire fault kind {kind!r} undocumented"
        assert "Wire-level faults" in text
        assert "ChaosTransport" in text

    def test_partition_semantics_matrix_present(self):
        text = self.architecture()
        for needle in ("fault kind x phase", "degraded mode", "full-jitter",
                       "test_partition_matrix.py"):
            assert needle in text, f"partition matrix docs missing {needle!r}"

    def test_degraded_agent_state_machine_documented(self):
        text = self.architecture()
        assert "### Disconnected agents: degraded mode, the outbox, reconcile" in text
        for needle in ("outbox", "reconcile", "full jitter", "fenced",
                       "startup sweep", "--reconnect-limit", "--outbox",
                       "request_id", "LeaseLost", "fence epoch"):
            assert needle in text, f"degraded-agent docs missing {needle!r}"

    def test_partition_counters_match_the_code(self):
        """Every partition counter an agent keeps is named in the docs."""
        import dataclasses

        from repro.server.agent import AgentStats
        from tests.server.harness import PARTITION_FIELDS

        fields = {f.name for f in dataclasses.fields(AgentStats)}
        text = self.architecture()
        for counter in PARTITION_FIELDS:
            assert counter in fields, f"AgentStats has no {counter!r}"
            assert f"`{counter}`" in text, f"counter {counter!r} undocumented"

    def test_protocol_phases_documented(self):
        """The phases the docs enumerate are real classify_phase outputs."""
        from repro.net.http import classify_phase

        text = self.architecture()
        known = {
            classify_phase("POST", "/v1/runs"),
            classify_phase("POST", "/v1/lease"),
            classify_phase("POST", "/v1/lease/x/heartbeat"),
            classify_phase("POST", "/v1/lease/x/complete"),
            classify_phase("POST", "/v1/reconcile"),
            classify_phase("GET", "/v1/health"),
        }
        assert known == {"submit", "lease", "heartbeat", "complete",
                         "reconcile", "health"}
        for phase in known:
            assert f"`{phase}`" in text, f"phase {phase!r} undocumented"

    def test_cli_exposes_partition_flags(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        help_text = subparsers.choices["agent"].format_help()
        assert "--outbox" in help_text
        assert "--reconnect-limit" in help_text


class TestCacheDocs:
    """The CAS docs track the real store and middleware."""

    def architecture(self):
        return (ROOT / "docs" / "architecture.md").read_text()

    def test_architecture_has_the_section(self):
        text = self.architecture()
        assert "## Content-addressed cache\n" in text
        # The operational pieces the section promises.
        for needle in ("atomic publish", "quarantine", "budget_bytes", "pin",
                       "repro cache stats", "repro cache gc",
                       "cache_corrupt", "cache_enospc"):
            assert needle in text, f"cache docs missing {needle!r}"

    def test_middleware_onion_includes_the_cache_layer(self):
        assert "Journal > Cache > Chaos" in self.architecture()

    def test_key_grammar_matches_the_code(self):
        """The documented key prefixes are the ones the glue emits."""
        from repro.core.artifact_cache import granule_key, labels_key, tiles_key

        class _Cfg:
            instrument, seed = "modis", 3

        assert granule_key(_Cfg, "a.hdf").startswith("granule:")
        assert tiles_key("modis", "s", 128, 0.3, 0.5, []).startswith("tiles:")
        assert labels_key("d", 42, "t") == "labels:ricc:d:nc=42:by=RICC/AICCA:in=t"
        text = self.architecture()
        for prefix in ("granule:", "tiles:", "labels:"):
            assert f"`{prefix}" in text, f"key prefix {prefix!r} undocumented"

    def test_readme_and_design_point_at_the_section(self):
        readme = (ROOT / "README.md").read_text()
        assert "`repro.cas`" in readme
        assert '"Content-addressed cache" in docs/architecture.md' in readme
        assert "Content-addressed cache" in (ROOT / "DESIGN.md").read_text()

    def test_cli_exposes_cache_subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert "cache" in parser.format_help()


class TestDataPathDocs:
    """The per-stage data-path table names things that exist."""

    def section(self):
        text = (ROOT / "docs" / "architecture.md").read_text()
        start = text.index("### Data path: passes per artifact")
        return text[start:text.index("### Running the benchmark")]

    def test_one_row_per_stage(self):
        rows = [
            line.split("|")[1].strip()
            for line in self.section().splitlines()
            if line.startswith("| ") and not line.startswith("| stage")
        ]
        assert rows == ["download", "preprocess", "model", "inference", "shipment"]

    def test_named_functions_exist(self):
        from repro import netcdf
        from repro.netcdf import writer
        from repro.util import digest

        section = self.section()
        for module, name in ((netcdf, "to_chunks"), (netcdf, "to_bytes"),
                             (writer, "splice_bytes"), (digest, "write_digested")):
            assert f"`{name}" in section, f"{name} not in the data-path table"
            assert callable(getattr(module, name))
        assert (ROOT / "tests" / "core" / "test_io_budget.py").is_file()
        assert "tests/core/test_io_budget.py" in section


class TestExamples:
    def test_every_example_has_docstring_and_main(self):
        for path in sorted((ROOT / "examples").glob("*.py")):
            text = path.read_text()
            assert text.lstrip().startswith(('#!/usr/bin/env python\n"""', '"""')), path.name
            assert "def main()" in text, path.name
            assert '__name__ == "__main__"' in text, path.name

    def test_shipped_configs_parse(self):
        from repro.core import load_config

        for path in sorted((ROOT / "examples" / "configs").glob("*.yaml")):
            config = load_config(path.read_text())
            assert config.products
