"""The layering contract, enforced two ways.

``repro.runtime`` is the layer under the stages: the flows engine and
zambeze orchestrator execute its plans without the local stage
implementations, so an import edge into ``repro.core`` would invert the
architecture.  CI runs ``tools/check_layering.py``; this test runs the
same checker in-process (so a violation fails the suite before CI) and
pins the checker's own detection logic against synthetic trees.
"""

import ast
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
CHECKER = os.path.join(REPO_ROOT, "tools", "check_layering.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import check_layering  # noqa: E402


class TestRuntimeLayer:
    def test_runtime_package_never_imports_core(self):
        package = os.path.join(REPO_ROOT, "src", "repro", "runtime")
        assert check_layering.violations(package, ("repro.core",)) == []

    def test_core_package_never_imports_instruments_implementations(self):
        """The stages reach MODIS/ABI only through the registry."""
        package = os.path.join(REPO_ROOT, "src", "repro", "core")
        assert check_layering.violations(
            package, ("repro.modis", "repro.abi")
        ) == []

    def test_instruments_package_never_imports_its_consumers(self):
        package = os.path.join(REPO_ROOT, "src", "repro", "instruments")
        assert check_layering.violations(
            package, ("repro.core", "repro.server")
        ) == []

    def test_instrument_rules_are_in_the_checker(self):
        """CI enforces the same edges this suite checks in-process."""
        rules = {}
        for package, forbidden in check_layering.RULES:
            rules.setdefault(package, set()).update(forbidden)
        assert {"repro.modis", "repro.abi"} <= rules["src/repro/core"]
        assert "repro.core" in rules["src/repro/instruments"]

    def test_checker_script_passes_on_the_repo(self):
        proc = subprocess.run(
            [sys.executable, CHECKER], cwd=REPO_ROOT,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "layering ok" in proc.stdout


class TestCheckerLogic:
    def find(self, source, forbidden=("repro.core",)):
        tree = ast.parse(source)
        return [
            (module, layer)
            for module, _line in check_layering.imported_modules(tree)
            for layer in forbidden
            if module == layer or module.startswith(layer + ".")
        ]

    def test_detects_plain_import(self):
        assert self.find("import repro.core") == [("repro.core", "repro.core")]

    def test_detects_from_import_of_submodule(self):
        found = self.find("from repro.core.download import DownloadStage")
        assert found == [("repro.core.download", "repro.core")]

    def test_ignores_lookalike_prefixes_and_relative_imports(self):
        assert self.find("import repro.corex") == []
        assert self.find("from . import unit") == []
        assert self.find("from repro.net.retry import retry_call") == []

    def test_violation_in_a_synthetic_package(self, tmp_path):
        bad = tmp_path / "pkg"
        bad.mkdir()
        (bad / "mod.py").write_text("from repro.core import EOMLWorkflow\n")
        found = check_layering.violations(str(bad), ("repro.core",))
        assert len(found) == 1
        assert "mod.py:1" in found[0]

    def test_shim_rule_flags_only_pure_reexport_modules(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("from pkg.real import thing\n")
        (package / "shim.py").write_text(
            '"""Moved."""\nfrom pkg.real import thing  # noqa: F401\n'
            '__all__ = ["thing"]\n'
        )
        (package / "real.py").write_text("import os\n\ndef thing():\n    return os.sep\n")
        (package / "empty.py").write_text('"""Nothing here."""\n')
        found = check_layering.shims(str(package))
        assert len(found) == 1 and "shim.py" in found[0]

    def test_the_source_tree_has_no_shims(self):
        assert check_layering.shims(os.path.join(REPO_ROOT, "src", "repro")) == []

    def test_stage_rule_flags_module_and_name_imports(self, tmp_path):
        stage = tmp_path / "stage.py"
        stage.write_text(
            "from repro.runtime import WorkerCrashed, WorkUnit\n"
            "from repro.runtime.proc import ProcWorkerPool\n"
            "from repro.pexec.simexec import SimHtexExecutor\n"
            "import repro.pexec\n"
        )
        found = check_layering.stage_violations(str(stage))
        assert [line.split(":")[1] for line in found] == ["2", "3", "4"]

    def test_the_stage_modules_import_no_executor_substrate(self):
        for module in check_layering.STAGE_MODULES:
            assert check_layering.stage_violations(
                os.path.join(REPO_ROOT, module)
            ) == []

    def test_opener_rule_names_the_calling_function(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text(
            "def ok():\n    return 1\n\n"
            "def sneaky(config):\n"
            "    j = journal.WorkflowJournal(config.dir)\n"
            "    return open_store(config), j\n"
        )
        sites = check_layering.call_sites(str(package), check_layering.OPENERS)
        assert sorted((name, fn) for name, _path, fn in sites) == [
            ("WorkflowJournal", "sneaky"), ("open_store", "sneaky"),
        ]

    def test_only_open_run_opens_a_run(self):
        """The driver, the pool worker factory and execute_unit all enter
        a run through ``open_run``; a second caller of the journal, store
        or injector constructors would be a second way in."""
        assert check_layering.opener_violations(REPO_ROOT) == []
        home = os.path.join(REPO_ROOT, check_layering.OPENER_HOME[0])
        called = {
            name
            for name, path, function in check_layering.call_sites(
                os.path.dirname(home), check_layering.OPENERS
            )
            if os.path.samefile(path, home)
            and function == check_layering.OPENER_HOME[1]
        }
        assert called == set(check_layering.OPENERS)
