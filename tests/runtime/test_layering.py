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
