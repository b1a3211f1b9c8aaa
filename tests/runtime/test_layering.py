"""The layering contract, enforced two ways.

``repro.runtime`` is the layer under the stages, which import it, so an
import edge into ``repro.core`` would invert the architecture.  CI runs
``tools/check_layering.py``; this test runs the same checker in-process
(so a violation fails the suite before CI) and pins the checker's own
detection logic against synthetic trees.  The dead-module rule
(``tools/check_dead.py``: nothing under ``src/`` is kept alive by
``tests/`` alone) is pinned the same way.
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
import check_dead  # noqa: E402
import check_layering  # noqa: E402


class TestRuntimeLayer:
    def test_runtime_package_never_imports_core(self):
        package = os.path.join(REPO_ROOT, "src", "repro", "runtime")
        assert check_layering.violations(package, ("repro.core",)) == []

    def test_core_package_never_imports_instruments_implementations(self):
        """The stages reach MODIS only through the registry."""
        package = os.path.join(REPO_ROOT, "src", "repro", "core")
        assert check_layering.violations(package, ("repro.modis",)) == []

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
        assert "repro.modis" in rules["src/repro/core"]
        assert "repro.core" in rules["src/repro/instruments"]

    def test_stages_and_runtime_keep_no_metrics_registry(self):
        """The report is a run's one record; only the control plane
        keeps a telemetry registry (repro.server.metrics), and the
        stages and the runtime may not import the control plane."""
        rules = {}
        for package, forbidden in check_layering.RULES:
            rules.setdefault(package, set()).update(forbidden)
        assert "repro.server" in rules["src/repro/core"]
        assert "repro.server" in rules["src/repro/runtime"]

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

    def test_in_place_write_rule(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "journal").mkdir(parents=True)
        (package / "a.py").write_text(
            "import os\n"
            "def fine(path):\n"
            "    with open(path + '.part', 'wb') as h:\n        h.write(b'x')\n"
            "    os.replace(path + '.part', path)\n"
            "def bad(path):\n"
            "    with open(path, 'r+b') as h:\n        h.truncate(1)\n"
            "    open(path, mode='w+')\n"
            "    os.truncate(path, 0)\n"
        )
        (package / "journal" / "j.py").write_text("def repair(h):\n    h.truncate(9)\n")
        found = check_layering.in_place_writes(str(package), str(package / "journal"))
        assert sorted(int(line.split(":")[1]) for line in found) == [7, 8, 9, 10]

    def test_no_published_file_is_modified_in_place(self):
        assert check_layering.in_place_writes(
            os.path.join(REPO_ROOT, "src", "repro"),
            os.path.join(REPO_ROOT, check_layering.IN_PLACE_EXEMPT),
        ) == []


class TestDeadModuleRule:
    """``tools/check_dead.py``: reachable from an example, a benchmark or
    a ``__main__`` — or dead, whatever ``tests/`` imports."""

    def dead(self, root, files):
        for relative, source in files.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return check_dead.SourceTree(str(root)).dead()

    def test_module_imported_only_by_its_tests_is_dead(self, tmp_path):
        assert self.dead(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/used.py": "def f():\n    return 1\n",
            "src/pkg/lonely.py": "def g():\n    return 2\n",
            "examples/run.py": "from pkg.used import f\n",
            "tests/test_lonely.py": "from pkg.lonely import g\n",
        }) == ["pkg.lonely"]

    def test_reexport_by_its_own_package_does_not_keep_a_module_alive(self, tmp_path):
        assert self.dead(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/sub/__init__.py": "from pkg.sub.a import A\nfrom .b import B\n",
            "src/pkg/sub/a.py": "class A:\n    pass\n",
            "src/pkg/sub/b.py": "class B:\n    pass\n",
            "src/pkg/main.py": "from pkg.sub import A\n",
            "src/pkg/__main__.py": "from pkg import main\n",
            "tests/test_b.py": "from pkg.sub import B\n",
        }) == ["pkg.sub.b"]

    def test_wholly_dead_package_is_reported_once(self, tmp_path):
        assert self.dead(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/live.py": "X = 1\n",
            "src/pkg/toy/__init__.py": "from pkg.toy.bus import Bus\n",
            "src/pkg/toy/bus.py": "class Bus:\n    pass\n",
            "src/pkg/toy/agent.py": "from pkg.toy.bus import Bus\n",
            "benchmarks/bench.py": "import pkg.live\n",
            "tests/test_toy.py": "from pkg.toy import Bus\n",
        }) == ["pkg.toy"]

    def test_reexported_name_imported_elsewhere_reaches_its_module(self, tmp_path):
        assert self.dead(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/sub/__init__.py": "from pkg.sub.a import A as Renamed\n",
            "src/pkg/sub/a.py": "class A:\n    pass\n",
            "src/pkg/cli.py": "from pkg import sub\n\ndef main():\n    return sub.Renamed()\n",
            "src/pkg/__main__.py": "from pkg.cli import main\n",
            "examples/run.py": "from pkg.sub import Renamed\n",
        }) == []

    def test_attribute_use_on_an_imported_package_reaches_the_module(self, tmp_path):
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/sub/__init__.py": "from pkg.sub.a import run\nfrom pkg.sub.b import idle\n",
            "src/pkg/sub/a.py": "def run():\n    return 1\n",
            "src/pkg/sub/b.py": "def idle():\n    return 0\n",
            "src/pkg/__main__.py": "from pkg import sub\n\nsub.run()\n",
        }
        assert self.dead(tmp_path, files) == ["pkg.sub.b"]

    def test_string_target_counts_as_an_import(self, tmp_path):
        assert self.dead(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/pool.py": "TARGET = 'pkg.worker:build'\n",
            "src/pkg/worker.py": "def build(payload):\n    return payload\n",
            "examples/run.py": "from pkg.pool import TARGET\n",
        }) == []

    def test_module_only_an_example_imports_is_alive(self, tmp_path):
        assert self.dead(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/leaf.py": "from . import helper\n",
            "src/pkg/helper.py": "X = 1\n",
            "examples/demo.py": "from pkg import leaf\n",
        }) == []

    def dead_names(self, root, files):
        self.dead(root, files)
        return check_dead.SourceTree(str(root)).dead_names()

    def test_function_only_its_tests_call_is_a_dead_name(self, tmp_path):
        """The module is alive (the example imports from it); the helper
        beside it that only a test, the package re-export and its own
        recursion mention is not."""
        assert self.dead_names(tmp_path, {
            "src/pkg/__init__.py": "from pkg.mod import run, helper\n",
            "src/pkg/mod.py": (
                "def run():\n    return 1\n\n"
                "def helper(n):\n    return helper(n - 1) if n else 0\n"
            ),
            "examples/run.py": "from pkg import run\n",
            "tests/test_mod.py": "from pkg import helper\n",
        }) == [("pkg.mod", "helper")]

    def test_allowlisted_and_indirectly_named_definitions_are_kept(self, tmp_path):
        assert "ChaosTransport" in check_dead.KEPT
        assert self.dead_names(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": (
                "class ChaosTransport:\n    pass\n\n"
                "def build(payload):\n    return payload\n\n"
                "def probe():\n    return 1\n"
            ),
            "examples/run.py": (
                "import pkg.mod\nTARGET = 'pkg.mod:build'\n"
                "getattr(pkg.mod, 'probe')()\n"
            ),
        }) == []

    def test_an_attribute_read_off_a_foreign_module_is_not_a_use(self, tmp_path):
        """``json.dumps`` reads the standard library's ``dumps``, not
        ours; an attribute read off a module of ``src/`` still counts."""
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/text.py": (
                "def dumps(value):\n    return str(value)\n\n"
                "def loads(text):\n    return text\n"
            ),
            "src/pkg/use.py": (
                "import json\nimport os.path as osp\nfrom pkg import text\n\n"
                "def run():\n    return json.dumps(osp.join('a')), text.loads('x')\n"
            ),
            "examples/run.py": "from pkg.use import run\n",
        }
        assert self.dead_names(tmp_path, files) == [("pkg.text", "dumps")]
        files["examples/run.py"] += "from pkg import text\ntext.dumps(1)\n"
        assert self.dead_names(tmp_path, files) == []

    def test_import_of_a_module_with_no_file_fails_the_check(self, tmp_path, capsys):
        """A re-export left behind after its module is deleted: the walk
        only follows imports that resolve, so without this rule the
        check passed a tree whose package cannot be imported."""
        self.dead(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/sub/__init__.py": (
                "from pkg.sub.kept import K\nfrom pkg.sub.gone import G\n"
                "from .also_gone import A\n"
            ),
            "src/pkg/sub/kept.py": "class K:\n    pass\n",
            "examples/run.py": "from pkg.sub import K\nimport pkg.missing\nimport os\n",
        })
        assert check_dead.main(str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "examples/run.py:2: imports pkg.missing, which has no file under src/",
            "src/pkg/sub/__init__.py:2: imports pkg.sub.gone, which has no file under src/",
            "src/pkg/sub/__init__.py:3: imports pkg.sub.also_gone, which has no file under src/",
        ]

    def test_the_source_tree_has_no_dead_modules(self):
        tree = check_dead.SourceTree(REPO_ROOT)
        assert tree.dead() == []
        assert tree.dead_names() == []
        assert tree.dangling() == []
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "tools", "check_dead.py")],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dead-module check ok" in proc.stdout
