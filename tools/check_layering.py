#!/usr/bin/env python
"""Layering check: ``repro.runtime`` must never import ``repro.core``,
no module may be a re-export shim, the stage modules never import an
executor substrate, only the run context's opener opens a run, and no
published file is modified in place.

The unified stage runtime is the layer *under* the stages — pool
workers and site agents run units through it, and the stages import it —
so an import edge from ``repro.runtime`` into ``repro.core`` would
invert the architecture (and reintroduce the cycle the refactor
removed).  This script walks the runtime package's
ASTs and fails loudly on any ``import``/``from`` that resolves into a
forbidden layer.  It also fails on any non-``__init__`` module under
``src/repro`` that consists only of imports and ``__all__``: a moved
name's import sites move with it, so deleted shims stay deleted.  The
stage modules hand work to ``RunContext.submit`` and must not learn what
runs it, so they may import neither ``repro.pexec`` nor
``ProcWorkerPool``; and the journal, the store and the chaos injector
are opened by ``repro.core.context.open_run`` alone, so the driver, the
pool workers and the site agents can never enter a run three ways.
Readers map files (``repro.netcdf.read``), so a writer that reopened a
published file to update or truncate it would fault them: outside the
journal's own append-only files, nothing under ``src/repro`` may
``open(..., "r+b")`` (any ``+`` mode), ``.truncate(`` or ``os.truncate``
— new content goes to a temp name and is renamed into place.  Run from
the repo root:

    python tools/check_layering.py

Exit status 0 = clean, 1 = violation(s) printed to stderr.
"""

from __future__ import annotations

import ast
import os
import sys

# (package under scrutiny, layers it must not import)
RULES = [
    ("src/repro/runtime", ("repro.core",)),
    # The local workflow must run with zero control-plane dependency:
    # repro.server drives core remotely, never the other way around.
    ("src/repro/core", ("repro.server",)),
    ("src/repro/runtime", ("repro.server",)),
    # The stages are instrument-agnostic: they reach MODIS only through
    # the repro.instruments registry interface, never directly — that's
    # what lets the benchmark substitute its corpus replay.
    ("src/repro/core", ("repro.modis",)),
    # And the interface layer must not depend on its consumers.
    ("src/repro/instruments", ("repro.core", "repro.server")),
    # The content-addressed store is a leaf shared by stages, pool
    # workers, and site agents: it may depend only on the bottom
    # utility layer, never on any of its consumers.
    ("src/repro/cas", ("repro.core", "repro.server", "repro.runtime",
                       "repro.instruments", "repro.modis")),
    # A run's report is its one record: the stages and the runtime keep
    # no second book in a metrics registry (the control plane's
    # /v1/metrics is the only telemetry consumer).
    ("src/repro/core", ("repro.telemetry",)),
    ("src/repro/runtime", ("repro.telemetry",)),
]


# The stage modules: they submit units to the run context and never
# learn whether a thread, a forked worker or a leased agent runs them.
STAGE_MODULES = tuple(
    f"src/repro/core/{name}.py"
    for name in ("download", "preprocess", "inference", "shipment")
)
STAGE_FORBIDDEN = ("repro.pexec", "ProcWorkerPool")

# What opens a run, and the one function allowed to call it (looked for
# under these packages).
OPENERS = ("WorkflowJournal", "open_store", "build_injector")
OPENER_HOME = ("src/repro/core/context.py", "open_run")
OPENER_SCOPE = ("src/repro/core", "src/repro/server")


def imported_modules(tree: ast.AST):
    """Yield (module_name, line) for every import statement in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            # Relative imports (level > 0) stay inside the package and
            # cannot cross into another top-level layer.
            if node.level == 0 and node.module:
                yield node.module, node.lineno


def parsed_modules(package_dir: str):
    """``(path, tree)`` for every Python file under ``package_dir``."""
    for dirpath, _dirnames, filenames in os.walk(package_dir):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as handle:
                    yield path, ast.parse(handle.read(), filename=path)


def violations(package_dir: str, forbidden: tuple) -> list:
    found = []
    for path, tree in parsed_modules(package_dir):
        for module, line in imported_modules(tree):
            for layer in forbidden:
                if module == layer or module.startswith(layer + "."):
                    found.append(f"{path}:{line}: imports {module} "
                                 f"(forbidden layer {layer})")
    return found


def stage_violations(path: str, forbidden: tuple = STAGE_FORBIDDEN) -> list:
    """Imports of a forbidden module *or name* in one stage module."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in names:
            for banned in forbidden:
                if (module == banned or module.startswith(banned + ".")
                        or name == banned):
                    found.append(f"{path}:{node.lineno}: stage module imports "
                                 f"{banned} (stages submit to the run context)")
    return found


def call_sites(package_dir: str, names: tuple) -> list:
    """``(name, path, enclosing function or None)`` for every call of one
    of ``names`` (as a bare name or an attribute) under ``package_dir``."""
    found = []

    def visit(node: ast.AST, path: str, function) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if name in names:
                found.append((name, path, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path, tree in parsed_modules(package_dir):
        visit(tree, path, None)
    return found


def opener_violations(root: str = ".") -> list:
    home_path, home_function = OPENER_HOME
    home = (os.path.normpath(os.path.join(root, home_path)), home_function)
    found = []
    for package in OPENER_SCOPE:
        for name, path, function in call_sites(os.path.join(root, package), OPENERS):
            if (os.path.normpath(path), function) != home:
                found.append(f"{path}: {function or '<module>'} calls {name}(); only "
                             f"{home_path}:{home_function} opens a run")
    return found


# Modifying a file under its published name; the journal appends to
# files only it reads, and is exempt.
IN_PLACE_EXEMPT = "src/repro/journal"


def in_place_writes(package_dir: str, exempt: str = IN_PLACE_EXEMPT) -> list:
    """``open`` with a ``+`` mode and any ``truncate`` call under
    ``package_dir`` (outside ``exempt``)."""
    found = []
    for path, tree in parsed_modules(package_dir):
        if os.path.normpath(path).startswith(os.path.normpath(exempt) + os.sep):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None
            )
            if name in ("truncate", "ftruncate") or (
                name == "open" and isinstance(mode, ast.Constant)
                and "+" in str(mode.value)
            ):
                found.append(f"{path}:{node.lineno}: {name}() modifies a file in "
                             "place; write a temp name and os.replace it")
    return found


def is_shim(tree: ast.Module) -> bool:
    """True for a module whose whole body is imports and ``__all__``."""
    body = [
        node for node in tree.body
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
    ]
    return bool(body) and all(
        isinstance(node, (ast.Import, ast.ImportFrom))
        or (
            isinstance(node, ast.Assign)
            and all(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
        for node in body
    )


def shims(package_dir: str) -> list:
    return [
        f"{path}: re-export shim (only imports and __all__); move the import sites instead"
        for path, tree in parsed_modules(package_dir)
        if os.path.basename(path) != "__init__.py" and is_shim(tree)
    ]


def main(root: str = ".") -> int:
    failures = shims(os.path.join(root, "src/repro"))
    for package, forbidden in RULES:
        package_dir = os.path.join(root, package)
        if not os.path.isdir(package_dir):
            failures.append(f"{package_dir}: package not found")
            continue
        failures.extend(violations(package_dir, tuple(forbidden)))
    for module in STAGE_MODULES:
        failures.extend(stage_violations(os.path.join(root, module)))
    failures.extend(opener_violations(root))
    failures.extend(in_place_writes(
        os.path.join(root, "src/repro"), os.path.join(root, IN_PLACE_EXEMPT)))
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    print("layering ok: runtime, core, instruments, and cas respect "
          "the forbidden-layer rules; no re-export shims; stages import no "
          "executor substrate; one opener; no in-place writes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
