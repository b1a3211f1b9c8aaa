#!/usr/bin/env python
"""Dead-code check: every module under ``src/``, and every top-level
``def`` / ``class`` in one, must be reachable from something that runs
it — an example, a benchmark, or a ``__main__``.

``tests/`` is never read, so code kept alive only by its own tests is
dead here.  ``examples/`` earns its place as a root because CI's
``tier1`` job runs every ``examples/*.py`` as a script and fails on a
non-zero exit or empty output.  The module walk starts at every file
under ``examples/`` and ``benchmarks/`` and every ``__main__.py`` under
``src/``, and follows

* ``import a.b`` and ``from a.b import name`` (relative forms too);
* a name a package ``__init__`` re-exports, back to the module that
  defines it — ``from repro.sim import Tracer`` reaches
  ``repro.sim.trace``, not every module ``repro.sim`` imports;
* attribute use on an imported package (``from repro import analysis``
  then ``analysis.download_sweep``), resolved the same way;
* ``"pkg.mod:attr"`` string constants (``WORKER_TARGET``), which
  ``importlib`` resolves at run time.

A package ``__init__`` importing its own modules does not make them
alive: re-exporting a name is not a use of it.  A package whose every
module is dead is reported once, as the package.

The name rule then applies the same test one level down, by bare name:
a top-level ``def`` / ``class`` is dead unless some file under ``src/``,
``examples/`` or ``benchmarks/`` — outside its own body — loads the
name, reads it as an attribute, imports it (a package ``__init__``
re-export again does not count), names it in a ``"pkg.mod:attr"``
string or passes it to ``getattr`` as a constant.  An attribute read
off a name that ``import`` bound to a module outside ``src/`` is not a
use: ``json.dumps`` does not keep a ``dumps`` of ours alive.  :data:`KEPT` lists
the names kept on purpose.

An import that names a module of a package under ``src/`` with no file
behind it is reported too, wherever under ``src/``, ``examples/`` or
``benchmarks/`` it stands: a package ``__init__`` still re-exporting
from a deleted module would otherwise pass the walk above, which only
follows imports that resolve.  Run from the repo root:

    python tools/check_dead.py

Exit status 0 = clean, 1 = dead module(s), dead name(s) or dangling
import(s) printed to stderr.
"""

from __future__ import annotations

import ast
import collections
import os
import re
import sys

ROOT_DIRS = ("examples", "benchmarks")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Top-level names no runnable code refers to, kept on purpose.
KEPT = {
    "ChaosTransport": "the wire fault injector tests/server substitutes for the transport",
    "available_instruments": "tests/instruments holds every registered instrument to the contract",
}
STRING_TARGET = re.compile(r"^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+):([A-Za-z_]\w*)")


def python_files(directory: str):
    for dirpath, _dirnames, filenames in os.walk(directory):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


class SourceTree:
    """The modules under ``<root>/src`` and what each file refers to."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.paths = {}  # dotted module or package name -> file
        self.packages = set()
        src = os.path.join(root, "src")
        for path in python_files(src):
            parts = os.path.relpath(path, src)[: -len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
                self.packages.add(".".join(parts))
            self.paths[".".join(parts)] = path
        self._exports = {}

    def parse(self, path: str) -> ast.Module:
        with open(path, encoding="utf-8") as handle:
            return ast.parse(handle.read(), filename=path)

    def absolute(self, node: ast.ImportFrom, module: str | None) -> str | None:
        """The module an ``ImportFrom`` names, relative forms resolved
        against ``module`` (the importing file's dotted name)."""
        if node.level == 0:
            return node.module
        if module is None:
            return None
        parts = module.split(".")
        if module not in self.packages:
            parts.pop()
        parts = parts[: len(parts) - (node.level - 1)]
        return ".".join(parts + ([node.module] if node.module else []))

    def exports(self, package: str) -> dict:
        """``name -> (module, original name)`` for every name the
        package ``__init__`` imports."""
        if package not in self._exports:
            table = self._exports[package] = {}
            for node in ast.walk(self.parse(self.paths[package])):
                if isinstance(node, ast.ImportFrom):
                    base = self.absolute(node, package)
                    for alias in node.names:
                        table[alias.asname or alias.name] = (base, alias.name)
        return self._exports[package]

    def resolve(self, module: str | None, name: str, seen=()) -> str | None:
        """The module that defines ``name`` as imported from ``module``."""
        if module not in self.paths:
            return None
        if f"{module}.{name}" in self.paths:
            return f"{module}.{name}"
        if module in self.packages and (module, name) not in seen:
            source = self.exports(module).get(name)
            if source is not None:
                return self.resolve(*source, seen + ((module, name),)) or module
        return module

    def references(self, path: str, module: str | None) -> set:
        """Every module under ``src`` the file at ``path`` refers to."""
        tree = self.parse(path)
        found = set()
        bound = {}  # local name -> the module or package it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.paths:
                        found.add(alias.name)
                        top = alias.name.split(".")[0]
                        bound[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom):
                base = self.absolute(node, module)
                for alias in node.names:
                    target = self.resolve(base, alias.name)
                    if target is not None:
                        found.add(target)
                        if target == f"{base}.{alias.name}":
                            bound[alias.asname or alias.name] = target
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = STRING_TARGET.match(node.value)
                if match and match.group(1) in self.paths:
                    found.add(self.resolve(match.group(1), match.group(2)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                found.update(self._attribute_chain(node, bound))
        return found

    def _attribute_chain(self, node: ast.Attribute, bound: dict):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in bound:
            return
        current = bound[node.id]
        for attr in reversed(attrs):
            target = self.resolve(current, attr)
            if target is None:
                return
            yield target
            if target != f"{current}.{attr}":
                return
            current = target

    def alive(self) -> set:
        """Modules reachable from the examples, the benchmarks and the
        ``__main__`` modules."""
        pending = [
            (path, None) for directory in ROOT_DIRS
            for path in python_files(os.path.join(self.root, directory))
        ]
        alive = set()

        def reach(module: str) -> None:
            # Importing a.b.c runs a/__init__ and a/b/__init__ as well.
            parts = module.split(".")
            for depth in range(1, len(parts) + 1):
                name = ".".join(parts[:depth])
                if name in self.paths and name not in alive:
                    alive.add(name)
                    pending.append((self.paths[name], name))

        for module in self.paths:
            if module.endswith(".__main__"):
                reach(module)
        while pending:
            path, module = pending.pop()
            for target in self.references(path, module):
                own = module in self.packages and target.startswith(module + ".")
                if not own:
                    reach(target)
        return alive

    def dead(self) -> list:
        """Dotted names of dead modules; a package none of whose modules
        is alive stands for all of them."""
        alive = self.alive()
        modules = {m for m in self.paths if m not in self.packages}
        dead = {m for m in modules if m not in alive}
        reported = []
        for package in sorted(self.packages, key=lambda p: p.count(".")):
            inside = {m for m in modules if m.startswith(package + ".")}
            if inside and inside <= dead:
                reported.append(package)
                dead -= inside
        return sorted(reported + list(dead))


    def dangling(self) -> list:
        """``(path, line, module)`` of every import, under ``src`` or a
        root directory, of a module inside a ``src`` package that has no
        file."""
        tops = {name.split(".")[0] for name in self.paths}
        sources = [(path, module) for module, path in self.paths.items()] + [
            (path, None) for directory in ROOT_DIRS
            for path in python_files(os.path.join(self.root, directory))
        ]
        found = []
        for path, module in sources:
            for node in ast.walk(self.parse(path)):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [self.absolute(node, module)]
                else:
                    continue
                for name in names:
                    if name and name.split(".")[0] in tops and name not in self.paths:
                        found.append((path, node.lineno, name))
        return sorted(found)

    def dead_names(self) -> list:
        """``(module, name)`` of every top-level ``def`` / ``class``
        under ``src`` that no file outside ``tests/`` refers to."""
        used = collections.Counter()
        defined = []  # (module, name, references inside its own body)
        sources = [
            (path, module in self.packages, module)
            for module, path in self.paths.items()
        ] + [
            (path, False, None) for directory in ROOT_DIRS
            for path in python_files(os.path.join(self.root, directory))
        ]
        tops = {name.split(".")[0] for name in self.paths}
        for path, is_init, module in sources:
            tree = self.parse(path)
            foreign = {
                alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.split(".")[0] not in tops
            }
            used.update(name_references(tree, is_init, foreign))
            if module is not None:
                for node in tree.body:
                    if isinstance(node, DEFINITIONS):
                        own = name_references(node, False, foreign)
                        defined.append((module, node.name, own[node.name]))
        return sorted(
            (module, name) for module, name, own in defined
            if used[name] <= own and name not in KEPT
        )


def name_references(tree: ast.AST, reexports: bool, foreign: set) -> collections.Counter:
    """How often each bare name is referred to under ``tree``: loaded as
    a name or an attribute (unless read off a name in ``foreign``, the
    names bound to modules outside ``src/``), imported (unless
    ``reexports``: a package ``__init__`` importing a name is not a use
    of it), named by a ``"pkg.mod:attr"`` string, or looked up by
    ``getattr`` with a constant."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            receiver = node.value
            if not (isinstance(receiver, ast.Name) and receiver.id in foreign):
                found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and not reexports:
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = STRING_TARGET.match(node.value)
            if match:
                found[match.group(2)] += 1
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            found[node.args[1].value] += 1
    return found


def main(root: str = ".") -> int:
    tree = SourceTree(root)
    dead = tree.dead()
    for module in dead:
        print(f"{os.path.relpath(tree.paths[module], root)}: {module} has no "
              "importer outside tests/", file=sys.stderr)
    names = tree.dead_names()
    for module, name in names:
        print(f"{os.path.relpath(tree.paths[module], root)}: {module}.{name} is "
              "referred to nowhere outside tests/", file=sys.stderr)
    dangling = tree.dangling()
    for path, line, module in dangling:
        print(f"{os.path.relpath(path, root)}:{line}: imports {module}, which "
              "has no file under src/", file=sys.stderr)
    if dead or names or dangling:
        return 1
    print(f"dead-module check ok: {len(tree.paths) - len(tree.packages)} modules, "
          "each reachable from an example, a benchmark or a __main__, "
          "no top-level name alive only through tests/, "
          "and no import of a module without a file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
