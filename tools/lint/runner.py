"""The lint runner: parse each file, run every rule on it.

:func:`lint_sources` lints in-memory modules (test fixtures), and
:func:`lint_tree` reads a whole package directory and hands it to
:func:`lint_sources` (what the CLI runs).  Every run runs every rule.

Each file is linted in one pass: parse, build its import table, run the
rules, drop findings its inline suppressions silence.  The only fact that
crosses files is the ``__init__`` re-export map, read off the import
tables of the package ``__init__`` files so LAY001 can see through
re-exported names.

"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence

from .config import PACKAGE_NAME, layer_of
from .diagnostics import Diagnostic
from .imports import ImportTable
from .rules import FileContext, all_rules
from .suppressions import parse_suppressions

__all__ = ["LintResult", "lint_sources", "lint_tree"]


class LintResult:
    """Diagnostics plus the bookkeeping the reports need."""

    def __init__(
        self,
        diagnostics: List[Diagnostic],
        checked_files: int,
        rules: Sequence[str],
    ):
        self.diagnostics = sorted(diagnostics)
        self.checked_files = checked_files
        self.rules = list(rules)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)


def _module_package(relpath: str) -> str:
    """Dotted package containing the module at ``relpath``.

    ``core/search.py`` -> ``repro.core``; ``system.py`` -> ``repro``;
    ``core/__init__.py`` -> ``repro.core`` (a package's ``__init__``
    resolves relative imports against the package itself).
    """
    directories = relpath.split("/")[:-1]
    return ".".join([PACKAGE_NAME] + directories)


def _reexports(imports: Mapping[str, ImportTable]) -> Dict[str, str]:
    """``package.name -> defining.module.name`` for every name a package
    ``__init__`` binds from inside the package (``repro.ChunkSearcher`` ->
    ``repro.core.ChunkSearcher``; :func:`~lint.imports.canonicalize`
    chases the chain)."""
    reexports: Dict[str, str] = {}
    for relpath, table in imports.items():
        if not relpath.endswith("__init__.py"):
            continue
        package = _module_package(relpath)
        for local, target in table.bindings.items():
            exported = f"{package}.{local}"
            if target != exported and target.startswith(PACKAGE_NAME + "."):
                reexports[exported] = target
    return reexports


def lint_sources(sources: Mapping[str, str]) -> LintResult:
    """Lint in-memory modules, one pass per file.

    ``sources`` maps package-relative paths (which fix each module's
    layer) to source text.  A syntax error is itself reported as a
    diagnostic (rule ``PARSE``) rather than raised — a tree that does not
    parse must fail the lint gate, not crash it.
    """
    rules = all_rules()
    diagnostics: List[Diagnostic] = []
    trees: Dict[str, ast.Module] = {}
    for relpath in sorted(sources):
        try:
            trees[relpath] = ast.parse(sources[relpath], filename=relpath)
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="PARSE",
                    message=f"syntax error: {exc.msg}",
                )
            )
    imports = {
        relpath: ImportTable(tree, _module_package(relpath))
        for relpath, tree in trees.items()
    }
    reexports = _reexports(imports)
    for relpath, tree in trees.items():
        ctx = FileContext(
            relpath=relpath,
            layer=layer_of(relpath),
            tree=tree,
            imports=imports[relpath],
            reexports=reexports,
        )
        suppressions = parse_suppressions(sources[relpath])
        for rule in rules:
            diagnostics.extend(
                diagnostic
                for diagnostic in rule.check(ctx)
                if not suppressions.is_suppressed(diagnostic.line, diagnostic.rule)
            )
    return LintResult(diagnostics, len(sources), [rule.id for rule in rules])


def _python_files(root: str) -> Iterable[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def lint_tree(root: str) -> LintResult:
    """Lint every ``.py`` file under ``root`` (a package directory).

    ``root`` is the directory of the package itself (e.g. ``src/repro``);
    layers are resolved from paths relative to it.
    """
    sources: Dict[str, str] = {}
    for path in _python_files(root):
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            sources[relpath] = handle.read()
    return lint_sources(sources)

