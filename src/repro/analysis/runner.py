"""The lint runner: parse a tree, build the program model, run rules.

Two entry points: :func:`lint_sources` lints in-memory modules as one
program (test fixtures), and :func:`lint_tree` reads a whole package
directory and hands it to :func:`lint_sources` (what the CLI runs).

A run has four phases, each timed for ``--profile``:

1. **parse** — read every file, parse to AST;
2. **symbols** — build the project :class:`SymbolTable` (defs, classes,
   contracts, the ``__init__`` re-export map);
3. **callgraph** — attribute typing + resolved call edges;
4. **rules** — per-file rules on each module, then whole-program rules
   on the project context, all filtered through inline suppressions.

The runner is deliberately independent of the rest of ``repro`` — it
imports nothing from the simulated layers, so it can lint a broken tree.
"""

from __future__ import annotations

import ast
import os
import time
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .config import LintConfig, default_config
from .diagnostics import Diagnostic
from .imports import ImportTable
from .project import ProjectContext
from .rules import FileContext, ProjectRule, Rule, all_rules
from .suppressions import parse_suppressions

__all__ = [
    "LintResult",
    "lint_sources",
    "lint_tree",
    "package_root",
]

class LintResult:
    """Diagnostics plus the bookkeeping the reports need."""

    def __init__(
        self,
        diagnostics: List[Diagnostic],
        checked_files: int,
        rules: Sequence[str],
        *,
        phase_timings: Optional[Mapping[str, float]] = None,
        rule_timings: Optional[Mapping[str, float]] = None,
    ):
        self.diagnostics = sorted(diagnostics)
        self.checked_files = checked_files
        self.rules = list(rules)
        #: wall-clock seconds per phase (parse/symbols/callgraph/rules);
        #: informational only — never part of the deterministic reports.
        self.phase_timings: Dict[str, float] = dict(phase_timings or {})
        self.rule_timings: Dict[str, float] = dict(rule_timings or {})

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)


def _module_package(package: str, relpath: str) -> str:
    """Dotted package containing the module at ``relpath``.

    ``core/search.py`` -> ``repro.core``; ``system.py`` -> ``repro``;
    ``core/__init__.py`` -> ``repro.core`` (a package's ``__init__``
    resolves relative imports against the package itself).
    """
    directories = relpath.split("/")[:-1]
    return ".".join([package] + directories)


def _parse_one(
    source: str, relpath: str
) -> Tuple[Optional[ast.Module], Optional[Diagnostic]]:
    try:
        return ast.parse(source, filename=relpath), None
    except SyntaxError as exc:
        return None, Diagnostic(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule="PARSE",
            message=f"syntax error: {exc.msg}",
        )


def _run_rules(
    files: Sequence[Tuple[str, str, ast.Module]],
    parse_failures: Sequence[Diagnostic],
    config: LintConfig,
    rules: Sequence[Rule],
    project: ProjectContext,
) -> Tuple[List[Diagnostic], Dict[str, float]]:
    """Phase 4: file rules per module, project rules once."""
    diagnostics: List[Diagnostic] = list(parse_failures)
    rule_timings: Dict[str, float] = {}
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    contexts = []
    for relpath, source, tree in files:
        info = project.symbols.by_relpath.get(relpath)
        contexts.append(
            (
                FileContext(
                    relpath=relpath,
                    layer=config.layer_of(relpath),
                    module_package=_module_package(config.package, relpath),
                    tree=tree,
                    imports=(
                        info.imports
                        if info is not None
                        else ImportTable(tree, _module_package(config.package, relpath))
                    ),
                    config=config,
                    reexports=project.reexports,
                ),
                info.suppressions if info is not None else parse_suppressions(source),
            )
        )
    for rule in file_rules:
        started = time.perf_counter()
        for ctx, suppressions in contexts:
            for diagnostic in rule.check(ctx):
                if not suppressions.is_suppressed(diagnostic.line, diagnostic.rule):
                    diagnostics.append(diagnostic)
        rule_timings[rule.id] = rule_timings.get(rule.id, 0.0) + (
            time.perf_counter() - started
        )
    for rule in project_rules:
        started = time.perf_counter()
        for diagnostic in rule.check_project(project):
            if not project.is_suppressed(diagnostic):
                diagnostics.append(diagnostic)
        rule_timings[rule.id] = rule_timings.get(rule.id, 0.0) + (
            time.perf_counter() - started
        )
    return diagnostics, rule_timings


def lint_sources(
    sources: Mapping[str, str],
    *,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint in-memory modules as one program: parse → symbols+callgraph →
    rules, with timings.

    ``sources`` maps package-relative paths (which fix each module's
    layer) to source text; the inter-procedural rules see imports/calls
    between them.  A syntax error is itself reported as a diagnostic (rule
    ``PARSE``) rather than raised — a tree that does not parse must fail
    the lint gate, not crash it.
    """
    config = config or default_config()
    rules = list(rules) if rules is not None else all_rules()
    timings: Dict[str, float] = {}

    started = time.perf_counter()
    parsed: List[Tuple[str, str, ast.Module]] = []
    parse_failures: List[Diagnostic] = []
    for relpath in sorted(sources):
        tree, parse_error = _parse_one(sources[relpath], relpath)
        if tree is not None:
            parsed.append((relpath, sources[relpath], tree))
        if parse_error is not None:
            parse_failures.append(parse_error)
    timings["parse"] = time.perf_counter() - started

    started = time.perf_counter()
    from .symbols import SymbolTable

    symbols = SymbolTable.build(config.package, parsed)
    timings["symbols"] = time.perf_counter() - started

    started = time.perf_counter()
    project = ProjectContext(config, symbols)
    timings["callgraph"] = time.perf_counter() - started

    started = time.perf_counter()
    diagnostics, rule_timings = _run_rules(parsed, parse_failures, config, rules, project)
    timings["rules"] = time.perf_counter() - started

    return LintResult(
        diagnostics,
        len(sources),
        [rule.id for rule in rules],
        phase_timings=timings,
        rule_timings=rule_timings,
    )


def _python_files(root: str) -> Iterable[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def lint_tree(
    root: str,
    *,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``root`` (a package directory).

    ``root`` is the directory of the package itself (e.g. ``src/repro``);
    layers are resolved from paths relative to it.
    """
    sources: Dict[str, str] = {}
    for path in _python_files(root):
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as handle:
            sources[relpath] = handle.read()
    return lint_sources(sources, config=config, rules=rules)


def package_root() -> str:
    """Directory of the installed ``repro`` package (the default lint
    target, so ``repro lint`` works from any CWD)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))
