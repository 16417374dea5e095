"""Shared machinery for lint rules.

Every rule is a small class with a stable ``id``, a one-line ``summary``
and a ``check`` method that yields :class:`Diagnostic` objects for one
parsed module.  Rules never see raw files — the runner hands them a
:class:`FileContext` carrying the parsed AST, the package-relative path,
the resolved layer and an :class:`ImportTable` for name resolution.

Whole-program rules subclass :class:`ProjectRule` instead and receive
the project context (symbol table + call graph) from the runner; their
``check`` is never called.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import TYPE_CHECKING, Dict, Iterator

from ..config import LintConfig
from ..diagnostics import Diagnostic
from ..imports import ImportTable, canonicalize, resolve_call_target

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project import ProjectContext

__all__ = [
    "FileContext",
    "ImportTable",
    "ProjectRule",
    "Rule",
    "canonicalize",
    "resolve_call_target",
]


@dataclasses.dataclass(frozen=True)
class FileContext:
    """Everything rules need to know about one file under lint."""

    relpath: str  #: package-relative posix path, e.g. "core/search.py"
    layer: str  #: resolved layer name, e.g. "core"
    module_package: str  #: dotted package of the module, e.g. "repro.core"
    tree: ast.Module
    imports: ImportTable
    config: LintConfig
    #: project-wide ``__init__`` re-export map (empty for standalone
    #: single-file lints); lets LAY001 see through re-exported symbols.
    reexports: Dict[str, str] = dataclasses.field(default_factory=dict)

    def canonical(self, dotted: str) -> str:
        return canonicalize(dotted, self.reexports)

    def diagnostic(
        self, node: ast.AST, rule: str, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


class Rule:
    """Base class: subclasses set ``id``/``summary`` and implement ``check``.

    ``rationale`` is the long-form explanation printed by ``repro lint
    --explain RULE`` — why the invariant exists, not just what it bans.
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.id}: {self.summary}>"


class ProjectRule(Rule):
    """A rule that needs the whole program, not one file.

    The runner builds one :class:`~repro.analysis.project.ProjectContext`
    per lint run (symbol table, call graph, cached taint results) and
    calls ``check_project`` once; diagnostics are then routed through the
    same inline-suppression handling as per-file findings.
    """

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:  # pragma: no cover
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Diagnostic]:
        raise NotImplementedError
