"""Shared machinery for lint rules.

Every rule is a small class with a stable ``id``, a one-line ``summary``
and a ``check`` method that yields :class:`Diagnostic` objects for one
parsed module.  Rules never see raw files — the runner hands them a
:class:`FileContext` carrying the parsed AST, the package-relative path,
the resolved layer and an :class:`ImportTable` for name resolution.  The
tree is walked, and every call target resolved, once per file
(:attr:`FileContext.nodes`, :attr:`FileContext.calls`).
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from typing import Dict, Iterator, List, Optional, Tuple

from ..diagnostics import Diagnostic
from ..imports import ImportTable, canonicalize, resolve_call_target

__all__ = [
    "FileContext",
    "ImportTable",
    "Rule",
    "resolve_call_target",
]


@dataclasses.dataclass(frozen=True)
class FileContext:
    """Everything rules need to know about one file under lint."""

    relpath: str  #: package-relative posix path, e.g. "core/search.py"
    layer: str  #: resolved layer name, e.g. "core"
    tree: ast.Module
    imports: ImportTable
    #: the tree's ``__init__`` re-export map (empty for a single-file
    #: lint); lets LAY001 see through re-exported symbols.
    reexports: Dict[str, str] = dataclasses.field(default_factory=dict)

    @functools.cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree: one walk, shared by all rules."""
        return list(ast.walk(self.tree))

    @functools.cached_property
    def calls(self) -> List[Tuple[ast.Call, Optional[str]]]:
        """Every call with its resolved dotted target (``None`` when the
        target is rooted in a local name)."""
        return [
            (node, resolve_call_target(node.func, self.imports))
            for node in self.nodes
            if isinstance(node, ast.Call)
        ]

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
