"""LAY001 — layer boundaries (the import DAG).

The algorithmic layers (``core``, ``simio``, ``storage``, ``chunking``,
``srtree``) must stay importable without dragging in the application
shell (``experiments``, ``extensions``, ``system``, ``cli``), and
``simio`` must not know about ``core`` so the cost models stay reusable.
Violations here are how "just one convenience import" turns the DAG into
a ball of mud that blocks future refactors.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..config import FORBIDDEN_IMPORTS, PACKAGE_NAME
from ..diagnostics import Diagnostic
from .base import FileContext, Rule

__all__ = ["LayerBoundaryRule"]


class LayerBoundaryRule(Rule):
    id = "LAY001"
    summary = "import crosses a forbidden layer boundary"
    rationale = (
        "The algorithmic layers (core, simio, storage, chunking, srtree)\n"
        "must stay importable without dragging in the application shell\n"
        "(experiments, extensions, system, cli), and simio must not know\n"
        "about core so the cost models stay reusable.  One convenience\n"
        "import turns the DAG into a ball of mud that blocks the scaling\n"
        "refactors the ROADMAP plans.  When a whole tree is linted the\n"
        "check resolves names re-exported through package __init__ files\n"
        "to their defining module, so a shell symbol re-exported at top\n"
        "level does not slip through."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        forbidden = FORBIDDEN_IMPORTS.get(ctx.layer)
        if not forbidden:
            return
        for node, target in _imported_modules(ctx):
            layer = _layer_of_module(target, PACKAGE_NAME)
            if layer is not None and layer in forbidden:
                yield ctx.diagnostic(
                    node,
                    self.id,
                    f"layer '{ctx.layer}' must not import '{layer}' "
                    f"(imports {target})",
                )


def _imported_modules(ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
    """Yield ``(node, dotted_module)`` for every import in the file.

    ``from X import a, b`` yields ``X.a`` and ``X.b`` so that
    ``from .. import system`` resolves to ``repro.system`` (the name may
    be a module, not an attribute — the pessimistic reading is correct
    for boundary checking).
    """
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, ctx.canonical(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = ctx.imports.from_module(node)
            if base is None:
                continue
            if not node.names or node.names[0].name == "*":
                yield node, ctx.canonical(base)
                continue
            for alias in node.names:
                # Canonicalize through the tree's re-export map: a name
                # imported "from .. import x" may be defined modules away
                # (re-exported by an __init__), and the boundary check
                # must see the *defining* layer.
                yield node, ctx.canonical(f"{base}.{alias.name}")


def _layer_of_module(dotted: str, package: str) -> Optional[str]:
    """Layer a dotted import path lands in, or ``None`` if outside the
    package (stdlib/third-party imports are never boundary violations)."""
    parts = dotted.split(".")
    if parts[0] != package or len(parts) < 2:
        return None
    return parts[1]
