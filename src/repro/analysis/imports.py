"""Import-name resolution primitives shared by the rules and the runner.

The runner builds one :class:`ImportTable` per file and derives the
tree's ``__init__`` re-export map from the tables of the package
``__init__`` files; rules resolve call targets through the table and
chase re-exports with :func:`canonicalize`.  ``rules.base`` re-exports
the names rules use.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

__all__ = ["ImportTable", "canonicalize", "resolve_call_target"]


class ImportTable:
    """Maps local names to the dotted module/attribute paths they import.

    The table flattens scope: an import inside a function binds the name
    for the whole file.  That is deliberately conservative — the linter
    asks "could this name refer to ``time.perf_counter``?", and a
    function-local import makes the answer yes.

    Examples of recorded bindings::

        import time                      ->  {"time": "time"}
        import numpy as np               ->  {"np": "numpy"}
        from time import perf_counter    ->  {"perf_counter": "time.perf_counter"}
        from numpy import random as npr  ->  {"npr": "numpy.random"}
        from ..simio import queueing     ->  {"queueing": "repro.simio.queueing"}

    Names imported *through* a package ``__init__`` re-export resolve to
    the re-exporting package here (``repro.simio.LruChunkCache``); chase
    them to the defining module with :func:`canonicalize` and the
    tree's re-export map.
    """

    def __init__(self, module: ast.Module, module_package: str):
        #: dotted path of the package containing this module, used to
        #: resolve relative imports ("repro.core" for repro/core/search.py).
        self._module_package = module_package
        self.bindings: Dict[str, str] = {}
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # "import a.b.c" binds "a" (to package a) unless aliased.
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.bindings[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self.from_module(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[local] = f"{base}.{alias.name}" if base else alias.name

    def from_module(self, node: ast.ImportFrom) -> Optional[str]:
        """Dotted module a ``from`` import reads, or ``None`` when a
        relative import climbs above the top-level package."""
        if node.level == 0:
            return node.module or None
        # Relative import: walk ``level`` packages up from the module's
        # package, then append the explicit module path (if any).
        parts = self._module_package.split(".") if self._module_package else []
        up = node.level - 1
        if up > len(parts):
            return None
        parts = parts[: len(parts) - up]
        if node.module:
            parts.extend(node.module.split("."))
        return ".".join(parts) or None

    def resolve(self, name: str) -> Optional[str]:
        """Dotted import path bound to ``name``, or ``None``."""
        return self.bindings.get(name)


def canonicalize(dotted: str, reexports: Dict[str, str]) -> str:
    """Chase ``__init__.py`` re-export chains to the defining name.

    ``repro.LruChunkCache`` -> ``repro.simio.chunk_cache.LruChunkCache``
    when both ``repro/__init__.py`` and ``repro/simio/__init__.py``
    re-export it.  Longest-prefix chasing handles attribute chains that
    pass through a re-exported symbol.  With an empty map this is the
    identity, which is what a lint of one file alone gets.

    Each mapping is applied at most once per resolution.  That both
    bounds the loop and is the right semantics: re-applying a key whose
    value it prefixes (``pkg.bulk_load -> pkg.bulk_load.bulk_load``, a
    function named after its module) would otherwise grow the name
    forever.
    """
    current = dotted
    used = set()
    while True:
        parts = current.split(".")
        # Whole-name match first, then longest proper prefix.
        candidates = [current] + [
            ".".join(parts[:cut]) for cut in range(len(parts) - 1, 1, -1)
        ]
        for key in candidates:
            target = reexports.get(key)
            if target is not None and key not in used and target != key:
                used.add(key)
                current = target + current[len(key) :]
                break
        else:
            return current


def resolve_call_target(func: ast.expr, imports: ImportTable) -> Optional[str]:
    """Best-effort dotted path of a call target expression.

    ``np.random.rand`` with ``import numpy as np`` resolves to
    ``"numpy.random.rand"``; a bare ``perf_counter`` imported from
    :mod:`time` resolves to ``"time.perf_counter"``.  Returns ``None``
    for targets rooted in local variables (attribute chains whose base is
    not an imported name).
    """
    chain: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.resolve(node.id)
    if base is None:
        return None
    chain.append(base)
    return ".".join(reversed(chain))
