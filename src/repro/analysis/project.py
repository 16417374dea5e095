"""Per-run whole-program state: symbol table, call graph, cached taints.

Built once by the runner per ``lint_sources`` call (``lint_tree`` makes
one), then handed to every :class:`~repro.analysis.rules.base
.ProjectRule`.  The two taint analyses are computed lazily and cached —
SIM101 and SIM102 share one unit-inference fixed point, RNG101 and
RNG102 share one provenance pass — so rule granularity stays fine
without re-running the expensive part per rule.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from .callgraph import CallGraph, attribute_types
from .config import LintConfig
from .diagnostics import Diagnostic
from .symbols import SymbolTable

__all__ = ["ProjectContext"]


class ProjectContext:
    """Symbol table + call graph + lazily cached analysis results."""

    def __init__(self, config: LintConfig, symbols: SymbolTable):
        self.config = config
        self.symbols = symbols
        self.attr_types = attribute_types(symbols)
        self.callgraph = CallGraph.build(symbols, self.attr_types)
        self._time_diagnostics: Optional[List[Diagnostic]] = None
        self._seed_diagnostics: Optional[List[Diagnostic]] = None

    @classmethod
    def build(
        cls,
        config: LintConfig,
        files: Sequence[Tuple[str, str, ast.Module]],
    ) -> "ProjectContext":
        """From ``(relpath, source, tree)`` triples (parsed upstream)."""
        return cls(config, SymbolTable.build(config.package, files))

    # -- cached analyses -----------------------------------------------------

    def time_diagnostics(self) -> List[Diagnostic]:
        """SIM1xx findings (one shared unit-inference run)."""
        if self._time_diagnostics is None:
            from .taint import TimeUnitAnalysis

            analysis = TimeUnitAnalysis(self.symbols, self.attr_types, self.config)
            self._time_diagnostics = analysis.run()
        return self._time_diagnostics

    def seed_diagnostics(self) -> List[Diagnostic]:
        """RNG1xx findings (one shared provenance run)."""
        if self._seed_diagnostics is None:
            from .taint import SeedProvenanceAnalysis

            analysis = SeedProvenanceAnalysis(self.symbols, self.attr_types, self.config)
            self._seed_diagnostics = analysis.run()
        return self._seed_diagnostics

    # -- suppression routing -------------------------------------------------

    def is_suppressed(self, diagnostic: Diagnostic) -> bool:
        info = self.symbols.by_relpath.get(diagnostic.path)
        if info is None:
            return False
        return info.suppressions.is_suppressed(diagnostic.line, diagnostic.rule)

    @property
    def reexports(self) -> Dict[str, str]:
        return self.symbols.reexports
