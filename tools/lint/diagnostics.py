"""Diagnostic records and reporting for the invariant linter.

A :class:`Diagnostic` pins one rule violation to a ``file:line:col``
location.  Reporting is deliberately minimal: a stable one-line text form
(the same ``path:line:col: RULE message`` shape compilers use, so editors
can jump to it) and a JSON form for CI artifacts.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Sequence

__all__ = ["Diagnostic", "render_text", "render_json"]

#: Schema version of the JSON report (bump on incompatible change).
JSON_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True, order=True)
class Diagnostic:
    """One rule violation at a source location.

    Ordering is ``(path, line, col, rule)`` so reports are deterministic
    regardless of rule execution order.
    """

    path: str  #: repo-relative posix path of the offending file
    line: int  #: 1-based source line
    col: int  #: 0-based column (as reported by :mod:`ast`)
    rule: str  #: rule id, e.g. ``"CLK001"``
    message: str  #: human-readable explanation

    def format(self) -> str:
        """Compiler-style one-liner: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """All diagnostics, sorted, one per line (empty string when clean)."""
    return "\n".join(d.format() for d in sorted(diagnostics))


def render_json(
    diagnostics: Sequence[Diagnostic],
    *,
    checked_files: int,
    rules: Sequence[str],
) -> str:
    """JSON report for CI: schema version, summary counts, diagnostics."""
    by_rule: Dict[str, int] = {}
    for diagnostic in diagnostics:
        by_rule[diagnostic.rule] = by_rule.get(diagnostic.rule, 0) + 1
    payload: Dict[str, object] = {
        "schema_version": JSON_SCHEMA_VERSION,
        "checked_files": checked_files,
        "rules": sorted(rules),
        "violations": len(diagnostics),
        "violations_by_rule": dict(sorted(by_rule.items())),
        "diagnostics": [d.to_dict() for d in sorted(diagnostics)],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def summarize(diagnostics: Sequence[Diagnostic], checked_files: int) -> str:
    """One-line human summary printed after the text report."""
    if not diagnostics:
        return f"repro lint: {checked_files} files checked, no violations"
    rules: List[str] = sorted({d.rule for d in diagnostics})
    return (
        f"repro lint: {checked_files} files checked, "
        f"{len(diagnostics)} violation(s) [{', '.join(rules)}]"
    )
