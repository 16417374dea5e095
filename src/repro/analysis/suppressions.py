"""Inline suppression comments: ``# repro-lint: disable=RULE[,RULE...]``.

A suppression comment silences matching diagnostics **on its own line**
(the line carrying the first token of the offending expression, as
reported by :mod:`ast`).  ``disable=all`` silences every rule on that
line.  Suppressions are parsed from the token stream, not by regex over
raw lines, so string literals that merely *contain* the marker text do
not suppress anything.

Example::

    started = time.perf_counter()  # repro-lint: disable=CLK001
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet

__all__ = ["SuppressionIndex", "parse_suppressions"]

#: Matches the directive inside a comment token.
_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Sentinel rule name that silences every rule on the line.
ALL = "all"


class SuppressionIndex:
    """Per-line suppression lookup for one source file."""

    def __init__(self, by_line: Dict[int, FrozenSet[str]]):
        self._by_line = by_line

    def is_suppressed(self, line: int, rule: str) -> bool:
        rules = self._by_line.get(line)
        if rules is None:
            return False
        return ALL in rules or rule in rules

    def __len__(self) -> int:
        return len(self._by_line)


def parse_suppressions(source: str) -> SuppressionIndex:
    """Extract all suppression directives from ``source``.

    Tokenization errors are swallowed (the caller will already be
    reporting the syntax error from :func:`ast.parse`); whatever comments
    were seen before the error still apply.
    """
    by_line: Dict[int, FrozenSet[str]] = {}
    if "repro-lint" not in source:  # no directive: skip tokenizing
        return SuppressionIndex(by_line)
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(token.string)
            if not match:
                continue
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            line = token.start[0]
            previous = by_line.get(line, frozenset())
            by_line[line] = previous | rules
    except (tokenize.TokenError, IndentationError):
        pass
    return SuppressionIndex(by_line)
