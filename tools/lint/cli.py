"""``python -m lint`` — lint ``src/repro`` and report.

Exit codes: 0 if and only if there is no finding, 1 violations found,
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .diagnostics import render_json, render_text, summarize
from .runner import lint_tree

__all__ = ["main"]

#: The package directory linted: ``src/repro`` of the checkout this tool
#: lies in, so the tool works from any CWD without importing ``repro``.
PACKAGE_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
    "repro",
)


def main(argv: Optional[List[str]] = None) -> int:
    """Lint :data:`PACKAGE_ROOT` and print the report to stdout."""
    parser = argparse.ArgumentParser(
        prog="python -m lint",
        description="invariant checker for the repro package",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="report format (json is the CI artifact form)",
    )
    args = parser.parse_args(argv)
    result = lint_tree(PACKAGE_ROOT)
    found, checked = result.diagnostics, result.checked_files
    if args.format == "json":
        print(render_json(found, checked_files=checked, rules=result.rules))
    else:
        if found:
            print(render_text(found))
        print(summarize(found, checked), file=sys.stderr)
    return 0 if result.ok else 1
