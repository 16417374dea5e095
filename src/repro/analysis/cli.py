"""Argument handling for ``repro lint`` / ``python -m repro.analysis``.

Kept here (not in :mod:`repro.cli`) so the checker remains runnable as a
standalone module on a tree whose other layers do not import, and so the
two entry points share one definition of the flags.

Exit codes: 0 if and only if there is no finding, 1 violations found,
2 usage/environment error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .diagnostics import render_json, render_text, summarize
from .rules import RULE_CLASSES, RULE_IDS, select_rules
from .runner import lint_tree, package_root

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``lint`` flags on ``parser``."""
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="package directory to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        dest="lint_format",
        default="text",
        choices=("text", "json"),
        help="report format (json is the CI artifact form)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help=f"comma-separated rule ids to run (default: all of {','.join(RULE_IDS)})",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule ids and summaries, then exit",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print the full rationale for one rule id, then exit",
    )


def _explain(rule_id: str) -> int:
    for cls in RULE_CLASSES:
        if cls.id == rule_id:
            print(f"{cls.id} — {cls.summary}")
            if cls.rationale:
                print()
                print(cls.rationale)
            return 0
    print(
        f"repro lint: error: unknown rule {rule_id!r} "
        f"(known: {','.join(RULE_IDS)})",
        file=sys.stderr,
    )
    return 2


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    if args.list_rules:
        for cls in RULE_CLASSES:
            print(f"{cls.id}  {cls.summary}")
        return 0
    if args.explain:
        return _explain(args.explain)

    try:
        rule_ids: Optional[List[str]] = (
            [part.strip() for part in args.rules.split(",") if part.strip()]
            if args.rules
            else None
        )
        rules = select_rules(rule_ids)
    except ValueError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2

    root = args.path or package_root()
    if not os.path.isdir(root):
        print(f"repro lint: error: not a directory: {root}", file=sys.stderr)
        return 2

    result = lint_tree(root, rules=rules)

    diagnostics = result.diagnostics
    if args.lint_format == "json":
        report = render_json(
            diagnostics,
            checked_files=result.checked_files,
            rules=result.rules,
        )
    else:
        report = render_text(diagnostics)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    elif report:
        print(report)
    if args.lint_format == "text":
        print(summarize(diagnostics, result.checked_files), file=sys.stderr)
    return 0 if not diagnostics else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="invariant checker for the repro package",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
