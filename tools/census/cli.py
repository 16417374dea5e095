"""``python -m census`` — run the census's commands and report.

Standard output is the sorted never-entered functions of ``src/repro``,
one ``path:line: dotted.name`` line each, the same bytes on every run;
the problems :func:`~census.functions.audit` finds go to standard error.
Exit codes: 0 if and only if there is no problem, 1 problems found, 2 a
command ended with another status than it declares.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from .allowed import ALLOWED, CATEGORIES
from .commands import COMMANDS
from .functions import audit, never_entered
from .runner import CommandFailed, entered

__all__ = ["main"]

#: The checkout this tool lies in; its ``src/repro`` is the census's subject.
ROOT = pathlib.Path(__file__).resolve().parents[2]


def main(argv: Optional[List[str]] = None) -> int:
    """Run :data:`~census.commands.COMMANDS` over :data:`ROOT` and audit
    the result against :data:`~census.allowed.ALLOWED`."""
    argparse.ArgumentParser(
        prog="python -m census",
        description="dynamic census: every function of repro is entered by "
        "a shipped command, or an allowlist entry says why not",
    ).parse_args(argv)
    try:
        found = entered(ROOT, COMMANDS)
    except CommandFailed as error:
        print(f"census: {error}", file=sys.stderr)
        return 2
    missed, entered_names = never_entered(ROOT, found)
    for function in missed:
        print(f"{function.where}: {function.dotted}")
    problems = audit(missed, entered_names, ALLOWED, CATEGORIES)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"census: {len(missed)} never-entered functions, {len(ALLOWED)} "
        f"allowed, {len(problems)} problems",
        file=sys.stderr,
    )
    return 1 if problems else 0
