"""The linter lives in ``tools/lint``; one whole-tree lint per tree per session.

The tool is not part of the installed package, so ``tools/`` goes on
``sys.path`` here and the tier-1 command stays ``PYTHONPATH=src python -m
pytest``.

Each lint of the shipped package parses some eighty files, and some twenty
tests assert something about the result.  The tree does not change while
the suite runs, so each tree is linted once and every consumer — direct
``lint_tree`` callers and the tool's ``main`` — reads the memoised
:class:`LintResult`.
"""

import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
sys.path.insert(0, os.path.abspath(TOOLS))

from lint import cli as lint_cli  # noqa: E402
from lint.runner import lint_tree  # noqa: E402


@pytest.fixture(scope="session")
def lint_once():
    """``lint_tree`` memoised on the tree's real path.  Only for trees
    that stay untouched for the rest of the session."""
    results = {}

    def lint(root):
        key = os.path.realpath(root)
        if key not in results:
            results[key] = lint_tree(root)
        return results[key]

    return lint


@pytest.fixture()
def cli_lints_once(lint_once, monkeypatch):
    """Route the tree run of ``python -m lint`` through the memo; argument
    handling, rendering and exit codes still run for real."""
    monkeypatch.setattr(lint_cli, "lint_tree", lint_once)


@pytest.fixture(scope="session")
def shipped_lint(lint_once):
    """The lint result of the shipped ``src/repro`` tree, all rules."""
    return lint_once(lint_cli.PACKAGE_ROOT)
