"""One whole-tree lint per tree per session.

Each lint of the shipped package parses a hundred files, and some twenty
tests assert something about the result.  The tree does not change while
the suite runs, so each ``(tree, rule selection)`` is linted once and every
consumer — direct ``lint_tree`` callers and both CLI entry points — reads
the memoised :class:`LintResult`.
"""

import os

import pytest

from repro.analysis import all_rules, lint_tree
from repro.analysis.runner import package_root


@pytest.fixture(scope="session")
def lint_once():
    """``lint_tree`` memoised on ``(real path, rule ids)``.  Only for
    trees that stay untouched for the rest of the session."""
    results = {}

    def lint(root, *, rules=None):
        rules = list(rules) if rules is not None else all_rules()
        key = (os.path.realpath(root), tuple(rule.id for rule in rules))
        if key not in results:
            results[key] = lint_tree(root, rules=rules)
        return results[key]

    return lint


@pytest.fixture()
def cli_lints_once(lint_once, monkeypatch):
    """Route the tree run of ``repro lint`` / ``python -m repro.analysis``
    through the memo; argument handling, rendering and exit codes still
    run for real."""
    monkeypatch.setattr("repro.analysis.cli.lint_tree", lint_once)


@pytest.fixture(scope="session")
def shipped_lint(lint_once):
    """The lint result of the shipped ``src/repro`` tree, all rules."""
    return lint_once(package_root())
