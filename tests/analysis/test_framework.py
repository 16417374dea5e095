"""Unit tests for the linter's shared machinery (not the rules)."""

import json

import pytest

from repro.analysis import (
    Diagnostic,
    lint_sources,
    render_json,
    render_text,
    select_rules,
)
from repro.analysis.config import layer_of
from repro.analysis.rules import RULE_IDS, ImportTable
from repro.analysis.suppressions import parse_suppressions


class TestSuppressions:
    def test_single_rule(self):
        index = parse_suppressions("x = 1  # repro-lint: disable=CLK001\n")
        assert index.is_suppressed(1, "CLK001")
        assert not index.is_suppressed(1, "RNG001")
        assert not index.is_suppressed(2, "CLK001")

    def test_multiple_rules_and_all(self):
        source = (
            "a = 1  # repro-lint: disable=CLK001,RNG001\n"
            "b = 2  # repro-lint: disable=all\n"
        )
        index = parse_suppressions(source)
        assert index.is_suppressed(1, "RNG001")
        assert index.is_suppressed(2, "DTY002")

    def test_string_literal_is_not_a_directive(self):
        # The marker inside a string must not suppress anything.
        source = 'text = "# repro-lint: disable=CLK001"\n'
        assert len(parse_suppressions(source)) == 0

    def test_suppression_only_applies_to_its_own_line(self):
        source = (
            "import time\n"
            "# repro-lint: disable=CLK001\n"
            "t = time.time()\n"
        )
        diagnostics = lint_sources({"core/x.py": source})
        assert [d.rule for d in diagnostics] == ["CLK001"]


class TestImportTable:
    def _table(self, source, package="repro.core"):
        import ast

        return ImportTable(ast.parse(source), package)

    def test_plain_and_aliased(self):
        table = self._table("import time\nimport numpy as np\n")
        assert table.resolve("time") == "time"
        assert table.resolve("np") == "numpy"

    def test_from_imports(self):
        table = self._table("from time import perf_counter as pc\n")
        assert table.resolve("pc") == "time.perf_counter"

    def test_relative_imports(self):
        table = self._table("from ..simio import cache\n")
        assert table.resolve("cache") == "repro.simio.cache"

    def test_unknown_name(self):
        assert self._table("import os\n").resolve("sys") is None


class TestConfig:
    def test_layer_of(self):
        assert layer_of("core/search.py") == "core"
        assert layer_of("system.py") == "system"
        assert layer_of("analysis/rules/base.py") == "analysis"

    def test_select_rules(self):
        assert [r.id for r in select_rules(["CLK001", "LAY001"])] == [
            "CLK001",
            "LAY001",
        ]
        assert sorted(r.id for r in select_rules()) == sorted(RULE_IDS)
        with pytest.raises(ValueError, match="unknown rule"):
            select_rules(["NOPE01"])


class TestReporting:
    DIAGNOSTICS = [
        Diagnostic("b.py", 3, 0, "RNG001", "legacy rng"),
        Diagnostic("a.py", 9, 4, "CLK001", "wall clock"),
    ]

    def test_text_sorted_by_location(self):
        text = render_text(self.DIAGNOSTICS)
        assert text.splitlines() == [
            "a.py:9:4: CLK001 wall clock",
            "b.py:3:0: RNG001 legacy rng",
        ]

    def test_json_shape(self):
        payload = json.loads(
            render_json(self.DIAGNOSTICS, checked_files=5, rules=["CLK001", "RNG001"])
        )
        assert payload["schema_version"] == 1
        assert payload["checked_files"] == 5
        assert payload["violations"] == 2
        assert payload["violations_by_rule"] == {"CLK001": 1, "RNG001": 1}
        assert payload["diagnostics"][0]["path"] == "a.py"


class TestParseFailures:
    def test_syntax_error_is_a_diagnostic(self):
        result = lint_sources({"core/x.py": "def broken(:\n"})
        assert [d.rule for d in result] == ["PARSE"]
        assert "syntax error" in result.diagnostics[0].message
