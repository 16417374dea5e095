"""Baseline ratchet, SARIF output, profiling, and the
determinism/performance acceptance checks on the shipped tree."""

import json
import os
import time

import pytest

from repro.analysis import (
    apply_baseline,
    lint_tree,
    load_baseline,
    render_json,
    render_sarif,
    write_baseline,
)
from repro.analysis.baseline import fingerprint
from repro.analysis.cli import main as analysis_main
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import all_rules
from repro.analysis.runner import package_root


def make_tree(tmp_path, files):
    root = tmp_path / "pkg"
    for relpath, text in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return str(root)


#: A one-violation package: a wall-clock read in a simulated layer.
DIRTY = {
    "__init__.py": "",
    "core/__init__.py": "",
    "core/bad.py": "import time\n_T0 = time.time()\n",
}


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        d = Diagnostic(path="core/bad.py", line=2, col=6, rule="CLK001", message="m")
        path = str(tmp_path / "base.json")
        assert write_baseline(path, [d]) == 1
        loaded = load_baseline(path)
        assert loaded == {fingerprint(d): 1}

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == {}

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_apply_is_line_insensitive_but_count_sensitive(self):
        old = Diagnostic(path="a.py", line=10, col=0, rule="CLK001", message="m")
        moved = Diagnostic(path="a.py", line=99, col=0, rule="CLK001", message="m")
        extra = Diagnostic(path="a.py", line=100, col=0, rule="CLK001", message="m")
        baseline = {fingerprint(old): 1}
        fresh, suppressed = apply_baseline([moved], baseline)
        assert fresh == [] and suppressed == 1
        # A second instance of the same finding exceeds the count: fails.
        fresh, suppressed = apply_baseline([moved, extra], baseline)
        assert len(fresh) == 1 and suppressed == 1

    def test_cli_ratchet_flow(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        baseline = str(tmp_path / "b.json")
        # Dirty tree fails without a baseline...
        assert analysis_main([root, "--baseline", baseline]) == 1
        capsys.readouterr()
        # ...writing the baseline accepts the current findings...
        assert analysis_main([root, "--baseline", baseline, "--write-baseline"]) == 0
        assert analysis_main([root, "--baseline", baseline]) == 0
        assert "baselined" in capsys.readouterr().err
        # ...but a *new* finding still fails,
        with open(os.path.join(root, "core", "bad.py"), "a", encoding="utf-8") as fh:
            fh.write("_T1 = time.perf_counter()\n")
        assert analysis_main([root, "--baseline", baseline]) == 1
        # and --no-baseline reports everything.
        capsys.readouterr()
        assert analysis_main([root, "--baseline", baseline, "--no-baseline"]) == 1
        assert "time.time" in capsys.readouterr().out

    def test_shipped_tree_needs_no_baseline(self, shipped_lint):
        # The acceptance criterion: src/repro lints clean with no
        # baseline file at all.
        assert not os.path.exists(
            os.path.join(
                os.path.dirname(os.path.dirname(package_root())),
                ".repro-lint-baseline.json",
            )
        )
        assert shipped_lint.ok


class TestSarif:
    def test_shape_and_rule_metadata(self, tmp_path):
        root = make_tree(tmp_path, DIRTY)
        result = lint_tree(root)
        payload = json.loads(render_sarif(result.diagnostics, all_rules()))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "SIM101" in rule_ids and "EXA001" in rule_ids
        (res,) = run["results"]
        assert res["ruleId"] == "CLK001"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "core/bad.py"
        assert loc["region"]["startLine"] == 2

    def test_cli_writes_sarif(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        sarif_path = str(tmp_path / "out.sarif")
        assert analysis_main([root, "--no-baseline", "--sarif", sarif_path]) == 1
        payload = json.loads(open(sarif_path, encoding="utf-8").read())
        assert payload["runs"][0]["results"]


class TestProfiling:
    def test_phase_and_rule_timings_populated(self, tmp_path):
        root = make_tree(tmp_path, DIRTY)
        result = lint_tree(root)
        assert set(result.phase_timings) == {"parse", "symbols", "callgraph", "rules"}
        assert all(t >= 0.0 for t in result.phase_timings.values())
        assert "CLK001" in result.rule_timings

    def test_cli_profile_flag(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        analysis_main([root, "--no-baseline", "--profile"])
        err = capsys.readouterr().err
        assert "phase timings:" in err and "callgraph" in err


class TestExplain:
    def test_known_rule(self, capsys):
        assert analysis_main(["--explain", "SIM101"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SIM101")
        assert "simulated" in out.lower()

    def test_unknown_rule(self, capsys):
        assert analysis_main(["--explain", "ZZZ999"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestShippedTreeAcceptance:
    """The PR's acceptance criteria on the real src/repro tree."""

    def test_clean_fast_and_deterministic(self, shipped_lint):
        first = shipped_lint
        assert first.ok, "\n".join(d.format() for d in first)
        # A second, fresh run of the same tree: timed, and compared.
        started = time.perf_counter()
        second = lint_tree(package_root())
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"full-tree analysis took {elapsed:.1f}s"
        render = lambda r: (
            render_json(r.diagnostics, checked_files=r.checked_files, rules=r.rules),
            render_sarif(r.diagnostics, all_rules()),
        )
        assert render(first) == render(second)
