"""Exit status and the determinism/performance acceptance checks on the
shipped tree."""

import os
import time

from lint import cli as lint_cli
from lint.diagnostics import render_json
from lint.runner import lint_tree


def make_tree(tmp_path, files):
    root = tmp_path / "pkg"
    for relpath, text in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return str(root)


#: An accepted-findings file in the ``path::rule::message`` fingerprint
#: format of the ratchet the linter once had: lying in the cwd, it turned
#: the finding of the test below into exit 0.
STRAY_BASELINE = """{
  "schema_version": 1, "findings": 1, "fingerprints": {
    "simio/disk_model.py::RNG002::module-level call random.random() uses the shared global RNG; use an explicitly seeded random.Random(seed) instance": 1
  }
}
"""


def test_stray_baseline_file_cannot_silence_a_finding(tmp_path, monkeypatch, capsys):
    """Exit 0 means no finding, whatever files lie around the tree."""
    victim = os.path.join("simio", "disk_model.py")
    with open(os.path.join(lint_cli.PACKAGE_ROOT, victim), encoding="utf-8") as handle:
        dirty = handle.read() + "\nimport random as _rand_v\n_C = _rand_v.random()\n"
    root = make_tree(
        tmp_path, {"__init__.py": "", "simio/__init__.py": "", victim: dirty}
    )
    stray = tmp_path / ".repro-lint-baseline.json"
    stray.write_text(STRAY_BASELINE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(lint_cli, "PACKAGE_ROOT", root)
    assert lint_cli.main([]) == 1
    captured = capsys.readouterr()
    assert "simio/disk_model.py:" in captured.out and "RNG002" in captured.out
    assert "suppressed" not in captured.err


class TestShippedTreeAcceptance:
    """The PR's acceptance criteria on the real src/repro tree."""

    def test_clean_fast_and_deterministic(self, shipped_lint):
        first = shipped_lint
        assert first.ok, "\n".join(d.format() for d in first)
        # A second, fresh run of the same tree: timed, and compared.
        started = time.perf_counter()
        second = lint_tree(lint_cli.PACKAGE_ROOT)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"full-tree analysis took {elapsed:.1f}s"
        render = lambda r: render_json(
            r.diagnostics, checked_files=r.checked_files, rules=r.rules
        )
        assert render(first) == render(second)
