"""Fixture-based tests: one fixture module per rule.

Each fixture under ``fixtures/`` contains positive cases (lines marked
``# expect RULEID``), negative cases and an inline-suppression case.  The
test lints the fixture text under a chosen package-relative path (which
fixes its layer) and asserts the reported ``(line, rule)`` pairs match
the markers exactly — so a rule that over-fires breaks the test just as
loudly as one that misses.
"""

import os
import re

import pytest

from repro.analysis import lint_sources

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

#: fixture file -> package-relative path it is linted as.  Layers vary on
#: purpose: determinism/dtype rules apply package-wide, CLK001/LAY001 are
#: layer-scoped.
FIXTURES = {
    "clk001.py": "core/clk001.py",
    "rng001.py": "extensions/rng001.py",
    "rng002.py": "experiments/rng002.py",
    "rng003.py": "chunking/rng003.py",
    "rng101.py": "workloads/rng101.py",
    "rng102.py": "faults/rng102.py",
    "dty001.py": "core/dty001.py",
    "dty002.py": "simio/dty002.py",
    "lay001.py": "core/lay001.py",
    "dur001.py": "storage/dur001.py",
    "dur001_pack.py": "core/dur001_pack.py",
}

_EXPECT = re.compile(r"#\s*expect\s+([A-Z]{3}\d{3})")


def load_fixture(name):
    with open(os.path.join(FIXTURE_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


def expected_markers(source):
    """``{(line, rule)}`` pairs declared by ``# expect RULE`` comments."""
    marks = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT.search(line)
        if match:
            marks.add((lineno, match.group(1)))
    return marks


@pytest.mark.parametrize("fixture,relpath", sorted(FIXTURES.items()))
def test_fixture_matches_markers(fixture, relpath):
    source = load_fixture(fixture)
    expected = expected_markers(source)
    assert expected, f"fixture {fixture} declares no expected violations"
    found = {(d.line, d.rule) for d in lint_sources({relpath: source})}
    assert found == expected


def test_clk001_is_layer_scoped():
    """The same wall-clock fixture is clean outside the simulated layers."""
    source = load_fixture("clk001.py")
    diagnostics = lint_sources({"experiments/clk001.py": source})
    assert not [d for d in diagnostics if d.rule == "CLK001"]


def test_lay001_simio_must_not_import_core():
    source = "from repro.core.search import ChunkSearcher\n"
    diagnostics = lint_sources({"simio/pipeline.py": source})
    assert [d.rule for d in diagnostics] == ["LAY001"]
    # The same import is fine from core itself.
    assert lint_sources({"core/search.py": source}).ok


def test_lay001_relative_imports_resolved():
    # In core/, "from .. import system" reaches repro.system: forbidden.
    diagnostics = lint_sources({"core/search.py": "from .. import system\n"})
    assert [d.rule for d in diagnostics] == ["LAY001"]
    # "from . import chunk" stays inside core: allowed.
    assert lint_sources({"core/search.py": "from . import chunk\n"}).ok


def test_diagnostics_carry_location_and_message():
    source = "import time\nt = time.time()\n"
    (diagnostic,) = lint_sources({"storage/pages.py": source})
    assert diagnostic.rule == "CLK001"
    assert diagnostic.path == "storage/pages.py"
    assert diagnostic.line == 2
    assert "cost model" in diagnostic.message
    assert diagnostic.format().startswith("storage/pages.py:2:")


def test_dur001_sanctioned_files_exempt():
    """The two crash-safe write sites may write/rename directly; the chunk
    file publishes through ``atomic_output`` like every other format."""
    source = (
        "import os\n\n\ndef publish(path, tmp):\n"
        "    with open(tmp, 'wb') as handle:\n"
        "        handle.write(b'x')\n"
        "    os.replace(tmp, path)\n"
    )
    for sanctioned in ("storage/atomic.py", "storage/wal.py"):
        assert [d.rule for d in lint_sources({sanctioned: source})] == []
    for other in ("storage/chunk_file.py", "storage/delta.py"):
        assert "DUR001" in [d.rule for d in lint_sources({other: source})]


def test_dur001_outside_storage_gated_on_durable_keywords():
    """Elsewhere only writes whose path expressions name a durable artifact."""
    flagged = "def save(index_path):\n    return open(index_path, 'w')\n"
    diagnostics = lint_sources({"experiments/exporter.py": flagged})
    assert [d.rule for d in diagnostics] == ["DUR001"]

    report = "def save(out):\n    return open(out, 'w')\n"
    assert lint_sources({"experiments/exporter.py": report}).ok

    rename = (
        "import os\n\n\ndef swap(tmp, manifest_path):\n"
        "    os.replace(tmp, manifest_path)\n"
    )
    assert "DUR001" in [
        d.rule for d in lint_sources({"experiments/exporter.py": rename})
    ]


def test_dur001_shipped_tree_is_clean(shipped_lint):
    """The real package must publish durable artifacts only through the
    sanctioned write sites."""
    assert not [d for d in shipped_lint.diagnostics if d.rule == "DUR001"]
