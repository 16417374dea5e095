"""End-to-end tests: the shipped tree is clean, seeded violations are
caught, and both entry points report correctly."""

import json
import os
import shutil

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.runner import package_root
from repro.cli import main as repro_main

_CLOCK_SEEDED = (
    "import time as _time_r\n"
    "import numpy as _np_r\n"
    "def _clock_seeded():\n"
    "    return _np_r.random.default_rng(int(_time_r.time()))\n"
)

_URANDOM_SEEDED = (
    "import os as _os_u\n"
    "import numpy as _np_o\n"
    "def _urandom_seeded():\n"
    "    return _np_o.random.default_rng(int.from_bytes(_os_u.urandom(8), 'little'))\n"
)

#: Plants appended to a copy of a real core module: plant name -> (rule
#: that must catch it, snippet).  A plant is named after the invariant it
#: breaks: the unit-mix (SIM101) and sleep (SIM102) plants are caught by
#: the wall-clock call CLK001 flags in a simulated layer.
SEEDED_VIOLATIONS = {
    "CLK001": ("CLK001", "import time\n_T0 = time.time()\n"),
    "RNG001": ("RNG001", "import numpy as _np_v\n_R = _np_v.random.rand(3)\n"),
    "RNG002": ("RNG002", "import random as _rand_v\n_C = _rand_v.random()\n"),
    "RNG003": ("RNG003", "import numpy as _np_u\n_G = _np_u.random.default_rng()\n"),
    "DTY001": (
        "DTY001",
        "import numpy as _np_d\n"
        "from .distance import squared_distances as _sq\n"
        "def _bad(q, p):\n"
        "    return _sq(q.astype(_np_d.float32), p)\n",
    ),
    "DTY002": (
        "DTY002",
        "import numpy as _np_a\n"
        "def undocumented_array() -> _np_a.ndarray:\n"
        "    return _np_a.zeros(3)\n",
    ),
    "LAY001": ("LAY001", "from ..experiments import config as _cfg\n"),
    "SIM101": (
        "CLK001",
        "import time as _time_m\n"
        "from ..simio.disk_model import DiskModel as _DiskM\n"
        "def _mixed_units():\n"
        "    return _time_m.perf_counter() + _DiskM().sync_time_s()\n",
    ),
    "SIM102": (
        "CLK001",
        "import time as _time_s\n"
        "from ..simio.disk_model import DiskModel as _DiskS\n"
        "def _sleep_simulated():\n"
        "    _time_s.sleep(_DiskS().sync_time_s())\n",
    ),
    "RNG101": ("RNG101", _CLOCK_SEEDED),
    "RNG101-urandom": ("RNG101", _URANDOM_SEEDED),
    "RNG102": (
        "RNG102",
        "import numpy as _np_f\n"
        "def _fan_out(seed):\n"
        "    return _np_f.random.default_rng(seed), _np_f.random.default_rng(seed)\n",
    ),
}

#: Everything appended to the one seeded copy: ``relpath -> plant name ->
#: (rule, snippet)``.  ``core/search.py`` takes every plant above; the
#: chunk cache (simio) and the router (core) take the wall-clock and
#: layering violations their own tests look for.
_WALL_CLOCK = ("CLK001", "import time\n_T0 = time.time()\n")
SEEDS = {
    "core/search.py": SEEDED_VIOLATIONS,
    "simio/chunk_cache.py": {
        "CLK001": _WALL_CLOCK,
        "LAY001": ("LAY001", "from ..core import search as _s\n"),
    },
    "core/routing.py": {"CLK001": _WALL_CLOCK},
    # Outside the simulated layers CLK001 does not apply: a clock-seeded
    # generator there is RNG101's alone to catch.
    "workloads/queries.py": {"RNG101": ("RNG101", _CLOCK_SEEDED)},
}


def seeded_paths(rule):
    """Files of the seeded copy that carry a plant ``rule`` must catch."""
    return {
        relpath
        for relpath, plants in SEEDS.items()
        if any(expected == rule for expected, _ in plants.values())
    }


@pytest.fixture(scope="session")
def seeded_tree(tmp_path_factory):
    """A private copy of the real package tree with every snippet of
    :data:`SEEDS` appended (the shipped tree itself is never touched)."""
    target = str(tmp_path_factory.mktemp("seeded") / "repro")
    shutil.copytree(package_root(), target)
    for relpath, plants in SEEDS.items():
        with open(os.path.join(target, relpath), "a", encoding="utf-8") as handle:
            handle.write("\n\n" + "".join(snippet for _, snippet in plants.values()))
    return target


@pytest.fixture(scope="session")
def seeded_lint(lint_once, seeded_tree):
    return lint_once(seeded_tree)


class TestShippedTreeIsClean:
    def test_smoke_lint_tree(self, shipped_lint):
        assert shipped_lint.ok, "\n".join(d.format() for d in shipped_lint)
        assert shipped_lint.checked_files > 50

    def test_smoke_repro_lint_exit_zero(self, cli_lints_once, capsys):
        assert repro_main(["lint"]) == 0
        assert "no violations" in capsys.readouterr().err

    def test_smoke_module_entry_point(self, cli_lints_once, capsys):
        assert analysis_main([]) == 0


class TestSeededViolationsAreCaught:
    @pytest.mark.parametrize(
        "plant,rule,snippet",
        [
            (plant, rule, snippet)
            for plant, (rule, snippet) in sorted(SEEDED_VIOLATIONS.items())
        ],
    )
    def test_seeded_core_violation_caught(
        self, seeded_tree, seeded_lint, plant, rule, snippet
    ):
        victim = os.path.join(seeded_tree, "core", "search.py")
        with open(victim, "r", encoding="utf-8") as handle:
            text = handle.read()
        first = text[: text.index(snippet)].count("\n") + 1
        planted = range(first, first + snippet.count("\n"))
        caught = [
            d
            for d in seeded_lint
            if d.rule == rule and d.path == "core/search.py" and d.line in planted
        ]
        assert caught, f"plant {plant} was not caught by {rule} on its own lines"
        # Caught where it was seeded and nowhere else.
        assert {d.path for d in seeded_lint if d.rule == rule} == seeded_paths(rule)

    def test_seeding_all_violations_fails_cli_with_locations(
        self, seeded_tree, cli_lints_once, capsys
    ):
        assert repro_main(["lint", seeded_tree]) == 1
        out = capsys.readouterr().out
        # file:line diagnostics, one per seeded family.
        for rule, _ in SEEDED_VIOLATIONS.values():
            assert rule in out
        assert "core/search.py:" in out


class TestNewModulesAreCovered:
    """The pruned-scan additions live in simulated layers: the chunk cache
    (simio) and the router (core) must be inside the lint walk, subject to
    the wall-clock and layering contracts like the modules around them."""

    def test_new_modules_are_walked(self, shipped_lint):
        assert shipped_lint.ok
        walked = {
            os.path.join(root, name)
            for root, _, names in os.walk(package_root())
            for name in names
        }
        assert any(p.endswith("simio/chunk_cache.py") for p in walked)
        assert any(p.endswith("core/routing.py") for p in walked)

    def test_wall_clock_read_in_chunk_cache_caught(self, seeded_lint):
        flagged = {d.path for d in seeded_lint if d.rule == "CLK001"}
        assert "simio/chunk_cache.py" in flagged
        assert flagged == seeded_paths("CLK001")

    def test_upward_import_in_chunk_cache_caught(self, seeded_lint):
        assert any(
            d.rule == "LAY001" and d.path == "simio/chunk_cache.py"
            for d in seeded_lint
        )

    def test_wall_clock_read_in_router_caught(self, seeded_lint):
        assert any(
            d.rule == "CLK001" and d.path == "core/routing.py"
            for d in seeded_lint
        )


class TestCliOptions:
    def test_json_report(self, cli_lints_once, tmp_path, capsys):
        report_path = str(tmp_path / "lint.json")
        assert repro_main(["lint", "--format", "json", "--output", report_path]) == 0
        with open(report_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["violations"] == 0
        assert payload["checked_files"] > 50
        assert sorted(payload["rules"]) == payload["rules"]

    def test_rule_selection(self, capsys):
        assert repro_main(["lint", "--rules", "CLK001,LAY001"]) == 0
        assert repro_main(["lint", "--rules", "BOGUS9"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("CLK001", "RNG001", "RNG002", "RNG003", "DTY001", "DTY002", "LAY001"):
            assert rule in out

    def test_missing_directory(self, capsys):
        assert repro_main(["lint", "/nonexistent/pkg"]) == 2
        assert "not a directory" in capsys.readouterr().err
