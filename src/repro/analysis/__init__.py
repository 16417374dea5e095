"""Repo-specific static analysis: the ``repro lint`` invariant checker.

This package builds a whole-program model of the ``repro`` tree — a
project symbol table, an import/call graph, and a contract index — and
enforces invariants no off-the-shelf linter knows about:

* **CLK001** simulated-clock discipline: no wall-clock reads in the
  simulated-cost layers (``core``/``simio``/``storage``/``chunking``/
  ``srtree``);
* **RNG001-003** determinism: no legacy ``np.random`` global state, no
  stdlib ``random`` module calls, no unseeded ``default_rng()``;
* **RNG101-102** seed provenance (whole-program): generators must trace
  to the run's root ``SeedSequence``; one seed must not fan out to two
  consumers without ``spawn()``;
* **DTY001-002** dtype contracts: no literal float32 into the distance
  kernels; public ndarray-returning functions declare their dtype;
* **LAY001** layer boundaries: the import DAG stays acyclic and the
  algorithmic layers never import the application shell;
* **SIM101-102** time-unit taint (whole-program): simulated seconds and
  host seconds must never be mixed or reach the wrong sink;
* **EXA001-002** exactness contracts: ``# repro: exact`` code must not
  reach approximate APIs without a waiver, and contract comments must be
  well-formed.

Run it as ``repro lint`` or ``python -m repro.analysis``.  This package
intentionally imports nothing from the rest of ``repro`` (enforced by
LAY001 on itself), so it can lint a tree whose simulated layers are
broken.
"""

from .config import LintConfig, default_config
from .diagnostics import Diagnostic, render_json, render_text
from .rules import RULE_IDS, all_rules, select_rules
from .runner import (
    LintResult,
    lint_sources,
    lint_tree,
    package_root,
)

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintResult",
    "RULE_IDS",
    "all_rules",
    "default_config",
    "lint_sources",
    "lint_tree",
    "package_root",
    "render_json",
    "render_text",
    "select_rules",
]
