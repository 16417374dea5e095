"""Repo-specific static analysis: the ``repro lint`` invariant checker.

Each file of the ``repro`` tree is parsed once and checked by per-file
rules that enforce invariants no off-the-shelf linter knows about:

* **CLK001** simulated-clock discipline: no wall-clock calls (reads or
  ``time.sleep``) in the simulated-cost layers (``core``/``simio``/
  ``storage``/``chunking``/``srtree``/``faults``/``service``);
* **RNG001-003** determinism: no legacy ``np.random`` global state, no
  stdlib ``random`` module calls, no unseeded ``default_rng()``;
* **RNG101-102** seed discipline: no seed computed from the wall clock or
  ``os.urandom``; one seed name never seeds two constructors in one
  function;
* **DTY001-002** dtype contracts: no literal float32 into the distance
  kernels; public ndarray-returning functions declare their dtype;
* **DUR001** durable writes go through the crash-safe write sites;
* **LAY001** layer boundaries: the import DAG stays acyclic and the
  algorithmic layers never import the application shell, seen through
  the tree's ``__init__`` re-exports.

Run it as ``repro lint`` or ``python -m repro.analysis``.  This package
intentionally imports nothing from the rest of ``repro`` (enforced by
LAY001 on itself), so it can lint a tree whose simulated layers are
broken.
"""

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
    "LintResult",
    "RULE_IDS",
    "all_rules",
    "lint_sources",
    "lint_tree",
    "package_root",
    "render_json",
    "render_text",
    "select_rules",
]
