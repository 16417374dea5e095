"""Repo-specific static analysis: the invariant checker for ``src/repro``.

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

Run it from the repository root as ``PYTHONPATH=tools python -m lint
[--format text|json]``.  The tool imports nothing from ``repro`` (it runs
with only ``tools/`` on the path), so it can lint a tree whose simulated
layers are broken.
"""
