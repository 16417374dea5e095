"""The repro invariant linter's contracts, as module constants.

The constants below *are* the repo's contracts — they encode which layers
carry simulated cost (and therefore must never read the wall clock),
which import edges the architecture permits, and which kernels have
dtype contracts.  Rules read them directly; nothing overrides them.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Tuple

__all__ = ["PACKAGE_NAME", "layer_of"]

#: Name of the package the constants describe.
PACKAGE_NAME = "repro"

#: Layers whose query-time costs are *simulated* (charged by the cost
#: models): wall-clock reads here would silently contaminate the paper's
#: time-to-quality curves with hardware-dependent noise.  The only
#: sanctioned reads are individual *call sites* behind an inline
#: ``# repro-lint: disable=CLK001`` (the chunker build timers, which
#: measure build time only and never feed simulated cost), so any new
#: wall-clock read in those files is still caught.
SIMULATED_LAYERS: FrozenSet[str] = frozenset(
    {"core", "simio", "storage", "chunking", "srtree", "faults", "service"}
)

#: The import DAG, expressed as forbidden edges: layer -> layers it must
#: not import.  Algorithmic layers must not reach "up" into the
#: application shell (experiments / extensions / system / cli), and simio
#: must stay ignorant of core so cost models remain reusable.
_APP_SHELL: FrozenSet[str] = frozenset({"experiments", "extensions", "system", "cli"})
FORBIDDEN_IMPORTS: Mapping[str, FrozenSet[str]] = {
    "core": _APP_SHELL | frozenset({"service"}),
    "simio": _APP_SHELL | frozenset({"core", "service"}),
    "storage": _APP_SHELL | frozenset({"service"}),
    "chunking": _APP_SHELL | frozenset({"service"}),
    "srtree": _APP_SHELL | frozenset({"service"}),
    # Fault plans wrap storage readers and the simio disk model; the
    # degraded-execution *policy* lives in core, which imports faults —
    # never the other way around.
    "faults": _APP_SHELL | frozenset({"core", "service"}),
    # The query service (including the ``service.sharding`` package:
    # placement, shard nodes, scatter-gather coordinator) composes core
    # search, simio queueing, faults and workload arrivals; only the app
    # shell (cli / experiments) may sit above it, and no substrate layer
    # may reach up into it.
    "service": _APP_SHELL | frozenset({"chunking", "srtree", "storage", "analysis"}),
    "workloads": frozenset({"service"}),
    "extensions": frozenset({"service"}),
    "system": frozenset({"service"}),
    "analysis": _APP_SHELL | SIMULATED_LAYERS | frozenset({"workloads"}),
}

#: Distance kernels with a float64 promotion contract: passing a literal
#: float32 construction defeats the promotion and changes results at the
#: ulp level, breaking bit-reproducibility.
DTYPE_KERNELS: FrozenSet[str] = frozenset(
    {"squared_distances", "pairwise_squared_distances"}
)

#: Substrings that count as "declares its dtype" in a docstring or
#: return annotation of a public array-producing function.
DTYPE_WORDS: Tuple[str, ...] = (
    "dtype",
    "float64",
    "float32",
    "float16",
    "int64",
    "int32",
    "intp",
    "uint8",
    "uint32",
    "uint64",
    "bool_",
    "boolean",
)

#: ``numpy.random`` attributes that are modern, explicitly-seeded
#: constructs and therefore exempt from the legacy global-state rule.
MODERN_NP_RANDOM: FrozenSet[str] = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: ``random`` (stdlib) attributes exempt from the module-level-call rule:
#: instantiating an explicitly seeded ``random.Random(seed)`` is fine.
SEEDED_STDLIB_RANDOM: FrozenSet[str] = frozenset({"Random", "SystemRandom"})

#: The only files that may write or rename durable on-disk artifacts
#: directly.  ``storage/atomic.py`` owns write-temp/fsync/rename and
#: ``storage/wal.py`` owns the framed group commit.  Everything else —
#: every other file format included — must publish through them (DUR001).
DURABLE_WRITE_SANCTIONED: FrozenSet[str] = frozenset(
    {"storage/atomic.py", "storage/wal.py"}
)

#: Path-expression substrings that mark a write target as a durable
#: search artifact (outside the storage layer, DUR001 flags only writes
#: whose arguments mention one of these; report/plot outputs stay free).
DURABLE_PATH_KEYWORDS: Tuple[str, ...] = (
    "wal",
    "chunk",
    "index",
    "collection",
    "segment",
    "manifest",
    "delta",
    "pack",
)

#: Entropy-consuming constructors and the argument that receives the
#: seed: canonical dotted name -> (positional index, keyword name).
SEED_SLOTS: Mapping[str, Tuple[int, str]] = {
    "numpy.random.default_rng": (0, "seed"),
    "numpy.random.SeedSequence": (0, "entropy"),
    "random.Random": (0, "x"),
}


def layer_of(relpath: str) -> str:
    """Layer name for a package-relative posix path.

    Subpackage files take the subpackage name (``core/search.py`` ->
    ``core``); top-level modules take their stem (``system.py`` ->
    ``system``).
    """
    parts = relpath.split("/")
    if len(parts) == 1:
        name = parts[0]
        return name[:-3] if name.endswith(".py") else name
    return parts[0]
