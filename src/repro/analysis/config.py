"""Configuration for the repro invariant linter.

The defaults below *are* the repo's contracts — they encode which layers
carry simulated cost (and therefore must never read the wall clock),
which import edges the architecture permits, and which kernels have
dtype contracts.  Tests and the CLI use :func:`default_config`; unit
tests construct narrower configs by hand.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Mapping, Tuple

__all__ = ["LintConfig", "default_config", "PACKAGE_NAME"]

#: Name of the package the default configuration describes.
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

#: Time-unit taint roots: canonical dotted names whose float results carry
#: a unit.  ``host`` is wall-clock seconds (hardware-dependent), ``sim``
#: is simulated seconds (deterministic, advanced by the cost models).
#: The whole-program analyzer propagates these units through calls,
#: returns, parameters and stored attributes; everything else starts
#: unitless.
TIME_UNIT_SOURCES: Mapping[str, str] = {
    # Wall clock — the only place host-seconds may legitimately originate.
    "time.time": "host",
    "time.monotonic": "host",
    "time.perf_counter": "host",
    "time.process_time": "host",
    "time.thread_time": "host",
    # The cost models that charge simulated time.
    "repro.simio.pipeline.PipelineSimulator.start_query": "sim",
    "repro.simio.pipeline.PipelineSimulator.process_chunk": "sim",
    "repro.simio.pipeline.PipelineSimulator.skip_chunk": "sim",
    "repro.simio.pipeline.PipelineSimulator.elapsed": "sim",
    "repro.simio.chunk_cache.chunk_read_time_s": "sim",
    "repro.simio.disk_model.DiskModel.positioning_time_s": "sim",
    "repro.simio.disk_model.DiskModel.transfer_time_s": "sim",
    "repro.simio.disk_model.DiskModel.random_read_time_s": "sim",
    "repro.simio.disk_model.DiskModel.sequential_read_time_s": "sim",
    "repro.simio.disk_model.DiskModel.sequential_write_time_s": "sim",
    "repro.simio.disk_model.DiskModel.sync_time_s": "sim",
    "repro.simio.cpu_model.CpuModel.chunk_processing_time_s": "sim",
    "repro.simio.cpu_model.CpuModel.ranking_time_s": "sim",
    "repro.faults.plan.FaultPlan.backoff_delay_s": "sim",
}

#: Time-unit sinks: canonical dotted callables whose first non-self
#: argument must carry the stated unit.  Passing the *other* real unit is
#: the cross-layer plumbing bug SIM102 exists for (e.g. a simulated
#: timestamp fed to ``time.sleep``).
TIME_UNIT_SINKS: Mapping[str, str] = {
    "time.sleep": "host",
}

#: The only files that may write or rename durable on-disk artifacts
#: directly.  ``storage/atomic.py`` owns write-temp/fsync/rename,
#: ``storage/chunk_file.py`` layers CRC tables on the same discipline,
#: and ``storage/wal.py`` owns the framed group commit.  Everything else
#: must publish through them (DUR001).
DURABLE_WRITE_SANCTIONED: FrozenSet[str] = frozenset(
    {"storage/atomic.py", "storage/chunk_file.py", "storage/wal.py"}
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


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Everything a rule needs to know about the repo's invariants."""

    package: str = PACKAGE_NAME
    simulated_layers: FrozenSet[str] = SIMULATED_LAYERS
    forbidden_imports: Mapping[str, FrozenSet[str]] = dataclasses.field(
        default_factory=lambda: dict(FORBIDDEN_IMPORTS)
    )
    dtype_kernels: FrozenSet[str] = DTYPE_KERNELS
    dtype_words: Tuple[str, ...] = DTYPE_WORDS
    modern_np_random: FrozenSet[str] = MODERN_NP_RANDOM
    seeded_stdlib_random: FrozenSet[str] = SEEDED_STDLIB_RANDOM
    time_unit_sources: Mapping[str, str] = dataclasses.field(
        default_factory=lambda: dict(TIME_UNIT_SOURCES)
    )
    time_unit_sinks: Mapping[str, str] = dataclasses.field(
        default_factory=lambda: dict(TIME_UNIT_SINKS)
    )
    seed_slots: Mapping[str, Tuple[int, str]] = dataclasses.field(
        default_factory=lambda: dict(SEED_SLOTS)
    )
    durable_write_sanctioned: FrozenSet[str] = DURABLE_WRITE_SANCTIONED
    durable_path_keywords: Tuple[str, ...] = DURABLE_PATH_KEYWORDS

    def layer_of(self, relpath: str) -> str:
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


def default_config() -> LintConfig:
    """The shipped configuration (module-level constants above)."""
    return LintConfig()
