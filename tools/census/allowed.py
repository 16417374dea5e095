"""Why a function no census command enters stays.

:data:`ALLOWED` maps a dotted name, as the census prints it, to
``(category, reason)``; the category is one of :data:`CATEGORIES`.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["ALLOWED", "CATEGORIES"]

ERROR_PATH = "error path"
INPUT_CHECK = "input check"
RESOURCE_RELEASE = "resource release"
TEST_ORACLE = "test oracle"
INTERFACE = "interface"
IMPLICIT_DUNDER = "implicit dunder"
USER_API = "user API"

#: The reasons a never-entered function may stay.
CATEGORIES = (
    ERROR_PATH,
    INPUT_CHECK,
    RESOURCE_RELEASE,
    TEST_ORACLE,
    INTERFACE,
    IMPLICIT_DUNDER,
    USER_API,
)

_DEBUG_REPR = (IMPLICIT_DUNDER, "a debugging repr; no command prints the object")
_PROTOCOL = (
    IMPLICIT_DUNDER,
    "completes the container protocol its siblings start; tests use it",
)
_EQUALITY = (IMPLICIT_DUNDER, "value equality, asserted by tests' round trips")
_CONTEXT = (
    RESOURCE_RELEASE,
    "the with-block form of close(); no shipped caller uses that form",
)
_PARTITION_ORACLE = (
    TEST_ORACLE,
    "a chunking's partition and bounding invariants, asserted over every "
    "chunker by tests",
)

#: Dotted name -> ``(category, reason)``.
ALLOWED: Dict[str, Tuple[str, str]] = {
    "repro.chunking.base.ChunkingResult.validate": _PARTITION_ORACLE,
    "repro.chunking.base.Chunker.form_chunks": (
        INTERFACE, "the abstract method every chunker implements",
    ),
    "repro.chunking.base.Chunker.__repr__": _DEBUG_REPR,
    "repro.core.approx_rules.EpsilonApproximation.__repr__": _DEBUG_REPR,
    "repro.core.chunk.Chunk.contains_all_members": _PARTITION_ORACLE,
    "repro.core.chunk.ChunkSet.__getitem__": _PROTOCOL,
    "repro.core.chunk.ChunkSet.is_partition": _PARTITION_ORACLE,
    "repro.core.chunk.ChunkSet.validate": _PARTITION_ORACLE,
    "repro.core.dataset.DescriptorCollection.__iter__": _PROTOCOL,
    "repro.core.dataset.DescriptorCollection.__eq__": _EQUALITY,
    "repro.core.ground_truth.GroundTruthStore.__len__": _PROTOCOL,
    "repro.core.ground_truth.GroundTruthStore.__contains__": _PROTOCOL,
    "repro.core.neighbors.Neighbor.__new__": (
        USER_API,
        "the public constructor of a result pair; the engine builds pairs "
        "from arrays without its conversions",
    ),
    "repro.core.neighbors.Neighbor.__repr__": _DEBUG_REPR,
    "repro.core.neighbors.NeighborSet.__contains__": _PROTOCOL,
    "repro.core.neighbors.NeighborSet.__repr__": _DEBUG_REPR,
    "repro.core.search.ChunkSearcher.__enter__": _CONTEXT,
    "repro.core.search.ChunkSearcher.__exit__": _CONTEXT,
    "repro.core.stop_rules.StopRule.check": (
        INTERFACE, "the base rule's abstract check; every rule overrides it",
    ),
    "repro.core.stop_rules.ExactCompletion.check": (
        INTERFACE,
        "infinite caps mean the engine never asks; the override keeps the "
        "rule a complete StopRule",
    ),
    "repro.core.stop_rules.FirstOf.__repr__": _DEBUG_REPR,
    "repro.core.trace.SearchTrace.__eq__": _EQUALITY,
    "repro.faults.plan.FaultPlan.unreadable_outcome": (
        ERROR_PATH,
        "the retry schedule of an unreadable chunk; no shipped fault plan "
        "makes one",
    ),
    "repro.service.breaker.BreakerBoard.region_of": (
        ERROR_PATH,
        "asked only for an unreadable chunk, which no shipped run meets",
    ),
    "repro.simio.calibration._pages_for": (
        TEST_ORACLE, "a helper of verify_calibration",
    ),
    "repro.simio.calibration.verify_calibration": (
        TEST_ORACLE,
        "the cost model's proof against the paper's anchor observations, "
        "asserted by tests/simio/test_calibration.py",
    ),
    "repro.simio.chunk_cache.LruChunkCache.__len__": _PROTOCOL,
    "repro.simio.chunk_cache.LruChunkCache.__contains__": _PROTOCOL,
    "repro.simio.chunk_cache.chunk_read_time_s": (
        TEST_ORACLE,
        "the cache's charge rule, which the engine inlines; the reference "
        "pipeline of tests charges through it",
    ),
    "repro.srtree.bulk_load._refuse_non_finite": (
        INPUT_CHECK, "names the non-finite row of a refused build input",
    ),
    "repro.storage.delta.DeltaPackReader.__len__": _PROTOCOL,
    "repro.storage.pages.PageGeometry.__eq__": _EQUALITY,
    "repro.storage.pages.PageGeometry.__repr__": _DEBUG_REPR,
    "repro.storage.wal.WalWriter.__enter__": _CONTEXT,
    "repro.storage.wal.WalWriter.__exit__": _CONTEXT,
    "repro.system._ImageOfId.__iter__": _PROTOCOL,
    "repro.system.ImageRetrievalSystem.remove_image": (
        USER_API, "documented by README and DESIGN §6, the inverse of add_image",
    ),
    "repro.workloads.arrivals.ArrivalSchedule.__len__": _PROTOCOL,
    "repro.workloads.queries.Workload.__iter__": _PROTOCOL,
}
