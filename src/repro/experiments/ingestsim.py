"""Streaming-ingest watch mode: the quality/time frontier of a growing index.

The paper's experiments all search a *frozen* collection; this driver
watches the same quality/time trade-off while the collection is alive.
Starting from a base index built over a 10% prefix of the seeded
synthetic collection, the run grows the on-disk streaming index
(:class:`~repro.core.ingest.StreamingChunkIndex`) step by step to 100%,
and at every step interleaves:

* **mutation** — seeded WAL batches of inserts plus a fraction of
  deletes, each acknowledged only after its group commit;
* **crashes** — optional seeded kills at WAL/pack/rename boundaries
  (:mod:`repro.faults.crash_plan`); every kill is followed by recovery,
  an inline ``verify-index`` deep check, and resubmission of exactly the
  batches that were never acknowledged;
* **compaction** — periodic checkpoints (one pack of dirty-chunk deltas +
  WAL rotation) and one mid-run base rebuild, their simulated write cost
  charged through the same disk model as the queries;
* **queries** — a budgeted batch search (pruning and the LRU chunk cache
  enabled) measured for recall against the exact ground truth of the
  *current* live contents and for simulated elapsed time.

Everything is a pure function of ``(scale, seed, knobs)``: two runs with
the same arguments emit byte-identical JSON reports (the working
directory never appears in the report), which the CI smoke job asserts.

:func:`crash_matrix` is the acceptance drill: it records every protocol
boundary the scenario crosses, then re-runs the scenario killing the
writer at each (or a seeded subset), deep-verifies the directory the kill
left (:func:`~repro.core.ingest.verify_streaming_index`), and reports how
many descriptors the recovered index holds beside the uncrashed run's
count.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..chunking.srtree_chunker import SRTreeChunker
from ..core.chunk_index import ChunkIndex, build_chunk_index
from ..core.dataset import DescriptorCollection
from ..core.ground_truth import exact_knn_batch
from ..core.ingest import StreamingChunkIndex, verify_streaming_index
from ..core.metrics import precision_at_k
from ..core.search import ChunkSearcher
from ..core.stop_rules import MaxChunks
from ..faults.crash_plan import InjectedCrash, RecordingCrashPlan, seeded_crash_steps
from ..simio.chunk_cache import LruChunkCache
from ..simio.disk_model import DiskModel
from ..workloads.synthetic import generate_collection
from .config import ExperimentScale

__all__ = [
    "DEFAULT_SEED",
    "IngestSimConfig",
    "simulate",
    "crash_matrix",
]

#: Root seed of the default run (the paper's publication year).
DEFAULT_SEED = 2005

#: SeedSequence stream tags for the run's independent random consumers.
_STREAM_ORDER = 11
_STREAM_DELETES = 12
_STREAM_QUERIES = 13
_STREAM_CRASH_SCHEDULE = 14

#: MaxChunks budget of the interleaved queries, as a fraction of chunks.
BUDGET_FRACTION = 0.5
#: Operations per WAL batch (the group-commit unit).
BATCH_OPS = 24
#: Deletes per step, as a fraction of that step's inserts.
DELETE_FRACTION = 0.15
#: Checkpoint (compaction) period, in steps.
COMPACT_EVERY = 3


@dataclasses.dataclass(frozen=True)
class IngestSimConfig:
    """Knobs of one watch-mode run; the report's ``config`` lists them
    beside :data:`BATCH_OPS`, :data:`DELETE_FRACTION` and
    :data:`COMPACT_EVERY`."""

    steps: int = 9  #: growth steps from the 10% base to 100%
    n_queries: int = 12  #: interleaved queries per step
    n_crashes: int = 0  #: seeded kills injected across the whole run
    leaf_capacity: int = 48  #: SR-tree leaf capacity of the base build

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("need at least one growth step")
        if self.n_queries < 1:
            raise ValueError("need at least one query per step")
        if self.n_crashes < 0:
            raise ValueError("crash count cannot be negative")
        if self.leaf_capacity < 2:
            raise ValueError("leaf capacity must be at least 2")


class _CrashSchedule:
    """Crash at a fixed set of global boundary indices, once each.

    Unlike :class:`~repro.faults.crash_plan.CrashAtStep` the counter
    survives recovery — the same schedule object is handed back to the
    reopened index, so a run with N scheduled kills crashes exactly N
    times at deterministic boundaries.
    """

    def __init__(self, steps: Sequence[int]):
        self.remaining: Set[int] = set(int(s) for s in steps)
        self.counter = 0
        self.crashes: List[Tuple[int, str]] = []

    def reached(self, site: str) -> None:
        step = self.counter
        self.counter += 1
        if step in self.remaining:
            self.remaining.discard(step)
            self.crashes.append((step, site))
            raise InjectedCrash(site, step)


def _subcollection(
    collection: DescriptorCollection, rows: np.ndarray
) -> DescriptorCollection:
    return DescriptorCollection(
        vectors=collection.vectors[rows],
        ids=collection.ids[rows],
        image_ids=collection.image_ids[rows],
    )


def _build_base(
    collection: DescriptorCollection, rows: np.ndarray, leaf_capacity: int
) -> ChunkIndex:
    base = _subcollection(collection, rows)
    chunking = SRTreeChunker(leaf_capacity=leaf_capacity).form_chunks(base)
    return build_chunk_index(chunking.retained, chunking.chunk_set, name="ingestsim")


def _live_collection(index: ChunkIndex) -> DescriptorCollection:
    """The index's logical contents, in chunk order (ground-truth input)."""
    chunks = [index.read_chunk(chunk_id) for chunk_id in range(index.n_chunks)]
    ids = np.concatenate([chunk_ids for chunk_ids, _ in chunks])
    return DescriptorCollection(
        vectors=np.concatenate([vectors for _, vectors in chunks], axis=0),
        ids=ids,
        image_ids=np.zeros(ids.size, dtype=np.int64),
    )


class _IngestDriver:
    """Applies batches with ack tracking, recovery and resubmission."""

    def __init__(
        self, directory: str, crash: Optional[_CrashSchedule], disk: DiskModel
    ):
        self.directory = directory
        self.crash = crash
        self.disk = disk  # every reopen charges writes on the scale's disk
        self.streaming: Optional[StreamingChunkIndex] = None
        self.recoveries = 0
        self.replayed_unacked = 0
        self.verifications_failed = 0
        self.io_seconds = 0.0
        self._pending: List[Tuple[int, Sequence[Any]]] = []  # (seq, ops) not acked
        self._next_seq = 0

    def attach(self, streaming: StreamingChunkIndex) -> None:
        self.streaming = streaming
        self._next_seq = streaming.last_batch_seq + 1

    def _recover(self) -> None:
        """Reopen after a crash, deep-verify, resubmit unacknowledged work."""
        assert self.streaming is not None
        self.streaming.close()
        self.io_seconds += self.streaming.io_seconds
        self.recoveries += 1
        report = verify_streaming_index(self.directory)
        if not report["ok"]:
            self.verifications_failed += 1
        recovered = StreamingChunkIndex.open(
            self.directory, disk=self.disk, crash=self.crash
        )
        self.streaming = recovered
        self._next_seq = recovered.last_batch_seq + 1
        # Resubmit exactly the batches never acknowledged: those whose
        # sequence the recovered log does not already hold ("unacknowledged
        # absent"); the rest were fully applied by replay ("unacknowledged
        # fully applied") and must not run twice.
        to_resubmit = [ops for seq, ops in self._pending if seq >= self._next_seq]
        self.replayed_unacked += len(self._pending) - len(to_resubmit)
        self._pending = []
        for ops in to_resubmit:
            self.apply(ops)

    def apply(self, ops: Sequence[Any]) -> None:
        assert self.streaming is not None
        self._pending.append((self._next_seq, ops))
        try:
            self.streaming.apply(ops)
        except InjectedCrash:
            self._recover()
            return
        self._next_seq += 1
        self._pending.pop()

    def checkpoint(self, defragment: bool = False) -> None:
        assert self.streaming is not None
        try:
            self.streaming.checkpoint(defragment=defragment)
        except InjectedCrash:
            self._recover()

    def rebuild(self) -> None:
        assert self.streaming is not None
        try:
            self.streaming.rebuild_base()
        except InjectedCrash:
            self._recover()

    def close(self) -> float:
        assert self.streaming is not None
        self.io_seconds += self.streaming.io_seconds
        self.streaming.close()
        return self.io_seconds


def simulate(
    scale: ExperimentScale,
    directory: str,
    seed: int = DEFAULT_SEED,
    config: Optional[IngestSimConfig] = None,
) -> Dict[str, Any]:
    """One watch-mode run; returns the JSON-ready report.

    ``directory`` is the working directory for the on-disk index (it is
    created, used and never mentioned in the report, so reports from
    different machines compare byte-for-byte).
    """
    cfg = config or IngestSimConfig()
    collection = generate_collection(scale.synthetic)
    n_total = len(collection)
    dimensions = collection.dimensions
    if n_total < (cfg.steps + 1) * 2:
        raise ValueError("collection too small for the requested step count")

    order_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _STREAM_ORDER)))
    )
    arrival = order_rng.permutation(n_total)
    base_size = max(cfg.leaf_capacity, n_total // (cfg.steps + 1))
    base_rows = np.sort(arrival[:base_size])
    stream_rows = arrival[base_size:]

    crash: Optional[_CrashSchedule] = None
    if cfg.n_crashes:
        # Boundary budget: three WAL sites per batch plus compaction and
        # rebuild sites; kills land in the earlier ~2/3 of that span so
        # each is followed by real work that exercises the recovery.
        n_batches = -(-stream_rows.size // BATCH_OPS)
        horizon = max(1, (3 * n_batches * 2) // 3)
        crash = _CrashSchedule(
            seeded_crash_steps(
                int(seed) * 1000 + _STREAM_CRASH_SCHEDULE, horizon, cfg.n_crashes
            )
        )

    delete_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _STREAM_DELETES)))
    )
    query_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _STREAM_QUERIES)))
    )

    os.makedirs(directory, exist_ok=True)
    index = _build_base(collection, base_rows, cfg.leaf_capacity)
    driver = _IngestDriver(directory, crash, scale.cost_model.disk)
    driver.attach(
        StreamingChunkIndex.create(
            directory,
            index,
            disk=scale.cost_model.disk,
            crash=crash,
            name="ingestsim",
        )
    )

    from ..storage.wal import delete_op, insert_op

    next_id_offset = int(collection.ids.max()) + 1  # deleted-then-reborn ids stay unique
    rebuild_step = (cfg.steps + 1) // 2  # one base rebuild, at the midpoint
    per_step = -(-stream_rows.size // cfg.steps)
    rows_series: List[Dict[str, Any]] = []
    cursor = 0
    for step in range(1, cfg.steps + 1):
        step_rows = stream_rows[cursor : cursor + per_step]
        cursor += step_rows.size
        # Mutations: inserts in seeded arrival order, with a seeded
        # fraction of deletes of currently-live ids mixed in per batch.
        ops: List[Any] = []
        for row in step_rows:
            ops.append(
                insert_op(int(collection.ids[row]), collection.vectors[row])
            )
            if len(ops) >= BATCH_OPS:
                driver.apply(ops)
                ops = []
        if ops:
            driver.apply(ops)
        n_deletes = int(DELETE_FRACTION * step_rows.size)
        assert driver.streaming is not None
        maintainer = driver.streaming.maintainer
        if n_deletes and len(maintainer) > n_deletes:
            live_ids = sorted(maintainer)
            victims = delete_rng.choice(
                len(live_ids), size=n_deletes, replace=False
            )
            delete_batch = [
                delete_op(live_ids[int(v)]) for v in np.sort(victims)
            ]
            for start in range(0, len(delete_batch), BATCH_OPS):
                driver.apply(delete_batch[start : start + BATCH_OPS])
        # Maintenance: periodic compaction, one mid-run base rebuild.
        if step == rebuild_step:
            driver.rebuild()
        elif step % COMPACT_EVERY == 0:
            driver.checkpoint(defragment=True)

        # Queries against the current index: pruning + cache on,
        # budgeted scan, recall vs the live contents' exact ground truth.
        assert driver.streaming is not None
        searchable = driver.streaming.to_index()
        live = _live_collection(searchable)
        query_rows = query_rng.choice(len(live), size=cfg.n_queries, replace=False)
        queries = live.vectors[np.sort(query_rows)].astype(np.float64)
        truth = exact_knn_batch(live, queries, scale.k)
        budget = max(1, int(round(BUDGET_FRACTION * searchable.n_chunks)))
        cost_model = dataclasses.replace(
            scale.cost_model, chunk_cache=LruChunkCache(capacity_bytes=1 << 20)
        )
        searcher = ChunkSearcher(searchable, cost_model=cost_model)
        batch = searcher.search_batch(
            queries, k=scale.k, stop_rule=MaxChunks(budget)
        )
        recalls = [
            precision_at_k(result.neighbor_ids(), truth[i])
            for i, result in enumerate(batch)
        ]
        stats = maintainer.stats
        rows_series.append(
            {
                "step": step,
                "fraction": round((base_size + cursor) / n_total, 4),
                "n_descriptors": len(maintainer),
                "n_chunks": maintainer.n_chunks,
                "recall": round(sum(recalls) / len(recalls), 4),
                "elapsed_ms": round(
                    1000.0 * sum(r.elapsed_s for r in batch) / len(batch), 4
                ),
                "ingest_io_s": round(
                    driver.io_seconds + driver.streaming.io_seconds, 4
                ),
                "budget_chunks": budget,
                "inserts": stats.inserts,
                "deletes": stats.deletes,
                "splits": stats.splits,
                "merges": stats.merges,
                "recoveries": driver.recoveries,
            }
        )

    total_io = driver.close()
    final_verify = verify_streaming_index(directory)
    return {
        "experiment": "ingestsim",
        "scale": scale.name,
        "seed": int(seed),
        "k": int(scale.k),
        "dimensions": dimensions,
        "config": {
            "steps": cfg.steps,
            "batch_ops": BATCH_OPS,
            "delete_fraction": DELETE_FRACTION,
            "n_queries": cfg.n_queries,
            "budget_fraction": BUDGET_FRACTION,
            "compact_every": COMPACT_EVERY,
            "rebuild_step": rebuild_step,
            "n_crashes": cfg.n_crashes,
            "leaf_capacity": cfg.leaf_capacity,
        },
        "n_total": n_total,
        "base_size": int(base_size),
        "crashes_injected": driver.recoveries,
        "unacked_batches_replayed": driver.replayed_unacked,
        "verifications_failed": driver.verifications_failed,
        "final_verify_ok": bool(final_verify["ok"]),
        "total_ingest_io_s": round(total_io, 4),
        "series": rows_series,
    }


def _matrix_scenario(
    collection: DescriptorCollection,
    directory: str,
    crash: Optional[Any],
    leaf_capacity: int,
    seed: int,
) -> StreamingChunkIndex:
    """The fixed small workload every crash-matrix run repeats.

    Creation runs crash-free (an unfinished creation has acknowledged
    nothing — there is nothing to recover); the mutation protocol —
    batches, a compaction checkpoint, a base rebuild, more batches —
    runs under the plan.
    """
    from ..storage.wal import delete_op, insert_op

    n = len(collection)
    base_rows = np.arange(n // 2)
    index = _build_base(collection, base_rows, leaf_capacity)
    StreamingChunkIndex.create(directory, index, name="crash-matrix").close()

    streaming = StreamingChunkIndex.open(directory, crash=crash)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _STREAM_ORDER)))
    )
    extra = np.arange(n // 2, n)
    thirds = np.array_split(extra, 3)
    victims = rng.choice(n // 2, size=3, replace=False)
    for i, block in enumerate(thirds):
        ops: List[Any] = [
            insert_op(int(collection.ids[row]), collection.vectors[row])
            for row in block
        ]
        ops.append(delete_op(int(collection.ids[int(victims[i])])))
        streaming.apply(ops)
        if i == 0:
            streaming.checkpoint(defragment=True)
        elif i == 1:
            streaming.rebuild_base()
    return streaming


def crash_matrix(
    scale: ExperimentScale,
    directory: str,
    seed: int = DEFAULT_SEED,
    n_points: Optional[int] = None,
    leaf_capacity: int = 24,
) -> Dict[str, Any]:
    """Kill the writer at every protocol boundary; verify every recovery.

    A recording pass enumerates the boundaries the scenario crosses;
    each selected boundary (all of them, or a seeded ``n_points`` subset)
    then gets its own run that crashes there, recovers, and must pass the
    deep verifier with no acknowledged work lost.  Returns a JSON-ready
    report whose ``all_ok`` is the verdict.
    """
    from ..faults.crash_plan import CrashAtStep

    collection = generate_collection(
        dataclasses.replace(scale.synthetic, n_images=max(2, scale.synthetic.n_images // 8))
    )
    os.makedirs(directory, exist_ok=True)

    recording_dir = os.path.join(directory, "recording")
    recording = RecordingCrashPlan()
    _matrix_scenario(collection, recording_dir, recording, leaf_capacity, seed).close()
    reference = verify_streaming_index(recording_dir)
    reference_count = int(reference.get("n_descriptors", -1))
    shutil.rmtree(recording_dir)

    n_sites = len(recording.sites)
    selected = (
        tuple(range(n_sites))
        if n_points is None
        else seeded_crash_steps(seed, n_sites, n_points)
    )
    results: List[Dict[str, Any]] = []
    for step in selected:
        run_dir = os.path.join(directory, f"crash-{step:04d}")
        crashed = False
        try:
            _matrix_scenario(
                collection, run_dir, CrashAtStep(step), leaf_capacity, seed
            ).close()
        except InjectedCrash:
            crashed = True
        report = verify_streaming_index(run_dir)
        recovered = StreamingChunkIndex.open(run_dir)
        n_after = recovered.n_descriptors
        recovered.close()
        shutil.rmtree(run_dir)
        results.append(
            {
                "step": int(step),
                "site": recording.sites[step],
                "crashed": crashed,
                "verify_ok": bool(report["ok"]),
                "n_descriptors": int(n_after),
            }
        )
    all_ok = all(r["crashed"] and r["verify_ok"] for r in results)
    return {
        "experiment": "ingestsim-crash-matrix",
        "scale": scale.name,
        "seed": int(seed),
        "n_sites": n_sites,
        "sites": list(recording.sites),
        "selected_steps": [int(s) for s in selected],
        "uncrashed_n_descriptors": reference_count,
        "uncrashed_verify_ok": bool(reference["ok"]),
        "results": results,
        "all_ok": bool(all_ok and reference["ok"]),
    }
