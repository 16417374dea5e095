"""Streaming-ingest watch mode: the quality/time frontier of a growing index.

The paper's experiments all search a *frozen* collection; this driver
watches the same quality/time trade-off while the collection is alive.
Starting from a base index built over a 10% prefix of the seeded
synthetic collection, the run grows the on-disk streaming index
(:class:`~repro.core.ingest.StreamingChunkIndex`) step by step to 100%,
and at every step interleaves:

* **mutation** — seeded WAL batches of inserts plus a fraction of
  deletes, each acknowledged only after its group commit;
* **crashes** — optional seeded kills after durable operations, each
  leaving a seeded crash state (:mod:`repro.faults.crash_states`) that is
  recovered, deep-checked and resubmitted exactly the batches that were
  never acknowledged;
* **compaction** — periodic checkpoints (one pack of dirty-chunk deltas +
  WAL rotation) and one mid-run base rebuild, their simulated write cost
  charged through the same disk model as the queries;
* **queries** — a budgeted batch search (pruning and the LRU chunk cache
  enabled) measured for recall against the exact ground truth of the
  *current* live contents and for simulated elapsed time.

Everything is a pure function of ``(scale, seed, knobs)``: two runs with
the same arguments emit byte-identical JSON reports (the working
directory never appears in the report), which the CI smoke job asserts.

:func:`crash_matrix` is the acceptance drill: every crash state one
recorded run of a small scenario may leave must verify, open and hold
exactly the acknowledged work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple
)

import numpy as np

from ..chunking.srtree_chunker import SRTreeChunker
from ..core.chunk_index import ChunkIndex, build_chunk_index
from ..core.dataset import DescriptorCollection
from ..core.ground_truth import exact_knn_batch
from ..core.ingest import StreamingChunkIndex, verify_streaming_index
from ..core.metrics import precision_at_k
from ..core.search import ChunkSearcher
from ..core.stop_rules import MaxChunks
from ..faults.crash_states import (
    STATES_PER_INTERVAL,
    InjectedCrash,
    Recording,
    record,
    seeded_crash_steps,
)
from ..simio.chunk_cache import LruChunkCache
from ..simio.disk_model import DiskModel
from ..storage.errors import CorruptFileError
from ..storage.wal import OP_INSERT, WalOp, delete_op, insert_op
from ..workloads.synthetic import generate_collection
from .config import K, ExperimentScale

__all__ = [
    "DEFAULT_SEED",
    "IngestSimConfig",
    "simulate",
    "open_crash_state",
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
#: Interleaved queries per step.
QUERIES_PER_STEP = 12
#: SR-tree leaf capacity of the watch-mode run's base build.
LEAF_CAPACITY = 48
#: SR-tree leaf capacity of the crash matrix's base build.
MATRIX_LEAF_CAPACITY = 24


@dataclasses.dataclass(frozen=True)
class IngestSimConfig:
    """Knobs of one watch-mode run; the report's ``config`` lists them
    beside :data:`BATCH_OPS`, :data:`DELETE_FRACTION`,
    :data:`QUERIES_PER_STEP`, :data:`COMPACT_EVERY` and
    :data:`LEAF_CAPACITY`."""

    steps: int = 9  #: growth steps from the 10% base to 100%
    n_crashes: int = 0  #: seeded kills injected across the whole run

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("need at least one growth step")
        if self.n_crashes < 0:
            raise ValueError("crash count cannot be negative")


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


def _fold(live: Set[int], ops: Iterable[WalOp]) -> Set[int]:
    """The live ids ``ops`` leave of ``live``."""
    live = set(live)
    for op in ops:
        (live.add if op.kind == OP_INSERT else live.discard)(op.descriptor_id)
    return live


def open_crash_state(
    directory: str,
    acked: Set[int],
    in_flight: Optional[Sequence[WalOp]],
    disk: Optional[DiskModel] = None,
) -> Tuple[Optional[StreamingChunkIndex], Optional[str]]:
    """Recover the crash state in ``directory`` under the three checks.

    It must deep-verify, open, and hold the ``acked`` live ids, or those
    with the whole ``in_flight`` batch applied.  Returns the recovered
    index (``None`` when it does not open) and why a check failed
    (``None`` when none did).
    """
    report = verify_streaming_index(directory)
    problem = None if report["ok"] else "verify: " + "; ".join(
        f"{c['name']} {c['detail']}" for c in report["checks"] if not c["ok"]
    )
    try:
        recovered = StreamingChunkIndex.open(directory, disk=disk)
    except CorruptFileError as error:
        return None, f"open: {error}"
    allowed = [acked] + ([] if in_flight is None else [_fold(acked, in_flight)])
    live = set(recovered.maintainer)
    if problem is None and live not in allowed:
        problem = (
            f"{len(live)} live ids, the acknowledged batches allow "
            f"{sorted(len(ids) for ids in allowed)}"
        )
    return recovered, problem


class _IngestDriver:
    """Applies batches with ack tracking, crashes, recovery and resubmission.

    With crash positions left the run is recorded up to the next one;
    there a seeded crash state replaces the directory, and recovery starts
    the next recording from it.  Leaving the ``with`` block uninstalls the
    recorder and closes the index, however the run ends.
    """

    def __init__(
        self, directory: str, positions: Sequence[int], seed: int, disk: DiskModel
    ):
        self.directory = directory
        self.seed = seed
        self.disk = disk  # every reopen charges writes on the scale's disk
        self.streaming: Optional[StreamingChunkIndex] = None
        self.crashes = 0
        self.replayed_unacked = 0
        self.verifications_failed = 0
        self.io_seconds = 0.0
        self._pending: List[Tuple[int, Sequence[Any]]] = []  # (seq, ops) not acked
        self._next_seq = 0
        self._positions = list(positions)  # in the log of the whole run
        self._logged = 0  # operations of the finished recordings
        self._installed = contextlib.ExitStack()
        self._recording: Optional[Recording] = None
        self._record()

    def _record(self) -> None:
        self._installed.close()
        self._recording = None
        if self._positions:
            stop_at = self._positions[0] - self._logged
            self._recording = self._installed.enter_context(
                record(self.directory, stop_at)
            )

    def attach(self, streaming: StreamingChunkIndex) -> None:
        self.streaming = streaming
        self._next_seq = streaming.last_batch_seq + 1

    def _recover(self, in_flight: Optional[Sequence[Any]]) -> None:
        """Leave a seeded crash state, reopen and deep-verify it, check it
        holds the acknowledged batches (plus at most ``in_flight``, whole)
        and resubmit the unacknowledged work."""
        assert self.streaming is not None
        acked = set(self.streaming.maintainer)  # memory stops at the last ack
        self.streaming.close()
        self.io_seconds += self.streaming.io_seconds
        while True:  # the recovery may crash too
            crashed = self._recording
            assert crashed is not None and crashed.stop_at is not None
            self.crashes += 1
            self._logged += crashed.stop_at
            self._positions.pop(0)
            shutil.rmtree(self.directory)
            os.makedirs(self.directory)
            state = crashed.seeded_state(crashed.stop_at, self.seed)
            crashed.materialise(state, self.directory)
            self._record()
            with contextlib.suppress(InjectedCrash):
                recovered, problem = open_crash_state(
                    self.directory, acked, in_flight, self.disk
                )
                break
        if recovered is None:
            raise CorruptFileError(f"crash state does not open: {problem}")
        if problem is not None:
            self.verifications_failed += 1
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

    def _run(self, action: Callable[[], Any], in_flight: Any) -> bool:
        """Run ``action``; on a crash recover instead and return False."""
        try:
            action()
        except InjectedCrash:
            self._recover(in_flight)
            return False
        return True

    def apply(self, ops: Sequence[Any]) -> None:
        streaming = self.streaming
        assert streaming is not None
        self._pending.append((self._next_seq, ops))
        if self._run(lambda: streaming.apply(ops), ops):
            self._next_seq += 1
            self._pending.pop()

    def checkpoint(self) -> None:
        assert self.streaming is not None
        self._run(self.streaming.checkpoint, None)

    def rebuild(self) -> None:
        assert self.streaming is not None
        self._run(self.streaming.rebuild_base, None)

    def __enter__(self) -> "_IngestDriver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._installed.close()
        if self.streaming is not None:
            self.streaming.close()


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
    base_size = max(LEAF_CAPACITY, n_total // (cfg.steps + 1))
    base_rows = np.sort(arrival[:base_size])
    stream_rows = arrival[base_size:]

    # Kills land after seeded durable operations in the earlier ~2/3 of a
    # span of three per batch (two writes and an fsync), so each is
    # followed by real work that exercises the recovery.
    n_batches = -(-stream_rows.size // BATCH_OPS)
    horizon = max(1, (3 * n_batches * 2) // 3)
    positions = [
        1 + step
        for step in seeded_crash_steps(
            int(seed) * 1000 + _STREAM_CRASH_SCHEDULE, horizon, cfg.n_crashes
        )
    ]

    delete_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _STREAM_DELETES)))
    )
    query_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _STREAM_QUERIES)))
    )

    os.makedirs(directory, exist_ok=True)
    index = _build_base(collection, base_rows, LEAF_CAPACITY)
    streaming = StreamingChunkIndex.create(
        directory, index, disk=scale.cost_model.disk, name="ingestsim"
    )
    with _IngestDriver(
        directory, positions, int(seed), scale.cost_model.disk
    ) as driver:
        driver.attach(streaming)

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
                driver.checkpoint()

            # Queries against the current index: pruning + cache on,
            # budgeted scan, recall vs the live contents' exact ground truth.
            assert driver.streaming is not None
            searchable = driver.streaming.to_index()
            live = _live_collection(searchable)
            query_rows = query_rng.choice(
                len(live), size=QUERIES_PER_STEP, replace=False
            )
            queries = live.vectors[np.sort(query_rows)].astype(np.float64)
            truth = exact_knn_batch(live, queries, K)
            budget = max(1, int(round(BUDGET_FRACTION * searchable.n_chunks)))
            cost_model = dataclasses.replace(
                scale.cost_model, chunk_cache=LruChunkCache(capacity_bytes=1 << 20)
            )
            searcher = ChunkSearcher(searchable, cost_model=cost_model)
            batch = searcher.search_batch(
                queries, k=K, stop_rule=MaxChunks(budget)
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
                    "recoveries": driver.crashes,
                }
            )

        assert driver.streaming is not None
        total_io = driver.io_seconds + driver.streaming.io_seconds
    final_verify = verify_streaming_index(directory)
    return {
        "experiment": "ingestsim",
        "scale": scale.name,
        "seed": int(seed),
        "k": K,
        "dimensions": dimensions,
        "config": {
            "steps": cfg.steps,
            "batch_ops": BATCH_OPS,
            "delete_fraction": DELETE_FRACTION,
            "n_queries": QUERIES_PER_STEP,
            "budget_fraction": BUDGET_FRACTION,
            "compact_every": COMPACT_EVERY,
            "rebuild_step": rebuild_step,
            "n_crashes": cfg.n_crashes,
            "leaf_capacity": LEAF_CAPACITY,
        },
        "n_total": n_total,
        "base_size": int(base_size),
        "crashes_injected": driver.crashes,
        "unacked_batches_replayed": driver.replayed_unacked,
        "verifications_failed": driver.verifications_failed,
        "final_verify_ok": bool(final_verify["ok"]),
        "total_ingest_io_s": round(total_io, 4),
        "series": rows_series,
    }


class _Batch(NamedTuple):
    """A matrix batch: the log's length at ``apply`` and at its ack."""

    start: int
    ack: int
    ops: List[WalOp]


def _matrix_scenario(
    collection: DescriptorCollection, directory: str, seed: int
) -> Tuple[Recording, Set[int], List[_Batch]]:
    """The crash matrix's recorded run, with the live ids it starts from.

    Creation runs unrecorded (an unfinished creation has acknowledged
    nothing — there is nothing to recover); the mutation protocol —
    batches, a compaction checkpoint, a base rebuild, more batches — runs
    under the recording.
    """
    n = len(collection)
    index = _build_base(collection, np.arange(n // 2), MATRIX_LEAF_CAPACITY)
    StreamingChunkIndex.create(directory, index, name="crash-matrix").close()
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _STREAM_ORDER)))
    )
    victims = rng.choice(n // 2, size=3, replace=False)
    batches: List[_Batch] = []
    with record(directory, None) as recording:
        with StreamingChunkIndex.open(directory) as streaming:
            start_live = set(streaming.maintainer)
            for i, block in enumerate(np.array_split(np.arange(n // 2, n), 3)):
                ops = [
                    insert_op(int(collection.ids[row]), collection.vectors[row])
                    for row in block
                ]
                ops.append(delete_op(int(collection.ids[int(victims[i])])))
                start = len(recording.ops)
                streaming.apply(ops)
                batches.append(_Batch(start, len(recording.ops), ops))
                if i == 0:
                    streaming.checkpoint()
                elif i == 1:
                    streaming.rebuild_base()
    return recording, start_live, batches


def crash_matrix(
    scale: ExperimentScale,
    directory: str,
    seed: int = DEFAULT_SEED,
    n_points: Optional[int] = None,
) -> Dict[str, Any]:
    """Check the crash states of one recorded run (``n_points`` seeded
    ones, or all that :data:`STATES_PER_INTERVAL` lets through).

    Each is materialised into its own directory and must deep-verify,
    open, and hold every acknowledged batch plus at most the one in
    flight, whole.  Returns a JSON-ready report; ``all_ok`` is the verdict.
    """
    collection = generate_collection(
        dataclasses.replace(scale.synthetic, n_images=max(2, scale.synthetic.n_images // 8))
    )
    os.makedirs(directory, exist_ok=True)
    recording_dir = os.path.join(directory, "recording")
    recording, start_live, batches = _matrix_scenario(
        collection, recording_dir, seed
    )
    reference = verify_streaming_index(recording_dir)
    shutil.rmtree(recording_dir)

    states = recording.enumerate_states(STATES_PER_INTERVAL, seed)
    selected = seeded_crash_steps(seed, len(states), n_points or len(states))
    results: List[Dict[str, Any]] = []
    for number in selected:
        state = states[number]
        state_dir = os.path.join(directory, f"state-{number:05d}")
        os.makedirs(state_dir)
        recording.materialise(state, state_dir)
        acked = [op for b in batches if b.ack <= state.position for op in b.ops]
        in_flight = next(
            (b.ops for b in batches if b.start <= state.position < b.ack), None
        )
        recovered, problem = open_crash_state(
            state_dir, _fold(start_live, acked), in_flight
        )
        if recovered is not None:
            recovered.close()
        shutil.rmtree(state_dir)
        results.append(
            {
                "state": int(number),
                "position": state.position,
                "description": recording.describe(state),
                "problem": problem,
                "n_descriptors": -1 if recovered is None else recovered.n_descriptors,
            }
        )
    all_ok = all(r["problem"] is None for r in results)
    return {
        "experiment": "ingestsim-crash-matrix",
        "scale": scale.name,
        "seed": int(seed),
        "n_ops": len(recording.ops),
        "n_crash_points": len(recording.crash_points()),
        "states_per_interval": STATES_PER_INTERVAL,
        "n_states": len(states),
        "selected_states": [int(s) for s in selected],
        "uncrashed_n_descriptors": int(reference.get("n_descriptors", -1)),
        "uncrashed_verify_ok": bool(reference["ok"]),
        "results": results,
        "all_ok": bool(all_ok and reference["ok"]),
    }
