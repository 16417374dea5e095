"""Replicated chunk placement across shards.

Tavenard/Amsaleg/Jegou ("Balancing clusters to reduce response time
variability") observed that skewed cluster sizes — exactly the BAG-vs-SR
chunk-size skew this repository measures — translate into response-time
variability once clusters are spread over nodes: a scatter-gather query
is as slow as its slowest shard, so the *maximum* shard load, not the
mean, drives the tail.  The placement optimizer here implements their
remedy at chunk granularity:

* ``greedy`` — longest-processing-time bin packing: chunks are sorted
  by estimated cost (descending, ids break ties) and each is assigned
  to the currently lightest shard.  The classic 4/3-approximation of
  minimum makespan, and deterministic.
* ``split`` — greedy packing plus *cluster splitting*: chunks whose
  estimated cost exceeds :data:`SPLIT_FACTOR` times the ideal shard load
  become singleton partitions replicated on extra shards, and queries
  rotate across the holders.  An oversized cluster cannot be balanced
  by placement alone (it exceeds a whole shard's fair share), so the
  load is spread over replicas instead — results are unchanged because
  every replica holds the identical chunk.
* ``round_robin`` — chunk ``i`` goes to shard ``i mod N`` (the naive
  baseline the sweep compares against).
* ``random`` — a seeded uniform shard per chunk.

A :class:`Partition` is the placement granule: a set of chunks stored
*in full* on ``n_replicas`` shards.  Because every replica of a
partition holds exactly the same chunks, a query answered by any
replica returns bit-identical results — failover and hedging can pick
targets freely without touching correctness.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ...core.chunk_index import ChunkIndex, InMemoryChunkStore
from ...core.chunk import ChunkMeta
from ...simio.pipeline import CostModel

__all__ = [
    "PLACEMENT_GREEDY",
    "PLACEMENT_SPLIT",
    "PLACEMENT_ROUND_ROBIN",
    "PLACEMENT_RANDOM",
    "PLACEMENT_STRATEGIES",
    "SPLIT_FACTOR",
    "Partition",
    "PlacementPlan",
    "estimate_chunk_costs",
    "plan_placement",
    "build_partition_index",
]

PLACEMENT_GREEDY = "greedy"
PLACEMENT_SPLIT = "split"
PLACEMENT_ROUND_ROBIN = "round_robin"
PLACEMENT_RANDOM = "random"

#: Every placement strategy, in report order.
PLACEMENT_STRATEGIES = (
    PLACEMENT_GREEDY,
    PLACEMENT_SPLIT,
    PLACEMENT_ROUND_ROBIN,
    PLACEMENT_RANDOM,
)

#: ``split`` isolates a chunk costing more than this many times the ideal
#: shard load (total cost / shards).
SPLIT_FACTOR = 2.0


@dataclasses.dataclass(frozen=True)
class Partition:
    """One placement granule: chunks stored in full on each holder.

    ``replicas`` lists the holding shards, primary first; failover and
    hedging walk it in order (rotated per query for split singletons,
    so the extra holders actually share the load).
    """

    partition_id: int
    chunk_ids: Tuple[int, ...]
    cost: float
    replicas: Tuple[int, ...]
    #: True for an oversized chunk isolated by cluster splitting; the
    #: coordinator rotates its primary per query to spread the load.
    rotate: bool = False

    def __post_init__(self) -> None:
        if not self.chunk_ids:
            raise ValueError("a partition must hold at least one chunk")
        if not self.replicas:
            raise ValueError("a partition must be stored on at least one shard")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError(f"duplicate replica shards: {self.replicas}")

    def targets(self, query_index: int) -> Tuple[int, ...]:
        """Holder shards in the order a query should try them.

        Non-rotating partitions always lead with their primary; split
        singletons rotate the holder list by the query index so
        successive queries land on different replicas.
        """
        if not self.rotate or len(self.replicas) == 1:
            return self.replicas
        shift = int(query_index) % len(self.replicas)
        return self.replicas[shift:] + self.replicas[:shift]


@dataclasses.dataclass(frozen=True)
class PlacementPlan:
    """The full placement: partitions, their holders, and the skew report.

    ``n_partitions <= n_shards + n_split``: each non-empty shard bin is
    one partition, plus one singleton partition per split chunk.
    """

    n_shards: int
    n_replicas: int
    strategy: str
    partitions: Tuple[Partition, ...]

    def __post_init__(self) -> None:
        seen: Dict[int, int] = {}
        for partition in self.partitions:
            for chunk_id in partition.chunk_ids:
                if chunk_id in seen:
                    raise ValueError(
                        f"chunk {chunk_id} placed in partitions "
                        f"{seen[chunk_id]} and {partition.partition_id}"
                    )
                seen[chunk_id] = partition.partition_id

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    @property
    def n_split(self) -> int:
        """Oversized chunks isolated into rotating singleton partitions."""
        return sum(1 for partition in self.partitions if partition.rotate)

    def primary_costs(self) -> List[float]:
        """Estimated primary load per shard (rotating partitions spread
        their cost evenly over their holders, which is what rotation
        achieves in expectation)."""
        loads = [0.0] * self.n_shards
        for partition in self.partitions:
            if partition.rotate:
                share = partition.cost / len(partition.replicas)
                for shard in partition.replicas:
                    loads[shard] += share
            else:
                loads[partition.replicas[0]] += partition.cost
        return loads

    def stored_costs(self) -> List[float]:
        """Estimated stored (primary + replica) load per shard."""
        loads = [0.0] * self.n_shards
        for partition in self.partitions:
            for shard in partition.replicas:
                loads[shard] += partition.cost
        return loads

    @property
    def imbalance(self) -> float:
        """Max primary shard load over the mean (1.0 = perfectly even).

        This is the skew statistic of the placement report: the
        scatter-gather tail tracks the most loaded shard, so imbalance
        is a direct proxy for the p99 penalty of a bad placement.
        """
        loads = self.primary_costs()
        mean = sum(loads) / len(loads)
        if mean == 0.0:
            return 1.0
        return max(loads) / mean

    def report(self) -> Dict[str, object]:
        """Deterministic JSON-ready skew/imbalance summary."""
        return {
            "strategy": self.strategy,
            "n_shards": self.n_shards,
            "n_replicas": self.n_replicas,
            "n_partitions": self.n_partitions,
            "n_split": self.n_split,
            "imbalance": self.imbalance,
            "primary_costs": self.primary_costs(),
            "stored_costs": self.stored_costs(),
        }


def estimate_chunk_costs(index: ChunkIndex, cost_model: CostModel) -> np.ndarray:
    """Estimated scan seconds per chunk as a float64 vector of shape
    ``(n_chunks,)`` under the calibrated cost model.

    A chunk's steady-state pipeline cost is its I/O time overlapped with
    its CPU time — ``max(io, cpu)`` with double buffering, their sum
    without — mirroring the paper's section 1.1 argument that balanced
    chunks balance exactly these two quantities.  The estimate ignores
    cache state and queueing (placement is computed offline, before any
    traffic exists) but preserves the *skew*, which is all bin packing
    needs.
    """
    pages = index.page_counts()
    counts = index.descriptor_counts()
    io = np.asarray(
        [cost_model.disk.random_read_time_s(int(p)) for p in pages],
        dtype=np.float64,
    )
    cpu = np.asarray(
        [cost_model.cpu.chunk_processing_time_s(int(n)) for n in counts],
        dtype=np.float64,
    )
    if cost_model.overlap_io_cpu:
        return np.maximum(io, cpu)
    return io + cpu


def _replicas_for(primary: int, n_shards: int, n_replicas: int) -> Tuple[int, ...]:
    """Holder ring of a partition homed at ``primary``: the next
    ``n_replicas`` shards in id order, wrapping around."""
    return tuple((primary + offset) % n_shards for offset in range(n_replicas))


def plan_placement(
    costs: Union[Sequence[float], np.ndarray],
    n_shards: int,
    n_replicas: int = 1,
    strategy: str = PLACEMENT_GREEDY,
    seed: int = 0,
) -> PlacementPlan:
    """Partition chunks across ``n_shards`` with ``n_replicas`` copies.

    Parameters
    ----------
    costs:
        Estimated per-chunk scan cost (see :func:`estimate_chunk_costs`);
        chunk ``i`` is ``costs[i]``.
    n_shards, n_replicas:
        Cluster shape.  ``n_replicas`` must not exceed ``n_shards`` —
        replicas of one partition live on *distinct* shards, so more
        copies than shards is a configuration error, not a silent clamp.
    strategy:
        One of :data:`PLACEMENT_STRATEGIES`.  ``split`` isolates a chunk
        costing more than :data:`SPLIT_FACTOR` times the ideal shard load
        into a rotating singleton partition held by ``min(2 * n_replicas,
        n_shards)`` shards.
    seed:
        Root seed of the ``random`` strategy (ignored otherwise).
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    if n_replicas < 1:
        raise ValueError(f"need at least one replica, got {n_replicas}")
    if n_replicas > n_shards:
        raise ValueError(
            f"cannot place {n_replicas} replicas on {n_shards} shards: "
            "replicas of a partition must live on distinct shards"
        )
    if strategy not in PLACEMENT_STRATEGIES:
        raise ValueError(
            f"unknown placement strategy {strategy!r}; "
            f"choose from {PLACEMENT_STRATEGIES}"
        )
    cost_arr = np.asarray(costs, dtype=np.float64)
    if cost_arr.ndim != 1 or cost_arr.shape[0] == 0:
        raise ValueError("need a non-empty 1-d cost vector")
    if np.any(cost_arr < 0.0) or not np.all(np.isfinite(cost_arr)):
        raise ValueError("chunk costs must be finite and non-negative")
    n_chunks = int(cost_arr.shape[0])

    partitions: List[Partition] = []
    bins: List[List[int]] = [[] for _ in range(n_shards)]
    bin_costs = [0.0] * n_shards

    def assign_greedy(chunk_ids: Sequence[int]) -> None:
        # Longest processing time first; ties by chunk id, then shard id.
        order = sorted(chunk_ids, key=lambda c: (-float(cost_arr[c]), c))
        for chunk_id in order:
            shard = min(range(n_shards), key=lambda s: (bin_costs[s], s))
            bins[shard].append(chunk_id)
            bin_costs[shard] += float(cost_arr[chunk_id])

    if strategy == PLACEMENT_ROUND_ROBIN:
        for chunk_id in range(n_chunks):
            shard = chunk_id % n_shards
            bins[shard].append(chunk_id)
            bin_costs[shard] += float(cost_arr[chunk_id])
    elif strategy == PLACEMENT_RANDOM:
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, n_shards, size=n_chunks)
        for chunk_id in range(n_chunks):
            shard = int(draws[chunk_id])
            bins[shard].append(chunk_id)
            bin_costs[shard] += float(cost_arr[chunk_id])
    elif strategy == PLACEMENT_GREEDY:
        assign_greedy(range(n_chunks))
    else:  # PLACEMENT_SPLIT
        ideal = float(cost_arr.sum()) / n_shards
        threshold = SPLIT_FACTOR * ideal
        oversized = [
            c for c in range(n_chunks) if float(cost_arr[c]) > threshold
        ]
        assign_greedy([c for c in range(n_chunks) if float(cost_arr[c]) <= threshold])
        spread = min(2 * n_replicas, n_shards)
        for rank, chunk_id in enumerate(oversized):
            # Home each split singleton on the currently lightest shard
            # and charge the rotated share to every holder.
            primary = min(range(n_shards), key=lambda s: (bin_costs[s], s))
            replicas = _replicas_for(primary, n_shards, spread)
            share = float(cost_arr[chunk_id]) / spread
            for shard in replicas:
                bin_costs[shard] += share
            partitions.append(
                Partition(
                    partition_id=-1,  # renumbered below
                    chunk_ids=(chunk_id,),
                    cost=float(cost_arr[chunk_id]),
                    replicas=replicas,
                    rotate=True,
                )
            )

    shard_partitions = [
        Partition(
            partition_id=-1,
            chunk_ids=tuple(sorted(bins[shard])),
            cost=float(sum(float(cost_arr[c]) for c in bins[shard])),
            replicas=_replicas_for(shard, n_shards, n_replicas),
        )
        for shard in range(n_shards)
        if bins[shard]
    ]
    # Shard bins first (in shard order), then split singletons (in chunk
    # order) — a deterministic numbering either way.
    renumbered = [
        dataclasses.replace(partition, partition_id=pid)
        for pid, partition in enumerate(shard_partitions + partitions)
    ]
    return PlacementPlan(
        n_shards=n_shards,
        n_replicas=n_replicas,
        strategy=strategy,
        partitions=tuple(renumbered),
    )


def build_partition_index(
    index: ChunkIndex, chunk_ids: Sequence[int], name: str = ""
) -> ChunkIndex:
    """A self-contained sub-index holding one partition's chunks.

    Chunk ids are renumbered ``0..m-1`` (in the given order) and page
    offsets recompacted, exactly as if the partition had been built and
    saved on its shard; descriptor ids stay global, so per-shard results
    merge without any id translation.  Contents are materialised into an
    in-memory store — the sharded simulator's analogue of each shard
    owning its own chunk file.
    """
    if not chunk_ids:
        raise ValueError("a partition index needs at least one chunk")
    metas: List[ChunkMeta] = []
    contents: List[Tuple[np.ndarray, np.ndarray]] = []
    next_page = 0
    for local_id, chunk_id in enumerate(chunk_ids):
        meta = index.metas[chunk_id]
        metas.append(
            dataclasses.replace(meta, chunk_id=local_id, page_offset=next_page)
        )
        next_page += meta.page_count
        ids, vectors = index.read_chunk(chunk_id)
        contents.append((ids, vectors))
    return ChunkIndex(
        metas=metas,
        store=InMemoryChunkStore(contents),
        dimensions=index.dimensions,
        name=name or f"{index.name}/partition",
    )
