"""Replicated chunk placement across shards.

Tavenard/Amsaleg/Jegou ("Balancing clusters to reduce response time
variability") observed that skewed cluster sizes — exactly the BAG-vs-SR
chunk-size skew this repository measures — translate into response-time
variability once clusters are spread over nodes: a scatter-gather query
is as slow as its slowest shard, so the *maximum* shard load, not the
mean, drives the tail.  Their remedy balances the clusters (here, the
chunker's job); the placement balances shard loads chunk by chunk:

* ``greedy`` — longest-processing-time bin packing: chunks are sorted
  by estimated cost (descending, ids break ties) and each is assigned
  to the currently lightest shard.  The classic 4/3-approximation of
  minimum makespan, and deterministic.
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
    "PLACEMENT_ROUND_ROBIN",
    "PLACEMENT_RANDOM",
    "PLACEMENT_STRATEGIES",
    "Partition",
    "PlacementPlan",
    "estimate_chunk_costs",
    "plan_placement",
    "build_partition_index",
]

PLACEMENT_GREEDY = "greedy"
PLACEMENT_ROUND_ROBIN = "round_robin"
PLACEMENT_RANDOM = "random"

#: Every placement strategy, in report order.
PLACEMENT_STRATEGIES = (
    PLACEMENT_GREEDY,
    PLACEMENT_ROUND_ROBIN,
    PLACEMENT_RANDOM,
)


@dataclasses.dataclass(frozen=True)
class Partition:
    """One placement granule: chunks stored in full on each holder.

    ``replicas`` lists the holding shards, primary first; failover and
    hedging walk it in order.
    """

    partition_id: int
    chunk_ids: Tuple[int, ...]
    cost: float
    replicas: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.chunk_ids:
            raise ValueError("a partition must hold at least one chunk")
        if not self.replicas:
            raise ValueError("a partition must be stored on at least one shard")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError(f"duplicate replica shards: {self.replicas}")


@dataclasses.dataclass(frozen=True)
class PlacementPlan:
    """The full placement: partitions, their holders, and the skew report.

    ``n_partitions <= n_shards``: each non-empty shard bin is one
    partition.
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

    def primary_costs(self) -> List[float]:
        """Estimated primary load per shard."""
        loads = [0.0] * self.n_shards
        for partition in self.partitions:
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
        One of :data:`PLACEMENT_STRATEGIES`.
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

    bins: List[List[int]] = [[] for _ in range(n_shards)]
    bin_costs = [0.0] * n_shards

    def place(chunk_id: int, shard: int) -> None:
        bins[shard].append(chunk_id)
        bin_costs[shard] += float(cost_arr[chunk_id])

    if strategy == PLACEMENT_ROUND_ROBIN:
        for chunk_id in range(n_chunks):
            place(chunk_id, chunk_id % n_shards)
    elif strategy == PLACEMENT_RANDOM:
        draws = np.random.default_rng(seed).integers(0, n_shards, size=n_chunks)
        for chunk_id in range(n_chunks):
            place(chunk_id, int(draws[chunk_id]))
    else:  # PLACEMENT_GREEDY
        # Longest processing time first; ties by chunk id, then shard id.
        for chunk_id in sorted(range(n_chunks), key=lambda c: (-float(cost_arr[c]), c)):
            place(chunk_id, min(range(n_shards), key=lambda s: (bin_costs[s], s)))

    # Shard bins in shard order: a deterministic numbering.
    partitions = [
        Partition(
            partition_id=pid,
            chunk_ids=tuple(sorted(bins[shard])),
            cost=float(sum(float(cost_arr[c]) for c in bins[shard])),
            replicas=_replicas_for(shard, n_shards, n_replicas),
        )
        for pid, shard in enumerate(s for s in range(n_shards) if bins[s])
    ]
    return PlacementPlan(
        n_shards=n_shards,
        n_replicas=n_replicas,
        strategy=strategy,
        partitions=tuple(partitions),
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
