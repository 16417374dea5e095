"""Tests for replicated chunk placement and partition sub-indexes."""

import dataclasses

import numpy as np
import pytest

from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import build_chunk_index
from repro.service.sharding import placement
from repro.service.sharding import (
    PLACEMENT_STRATEGIES,
    Partition,
    PlacementPlan,
    build_partition_index,
    estimate_chunk_costs,
    plan_placement,
)
from repro.simio.calibration import PAPER_2005_COST_MODEL


def _coverage(plan):
    return sorted(
        chunk_id
        for partition in plan.partitions
        for chunk_id in partition.chunk_ids
    )


class TestValidation:
    def test_cluster_shape_must_be_sane(self):
        with pytest.raises(ValueError, match="shard"):
            plan_placement([1.0], n_shards=0)
        with pytest.raises(ValueError, match="replica"):
            plan_placement([1.0], n_shards=2, n_replicas=0)

    def test_more_replicas_than_shards_rejected(self):
        """R > N is a configuration error, never a silent clamp."""
        with pytest.raises(ValueError, match="distinct shards"):
            plan_placement([1.0, 2.0], n_shards=2, n_replicas=3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            plan_placement([1.0], n_shards=1, strategy="astrology")

    def test_costs_must_be_finite_and_non_negative(self):
        with pytest.raises(ValueError, match="finite"):
            plan_placement([1.0, -2.0], n_shards=2)
        with pytest.raises(ValueError, match="finite"):
            plan_placement([1.0, float("nan")], n_shards=2)
        with pytest.raises(ValueError, match="non-empty"):
            plan_placement([], n_shards=2)

    def test_partition_invariants(self):
        with pytest.raises(ValueError, match="at least one chunk"):
            Partition(0, (), 1.0, (0,))
        with pytest.raises(ValueError, match="duplicate"):
            Partition(0, (1,), 1.0, (0, 0))
        with pytest.raises(ValueError, match="placed in partitions"):
            PlacementPlan(
                n_shards=2,
                n_replicas=1,
                strategy="greedy",
                partitions=(
                    Partition(0, (0,), 1.0, (0,)),
                    Partition(1, (0,), 1.0, (1,)),
                ),
            )


class TestStrategies:
    COSTS = [5.0, 1.0, 4.0, 2.0, 3.0, 1.0, 2.0, 6.0]

    @pytest.mark.parametrize("strategy", PLACEMENT_STRATEGIES)
    def test_every_strategy_tiles_the_chunks(self, strategy):
        plan = plan_placement(
            self.COSTS, n_shards=3, n_replicas=2, strategy=strategy
        )
        assert _coverage(plan) == list(range(len(self.COSTS)))
        assert plan.strategy == strategy
        for partition in plan.partitions:
            assert len(partition.replicas) >= 2
            assert all(0 <= s < 3 for s in partition.replicas)

    def test_single_shard_degenerates_to_one_partition(self):
        plan = plan_placement(self.COSTS, n_shards=1)
        assert plan.n_partitions == 1
        assert plan.partitions[0].chunk_ids == tuple(range(len(self.COSTS)))
        assert plan.imbalance == 1.0

    def test_greedy_beats_round_robin_on_skew(self):
        skewed = [10.0, 0.1, 0.1, 0.1, 10.0, 0.1, 0.1, 0.1]
        greedy = plan_placement(skewed, n_shards=2, strategy="greedy")
        naive = plan_placement(skewed, n_shards=2, strategy="round_robin")
        assert greedy.imbalance < naive.imbalance
        assert greedy.imbalance == pytest.approx(1.0, abs=0.02)

    def test_round_robin_is_positional(self):
        plan = plan_placement(self.COSTS, n_shards=3, strategy="round_robin")
        by_primary = {
            partition.replicas[0]: partition.chunk_ids
            for partition in plan.partitions
        }
        assert by_primary[0] == (0, 3, 6)
        assert by_primary[1] == (1, 4, 7)
        assert by_primary[2] == (2, 5)

    def test_random_is_seeded(self):
        one = plan_placement(self.COSTS, n_shards=3, strategy="random", seed=5)
        two = plan_placement(self.COSTS, n_shards=3, strategy="random", seed=5)
        other = plan_placement(self.COSTS, n_shards=3, strategy="random", seed=6)
        assert one == two
        assert one != other

    def test_split_isolates_oversized_chunks(self):
        costs = [40.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        plan = plan_placement(costs, n_shards=4, n_replicas=1, strategy="split")
        assert plan.n_split == 1
        split = [p for p in plan.partitions if p.rotate]
        (giant,) = split
        assert giant.chunk_ids == (0,)
        # Spread over min(2 * R, N) holders.
        assert len(giant.replicas) == 2
        # Rotation walks the holders per query so they share the load.
        assert giant.targets(0) != giant.targets(1)
        assert sorted(giant.targets(0)) == sorted(giant.targets(1))
        # Without splitting, the giant chunk pegs one shard.
        greedy = plan_placement(costs, n_shards=4, strategy="greedy")
        assert plan.imbalance < greedy.imbalance

    def test_split_without_oversized_chunks_matches_greedy_bins(self, monkeypatch):
        monkeypatch.setattr(placement, "SPLIT_FACTOR", 1000.0)
        plan = plan_placement(self.COSTS, n_shards=3, strategy="split")
        greedy = plan_placement(self.COSTS, n_shards=3, strategy="greedy")
        assert plan.n_split == 0
        assert [p.chunk_ids for p in plan.partitions] == [
            p.chunk_ids for p in greedy.partitions
        ]

    def test_replica_rings_wrap(self):
        plan = plan_placement(self.COSTS, n_shards=3, n_replicas=2)
        for partition in plan.partitions:
            primary = partition.replicas[0]
            assert partition.replicas[1] == (primary + 1) % 3

    def test_report_is_json_ready(self):
        import json

        plan = plan_placement(self.COSTS, n_shards=3, n_replicas=2)
        report = plan.report()
        json.dumps(report)
        assert report["n_shards"] == 3
        assert report["imbalance"] == plan.imbalance
        assert len(report["primary_costs"]) == 3

    def test_stored_cost_counts_every_replica(self):
        plan = plan_placement([2.0, 2.0], n_shards=2, n_replicas=2)
        assert sum(plan.stored_costs()) == pytest.approx(
            2.0 * sum(plan.primary_costs())
        )


class TestCostEstimates:
    def test_costs_scale_with_chunk_size(self, small_synthetic):
        n = len(small_synthetic)
        groups = [range(0, n - 200), range(n - 200, n - 100), range(n - 100, n)]
        chunk_set = ChunkSet(
            small_synthetic,
            [Chunk.from_rows(small_synthetic, g) for g in groups],
        )
        index = build_chunk_index(small_synthetic, chunk_set, name="skewed")
        costs = estimate_chunk_costs(index, PAPER_2005_COST_MODEL)
        assert costs.shape == (3,)
        assert np.all(costs > 0.0)
        assert costs[0] > costs[1]


class TestPartitionIndex:
    @pytest.fixture()
    def index(self, tiny_collection):
        groups = [range(0, 20), range(20, 40), range(40, 60)]
        chunk_set = ChunkSet(
            tiny_collection,
            [Chunk.from_rows(tiny_collection, g) for g in groups],
        )
        return build_chunk_index(tiny_collection, chunk_set, name="base")

    def test_contents_and_renumbering(self, index):
        sub = build_partition_index(index, [2, 0], name="p0")
        assert sub.n_chunks == 2
        assert [meta.chunk_id for meta in sub.metas] == [0, 1]
        ids, vectors = sub.read_chunk(0)
        ref_ids, ref_vectors = index.read_chunk(2)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(vectors, ref_vectors)
        # Page offsets recompacted, extents preserved.
        assert sub.metas[0].page_offset == 0
        assert sub.metas[1].page_offset == sub.metas[0].page_count
        assert sub.metas[0].page_count == index.metas[2].page_count
        # Everything else — summary, rectangle, counts — is the source's.
        for local, source in zip(sub.metas, (index.metas[2], index.metas[0])):
            for field in dataclasses.fields(source):
                if field.name not in ("chunk_id", "page_offset"):
                    np.testing.assert_array_equal(
                        getattr(local, field.name), getattr(source, field.name)
                    )

    def test_empty_partition_rejected(self, index):
        with pytest.raises(ValueError, match="at least one chunk"):
            build_partition_index(index, [])
