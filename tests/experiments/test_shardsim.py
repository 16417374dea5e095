"""Tests for the sharded-serving sweep experiment."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import build_chunk_index
from repro.core.search import ChunkSearcher
from repro.experiments import shardsim
from repro.service.sharding import (
    ShardServiceConfig,
    ShardedQueryService,
    coordinator,
    estimate_chunk_costs,
    plan_placement,
)
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.workloads.synthetic import SyntheticImageConfig, generate_collection

SWEEP_ARGS = dict(
    family="BAG",
    size_class="SMALL",
    workload_name="DQ",
    placements=("greedy", "round_robin"),
    shard_counts=(4, 16),
    fault_rates=(0.0, 0.2),
    load_factor=8.0,
    seed=7,
)


class TestSweep:
    @pytest.fixture(scope="class")
    def grid(self, experiment_data):
        return shardsim.sweep(experiment_data, **SWEEP_ARGS)

    def test_one_row_per_cell_in_grid_order(self, grid):
        coords = [
            (row["placement"], row["n_shards"], row["fault_rate"])
            for row in grid.rows
        ]
        assert coords == [
            (placement, shards, fault)
            for placement in ("greedy", "round_robin")
            for shards in (4, 16)
            for fault in (0.0, 0.2)
        ]

    def test_calibration_meta_is_consistent(self, grid):
        meta = grid.meta
        assert meta["arrival_rate_qps"] == (
            meta["load_factor"] / meta["mean_service_s"]
        )
        assert meta["deadline_s"] == pytest.approx(
            4.0 * meta["mean_service_s"]
        )

    def test_parallelism_buys_the_tail_down(self, grid):
        """At 8x a single node's load, 4 single-worker shards are
        oversaturated and 16 are not: p99 must fall and the ok fraction
        must rise with the shard count."""
        by_cell = {
            (row["placement"], row["n_shards"], row["fault_rate"]): row
            for row in grid.rows
        }
        tight = by_cell[("greedy", 4, 0.0)]
        roomy = by_cell[("greedy", 16, 0.0)]
        assert roomy["p50_ms"] < tight["p50_ms"]
        assert roomy["ok_fraction"] > tight["ok_fraction"]
        assert roomy["deadline_fraction"] < tight["deadline_fraction"]
        assert roomy["mean_coverage"] > 0.95
        assert roomy["mean_recall"] == 1.0

    def test_faults_cost_coverage_honestly(self, grid):
        by_cell = {
            (row["placement"], row["n_shards"], row["fault_rate"]): row
            for row in grid.rows
        }
        clean = by_cell[("greedy", 16, 0.0)]
        faulty = by_cell[("greedy", 16, 0.2)]
        assert faulty["mean_coverage"] < clean["mean_coverage"]
        assert faulty["mean_recall"] < clean["mean_recall"]
        assert (
            faulty["lost_partitions"] > 0 or faulty["deadline_fraction"] > 0
        )
        assert faulty["failovers"] > 0
        # Breaker transition columns ride along in every row.
        for row in grid.rows:
            assert row["breaker_half_opens"] >= 0
            assert row["breaker_closes"] >= 0
            assert row["breaker_opens"] >= row["breaker_half_opens"]

    def test_sweep_is_deterministic(self, experiment_data, grid):
        again = shardsim.sweep(experiment_data, **SWEEP_ARGS)
        assert again.rows == grid.rows
        assert again.meta == grid.meta

    def test_report_is_json_serializable_and_renders(self, grid):
        payload = grid.to_report()
        assert payload["experiment"] == "shardsim"
        assert payload["rows"] == grid.rows
        json.dumps(payload)
        rendered = grid.render()
        assert "placement" in rendered and "calibration" in rendered

    def test_checkpoint_resume_reproduces_rows(
        self, experiment_data, tmp_path, grid
    ):
        path = tmp_path / "shardsim.ckpt.json"
        first = shardsim.sweep(
            experiment_data, checkpoint_path=path, **SWEEP_ARGS
        )
        resumed = shardsim.sweep(
            experiment_data, checkpoint_path=path, **SWEEP_ARGS
        )
        assert resumed.rows == first.rows == grid.rows

    def test_bad_grids_rejected(self, experiment_data):
        with pytest.raises(ValueError, match="at least one"):
            shardsim.sweep(experiment_data, placements=())
        with pytest.raises(ValueError, match="unknown placement"):
            shardsim.sweep(experiment_data, placements=("astrology",))
        with pytest.raises(ValueError, match="positive"):
            shardsim.sweep(experiment_data, shard_counts=(0,))
        with pytest.raises(ValueError, match="positive"):
            shardsim.sweep(experiment_data, load_factor=0.0)

    def test_registered_as_experiment(self):
        from repro.cli import EXPERIMENT_RUNNERS

        assert EXPERIMENT_RUNNERS["shardsim"] is shardsim.sweep


class TestPlacementBeatsRoundRobin:
    """The acceptance criterion: on a skewed chunking at 8x load, the
    cost-aware greedy placement beats round-robin on p99."""

    @pytest.fixture(scope="class")
    def skewed(self):
        collection = generate_collection(
            SyntheticImageConfig(
                n_images=128,
                mean_descriptors_per_image=96,
                n_patterns=40,
                patterns_per_image=4,
                seed=11,
            )
        )
        n = len(collection)
        quarter = n // 4
        small = np.linspace(2 * quarter, n, 13, dtype=int)
        groups = [range(0, quarter), range(quarter, 2 * quarter)] + [
            range(small[i], small[i + 1]) for i in range(12)
        ]
        chunk_set = ChunkSet(
            collection, [Chunk.from_rows(collection, g) for g in groups]
        )
        index = build_chunk_index(collection, chunk_set, name="skewed")
        queries = collection.vectors[::300][:20].astype(np.float64)
        mean_s = (
            ChunkSearcher(index, cost_model=PAPER_2005_COST_MODEL)
            .search_batch(queries, k=10)
            .mean_elapsed_s
        )
        return index, np.tile(queries, (3, 1)), mean_s

    def run_placement(self, skewed, strategy):
        index, queries, mean_s = skewed
        costs = estimate_chunk_costs(index, PAPER_2005_COST_MODEL)
        plan = plan_placement(
            costs, n_shards=4, n_replicas=2, strategy=strategy
        )
        config = ShardServiceConfig(
            workers_per_shard=2,
            deadline_s=4.0 * mean_s,
            arrival_rate_qps=8.0 / mean_s,
            seed=5,
            k=10,
        )
        service = ShardedQueryService(
            index, plan, config, cost_model=PAPER_2005_COST_MODEL
        )
        try:
            return plan, service.run(queries)
        finally:
            service.close()

    def test_greedy_beats_round_robin_on_p99_at_8x_load(self, skewed, monkeypatch):
        # 60 queries at 8x load: with room for 256 in flight none is shed.
        monkeypatch.setattr(coordinator, "MAX_IN_FLIGHT", 256)
        greedy_plan, greedy = self.run_placement(skewed, "greedy")
        naive_plan, naive = self.run_placement(skewed, "round_robin")
        assert greedy_plan.imbalance < naive_plan.imbalance
        assert greedy.stats.p99_s < naive.stats.p99_s
        assert greedy.stats.ok_fraction >= naive.stats.ok_fraction


class TestCli:
    def test_shardsim_json_reports_identical(
        self, tmp_path, capsys, experiment_data
    ):
        # experiment_data pre-warms the TEST-scale cache; two invocations
        # must produce byte-identical reports (the CI smoke contract).
        args = [
            "shardsim",
            "--scale",
            "test",
            "--seed",
            "7",
            "--placements",
            "greedy,round_robin",
            "--shards",
            "4",
            "--fault-rates",
            "0,0.2",
            "--size-class",
            "SMALL",
        ]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(args + ["--json", a]) == 0
        assert main(args + ["--json", b]) == 0
        out = capsys.readouterr().out
        assert "placement" in out and "calibration" in out
        assert open(a, "rb").read() == open(b, "rb").read()
        payload = json.loads(open(a).read())
        assert payload["meta"]["seed"] == 7
        assert payload["meta"]["shard_counts"] == [4]
        assert len(payload["rows"]) == 4

    def test_bad_arguments_rejected(self, capsys):
        assert main(["shardsim", "--scale", "test", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(["shardsim", "--scale", "test", "--load", "0"]) == 2
        assert "--load" in capsys.readouterr().err
        assert main(["shardsim", "--scale", "test", "--replicas", "0"]) == 2
        assert "--replicas" in capsys.readouterr().err
        assert main(
            ["shardsim", "--scale", "test", "--placements", "astrology"]
        ) == 2
        assert "placement" in capsys.readouterr().err
