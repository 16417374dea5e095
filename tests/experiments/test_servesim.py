"""Tests for the service simulation sweep experiment."""

import json

import pytest

from repro.cli import main
from repro.experiments import servesim

SWEEP_ARGS = dict(
    family="SR",
    size_class="SMALL",
    workload_name="DQ",
    load_factors=(0.5, 4.0),
    fault_rates=(0.0, 0.3),
    seed=7,
)


class TestSweep:
    @pytest.fixture(scope="class")
    def grid(self, experiment_data):
        return servesim.sweep(experiment_data, **SWEEP_ARGS)

    def test_one_row_per_cell_in_grid_order(self, grid):
        coords = [(row["fault_rate"], row["load_factor"]) for row in grid.rows]
        assert coords == [
            (fault, load) for fault in (0.0, 0.3) for load in (0.5, 4.0)
        ]

    def test_calibration_meta_is_consistent(self, grid):
        meta = grid.meta
        mean = meta["mean_service_s"]
        assert meta["capacity_qps"] == meta["n_workers"] / mean
        assert meta["deadline_s"] == servesim.DEADLINE_FACTOR * mean
        assert meta["target_p99_s"] == servesim.TARGET_FACTOR * mean

    def test_overload_sheds_and_faults_cost_recall(self, grid):
        by_cell = {
            (row["fault_rate"], row["load_factor"]): row for row in grid.rows
        }
        clean_light, clean_heavy = by_cell[(0.0, 0.5)], by_cell[(0.0, 4.0)]
        assert clean_light["shed_fraction"] == 0.0
        assert clean_heavy["shed_fraction"] > clean_light["shed_fraction"]
        faulty_light = by_cell[(0.3, 0.5)]
        assert faulty_light["degraded_fraction"] > 0.0
        assert faulty_light["mean_recall"] < clean_light["mean_recall"]
        assert faulty_light["breaker_opens"] > 0
        assert clean_light["breaker_opens"] == 0

    def test_breaker_transitions_ride_along_in_every_row(self, grid):
        """The full state-machine tallies (open, half-open, close) are
        part of the JSON contract, not just the open count."""
        for row in grid.rows:
            assert row["breaker_half_opens"] >= 0
            assert row["breaker_closes"] >= 0
            assert row["breaker_opens"] >= row["breaker_half_opens"]
            assert row["breaker_half_opens"] >= row["breaker_closes"]
        clean = {
            (rate, load): row
            for (rate, load), row in (
                ((row["fault_rate"], row["load_factor"]), row)
                for row in grid.rows
            )
            if rate == 0.0
        }
        for row in clean.values():
            assert row["breaker_half_opens"] == row["breaker_closes"] == 0

    def test_sweep_is_deterministic(self, experiment_data, grid):
        again = servesim.sweep(experiment_data, **SWEEP_ARGS)
        assert again.rows == grid.rows
        assert again.meta == grid.meta

    def test_report_is_json_serializable_and_renders(self, grid):
        payload = grid.to_report()
        assert payload["experiment"] == "servesim"
        assert payload["rows"] == grid.rows
        json.dumps(payload)  # must be JSON-serializable as-is
        rendered = grid.render()
        assert "fault_rate" in rendered and "calibration" in rendered

    def test_checkpoint_resume_reproduces_rows(
        self, experiment_data, tmp_path, grid
    ):
        path = tmp_path / "servesim.ckpt.json"
        first = servesim.sweep(
            experiment_data, checkpoint_path=path, **SWEEP_ARGS
        )
        resumed = servesim.sweep(
            experiment_data, checkpoint_path=path, **SWEEP_ARGS
        )
        assert resumed.rows == first.rows == grid.rows

    def test_empty_grids_rejected(self, experiment_data):
        with pytest.raises(ValueError, match="at least one"):
            servesim.sweep(experiment_data, load_factors=())
        with pytest.raises(ValueError, match="at least one"):
            servesim.sweep(experiment_data, fault_rates=())
        with pytest.raises(ValueError, match="positive"):
            servesim.sweep(experiment_data, load_factors=(0.0,))

    def test_registered_as_experiment(self):
        from repro.cli import EXPERIMENT_RUNNERS

        assert EXPERIMENT_RUNNERS["servesim"] is servesim.sweep


class TestCli:
    def test_servesim_json_reports_identical(
        self, tmp_path, capsys, experiment_data
    ):
        # experiment_data pre-warms the TEST-scale cache; two invocations
        # must produce byte-identical reports (the CI smoke contract).
        args = [
            "servesim",
            "--scale",
            "test",
            "--seed",
            "7",
            "--loads",
            "0.5,2",
            "--fault-rates",
            "0",
            "--size-class",
            "SMALL",
        ]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(args + ["--json", a]) == 0
        assert main(args + ["--json", b]) == 0
        out = capsys.readouterr().out
        assert "fault_rate" in out and "calibration" in out
        assert open(a, "rb").read() == open(b, "rb").read()
        payload = json.loads(open(a).read())
        assert payload["meta"]["seed"] == 7
        assert payload["meta"]["load_factors"] == [0.5, 2.0]
        assert len(payload["rows"]) == 2

    def test_bad_grids_rejected(self, capsys):
        assert main(["servesim", "--scale", "test", "--loads", "0"]) == 2
        assert "positive" in capsys.readouterr().err
        assert main(["servesim", "--scale", "test", "--fault-rates", "0.9"]) == 2
        assert "fault-rates" in capsys.readouterr().err
        assert main(["servesim", "--scale", "test", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
