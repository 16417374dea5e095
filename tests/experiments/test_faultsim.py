"""Tests for the fault-injection sweep experiment."""

import json

import pytest

from repro.cli import main
from repro.experiments import faultsim


class TestSweep:
    @pytest.fixture(scope="class")
    def figure(self, experiment_data):
        return faultsim.sweep(
            experiment_data,
            family="SR",
            size_class="SMALL",
            workload_name="DQ",
            rates=(0.0, 0.3),
            seed=7,
        )

    def test_zero_rate_point_is_clean(self, figure):
        assert figure.x_values[0] == 0.0
        assert figure.series["recall"][0] == pytest.approx(1.0)
        assert figure.series["coverage"][0] == pytest.approx(1.0)
        assert figure.series["degraded_fraction"][0] == 0.0
        assert figure.series["chunks_skipped"][0] == 0.0

    def test_faults_degrade_quality_and_cost_time(self, figure):
        assert figure.series["coverage"][1] < 1.0
        assert figure.series["degraded_fraction"][1] > 0.0
        assert figure.series["chunks_skipped"][1] > 0.0
        # Retries, backoff and spikes make degraded runs slower.
        assert figure.series["elapsed_ms"][1] > figure.series["elapsed_ms"][0]
        # Quality can only be lost relative to the clean run.
        assert figure.series["recall"][1] <= figure.series["recall"][0]

    def test_sweep_is_deterministic(self, experiment_data, figure):
        again = faultsim.sweep(
            experiment_data,
            family="SR",
            size_class="SMALL",
            workload_name="DQ",
            rates=(0.0, 0.3),
            seed=7,
        )
        assert again.series == figure.series

    def test_report_wraps_figure(self, figure):
        payload = figure.to_report()
        assert payload["experiment"] == "faultsim"
        assert payload["fault_rates"] == [0.0, 0.3]
        assert payload["series"] == figure.series
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_empty_rates_rejected(self, experiment_data):
        with pytest.raises(ValueError, match="rate"):
            faultsim.sweep(experiment_data, rates=())

    def test_registered_as_experiment(self):
        from repro.cli import EXPERIMENT_RUNNERS

        assert EXPERIMENT_RUNNERS["faultsim"] is faultsim.sweep


class TestCli:
    def test_faultsim_json_reports_identical(
        self, tmp_path, capsys, experiment_data
    ):
        # experiment_data pre-warms the TEST-scale cache; two invocations
        # must produce byte-identical reports (the CI smoke contract).
        args = [
            "faultsim",
            "--scale",
            "test",
            "--seed",
            "7",
            "--rates",
            "0.0,0.2",
            "--size-class",
            "SMALL",
        ]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(args + ["--json", a]) == 0
        assert main(args + ["--json", b]) == 0
        out = capsys.readouterr().out
        assert "fault_rate" in out
        assert open(a, "rb").read() == open(b, "rb").read()
        payload = json.loads(open(a).read())
        assert payload["seed"] == 7
        assert payload["fault_rates"] == [0.0, 0.2]

    def test_bad_rates_rejected(self, capsys):
        assert main(["faultsim", "--scale", "test", "--rates", "0.9"]) == 2
        assert "rate" in capsys.readouterr().err
