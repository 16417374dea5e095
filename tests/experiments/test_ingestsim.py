"""Tests for the streaming-ingest watch-mode experiment."""

from __future__ import annotations

import json

import pytest

from repro.experiments import ingestsim
from repro.experiments.config import get_scale
from repro.storage import atomic


SMALL = ingestsim.IngestSimConfig(steps=3, n_crashes=1)


@pytest.fixture(autouse=True)
def small_batches(monkeypatch):
    """Smaller WAL batches, fewer queries and smaller leaves than the
    CLI's, so a short run has many batches and stays quick."""
    monkeypatch.setattr(ingestsim, "BATCH_OPS", 16)
    monkeypatch.setattr(ingestsim, "QUERIES_PER_STEP", 4)
    monkeypatch.setattr(ingestsim, "LEAF_CAPACITY", 32)


@pytest.fixture(scope="module")
def scale():
    return get_scale("test")


class TestSimulate:
    def test_report_is_deterministic(self, scale, tmp_path):
        first = ingestsim.simulate(
            scale, str(tmp_path / "a"), seed=71, config=SMALL
        )
        second = ingestsim.simulate(
            scale, str(tmp_path / "b"), seed=71, config=SMALL
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seeds_differ(self, scale, tmp_path):
        first = ingestsim.simulate(
            scale, str(tmp_path / "a"), seed=71, config=SMALL
        )
        second = ingestsim.simulate(
            scale, str(tmp_path / "b"), seed=72, config=SMALL
        )
        assert json.dumps(first, sort_keys=True) != json.dumps(
            second, sort_keys=True
        )

    def test_growth_and_recovery_accounting(self, scale, tmp_path):
        report = ingestsim.simulate(
            scale, str(tmp_path / "run"), seed=71, config=SMALL
        )
        assert report["experiment"] == "ingestsim"
        assert report["final_verify_ok"] is True
        assert report["verifications_failed"] == 0
        assert report["crashes_injected"] == 1
        assert len(report["series"]) == SMALL.steps
        fractions = [row["fraction"] for row in report["series"]]
        assert fractions == sorted(fractions)
        assert report["series"][-1]["fraction"] == 1.0
        counts = [row["n_descriptors"] for row in report["series"]]
        assert counts == sorted(counts)  # deletes < inserts per step
        assert all(0.0 <= row["recall"] <= 1.0 for row in report["series"])
        assert report["total_ingest_io_s"] > 0.0
        # The report must be a pure function of (scale, seed, config):
        # no absolute paths or timestamps allowed.
        text = json.dumps(report)
        assert str(tmp_path) not in text

    def test_crash_free_run_has_no_recoveries(self, scale, tmp_path):
        quiet = ingestsim.IngestSimConfig(steps=2, n_crashes=0)
        report = ingestsim.simulate(
            scale, str(tmp_path / "run"), seed=5, config=quiet
        )
        assert report["crashes_injected"] == 0
        assert report["unacked_batches_replayed"] == 0
        assert all(row["recoveries"] == 0 for row in report["series"])

    def test_a_failing_run_uninstalls_the_recorder(self, scale, tmp_path, monkeypatch):
        installed = []

        def fail(*args):
            installed.append(atomic._recorder is not None)
            raise RuntimeError("planted failure")

        monkeypatch.setattr(ingestsim, "insert_op", fail)  # the first mutation
        with pytest.raises(RuntimeError, match="planted failure"):
            ingestsim.simulate(scale, str(tmp_path / "run"), seed=71, config=SMALL)
        assert installed == [True]  # the run failed while recording
        assert atomic._recorder is None


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ingestsim.IngestSimConfig(steps=0)
        with pytest.raises(ValueError):
            ingestsim.IngestSimConfig(n_crashes=-1)


class TestCrashMatrix:
    @pytest.fixture(autouse=True)
    def extremes_only(self, monkeypatch):
        """Two states per barrier: nothing un-fsynced kept, everything kept."""
        monkeypatch.setattr(ingestsim, "STATES_PER_INTERVAL", 2)

    def test_selected_points_all_recover(self, scale, tmp_path):
        report = ingestsim.crash_matrix(
            scale, str(tmp_path / "matrix"), seed=11, n_points=4
        )
        assert report["all_ok"] is True
        assert len(report["results"]) == 4
        assert report["uncrashed_verify_ok"] is True
        for row in report["results"]:
            assert row["problem"] is None
            assert 0 < row["n_descriptors"] <= report["uncrashed_n_descriptors"]

    def test_every_boundary_recovers(self, scale, tmp_path):
        report = ingestsim.crash_matrix(scale, str(tmp_path / "matrix"), seed=11)
        assert report["all_ok"] is True
        assert len(report["results"]) == report["n_states"]
        # 3 batches + 4 checkpoint + 5 rebuild barriers + the end of the
        # log, whatever number of chunks the checkpoint found dirty; each
        # has more than two states, so both extremes are taken.
        assert report["n_crash_points"] == 13
        assert report["n_states"] == 2 * 13
        positions = [row["position"] for row in report["results"]]
        assert positions == sorted(positions)
        assert len(set(positions)) == 13

    def test_matrix_is_deterministic(self, scale, tmp_path):
        first = ingestsim.crash_matrix(
            scale, str(tmp_path / "a"), seed=11, n_points=3
        )
        second = ingestsim.crash_matrix(
            scale, str(tmp_path / "b"), seed=11, n_points=3
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
