"""Tests for sweep checkpointing: atomic persistence and mid-run resume.

The headline test kills a fault sweep midway (the second point's
``FaultPlan.balanced`` raises), then resumes against the checkpoint and
proves the surviving point is read back instead of recomputed — with
series bit-identical to an uninterrupted run.
"""

import json

import pytest

from repro.experiments import faultsim
from repro.experiments.checkpoint import SweepCheckpoint

META = {"experiment": "unit-test", "seed": 7, "grid": (1, 2)}


def refuse():
    raise AssertionError("a stored point must not be recomputed")


class TestSweepCheckpoint:
    def test_round_trip_through_json(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "c.json", META)
        ckpt.put("p", {"x": 1.5, "grid": (3, 4)})
        # Values live in the serialized domain from the moment of put:
        # tuples become lists, floats stay bit-identical.
        assert ckpt.point("p", refuse) == {"x": 1.5, "grid": [3, 4]}

    def test_reopen_resumes_stored_points(self, tmp_path):
        path = tmp_path / "c.json"
        first = SweepCheckpoint(path, META)
        first.put("a", 1.0)
        first.put("b", [2.0, 3.0])
        reopened = SweepCheckpoint(path, META)
        assert reopened.point("a", refuse) == 1.0
        assert reopened.point("b", refuse) == [2.0, 3.0]

    def test_meta_mismatch_starts_empty(self, tmp_path):
        path = tmp_path / "c.json"
        SweepCheckpoint(path, META).put("a", 1.0)
        other = SweepCheckpoint(path, {**META, "seed": 8})
        assert other.point("a", lambda: 5.0) == 5.0
        # The first put replaced the stale file wholesale.
        assert json.loads(path.read_text())["points"] == {"a": 5.0}

    def test_unknown_format_is_ignored(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"format": "something-else", "points": {"a": 1}}))
        assert SweepCheckpoint(path, META).point("a", lambda: 2) == 2

    def test_file_is_plain_sorted_json(self, tmp_path):
        path = tmp_path / "c.json"
        SweepCheckpoint(path, META).put("a", {"v": 1})
        stored = json.loads(path.read_text())
        assert stored["format"] == "repro-sweep-checkpoint-v1"
        assert stored["meta"] == json.loads(json.dumps(META))
        assert stored["points"] == {"a": {"v": 1}}
        assert path.read_text() == json.dumps(stored, sort_keys=True, indent=2)


class TestPoint:
    @pytest.mark.parametrize("on_disk", [False, True])
    def test_computes_once_per_key_and_round_trips(self, tmp_path, on_disk):
        path = tmp_path / "c.json" if on_disk else None
        ckpt = SweepCheckpoint(path, META)
        calls = []

        def compute():
            calls.append(1)
            return {"x": 0.1 + 0.2, "grid": (3, 4), "n": 7}

        first = ckpt.point("p", compute)
        # In memory or on disk, the caller continues with the serialized
        # value: tuples are lists, floats bit-identical, ints still ints.
        assert first == {"x": 0.1 + 0.2, "grid": [3, 4], "n": 7}
        assert type(first["n"]) is int
        assert ckpt.point("p", compute) == first
        assert len(calls) == 1
        ckpt.point("q", compute)
        assert len(calls) == 2
        if on_disk:
            assert SweepCheckpoint(path, META).point("p", compute) == first
            assert len(calls) == 2  # resumed, not recomputed

    def test_in_memory_checkpoint_touches_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ckpt = SweepCheckpoint(None, META)
        assert ckpt.path is None
        ckpt.put("a", 1.0)
        assert ckpt.point("a", refuse) == 1.0
        assert list(tmp_path.iterdir()) == []


RATES = (0.0, 0.2)
SWEEP_ARGS = dict(family="SR", size_class="SMALL", workload_name="DQ", seed=7)


@pytest.fixture(scope="module")
def fresh_sweep(experiment_data):
    """An uninterrupted, checkpoint-free run — the ground truth."""
    return faultsim.sweep(experiment_data, rates=RATES, **SWEEP_ARGS)


class TestFaultsimKillMidway:
    def test_kill_resume_matches_uninterrupted_run(
        self, experiment_data, tmp_path, monkeypatch, fresh_sweep
    ):
        path = tmp_path / "faultsim.ckpt.json"
        real_plan = faultsim.FaultPlan

        class KillOnSecondPoint:
            calls = 0

            @classmethod
            def balanced(cls, rate, seed):
                cls.calls += 1
                if cls.calls == 2:
                    raise RuntimeError("simulated mid-sweep kill")
                return real_plan.balanced(rate, seed=seed)

        monkeypatch.setattr(faultsim, "FaultPlan", KillOnSecondPoint)
        with pytest.raises(RuntimeError, match="mid-sweep kill"):
            faultsim.sweep(
                experiment_data, rates=RATES, checkpoint_path=path, **SWEEP_ARGS
            )
        assert KillOnSecondPoint.calls == 2
        # The completed point was published atomically before the crash.
        assert len(json.loads(path.read_text())["points"]) == 1

        class CountingPlan:
            calls = 0

            @classmethod
            def balanced(cls, rate, seed):
                cls.calls += 1
                return real_plan.balanced(rate, seed=seed)

        monkeypatch.setattr(faultsim, "FaultPlan", CountingPlan)
        resumed = faultsim.sweep(
            experiment_data, rates=RATES, checkpoint_path=path, **SWEEP_ARGS
        )
        assert CountingPlan.calls == 1  # only the killed point is recomputed
        assert resumed.x_values == fresh_sweep.x_values
        assert resumed.series == fresh_sweep.series

        CountingPlan.calls = 0
        again = faultsim.sweep(
            experiment_data, rates=RATES, checkpoint_path=path, **SWEEP_ARGS
        )
        assert CountingPlan.calls == 0  # complete checkpoint: no work at all
        assert again.series == fresh_sweep.series
