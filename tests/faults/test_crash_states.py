"""Tests for the persistence model behind the crash matrices."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.faults.crash_states import InjectedCrash, record, seeded_crash_steps
from repro.storage import atomic
from repro.storage.atomic import (
    atomic_output,
    create_file,
    fsync_directory,
    fsync_file,
    remove_file,
    write_file,
)


def _states(recording, position=None):
    """Every state at ``position`` (default: the end of the log), each as
    ``{name: bytes}``."""
    position = len(recording.ops) if position is None else position
    found = []
    for state in recording.states_at(position, None, seed=0):
        target = tempfile.mkdtemp(dir=os.path.dirname(recording.directory))
        recording.materialise(state, target)
        found.append(
            {
                name: open(os.path.join(target, name), "rb").read()
                for name in sorted(os.listdir(target))
            }
        )
    return found


@pytest.fixture()
def directory(tmp_path):
    path = tmp_path / "d"
    path.mkdir()
    (path / "old").write_bytes(b"snapshot")
    return str(path)


def _create(directory, name, data, sync):
    path = os.path.join(directory, name)
    stream = create_file(path)
    write_file(stream, path, data)
    if sync:
        fsync_file(stream, path)
    stream.close()


class TestSeam:
    def test_nothing_is_recorded_outside_a_recording(self, directory):
        seen = []
        with atomic.recording(seen.append):
            _create(directory, "a", b"x", sync=True)
        _create(directory, "b", b"y", sync=True)
        assert [op.kind for op in seen] == ["create", "write", "fsync"]
        assert atomic._recorder is None

    def test_recorders_do_not_nest(self, directory):
        with record(directory, None):
            with pytest.raises(RuntimeError, match="already installed"):
                with atomic.recording(lambda op: None):
                    pass

    def test_a_stop_raises_once_and_logs_nothing_after(self, directory):
        with record(directory, 2) as recording:
            with pytest.raises(InjectedCrash) as info:
                _create(directory, "a", b"x", sync=True)
            remove_file(os.path.join(directory, "old"))
        assert info.value.position == 2
        assert [op.kind for op in recording.ops] == ["create", "write"]
        with record(directory, 99) as recording:  # a stop past the run
            _create(directory, "b", b"y", sync=True)
        assert len(recording.ops) == 3


class TestModel:
    def test_fsync_and_directory_fsync_make_a_file_durable(self, directory):
        with record(directory, None) as recording:
            _create(directory, "a", b"x" * 1300, sync=True)
            fsync_directory(directory)
        assert _states(recording) == [{"a": b"x" * 1300, "old": b"snapshot"}]

    def test_unsynced_writes_survive_as_a_prefix_torn_at_sectors(self, directory):
        with record(directory, None) as recording:
            path = os.path.join(directory, "a")
            with create_file(path) as stream:
                fsync_directory(directory)
                write_file(stream, path, b"x" * 1300)
                write_file(stream, path, b"y" * 100)
        lengths = [len(state["a"]) for state in _states(recording)]
        assert lengths == [0, 512, 1024, 1300, 1400]

    def test_a_rename_is_durable_only_after_its_directory_fsync(self, directory):
        with record(directory, None) as recording:
            with atomic_output(os.path.join(directory, "old")) as stream:
                stream.write(b"new")
            fsync_directory(directory)
        before_dir_sync = recording.crash_points()[-2]
        contents = {state["old"] for state in _states(recording, before_dir_sync)}
        assert contents == {b"snapshot", b"new"}
        assert [state["old"] for state in _states(recording)] == [b"new"]

    def test_directory_operations_survive_as_a_program_order_prefix(self, directory):
        with record(directory, None) as recording:
            _create(directory, "x", b"1", sync=True)
            _create(directory, "y", b"2", sync=True)
            remove_file(os.path.join(directory, "old"))
        assert [sorted(state) for state in _states(recording)] == [
            ["old"],
            ["old", "x"],
            ["old", "x", "y"],
            ["x", "y"],
        ]

    def test_a_create_over_an_existing_file_truncates_it(self, directory):
        with record(directory, None) as recording:
            _create(directory, "old", b"fresh", sync=True)
        before_fsync = recording.crash_points()[0]
        contents = [state["old"] for state in _states(recording, before_fsync)]
        assert contents == [b"snapshot", b"", b"fresh"]
        assert [state["old"] for state in _states(recording)] == [b"fresh"]

    def test_describe_names_the_position_and_the_losses(self, directory):
        with record(directory, None) as recording:
            _create(directory, "a", b"x" * 600, sync=False)
        # The directory is the fastest digit: state 2 loses the create and
        # keeps the file's first sector.
        state = recording.states_at(len(recording.ops), None, seed=0)[2]
        assert recording.describe(state) == (
            "crash at 2/2 after the last operation; directory ops kept 0/1 "
            "(first lost: link a); a data ops kept 0/1 + 512 B torn"
        )

    def test_beyond_the_cap_both_extremes_and_a_seeded_sample(self, directory):
        with record(directory, None) as recording:
            _create(directory, "a", b"x" * 20 * 512, sync=False)
        end = len(recording.ops)
        everything = recording.states_at(end, None, seed=0)
        assert len(everything) == 2 * 21
        capped = recording.states_at(end, 6, seed=0)
        assert len(capped) == 6
        assert capped[0] == everything[0] and capped[-1] == everything[-1]
        assert capped == recording.states_at(end, 6, seed=0)
        assert capped != recording.states_at(end, 6, seed=1)


class TestSeededSteps:
    def test_deterministic(self):
        first = seeded_crash_steps(42, 30, 6)
        second = seeded_crash_steps(42, 30, 6)
        assert first == second
        assert len(first) == 6

    def test_sorted_unique_in_range(self):
        steps = seeded_crash_steps(7, 50, 12)
        assert list(steps) == sorted(set(steps))
        assert all(0 <= s < 50 for s in steps)

    def test_different_seeds_differ(self):
        assert seeded_crash_steps(1, 100, 10) != seeded_crash_steps(2, 100, 10)

    def test_full_matrix_when_points_cover_steps(self):
        assert seeded_crash_steps(5, 4, 4) == (0, 1, 2, 3)
        assert seeded_crash_steps(5, 4, 99) == (0, 1, 2, 3)

    def test_degenerate_inputs(self):
        assert seeded_crash_steps(5, 0, 3) == ()
        assert seeded_crash_steps(5, 10, 0) == ()
