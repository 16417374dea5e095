"""Tests for the checksummed write-ahead log.

The torn-tail test is the durability centerpiece: a log cut short at
*every* byte boundary of its final record must recover exactly the
committed prefix — never a partial batch, never a lost acknowledged one.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.faults.crash_states import InjectedCrash, record
from repro.storage.errors import CorruptFileError
from repro.storage.wal import (
    WalWriter,
    delete_op,
    insert_op,
    scan_wal,
    truncate_wal,
)

DIMS = 4


def _vec(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(DIMS).astype(np.float32)


def _write_two_batches(path: str) -> tuple[list, list]:
    """A log with two committed batches; returns their op lists."""
    first = [insert_op(1, _vec(1)), insert_op(2, _vec(2)), delete_op(1)]
    second = [insert_op(3, _vec(3)), delete_op(2)]
    with WalWriter.create(path, DIMS, tag=5, next_batch_seq=10) as writer:
        assert writer.append_batch(first) == 10
        assert writer.append_batch(second) == 11
    return first, second


def _assert_ops_equal(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.kind == w.kind
        assert g.descriptor_id == w.descriptor_id
        if w.vector is None:
            assert g.vector is None
        else:
            assert g.vector.dtype == np.float32
            np.testing.assert_array_equal(g.vector, w.vector)


class TestRoundTrip:
    def test_commit_and_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        first, second = _write_two_batches(path)
        scan = scan_wal(path)
        assert scan.dimensions == DIMS
        assert scan.tag == 5
        assert [b.batch_seq for b in scan.batches] == [10, 11]
        _assert_ops_equal(scan.batches[0].ops, first)
        _assert_ops_equal(scan.batches[1].ops, second)
        assert scan.valid_bytes == scan.total_bytes
        assert scan.torn_bytes == 0
        assert scan.discarded_ops == 0

    def test_empty_log_scans_clean(self, tmp_path):
        path = str(tmp_path / "wal.log")
        WalWriter.create(path, DIMS, tag=3).close()
        scan = scan_wal(path)
        assert scan.batches == ()
        assert scan.tag == 3
        assert scan.torn_bytes == 0

    def test_bytes_written_matches_file_size(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WalWriter.create(path, DIMS) as writer:
            writer.append_batch([insert_op(7, _vec(7))])
            written = writer.bytes_written
        assert written == os.path.getsize(path)

    def test_empty_batch_rejected(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WalWriter.create(path, DIMS) as writer:
            with pytest.raises(ValueError, match="at least one operation"):
                writer.append_batch([])

    def test_insert_dimension_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WalWriter.create(path, DIMS) as writer:
            bad = insert_op(1, np.zeros(DIMS + 1, dtype=np.float32))
            with pytest.raises(ValueError, match="dims"):
                writer.append_batch([bad])


class TestTornTail:
    def test_truncation_at_every_byte_of_final_record(self, tmp_path):
        """Cut the log at every byte boundary of its last batch.

        Whatever the cut point, recovery keeps exactly the first
        (committed) batch and reports everything after its commit marker
        as the discarded suffix — until the very last byte of the second
        batch's commit marker is present, at which point the second
        batch is committed too.
        """
        path = str(tmp_path / "wal.log")
        first, second = _write_two_batches(path)
        total = scan_wal(path).total_bytes
        header_cuts = 0
        for cut in range(total + 1):
            probe = str(tmp_path / "probe.log")
            shutil.copyfile(path, probe)
            with open(probe, "r+b") as stream:
                stream.truncate(cut)
            try:
                scan = scan_wal(probe)
            except CorruptFileError:
                header_cuts += 1  # cuts inside the header: nothing to recover
                continue
            if cut < total:
                assert len(scan.batches) <= 1
            else:
                assert len(scan.batches) == 2
            if scan.batches:
                assert scan.batches[0].batch_seq == 10
                _assert_ops_equal(scan.batches[0].ops, first)
            # The recovery point never moves past a commit marker that
            # is not fully on disk:
            assert scan.valid_bytes <= cut
            assert scan.torn_bytes == cut - scan.valid_bytes
            # Truncating to the recovery point yields a clean log whose
            # content is exactly the committed prefix.
            removed = truncate_wal(probe, scan)
            assert removed == scan.torn_bytes
            rescan = scan_wal(probe)
            assert rescan.torn_bytes == 0
            assert rescan.valid_bytes == scan.valid_bytes
            assert [b.batch_seq for b in rescan.batches] == [
                b.batch_seq for b in scan.batches
            ]
        assert header_cuts == 24  # struct("<8sIIQ").size short-header cuts

    def test_uncommitted_ops_counted(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_two_batches(path)
        one_batch = scan_wal(path)
        # Cut immediately before the second batch's commit marker: its
        # operation frames are intact but unsealed.
        probe = str(tmp_path / "probe.log")
        shutil.copyfile(path, probe)
        commit_frame_bytes = None
        for cut in range(one_batch.total_bytes - 1, 0, -1):
            with open(probe, "r+b") as stream:
                stream.truncate(cut)
            scan = scan_wal(probe)
            if scan.discarded_ops == 2:
                commit_frame_bytes = cut
                assert len(scan.batches) == 1
                break
        assert commit_frame_bytes is not None


class TestCorruption:
    def test_short_header(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as stream:
            stream.write(b"EFF2")
        with pytest.raises(CorruptFileError, match="too short"):
            scan_wal(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "wal.log")
        WalWriter.create(path, DIMS).close()
        with open(path, "r+b") as stream:
            stream.write(b"XXXXXXXX")
        with pytest.raises(CorruptFileError, match="magic"):
            scan_wal(path)

    def test_flipped_payload_byte_stops_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_two_batches(path)
        total = scan_wal(path).valid_bytes  # full file is committed
        with open(path, "r+b") as stream:
            stream.seek(32)  # inside the first operation's payload
            byte = stream.read(1)
            stream.seek(32)
            stream.write(bytes([byte[0] ^ 0xFF]))
        scan = scan_wal(path)
        # The corruption lands before the first commit marker, so no
        # batch survives and the recovery point is the header.
        assert scan.batches == ()
        assert scan.valid_bytes < total
        assert scan.torn_bytes > 0


class TestResume:
    def test_resume_requires_truncated_file(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_two_batches(path)
        scan = scan_wal(path)
        with open(path, "ab") as stream:
            stream.write(b"\x00" * 7)  # torn garbage
        torn_scan = scan_wal(path)
        with pytest.raises(ValueError, match="truncated"):
            WalWriter.resume(path, torn_scan)
        truncate_wal(path, torn_scan)
        writer = WalWriter.resume(path, scan_wal(path))
        assert writer.next_batch_seq == scan.batches[-1].batch_seq + 1
        writer.close()

    def test_resume_continues_sequence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_two_batches(path)
        with WalWriter.resume(path, scan_wal(path)) as writer:
            seq = writer.append_batch([delete_op(3)])
        assert seq == 12
        scan = scan_wal(path)
        assert [b.batch_seq for b in scan.batches] == [10, 11, 12]


class TestCrashSites:
    #: A fresh log's create, header write and fsync, then a batch's frames.
    FRAMES_WRITTEN = 4

    def test_append_logs_frames_commit_and_one_fsync(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with record(str(tmp_path), None) as recording:
            with WalWriter.create(path, DIMS) as writer:
                writer.append_batch([insert_op(1, _vec(1)), delete_op(1)])
        assert [op.kind for op in recording.ops] == [
            "create", "write", "fsync", "write", "write", "fsync"
        ]

    def test_crash_before_commit_loses_batch(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with record(str(tmp_path), self.FRAMES_WRITTEN):
            writer = WalWriter.create(path, DIMS)
            with pytest.raises(InjectedCrash):
                writer.append_batch([insert_op(1, _vec(1))])
        writer.close()
        scan = scan_wal(path)
        assert scan.batches == ()
        assert scan.discarded_ops == 1

    def test_crash_after_commit_keeps_batch_unacknowledged(self, tmp_path):
        # The commit marker reached the OS before the kill, not the disk:
        # every state the disk may hold recovers the batch whole or not at
        # all — the allowed "unacknowledged" outcomes, never a hybrid.  No
        # directory fsync made the log's creation durable: it may be gone.
        path = str(tmp_path / "wal.log")
        with record(str(tmp_path), self.FRAMES_WRITTEN + 1) as recording:
            writer = WalWriter.create(path, DIMS)
            with pytest.raises(InjectedCrash):
                writer.append_batch([insert_op(1, _vec(1)), delete_op(9)])
        writer.close()
        assert len(scan_wal(path).batches[0].ops) == 2  # the page cache holds it
        outcomes = set()
        for state in recording.states_at(len(recording.ops), None, seed=0):
            target = tmp_path / f"state-{state.index}"
            target.mkdir()
            recording.materialise(state, str(target))
            if not (target / "wal.log").exists():
                outcomes.add(None)
                continue
            batches = scan_wal(str(target / "wal.log")).batches
            outcomes.add(tuple(len(batch.ops) for batch in batches))
        assert outcomes == {None, (), (2,)}
