"""Tests for the crash-safe streaming chunk index.

The crash-matrix class is the acceptance gate: a simulated kill at
*every* WAL/segment/rename boundary of a mixed workload must recover to
a directory that passes the deep checker, and — after resubmitting the
unacknowledged batches, exactly as a client driver would — end in a
state whose searches are bit-identical to the uncrashed run and to a
fresh batch build of the same logical contents, with pruning, routing
and the chunk cache all enabled.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import build_chunk_index
from repro.core.dataset import DescriptorCollection
from repro.core.ingest import (
    MANIFEST_NAME,
    StreamingChunkIndex,
    verify_streaming_index,
)
from repro.core.routing import CentroidRouter
from repro.core.search import ChunkSearcher
from repro.faults.crash_plan import (
    CrashAtStep,
    InjectedCrash,
    RecordingCrashPlan,
)
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import LruChunkCache
from repro.storage.wal import delete_op, insert_op


def _halves(collection):
    """First half -> base index; second half -> streamed arrivals."""
    half = len(collection) // 2
    base = DescriptorCollection(
        vectors=collection.vectors[:half],
        ids=collection.ids[:half],
        image_ids=np.zeros(half, dtype=np.int64),
    )
    return base, collection.ids[half:], collection.vectors[half:]


def _base_index(base):
    chunking = SRTreeChunker(leaf_capacity=8).form_chunks(base)
    return build_chunk_index(chunking.retained, chunking.chunk_set)


def _scenario_actions(rest_ids, rest_vectors):
    """A mixed workload: inserts, deletes, a checkpoint, a rebuild."""
    blocks = np.array_split(np.arange(rest_ids.size), 3)

    def inserts(block):
        return [
            insert_op(int(rest_ids[i]), rest_vectors[i]) for i in block
        ]

    return [
        ("apply", inserts(blocks[0])),
        ("apply", inserts(blocks[1]) + [delete_op(int(rest_ids[blocks[0][0]]))]),
        ("checkpoint", None),
        ("apply", inserts(blocks[2]) + [delete_op(int(rest_ids[blocks[1][0]]))]),
        ("rebuild", None),
        (
            "apply",
            [
                delete_op(int(rest_ids[blocks[2][0]])),
                delete_op(int(rest_ids[blocks[0][1]])),
            ],
        ),
    ]


def _run_actions(index, actions, start=0):
    """Drive ``actions[start:]``; returns the last acknowledged seq."""
    acked = index.last_batch_seq
    for kind, payload in actions[start:]:
        if kind == "apply":
            acked = index.apply(payload)
        elif kind == "checkpoint":
            index.checkpoint(defragment=True)
        else:
            index.rebuild_base()
    return acked


@pytest.fixture()
def populated(tiny_collection, tmp_path):
    """A streaming directory that has lived through the full scenario."""
    base, rest_ids, rest_vectors = _halves(tiny_collection)
    directory = str(tmp_path / "stream")
    with StreamingChunkIndex.create(directory, _base_index(base)) as index:
        _run_actions(index, _scenario_actions(rest_ids, rest_vectors))
        n_final = index.n_descriptors
    return directory, n_final


def _search_all(index, queries, k=5):
    """Batch search with pruning, routing and the chunk cache enabled."""
    model = dataclasses.replace(
        PAPER_2005_COST_MODEL,
        chunk_cache=LruChunkCache(capacity_bytes=1 << 20),
    )
    searcher = ChunkSearcher(
        index,
        cost_model=model,
        prune=True,
        router=CentroidRouter.from_index(index),
    )
    return searcher.search_batch(queries, k=k)


def _assert_searches_identical(got_index, want_index, dimensions):
    """Every observable of every query equal to the bit."""
    rng = np.random.default_rng(97)
    queries = rng.standard_normal((8, dimensions)) * 4.0
    got_batch = _search_all(got_index, queries)
    want_batch = _search_all(want_index, queries)
    assert len(got_batch) == len(want_batch)
    for got, want in zip(got_batch, want_batch):
        np.testing.assert_array_equal(got.neighbor_ids(), want.neighbor_ids())
        assert [n.distance for n in got.neighbors] == [
            n.distance for n in want.neighbors
        ]
        assert got.stop_reason == want.stop_reason
        assert got.completed == want.completed
        assert got.degraded == want.degraded
        assert got.elapsed_s == want.elapsed_s
        assert got.trace.start_elapsed_s == want.trace.start_elapsed_s
        assert got.trace.events == want.trace.events


def _fresh_batch_build(streaming):
    """Rebuild the current logical contents as a from-scratch batch index."""
    maintainer = streaming.maintainer
    parts, id_parts, row_ranges = [], [], []
    cursor = 0
    for position in range(maintainer.n_chunks):
        snap = maintainer.snapshot(position)
        parts.append(snap.vectors)
        id_parts.append(np.asarray(snap.ids, dtype=np.int64))
        row_ranges.append(np.arange(cursor, cursor + len(snap.ids)))
        cursor += len(snap.ids)
    collection = DescriptorCollection(
        vectors=np.vstack(parts),
        ids=np.concatenate(id_parts),
        image_ids=np.zeros(cursor, dtype=np.int64),
    )
    chunk_set = ChunkSet(
        collection,
        [Chunk.from_rows(collection, rows) for rows in row_ranges],
    )
    return build_chunk_index(collection, chunk_set, name="fresh-batch")


class TestCreateAndOpen:
    def test_create_persists_and_reopens(self, tiny_collection, tmp_path):
        base, _, _ = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        created = StreamingChunkIndex.create(directory, _base_index(base))
        n = created.n_descriptors
        created.close()
        assert os.path.exists(os.path.join(directory, MANIFEST_NAME))
        reopened = StreamingChunkIndex.open(directory)
        assert reopened.n_descriptors == n
        assert reopened.dimensions == tiny_collection.dimensions
        assert reopened.recovery.replayed_batches == 0
        assert reopened.recovery.torn_bytes == 0
        reopened.close()

    def test_create_refuses_existing_directory(self, tiny_collection, tmp_path):
        base, _, _ = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        StreamingChunkIndex.create(directory, _base_index(base)).close()
        with pytest.raises(ValueError, match="already holds"):
            StreamingChunkIndex.create(directory, _base_index(base))

    def test_uncheckpointed_batches_replay_on_open(
        self, tiny_collection, tmp_path
    ):
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        with StreamingChunkIndex.create(directory, _base_index(base)) as index:
            index.apply([insert_op(int(rest_ids[0]), rest_vectors[0])])
            index.apply(
                [
                    insert_op(int(rest_ids[1]), rest_vectors[1]),
                    delete_op(int(rest_ids[0])),
                ]
            )
            n_final = index.n_descriptors
        with StreamingChunkIndex.open(directory) as reopened:
            assert reopened.recovery.replayed_batches == 2
            assert reopened.recovery.replayed_ops == 3
            assert reopened.n_descriptors == n_final
            assert int(rest_ids[1]) in reopened.maintainer
            assert int(rest_ids[0]) not in reopened.maintainer

    def test_checkpoint_clears_replay_and_charges_io(self, populated):
        directory, n_final = populated
        with StreamingChunkIndex.open(directory) as index:
            index.apply([delete_op(self._any_live_id(index))])
            report = index.checkpoint()
            assert report.segments_written >= 1
            assert index.io_seconds > 0.0
        with StreamingChunkIndex.open(directory) as reopened:
            assert reopened.recovery.replayed_batches == 0
            assert reopened.n_descriptors == n_final - 1

    @staticmethod
    def _any_live_id(index):
        return int(index.maintainer.snapshot(0).ids[0])

    def test_rebuild_base_advances_generation(self, populated):
        directory, n_final = populated
        with StreamingChunkIndex.open(directory) as index:
            generation = index.generation
            new_generation = index.rebuild_base()
            assert new_generation == generation + 1
            assert index.n_descriptors == n_final
        report = verify_streaming_index(directory)
        assert report["ok"], report

    def test_batch_sequence_is_contiguous(self, tiny_collection, tmp_path):
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        with StreamingChunkIndex.create(directory, _base_index(base)) as index:
            first = index.apply([insert_op(int(rest_ids[0]), rest_vectors[0])])
            index.checkpoint()
            second = index.apply([insert_op(int(rest_ids[1]), rest_vectors[1])])
            assert second == first + 1
        with StreamingChunkIndex.open(directory) as reopened:
            assert reopened.last_batch_seq == second

    def test_garbage_files_removed_on_open(self, populated):
        directory, _ = populated
        stray = os.path.join(directory, "delta-999999-00000.seg")
        with open(stray, "wb") as handle:
            handle.write(b"junk")
        with StreamingChunkIndex.open(directory) as index:
            assert index.recovery.orphans_removed >= 1
        assert not os.path.exists(stray)


class TestValidation:
    def test_bad_batches_rejected_without_poisoning(
        self, tiny_collection, tmp_path
    ):
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        with StreamingChunkIndex.create(directory, _base_index(base)) as index:
            live = int(base.ids[0])
            with pytest.raises(ValueError):
                index.apply([])
            with pytest.raises(ValueError, match="already present"):
                index.apply([insert_op(live, rest_vectors[0])])
            with pytest.raises(KeyError, match="not in index"):
                index.apply([delete_op(987654)])
            with pytest.raises(ValueError):
                index.apply(
                    [insert_op(int(rest_ids[0]), rest_vectors[0][:-1])]
                )
            # A failed validation must not have touched the WAL or the
            # in-memory state:
            seq = index.apply([insert_op(int(rest_ids[0]), rest_vectors[0])])
            assert seq == index.last_batch_seq

    def test_crash_poisons_until_reopen(self, tiny_collection, tmp_path):
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        StreamingChunkIndex.create(directory, _base_index(base)).close()
        index = StreamingChunkIndex.open(directory, crash=CrashAtStep(0))
        with pytest.raises(InjectedCrash):
            index.apply([insert_op(int(rest_ids[0]), rest_vectors[0])])
        with pytest.raises(ValueError, match="poisoned"):
            index.apply([insert_op(int(rest_ids[1]), rest_vectors[1])])
        index.close()
        with StreamingChunkIndex.open(directory) as recovered:
            assert int(rest_ids[0]) not in recovered.maintainer

    def test_closed_index_rejects_mutation(self, populated):
        directory, _ = populated
        index = StreamingChunkIndex.open(directory)
        index.close()
        with pytest.raises(ValueError, match="closed"):
            index.checkpoint()


class TestVerify:
    def test_healthy_directory_passes(self, populated):
        directory, n_final = populated
        report = verify_streaming_index(directory)
        assert report["ok"], report
        assert report["n_descriptors"] == n_final
        assert {c["name"] for c in report["checks"]} == {
            "manifest",
            "storage",
            "summaries",
            "extents",
            "wal",
            "liveness",
        }

    def test_missing_manifest_fails(self, tmp_path):
        report = verify_streaming_index(str(tmp_path / "empty"))
        assert not report["ok"]
        assert report["checks"][0]["name"] == "manifest"
        assert not report["checks"][0]["ok"]

    def test_corrupt_segment_fails_storage_check(self, populated):
        directory, _ = populated
        # The scenario ends with uncheckpointed deletes; checkpoint them
        # so the directory holds delta segments to corrupt.
        with StreamingChunkIndex.open(directory) as index:
            index.checkpoint()
        segments = sorted(
            f for f in os.listdir(directory) if f.startswith("delta-")
        )
        assert segments, "checkpoint produced no delta segments"
        target = os.path.join(directory, segments[0])
        size = os.path.getsize(target)
        with open(target, "r+b") as handle:
            handle.seek(size - 1)
            byte = handle.read(1)
            handle.seek(size - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        report = verify_streaming_index(directory)
        assert not report["ok"]
        failed = [c["name"] for c in report["checks"] if not c["ok"]]
        assert "storage" in failed

    def test_tampered_centroid_fails_summaries_check(self, populated):
        import json

        directory, _ = populated
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["chunks"][0]["centroid"][0] += 0.5
        with open(manifest_path, "w") as handle:  # deliberate torn-style edit
            json.dump(manifest, handle)
        report = verify_streaming_index(directory)
        assert not report["ok"]

    def test_torn_wal_tail_reported_not_repaired(self, populated):
        directory, _ = populated
        import json

        with open(os.path.join(directory, MANIFEST_NAME)) as handle:
            wal_file = json.load(handle)["wal_file"]
        wal_path = os.path.join(directory, wal_file)
        with open(wal_path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        before = os.path.getsize(wal_path)
        report = verify_streaming_index(directory)
        assert report["ok"], report  # torn tail alone is recoverable
        assert report["torn_bytes"] == 3
        assert os.path.getsize(wal_path) == before  # read-only checker


class TestCrashMatrix:
    """Kill the writer at every protocol boundary; recover; compare."""

    def _reference(self, tiny_collection, tmp_path):
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        actions = _scenario_actions(rest_ids, rest_vectors)
        ref_dir = str(tmp_path / "reference")
        StreamingChunkIndex.create(ref_dir, _base_index(base)).close()
        recording = RecordingCrashPlan()
        reference = StreamingChunkIndex.open(ref_dir, crash=recording)
        _run_actions(reference, actions)
        return base, actions, reference, recording

    def _recover_and_finish(self, directory, actions, pos, acked):
        """Reopen after a crash and drive the scenario to completion.

        Exactly what a client driver does: resubmit the batch whose ack
        never arrived — unless recovery shows it committed — then run
        the remaining actions.
        """
        recovered = StreamingChunkIndex.open(directory)
        kind, payload = actions[pos]
        if kind == "apply" and recovered.last_batch_seq == acked:
            recovered.apply(payload)  # the crashed batch was lost: resubmit
        elif kind == "checkpoint":
            recovered.checkpoint(defragment=True)
        elif kind == "rebuild":
            recovered.rebuild_base()
        _run_actions(recovered, actions, start=pos + 1)
        return recovered

    def test_every_crash_point_recovers_bit_identically(
        self, tiny_collection, tmp_path
    ):
        base, actions, reference, recording = self._reference(
            tiny_collection, tmp_path
        )
        n_sites = len(recording.sites)
        assert n_sites >= 20  # WAL x4 batches + checkpoint + rebuild sites
        want_index = reference.to_index()
        dimensions = reference.dimensions
        reference.close()

        for step in range(n_sites):
            directory = str(tmp_path / f"crash-{step:03d}")
            StreamingChunkIndex.create(directory, _base_index(base)).close()
            index = StreamingChunkIndex.open(
                directory, crash=CrashAtStep(step)
            )
            acked = index.last_batch_seq
            crash_pos = None
            try:
                for pos, (kind, payload) in enumerate(actions):
                    if kind == "apply":
                        acked = index.apply(payload)
                    elif kind == "checkpoint":
                        index.checkpoint(defragment=True)
                    else:
                        index.rebuild_base()
            except InjectedCrash:
                crash_pos = pos
            index.close()
            assert crash_pos is not None, f"step {step} never fired"

            # The directory must verify clean before anything touches it.
            report = verify_streaming_index(directory)
            assert report["ok"], (step, recording.sites[step], report)

            recovered = self._recover_and_finish(
                directory, actions, crash_pos, acked
            )
            got_index = recovered.to_index()
            _assert_searches_identical(got_index, want_index, dimensions)
            recovered.close()
            assert verify_streaming_index(directory)["ok"]

    def test_recovered_state_matches_fresh_batch_build(self, populated):
        directory, _ = populated
        with StreamingChunkIndex.open(directory) as index:
            fresh = _fresh_batch_build(index)
            _assert_searches_identical(
                index.to_index(), fresh, index.dimensions
            )
