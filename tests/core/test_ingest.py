"""Tests for the crash-safe streaming chunk index.

The crash-matrix class is the acceptance gate: a simulated kill at
*every* WAL/pack/rename boundary of a mixed workload must recover to
a directory that passes the deep checker, and — after resubmitting the
unacknowledged batches, exactly as a client driver would — end in a
state whose searches are bit-identical to the uncrashed run and to a
fresh batch build of the same logical contents, with pruning, routing
and the chunk cache all enabled.
"""

from __future__ import annotations

import builtins
import dataclasses
import json
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
    CrashPlan,
    InjectedCrash,
    RecordingCrashPlan,
)
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import LruChunkCache
from repro.storage.errors import CorruptFileError
from repro.storage.index_file import read_index_file, write_index_file
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


def _manifest(directory):
    with open(os.path.join(directory, MANIFEST_NAME)) as handle:
        return json.load(handle)


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
    """Every chunk rectangle and every observable of every query equal to
    the bit."""
    assert got_index.n_chunks == want_index.n_chunks
    for got_meta, want_meta in zip(got_index.metas, want_index.metas):
        assert got_meta.lower.tobytes() == want_meta.lower.tobytes()
        assert got_meta.upper.tobytes() == want_meta.upper.tobytes()
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
        stray = os.path.join(directory, "delta-999999.pack")
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
            "rectangles",
        }

    def test_missing_manifest_fails(self, tmp_path):
        report = verify_streaming_index(str(tmp_path / "empty"))
        assert not report["ok"]
        assert report["checks"][0]["name"] == "manifest"
        assert not report["checks"][0]["ok"]

    def test_corrupt_segment_fails_storage_check(self, populated):
        directory, _ = populated
        # The scenario ends with uncheckpointed deletes; checkpoint them
        # so the directory holds a checkpoint pack to corrupt.
        with StreamingChunkIndex.open(directory) as index:
            index.checkpoint()
        packs = sorted(f for f in os.listdir(directory) if f.startswith("delta-"))
        assert packs, "checkpoint produced no pack"
        target = os.path.join(directory, packs[0])
        size = os.path.getsize(target)
        with open(target, "r+b") as handle:
            handle.seek(size - 1)
            byte = handle.read(1)
            handle.seek(size - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        report = verify_streaming_index(directory)
        assert not report["ok"]
        failed = {c["name"]: c["detail"] for c in report["checks"] if not c["ok"]}
        assert "storage" in failed
        assert f"{packs[0]} section" in failed["storage"]  # names the section

    def test_parent_format_directory_is_rejected_whole(self, populated):
        """A version-1 directory (per-chunk ``.seg`` files) is refused at
        the manifest, before any chunk is read."""
        directory, _ = populated
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        manifest = _manifest(directory)
        manifest["version"] = 1
        del manifest["packs"]
        for position, chunk in enumerate(manifest["chunks"]):
            del chunk["delta"]
            chunk["delta_file"] = f"delta-000009-{position:05d}.seg"
        with open(manifest_path, "w") as handle:  # deliberate direct edit
            json.dump(manifest, handle, indent=2)
        with pytest.raises(CorruptFileError, match="unsupported manifest version 1"):
            StreamingChunkIndex.open(directory)
        report = verify_streaming_index(directory)
        assert not report["ok"]
        assert [(c["name"], c["ok"]) for c in report["checks"]] == [
            ("manifest", False)
        ]

    def test_tampered_centroid_fails_summaries_check(self, populated):
        directory, _ = populated
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        manifest = _manifest(directory)
        manifest["chunks"][0]["centroid"][0] += 0.5
        with open(manifest_path, "w") as handle:  # deliberate torn-style edit
            json.dump(manifest, handle)
        report = verify_streaming_index(directory)
        assert not report["ok"]

    def test_inexact_base_rectangle_fails_rectangles_check(self, populated):
        """A correctly sealed base index whose rectangle is merely a valid
        enclosure — not the members' exact extent — reads back, and only
        the recomputation from the base chunk contents can object."""
        directory, _ = populated
        index_path = os.path.join(directory, _manifest(directory)["base_index_file"])
        metas = read_index_file(index_path)
        metas[2] = dataclasses.replace(metas[2], upper=metas[2].upper + 2.0**-10)
        write_index_file(index_path, metas)
        with StreamingChunkIndex.open(directory) as index:  # not a read error
            assert index.n_descriptors > 0
        report = verify_streaming_index(directory)
        assert not report["ok"]
        failed = {c["name"]: c["detail"] for c in report["checks"] if not c["ok"]}
        assert list(failed) == ["rectangles"]
        assert failed["rectangles"] == "base chunk 2: stored rectangle is not exact"

    def test_torn_wal_tail_reported_not_repaired(self, populated):
        directory, _ = populated
        wal_path = os.path.join(directory, _manifest(directory)["wal_file"])
        with open(wal_path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        before = os.path.getsize(wal_path)
        report = verify_streaming_index(directory)
        assert report["ok"], report  # torn tail alone is recoverable
        assert report["torn_bytes"] == 3
        assert os.path.getsize(wal_path) == before  # read-only checker


#: One damaged field of a fresh directory's manifest per case.
MANIFEST_DAMAGE = {
    "chunk-without-base_ref": lambda m: m["chunks"][0].pop("base_ref"),
    "chunk-base_ref-x": lambda m: m["chunks"][0].update(base_ref="x"),
    "chunk-without-n_descriptors": lambda m: m["chunks"][0].pop("n_descriptors"),
    "negative-page_offset": lambda m: m["chunks"][0].update(page_offset=-1),
    "without-name": lambda m: m.pop("name"),
    "stats-inserts-abc": lambda m: m["stats"].update(inserts="abc"),
    "split_factor-0.5": lambda m: m.update(split_factor=0.5),
    "delta-past-the-packs": lambda m: m["chunks"][0].update(delta=[len(m["packs"]), 0]),
}


class TestDamagedManifest:
    """``open`` and ``verify`` run one loader, so they agree on damage."""

    @pytest.mark.parametrize(
        "damage", MANIFEST_DAMAGE.values(), ids=MANIFEST_DAMAGE.keys()
    )
    def test_open_raises_corrupt_file_error_and_verify_fails(
        self, tiny_collection, tmp_path, damage
    ):
        base, _, _ = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        StreamingChunkIndex.create(directory, _base_index(base)).close()
        manifest = _manifest(directory)
        damage(manifest)
        with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
            json.dump(manifest, handle)  # deliberate direct edit
        with pytest.raises(CorruptFileError):
            StreamingChunkIndex.open(directory)
        report = verify_streaming_index(directory)
        assert not report["ok"]
        assert not report["checks"][-1]["ok"]


def _fullest_chunks(index, n_chunks):
    """Positions of the ``n_chunks`` fullest chunks: deleting a member of
    one of these never shrinks it into a merge."""
    maintainer = index.maintainer
    sizes = [len(maintainer.snapshot(p).ids) for p in range(maintainer.n_chunks)]
    return sorted(range(len(sizes)), key=lambda p: (-sizes[p], p))[:n_chunks]


def _one_id_per_chunk(index, n_chunks):
    return [
        int(index.maintainer.snapshot(p).ids[-1])
        for p in _fullest_chunks(index, n_chunks)
    ]


class _WriteSpy:
    """Counts the durability-relevant calls made while it is active."""

    def __init__(self, monkeypatch):
        self.counts = {"fsync": 0, "replace": 0, "open_wb": 0}
        real_fsync, real_replace, real_open = os.fsync, os.replace, builtins.open

        def fsync(fd):
            self.counts["fsync"] += 1
            return real_fsync(fd)

        def replace(src, dst, **kwargs):
            self.counts["replace"] += 1
            return real_replace(src, dst, **kwargs)

        def spy_open(file, mode="r", *args, **kwargs):
            if mode == "wb":
                self.counts["open_wb"] += 1
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(builtins, "open", spy_open)


class TestCheckpointCost:
    """A checkpoint costs four durability barriers however many chunks
    are dirty: its cost scales with dirty bytes, not dirty-chunk count."""

    @pytest.fixture()
    def wide(self, small_synthetic, tmp_path):
        chunking = SRTreeChunker(leaf_capacity=32).form_chunks(small_synthetic)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        assert index.n_chunks >= 33
        directory = str(tmp_path / "wide")
        with StreamingChunkIndex.create(
            directory, index, disk=PAPER_2005_COST_MODEL.disk
        ) as streaming:
            yield directory, streaming

    def _checkpoint_counts(self, streaming, n_dirty, monkeypatch):
        streaming.apply([delete_op(i) for i in _one_id_per_chunk(streaming, n_dirty)])
        assert len(streaming.maintainer.dirty_positions()) == n_dirty
        with monkeypatch.context() as patch:
            spy = _WriteSpy(patch)
            report = streaming.checkpoint()
        assert report.segments_written == n_dirty
        return spy.counts

    def test_barrier_count_does_not_depend_on_dirty_chunk_count(
        self, wide, monkeypatch
    ):
        _, streaming = wide
        few = self._checkpoint_counts(streaming, 3, monkeypatch)
        many = self._checkpoint_counts(streaming, 30, monkeypatch)
        assert few == many
        # Pack, fresh WAL, manifest, directory; the pack and the manifest
        # are the two renames; the WAL is created under its final name.
        assert many == {"fsync": 4, "replace": 2, "open_wb": 3}

    def test_simulated_charge_is_one_write_per_pack(self, wide):
        directory, streaming = wide
        disk = PAPER_2005_COST_MODEL.disk
        streaming.apply([delete_op(i) for i in _one_id_per_chunk(streaming, 12)])
        before = streaming.io_seconds
        report = streaming.checkpoint()
        manifest = _manifest(directory)
        pack = os.path.join(directory, manifest["packs"][-1])
        assert report.segments_written == 12
        assert report.segment_bytes == os.path.getsize(pack)
        expected = before
        for n_bytes in (
            report.segment_bytes,  # every section: one positioning, one sync
            os.path.getsize(os.path.join(directory, manifest["wal_file"])),
            os.path.getsize(os.path.join(directory, MANIFEST_NAME)),
        ):
            expected += disk.sequential_write_time_s(n_bytes) + disk.sync_time_s
        assert streaming.io_seconds == expected


class TestPackLifetime:
    """A pack lives exactly as long as some chunk points into it."""

    @staticmethod
    def _packs_on_disk(directory):
        return sorted(f for f in os.listdir(directory) if f.startswith("delta-"))

    def test_mixed_dirty_lifetime(self, tiny_collection, tmp_path):
        base, _, _ = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        with StreamingChunkIndex.create(directory, _base_index(base)) as index:
            maintainer = index.maintainer

            def member_of(position):
                return int(maintainer.snapshot(position).ids[-1])

            a, b = _fullest_chunks(index, 2)
            # Two deletes each must not shrink either into a merge.
            assert min(len(maintainer.snapshot(p).ids) for p in (a, b)) >= 5

            # Checkpoint 1 dirties A and B: one pack, two sections.
            index.apply([delete_op(member_of(a)), delete_op(member_of(b))])
            assert index.checkpoint().segments_written == 2
            first = _manifest(directory)
            assert first["packs"] == ["delta-000001.pack"]
            assert sorted(
                c["delta"] for c in first["chunks"] if c["delta"] is not None
            ) == [[0, 0], [0, 1]]

            # Checkpoint 2 dirties only B: A keeps pointing into pack 1.
            index.apply([delete_op(member_of(b))])
            assert index.checkpoint().segments_written == 1
            second = _manifest(directory)
            both = ["delta-000001.pack", "delta-000002.pack"]
            assert second["packs"] == both
            assert self._packs_on_disk(directory) == both
            assert second["chunks"][a]["delta"] == first["chunks"][a]["delta"]
            assert second["chunks"][b]["delta"] == [1, 0]
            assert verify_streaming_index(directory)["ok"]
            with StreamingChunkIndex.open(directory) as reopened:
                assert reopened.recovery.orphans_removed == 0
                _assert_searches_identical(
                    reopened.to_index(), index.to_index(), index.dimensions
                )

            # Checkpoint 3 dirties A: nothing points into pack 1 any more.
            index.apply([delete_op(member_of(a))])
            index.checkpoint()
            later = ["delta-000002.pack", "delta-000003.pack"]
            assert _manifest(directory)["packs"] == later
            assert self._packs_on_disk(directory) == later
            with StreamingChunkIndex.open(directory) as reopened:
                _assert_searches_identical(
                    reopened.to_index(), index.to_index(), index.dimensions
                )

            index.rebuild_base()
            assert _manifest(directory)["packs"] == []
            assert self._packs_on_disk(directory) == []
            assert verify_streaming_index(directory)["ok"]

    def test_checkpoint_with_nothing_dirty_writes_no_pack(self, populated):
        directory, _ = populated
        with StreamingChunkIndex.open(directory) as index:
            index.checkpoint()
            packs = self._packs_on_disk(directory)
            report = index.checkpoint()
            assert (report.segments_written, report.segment_bytes) == (0, 0)
            assert self._packs_on_disk(directory) == packs


class _CrashAtSite(CrashPlan):
    """Dies the first time the named boundary is announced."""

    def __init__(self, site):
        super().__init__()
        self.site = site

    def reached(self, site):
        super().reached(site)
        if site == self.site:
            raise InjectedCrash(site, self.steps_seen - 1)


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
        # 4 batches x 3 WAL sites, then 4 checkpoint and 4 rebuild sites —
        # the checkpoint's count no longer depends on how many chunks it
        # found dirty.
        assert n_sites == 20
        assert [s for s in recording.sites if s.startswith("compact.")] == [
            "compact.begin",
            "compact.pack",
            "compact.wal",
            "compact.manifest",
        ]
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

    @pytest.mark.parametrize("site", ["compact.pack", "compact.wal"])
    def test_kill_between_pack_and_manifest_leaves_an_orphan_pack(
        self, tiny_collection, tmp_path, site
    ):
        """The pack is renamed into place before the manifest that names
        it: a kill in between leaves it unreferenced, the previous
        manifest's pack still serves every chunk, and ``open`` collects
        the orphan."""
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        first = [insert_op(int(i), v) for i, v in zip(rest_ids[:10], rest_vectors)]
        second = [
            insert_op(int(i), v) for i, v in zip(rest_ids[10:20], rest_vectors[10:])
        ] + [delete_op(int(rest_ids[0]))]

        def run(directory, crash):
            StreamingChunkIndex.create(directory, _base_index(base)).close()
            with StreamingChunkIndex.open(directory) as index:
                index.apply(first)
                index.checkpoint()
            index = StreamingChunkIndex.open(directory, crash=crash)
            index.apply(second)
            try:
                index.checkpoint()
            finally:
                index.close()

        reference_dir = str(tmp_path / "reference")
        run(reference_dir, None)
        directory = str(tmp_path / "crashed")
        with pytest.raises(InjectedCrash):
            run(directory, _CrashAtSite(site))

        old, orphan = "delta-000001.pack", "delta-000002.pack"
        assert {old, orphan} <= set(os.listdir(directory))
        assert _manifest(directory)["packs"] == [old]
        assert verify_streaming_index(directory)["ok"]  # read-only: orphan stays
        assert orphan in os.listdir(directory)

        with StreamingChunkIndex.open(directory) as recovered:
            # The orphan pack, plus the fresh WAL once it exists.
            assert recovered.recovery.orphans_removed == (
                1 if site == "compact.pack" else 2
            )
            assert recovered.recovery.replayed_batches == 1
            assert orphan not in os.listdir(directory)
            assert old in os.listdir(directory)
            recovered.checkpoint()  # the driver redoes the lost checkpoint
            with StreamingChunkIndex.open(reference_dir) as reference:
                _assert_searches_identical(
                    recovered.to_index(), reference.to_index(), reference.dimensions
                )
        assert _manifest(directory) == _manifest(reference_dir)
        assert verify_streaming_index(directory)["ok"]

    def test_recovered_state_matches_fresh_batch_build(self, populated):
        directory, _ = populated
        with StreamingChunkIndex.open(directory) as index:
            fresh = _fresh_batch_build(index)
            _assert_searches_identical(
                index.to_index(), fresh, index.dimensions
            )
