"""Tests for the crash-safe streaming chunk index.

The crash-matrix class is the acceptance gate: every crash state the
persistence model allows for one recorded run of a mixed workload
(``repro.faults.crash_states``; capped per barrier interval under tier-1,
all of them under ``--hypothesis-profile=explore``) must pass the deep
checker, open, and hold every acknowledged batch plus at most the one in
flight, whole.  After resubmitting the unacknowledged batches, exactly as
a client driver would, both extreme states of each crash point (nothing
un-fsynced kept, all of it kept) are driven to the end of the workload,
whose searches must be bit-identical to the uncrashed run and to a fresh
batch build of the same logical contents, with pruning, routing and the
chunk cache all enabled.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re

import numpy as np
import pytest
from hypothesis import settings

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk import Chunk, ChunkSet
from repro.core.chunk_index import build_chunk_index
from repro.core.dataset import DescriptorCollection
from repro.core.ingest import (
    MANIFEST_NAME,
    StreamingChunkIndex,
    verify_streaming_index,
)
from repro.core.maintenance import SPLIT_FACTOR
from repro.core.search import ChunkSearcher
from repro.experiments.ingestsim import _fold, open_crash_state
from repro.faults.crash_states import STATES_PER_INTERVAL, InjectedCrash, record
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import LruChunkCache
from repro.storage.errors import CorruptFileError
from repro.storage.index_file import read_index_file, write_index_file
from repro.storage.pages import PageGeometry
from repro.storage.records import RecordCodec
from repro.storage.wal import OP_INSERT, WalOp, delete_op, insert_op

from descriptors import from_vectors

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``), where the crash matrix takes every state.
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples
STATE_CAP = STATES_PER_INTERVAL if EXAMPLES == 1 else None


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
            index.checkpoint()
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


def _float64_insert_op(descriptor_id, vector):
    """An insert op whose vector was never cast to float32."""
    return WalOp(OP_INSERT, descriptor_id, np.asarray(vector, dtype=np.float64))


def _directory_bytes(directory):
    """Every file of ``directory``, name -> bytes."""
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


def _rows_by_id(index):
    """Descriptor id -> its stored float32 row."""
    rows = {}
    for chunk_id in range(index.n_chunks):
        ids, vectors = index.read_chunk(chunk_id)
        rows.update(zip(ids.tolist(), vectors))
    return rows


def _manifest(directory):
    with open(os.path.join(directory, MANIFEST_NAME)) as handle:
        return json.load(handle)


def _search_all(index, queries, k=5):
    """Batch search with pruning and the chunk cache enabled."""
    model = dataclasses.replace(
        PAPER_2005_COST_MODEL,
        chunk_cache=LruChunkCache(capacity_bytes=1 << 20),
    )
    searcher = ChunkSearcher(index, cost_model=model, prune=True)
    return searcher.search_batch(queries, k=k)


def _observables(index, dimensions):
    """Every chunk rectangle's bytes and every observable of every query of
    a fixed batch."""
    rng = np.random.default_rng(97)
    queries = rng.standard_normal((8, dimensions)) * 4.0
    rectangles = [(m.lower.tobytes(), m.upper.tobytes()) for m in index.metas]
    return rectangles, [
        (
            got.neighbor_ids().tolist(),
            [n.distance for n in got.neighbors],
            got.stop_reason,
            got.completed,
            got.degraded,
            got.elapsed_s,
            got.trace.start_elapsed_s,
            got.trace.events,
        )
        for got in _search_all(index, queries)
    ]


def _assert_searches_identical(got_index, want_index, dimensions):
    """Every chunk rectangle and every observable of every query equal to
    the bit."""
    assert _observables(got_index, dimensions) == _observables(want_index, dimensions)


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

    def test_each_single_fault_keeps_its_exception(
        self, tiny_collection, tmp_path
    ):
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        live, new, other = int(base.ids[0]), int(rest_ids[0]), int(rest_ids[1])
        vector, bad = rest_vectors[0], np.full(rest_vectors.shape[1], np.nan)
        cases = [
            ([], ValueError, "a batch needs at least one operation"),
            (
                [insert_op(2**31, vector)],
                ValueError,
                f"descriptor id {2**31} does not fit the on-disk int32 field",
            ),
            ([WalOp(OP_INSERT, new, None)], ValueError, "insert op requires a vector"),
            (
                [insert_op(new, vector), insert_op(other, vector[:-1])],
                ValueError,
                "insert vector dimensionality mismatch",
            ),
            (
                [insert_op(live, vector)],
                ValueError,
                f"descriptor id {live} already present",
            ),
            (
                [insert_op(new, vector), insert_op(new, vector)],
                ValueError,
                f"descriptor id {new} already present",
            ),
            ([delete_op(987654)], KeyError, "descriptor id 987654 not in index"),
            (
                [delete_op(live), delete_op(live)],
                KeyError,
                f"descriptor id {live} not in index",
            ),
            (
                [WalOp("upsert", new, vector)],
                ValueError,
                "unknown wal op kind 'upsert'",
            ),
            (
                [insert_op(new, vector), insert_op(other, bad)],
                ValueError,
                f"insert vector of descriptor id {other} is non-finite",
            ),
        ]
        directory = str(tmp_path / "stream")
        with StreamingChunkIndex.create(directory, _base_index(base)) as index:
            for ops, error, message in cases:
                with pytest.raises(error, match=re.escape(message)):
                    index.apply(ops)
            assert index.last_batch_seq == -1
            # An insert of a deleted id and a delete of an inserted one in
            # the same batch are no faults.
            index.apply([delete_op(live), insert_op(live, vector)])
            index.apply([insert_op(new, vector), delete_op(new)])

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "1e39"]
    )
    @pytest.mark.parametrize("make_op", [insert_op, _float64_insert_op])
    def test_non_finite_insert_refused_before_it_is_logged(
        self, tiny_collection, tmp_path, value, make_op
    ):
        """A float64 1e39 is past float32's maximum: cast, it is inf.
        Acknowledged, such a row would break every later summary, and
        replay would bring it back after every reopen."""
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        good, bad = int(rest_ids[0]), int(rest_ids[1])
        vector = rest_vectors[1].astype(np.float64)
        vector[-1] = value
        with StreamingChunkIndex.create(directory, _base_index(base)) as index:
            files = _directory_bytes(directory)
            with np.errstate(over="ignore"):
                op = make_op(bad, vector)
                with pytest.raises(ValueError, match="non-finite"):
                    index.apply([insert_op(good, rest_vectors[0]), op])
            assert _directory_bytes(directory) == files
            assert index.last_batch_seq == -1
            assert good not in index.maintainer and bad not in index.maintainer
            assert index.apply([insert_op(good, rest_vectors[0])]) == 0
            index.to_index()
            index.checkpoint()
        with StreamingChunkIndex.open(directory) as reopened:
            assert reopened.to_index().n_descriptors == len(base) + 1

    def test_vectors_that_flatten_to_a_row_are_accepted(
        self, tiny_collection, tmp_path
    ):
        """Each insert vector is flattened, as it always was: a column, a
        one-row matrix, a list or float64 stores the same float32 row."""
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        ids = [int(i) for i in rest_ids[:8]]
        rows = rest_vectors[:8]
        directory = str(tmp_path / "stream")
        with StreamingChunkIndex.create(directory, _base_index(base)) as index:
            # All of one other shape, then one of each.
            index.apply(
                [insert_op(i, row[np.newaxis]) for i, row in zip(ids[:4], rows)]
            )
            index.apply(
                [
                    insert_op(ids[4], rows[4][:, np.newaxis]),
                    WalOp(OP_INSERT, ids[5], rows[5].tolist()),
                    WalOp(OP_INSERT, ids[6], rows[6].astype(np.float64)),
                    insert_op(ids[7], rows[7]),
                ]
            )
            stored = _rows_by_id(index.to_index())
        with StreamingChunkIndex.open(directory) as reopened:
            replayed = _rows_by_id(reopened.to_index())
        for descriptor_id, row in zip(ids, rows):
            assert stored[descriptor_id].tobytes() == row.tobytes()
            assert replayed[descriptor_id].tobytes() == row.tobytes()

    def test_crash_poisons_until_reopen(self, tiny_collection, tmp_path):
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        directory = str(tmp_path / "stream")
        StreamingChunkIndex.create(directory, _base_index(base)).close()
        index = StreamingChunkIndex.open(directory)
        with record(directory, 1):  # killed once the frames reach the OS
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
            "wal",
            "liveness",
            "rectangles",
            "codes",
        }
        codes = next(c for c in report["checks"] if c["name"] == "codes")
        assert codes["detail"].startswith("no code file base-")

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
        """A version-1 directory (per-chunk ``.seg`` files) and a version-2
        one (recorded page extents and allocation frontier) are refused at
        the manifest, before any chunk is read."""
        directory, _ = populated
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        current = _manifest(directory)

        def version_1(manifest):
            del manifest["packs"]
            for position, chunk in enumerate(manifest["chunks"]):
                del chunk["delta"]
                chunk["delta_file"] = f"delta-000009-{position:05d}.seg"

        def version_2(manifest):
            manifest["next_page"] = len(manifest["chunks"])
            for position, chunk in enumerate(manifest["chunks"]):
                chunk["page_offset"], chunk["page_count"] = position, 1

        for version, downgrade in ((1, version_1), (2, version_2)):
            manifest = json.loads(json.dumps(current))
            manifest["version"] = version
            downgrade(manifest)
            with open(manifest_path, "w") as handle:  # deliberate direct edit
                json.dump(manifest, handle, indent=2)
            with pytest.raises(
                CorruptFileError, match=f"unsupported manifest version {version}"
            ):
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
    "chunk-n_descriptors-0": lambda m: m["chunks"][0].update(n_descriptors=0),
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

    def _checkpoint_log(self, directory, streaming, n_dirty):
        """The checkpoint's durable operations, numbers in names elided;
        its garbage collection (what it supersedes varies) left out."""
        streaming.apply([delete_op(i) for i in _one_id_per_chunk(streaming, n_dirty)])
        assert len(streaming.maintainer.dirty_positions()) == n_dirty
        with record(directory, None) as recording:
            report = streaming.checkpoint()
        assert report.segments_written == n_dirty
        return [
            (op.kind, re.sub(r"\d+", "N", os.path.basename(op.path)))
            for op in recording.ops
            if op.kind != "unlink"
        ]

    def test_barrier_count_does_not_depend_on_dirty_chunk_count(self, wide):
        directory, streaming = wide
        few = self._checkpoint_log(directory, streaming, 3)
        many = self._checkpoint_log(directory, streaming, 30)
        assert few == many
        # Pack, fresh WAL, manifest, directory: four barriers; the pack and
        # the manifest are the two renames; the WAL is created under its
        # final name.
        assert [op for op in many if op[0] in ("fsync", "fsync_dir")] == [
            ("fsync", "delta-N.pack.tmp"),
            ("fsync", "wal-N.log"),
            ("fsync", "MANIFEST.json.tmp"),
            ("fsync_dir", "wide"),
        ]
        assert [op for op in many if op[0] == "rename"] == [
            ("rename", "delta-N.pack.tmp"),
            ("rename", "MANIFEST.json.tmp"),
        ]
        assert [op for op in many if op[0] == "create"] == [
            ("create", "delta-N.pack.tmp"),
            ("create", "wal-N.log"),
            ("create", "MANIFEST.json.tmp"),
        ]

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


class TestExtentsAreDerived:
    """A chunk's extent is its payload pages, the chunks contiguous in
    position order: what a base rebuild writes, whatever the chunk went
    through before."""

    def test_rebuild_base_after_a_page_round_trip_changes_no_observable(
        self, tmp_path
    ):
        dimensions = 64
        rng = np.random.default_rng(41)
        centers = rng.uniform(-4.0, 4.0, size=(6, dimensions))
        collection = from_vectors(
            np.vstack(
                [c + 0.3 * rng.standard_normal((40, dimensions)) for c in centers]
            )
        )
        chunking = SRTreeChunker(leaf_capacity=30).form_chunks(collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        per_page = PageGeometry().page_bytes // RecordCodec(dimensions).record_bytes
        with StreamingChunkIndex.create(str(tmp_path / "stream"), index) as streaming:
            maintainer = streaming.maintainer
            position = _fullest_chunks(streaming, 1)[0]
            members = maintainer.snapshot(position).vectors
            assert len(members) <= per_page  # one page
            assert per_page + 1 <= SPLIT_FACTOR * maintainer.target_chunk_size
            centroid = members.astype(np.float64).mean(axis=0)
            n_extra = per_page + 1 - len(members)
            noise = 1e-3 * rng.standard_normal((n_extra, dimensions))
            extra = [insert_op(50_000 + i, centroid + v) for i, v in enumerate(noise)]
            streaming.apply(extra)
            grown = streaming.to_index().metas[position]
            assert (grown.n_descriptors, grown.page_count) == (per_page + 1, 2)
            streaming.apply([delete_op(op.descriptor_id) for op in extra])
            assert len(maintainer.snapshot(position).ids) == len(members)

            before = _observables(streaming.to_index(), dimensions)
            streaming.rebuild_base()
            assert _observables(streaming.to_index(), dimensions) == before


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


class TestCrashMatrix:
    """Every crash state of one recorded run; recover; compare."""

    def _reference(self, tiny_collection, tmp_path):
        """The uncrashed run, recorded, with the log length at which each
        action ended and each batch's ``(start, ack, seq, ops)``."""
        base, rest_ids, rest_vectors = _halves(tiny_collection)
        actions = _scenario_actions(rest_ids, rest_vectors)
        ref_dir = str(tmp_path / "reference")
        StreamingChunkIndex.create(ref_dir, _base_index(base)).close()
        ends, batches = [], []
        with record(ref_dir, None) as recording:
            reference = StreamingChunkIndex.open(ref_dir)
            start_live = set(reference.maintainer)
            for i, action in enumerate(actions):
                start = len(recording.ops)
                seq = _run_actions(reference, actions[i : i + 1])
                if action[0] == "apply":
                    batches.append((start, len(recording.ops), seq, action[1]))
                ends.append(len(recording.ops))
        return base, actions, reference, recording, start_live, ends, batches

    def _recover_and_finish(self, recovered, actions, pos, acked):
        """Drive the scenario to completion after a crash; returns whether
        the crashed batch was resubmitted.

        Exactly what a client driver does: resubmit the batch whose ack
        never arrived — unless recovery shows it committed — then run
        the remaining actions.
        """
        kind, payload = actions[pos] if pos < len(actions) else ("done", None)
        resubmitted = kind == "apply" and recovered.last_batch_seq == acked
        if resubmitted:
            recovered.apply(payload)  # the crashed batch was lost
        elif kind == "checkpoint":
            recovered.checkpoint()
        elif kind == "rebuild":
            recovered.rebuild_base()
        _run_actions(recovered, actions, start=pos + 1)
        return resubmitted

    def test_every_crash_point_recovers_bit_identically(
        self, tiny_collection, tmp_path
    ):
        _, actions, reference, recording, start_live, ends, batches = self._reference(
            tiny_collection, tmp_path
        )
        dimensions = reference.dimensions
        want = _observables(reference.to_index(), dimensions)
        reference.close()

        states = recording.enumerate_states(STATE_CAP, seed=0)
        # Both extremes of each crash point are finished: the first state
        # there loses everything un-fsynced, the last keeps all of it.
        by_position = {}
        for number, state in enumerate(states):
            by_position.setdefault(state.position, []).append(number)
        extremes = {n for group in by_position.values() for n in (group[0], group[-1])}
        failures, finished, replayed_not_resubmitted = [], [], 0
        for number, state in enumerate(states):
            directory = str(tmp_path / f"state-{number:05d}")
            os.makedirs(directory)
            recording.materialise(state, directory)
            acked = [b for b in batches if b[1] <= state.position]
            in_flight = next(
                (b[3] for b in batches if b[0] <= state.position < b[1]), None
            )
            recovered, problem = open_crash_state(
                directory,
                _fold(start_live, [op for b in acked for op in b[3]]),
                in_flight,
            )
            if problem is not None:
                failures.append(f"{recording.describe(state)}: {problem}")
            elif number in extremes:
                finished.append(state.position)
                pos = sum(1 for end in ends if end <= state.position)
                resubmitted = self._recover_and_finish(
                    recovered, actions, pos, acked[-1][2] if acked else -1
                )
                replayed_not_resubmitted += in_flight is not None and not resubmitted
                assert _observables(recovered.to_index(), dimensions) == want
                assert verify_streaming_index(directory)["ok"]
            if recovered is not None:
                recovered.close()
        assert not failures, "crash states that do not recover:\n" + "\n".join(failures)
        # 4 batches and the checkpoint's 4 and the rebuild's 5 barriers,
        # and the end of the log.
        assert len(by_position) == 4 + 4 + 5 + 1
        assert len(finished) == len(extremes)
        # A batch whose commit marker survived, unacknowledged, was replayed
        # by recovery and must not have been resubmitted (before each of the
        # four WAL fsyncs, the state that keeps everything).
        assert replayed_not_resubmitted == 4

    #: Where the kill lands in the second checkpoint: just after the pack's
    #: rename, and just after the fresh WAL's fsync.
    KILLS = {
        "compact.pack": lambda op: op.kind == "rename" and op.arg.endswith(".pack"),
        "compact.wal": lambda op: op.kind == "fsync" and op.path.endswith(".log"),
    }

    @pytest.mark.parametrize("site", sorted(KILLS))
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

        def run(directory, stop_at):
            StreamingChunkIndex.create(directory, _base_index(base)).close()
            with StreamingChunkIndex.open(directory) as index:
                index.apply(first)
                index.checkpoint()
            index = StreamingChunkIndex.open(directory)
            index.apply(second)
            with record(directory, stop_at) as recording:
                try:
                    index.checkpoint()
                finally:
                    index.close()
            return recording

        reference_dir = str(tmp_path / "reference")
        ops = run(reference_dir, None).ops
        kill = 1 + next(i for i, op in enumerate(ops) if self.KILLS[site](op))
        directory = str(tmp_path / "crashed")
        with pytest.raises(InjectedCrash):
            run(directory, kill)

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
