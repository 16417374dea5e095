"""Crash-safe streaming ingest: a durable, WAL-fronted chunk index.

:class:`StreamingChunkIndex` extends the in-memory
:class:`~repro.core.maintenance.ChunkIndexMaintainer` with an on-disk
form that survives a crash at any point.  The directory holds

* ``base-<g>.dat`` / ``base-<g>.idx`` — the last full base generation,
  written with the standard checksummed v2 chunk/index writers;
* ``wal-<c>.log`` — the write-ahead log
  (:mod:`repro.storage.wal`): every insert/delete batch is framed,
  CRC-checked and committed *before* it is applied in memory, so the
  return from :meth:`StreamingChunkIndex.apply` is the durability
  acknowledgement;
* ``delta-<c>.pack`` — one checkpoint pack per checkpoint
  (:mod:`repro.storage.delta`): the tombstone bitmap + appended records
  of every chunk that was *dirty* at checkpoint ``c``, one section each,
  written as a single sequential file.  A chunk that stays clean keeps
  pointing into the older pack, so a pack lives until its last
  referenced section is superseded or the base is rebuilt;
* ``MANIFEST.json`` — the atomically-replaced pointer that names the
  base generation, the live WAL, the live packs and each chunk's
  provenance (pack + section) and exact centroid/radius summary.  No
  page extent is recorded: a chunk's extent is derived from the chunks
  (payload pages, contiguous in position order), the layout a base
  rebuild writes.

A saved index (:func:`save_generation`) is a generation with an empty WAL,
no packs, a code file ``base-<g>.va`` and a saved system's ``base-<g>.sys``.

Every state transition, a save included, follows the same discipline:
write new files under new names, fsync, publish the manifest with
:func:`repro.storage.atomic.atomic_output`, then garbage-collect what
the new manifest no longer references.  A crash anywhere leaves either
the old manifest (whose files are all still present) or the new one.
Recovery (:meth:`StreamingChunkIndex.open`) is one read-only loader —
the same one :func:`verify_streaming_index` runs, so a directory that
verifies always opens — which validates the manifest, reconstructs the
checkpoint state and replays the committed batches through the
identical maintainer code path, followed by the repairs: truncate the
WAL's torn tail, remove orphans, resume the log.  Because member order
round-trips exactly (live base rows in base order, then appends in
insertion order), recovered centroids, radii, rectangles and extents are
bit-identical to the uncrashed process — which keeps the pruning bounds
(sphere and rectangle) exactness-preserving across crashes.
The manifest stores centroid and radius for verification only;
rectangles, like every summary a search uses, are recomputed from the
members.

Simulated cost: every mutation and checkpoint is charged through the
:class:`~repro.simio.disk_model.DiskModel` write path (sequential write
plus one sync per durability barrier — a checkpoint has four: pack,
fresh WAL, manifest + directory — however many chunks are dirty) and
accumulated in ``io_seconds``, so the ingest experiments report the same
deterministic simulated time the query path uses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zlib
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    cast,
)

import numpy as np

from ..simio.disk_model import DiskModel
from ..storage.atomic import atomic_output, fsync_directory, remove_file
from ..storage.chunk_file import ChunkExtent, ChunkFileReader, write_chunk_file
from ..storage.code_file import CodeFileReader, encode_cells, write_code_file
from ..storage.delta import DeltaPackReader, DeltaSection, write_delta_pack
from ..storage.errors import CorruptFileError
from ..storage.index_file import read_index_file, round_outward, write_index_file
from ..storage.pages import PageGeometry
from ..storage.wal import (
    OP_DELETE,
    OP_INSERT,
    WalOp,
    WalScan,
    WalWriter,
    scan_wal,
    truncate_wal,
)
from .chunk import ChunkMeta, bounding_rectangle, summarize_members
from .chunk_index import ChunkIndex, OnDiskChunkStore
from .distance import squared_distances
from .maintenance import (
    MERGE_FRACTION,
    SPLIT_FACTOR,
    ChunkIndexMaintainer,
    ChunkSnapshot,
    ChunkSummary,
    DeltaRef,
    MaintenanceStats,
    mean_chunk_size,
)

__all__ = [
    "MANIFEST_NAME",
    "FORMAT_NAME",
    "RecoveryReport",
    "CheckpointReport",
    "StreamingChunkIndex",
    "open_generation",
    "save_generation",
    "verify_streaming_index",
]

MANIFEST_NAME = "MANIFEST.json"
FORMAT_NAME = "repro-streaming-index"
FORMAT_VERSION = 3

#: File-name patterns owned by the streaming index (garbage collection
#: only ever touches these).
_OWNED_PREFIXES = ("base-", "wal-", "delta-")
#: Compact JSON keeps the encoder in C (``indent`` forces the pure-Python
#: one); ``python -m json.tool`` pretty-prints the file.
_MANIFEST_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _generation_file(generation: int, kind: str) -> str:
    """A generation's ``dat``/``idx`` base file, ``va`` code file or ``sys``."""
    return f"base-{generation:06d}.{kind}"


def _wal_name(checkpoint: int) -> str:
    return f"wal-{checkpoint:06d}.log"


def _pack_name(checkpoint: int) -> str:
    return f"delta-{checkpoint:06d}.pack"


class RecoveryReport(NamedTuple):
    """What :meth:`StreamingChunkIndex.open` found and repaired."""

    replayed_batches: int
    replayed_ops: int
    torn_bytes: int
    discarded_ops: int
    orphans_removed: int


class CheckpointReport(NamedTuple):
    """What one checkpoint pass wrote.

    ``segments_written`` counts the pack's sections (one per dirty chunk
    that diverges from its base) and ``segment_bytes`` is the pack file's
    size.
    """

    checkpoint: int
    segments_written: int
    segment_bytes: int


def _extent(meta: ChunkMeta) -> ChunkExtent:
    """Where ``meta``'s chunk lies in its chunk file."""
    return ChunkExtent(meta.page_offset, meta.page_count, meta.n_descriptors)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptFileError(message)


class StreamingChunkIndex:
    """A mutable chunk index whose state survives crashes.

    Construct with :meth:`create` (from a built
    :class:`~repro.core.chunk_index.ChunkIndex`) or :meth:`open`
    (recovery from a directory).  Mutate with :meth:`apply`; persist
    dirty chunks with :meth:`checkpoint`; fold everything back into a
    fresh base generation with :meth:`rebuild_base`.
    """

    def __init__(
        self,
        *,
        directory: str,
        name: str,
        maintainer: ChunkIndexMaintainer,
        wal: WalWriter,
        generation: int,
        checkpoint_seq: int,
        base_counts: List[int],
        disk: DiskModel,
        recovery: Optional[RecoveryReport],
    ):
        self.directory = directory
        self.name = name
        self.maintainer = maintainer
        self._wal = wal
        self.generation = int(generation)
        self.checkpoint_seq = int(checkpoint_seq)
        self._base_counts = base_counts
        self._disk = disk
        #: Recovery findings when this instance came from :meth:`open`.
        self.recovery = recovery
        #: Simulated seconds of ingest/checkpoint I/O charged so far.
        self.io_seconds = 0.0
        self._poisoned = False
        self._closed = False

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str,
        index: ChunkIndex,
        disk: Optional[DiskModel] = None,
        name: str = "",
    ) -> "StreamingChunkIndex":
        """Persist ``index`` as generation 0 of a new streaming directory."""
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise ValueError(
                f"directory {directory!r} already holds a streaming index"
            )
        maintainer = ChunkIndexMaintainer(index)
        self = cls(
            directory=directory,
            name=name or index.name,
            maintainer=maintainer,
            wal=WalWriter.create(
                os.path.join(directory, _wal_name(0)),
                maintainer.dimensions,
                tag=0,
            ),
            generation=0,
            checkpoint_seq=0,
            base_counts=[],
            disk=disk or DiskModel(),
            recovery=None,
        )
        try:
            self._persist_base()
        except BaseException:
            self._poisoned = True
            raise
        return self

    @classmethod
    def open(
        cls, directory: str, disk: Optional[DiskModel] = None
    ) -> "StreamingChunkIndex":
        """Recover a streaming index from its directory.

        Runs the read-only loader :func:`verify_streaming_index` also runs
        — manifest, checkpoint state from base + packs, every committed
        batch replayed — so any damage raises :class:`CorruptFileError`
        before a byte is written.  Then repairs: truncates the WAL's
        uncommitted suffix, garbage-collects files the manifest no longer
        references and resumes the log.  The resulting in-memory state is
        bit-identical to the process that wrote the log.
        """
        loaded = _Loaded()
        for _ in _load(directory, loaded):
            pass
        manifest, scan = loaded.manifest, loaded.scan
        wal_path = os.path.join(directory, manifest["wal_file"])
        torn = truncate_wal(wal_path, scan)
        orphans = _collect_garbage(directory, manifest)
        writer = WalWriter.resume(wal_path, scan)
        writer.next_batch_seq = manifest["next_batch_seq"] + len(scan.batches)
        return cls(
            directory=directory,
            name=manifest["name"],
            maintainer=loaded.maintainer,
            wal=writer,
            generation=manifest["generation"],
            checkpoint_seq=manifest["checkpoint"],
            base_counts=[m.n_descriptors for m in loaded.base_metas],
            disk=disk or DiskModel(),
            recovery=RecoveryReport(
                replayed_batches=len(scan.batches),
                replayed_ops=sum(len(batch.ops) for batch in scan.batches),
                torn_bytes=torn,
                discarded_ops=scan.discarded_ops,
                orphans_removed=orphans,
            ),
        )

    # -- properties ------------------------------------------------------------

    @property
    def dimensions(self) -> int:
        return self.maintainer.dimensions

    @property
    def n_descriptors(self) -> int:
        return len(self.maintainer)

    @property
    def last_batch_seq(self) -> int:
        """Sequence number of the last durable batch (``-1`` when none).

        After a crash, a driver resubmits exactly the batches it never
        saw acknowledged whose sequence exceeds this value.
        """
        return self._wal.next_batch_seq - 1

    def to_index(self, name: str = "") -> ChunkIndex:
        """Materialize the current state as a searchable index."""
        return self.maintainer.to_index(name or self.name)

    # -- mutation --------------------------------------------------------------

    def _guard(self) -> None:
        if self._closed:
            raise ValueError("streaming index is closed")
        if self._poisoned:
            raise ValueError(
                "streaming index is poisoned by an earlier failure; "
                "reopen the directory to recover"
            )

    def apply(self, ops: Sequence[WalOp]) -> int:
        """Durably apply one batch of inserts/deletes; returns its sequence.

        The batch is validated, appended to the WAL and fsynced (group
        commit — one sync however many operations) *before* the in-memory
        index is touched; the return is the acknowledgement.  A crash
        after the WAL commit but before the ack leaves the batch fully
        applied by recovery — never partially.
        """
        self._guard()
        _validate_batch(self.maintainer, ops, self.dimensions)
        try:
            before = self._wal.bytes_written
            seq = self._wal.append_batch(ops)
            self.io_seconds += (
                self._disk.sequential_write_time_s(self._wal.bytes_written - before)
                + self._disk.sync_time_s
            )
            for op in ops:
                _apply_op(self.maintainer, op)
        except BaseException:
            self._poisoned = True
            raise
        return seq

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> CheckpointReport:
        """Persist dirty chunks as one checkpoint pack and rotate the WAL.

        This is the background compactor's unit of work: only chunks
        mutated since their last checkpoint are rewritten (each as a
        tombstone-bitmap + appended-records section of a single pack
        file, published by one atomic write); clean chunks keep their base
        chunks or their sections of earlier packs.  Ends by publishing a
        new manifest and garbage-collecting superseded files.
        """
        self._guard()
        try:
            return self._checkpoint()
        except BaseException:
            self._poisoned = True
            raise

    def _checkpoint(self) -> CheckpointReport:
        maintainer = self.maintainer
        checkpoint = self.checkpoint_seq + 1
        diverged: List[int] = []
        for position in maintainer.dirty_positions():
            if self._is_clean_base_chunk(*maintainer.provenance(position)):
                maintainer.checkpointed(position, None)
            else:
                diverged.append(position)
        pack_bytes = 0
        if diverged:
            pack = _pack_name(checkpoint)
            # One section per diverged chunk, snapshotted as the writer
            # asks for it: the pack streams, it is never held whole.
            pack_bytes = write_delta_pack(
                os.path.join(self.directory, pack),
                self.dimensions,
                len(diverged),
                (self._section(maintainer.snapshot(p)) for p in diverged),
            )
            self._charge_write(pack_bytes)
            for section, position in enumerate(diverged):
                maintainer.checkpointed(position, DeltaRef(pack, section))
        self._rotate_wal(checkpoint)
        self.checkpoint_seq = checkpoint
        self._publish_manifest()
        return CheckpointReport(
            checkpoint=checkpoint,
            segments_written=len(diverged),
            segment_bytes=pack_bytes,
        )

    def rebuild_base(self) -> int:
        """Fold the whole state into a fresh base generation.

        Writes new checksummed base chunk/index files, declares every
        chunk a clean base chunk, and rotates the WAL — the full-rebuild
        alternative to a checkpoint once the live packs hold more dead
        sections than they are worth.  Returns the new generation number.
        """
        self._guard()
        try:
            self.generation += 1
            self.checkpoint_seq += 1
            self._persist_base()
        except BaseException:
            self._poisoned = True
            raise
        return self.generation

    def _persist_base(self) -> None:
        """Shared by :meth:`create` and :meth:`rebuild_base`.

        Order matters for crash safety: chunk file, index file, fresh
        WAL, then the commit (:func:`_commit`).  Until the manifest lands,
        the previous manifest's files are all intact.
        """
        maintainer = self.maintainer
        directory = self.directory
        chunk_path = os.path.join(directory, _generation_file(self.generation, "dat"))
        snaps = map(maintainer.snapshot, range(maintainer.n_chunks))
        extents, _ = write_chunk_file(
            chunk_path,
            maintainer.dimensions,
            ((np.asarray(snap.ids, dtype=np.int64), snap.vectors) for snap in snaps),
            maintainer.geometry,
        )
        self._charge_write(os.path.getsize(chunk_path))
        maintainer.rebase()
        index_path = os.path.join(directory, _generation_file(self.generation, "idx"))
        metas = [summary.meta for summary in maintainer.summaries()]
        if [(e.page_offset, e.page_count) for e in extents] != [
            (m.page_offset, m.page_count) for m in metas
        ]:
            raise AssertionError("the chunk file's extents must be the maintainer's")
        write_index_file(index_path, metas)
        self._charge_write(os.path.getsize(index_path))
        self._base_counts = [m.n_descriptors for m in metas]
        self._rotate_wal(self.checkpoint_seq)
        self._publish_manifest()

    def _rotate_wal(self, checkpoint: int) -> None:
        """Close the live WAL and start a fresh one for ``checkpoint``.

        Batch sequence numbers continue across rotations, so a driver's
        acknowledgement bookkeeping survives checkpoints unchanged.
        """
        next_seq = self._wal.next_batch_seq
        self._wal.close()
        self._wal = WalWriter.create(
            os.path.join(self.directory, _wal_name(checkpoint)),
            self.dimensions,
            tag=checkpoint,
            next_batch_seq=next_seq,
        )
        self._charge_write(self._wal.bytes_written)

    def _is_clean_base_chunk(self, base_ref: int, origins: Tuple[int, ...]) -> bool:
        """True when the chunk's contents equal its base chunk exactly."""
        if base_ref < 0 or base_ref >= len(self._base_counts):
            return False
        base_rows = self._base_counts[base_ref]
        return len(origins) == base_rows and origins == tuple(range(base_rows))

    def _section(self, snap: ChunkSnapshot) -> DeltaSection:
        """One chunk's divergence from its base chunk, as a pack section."""
        base_ref = snap.base_ref
        live: Optional[np.ndarray] = None
        n_base = 0
        if base_ref >= 0:
            _require(
                base_ref < len(self._base_counts),
                f"chunk references base chunk {base_ref} outside generation",
            )
            base_rows = self._base_counts[base_ref]
            origins = np.asarray(snap.origins, dtype=np.int64)
            base_part = origins[origins >= 0]
            # The origin-prefix invariant the maintainer preserves: base
            # rows first (strictly increasing), appends after.
            if base_part.size:
                if int(origins[: base_part.size].min()) < 0 or not bool(
                    np.all(np.diff(base_part) > 0)
                ):
                    raise AssertionError("chunk origin prefix invariant violated")
                _require(
                    int(base_part.max()) < base_rows,
                    f"chunk origin row beyond base chunk {base_ref}",
                )
            live = np.zeros(base_rows, dtype=bool)
            live[base_part] = True
            n_base = int(base_part.size)
        return DeltaSection(
            base_ref,
            live,
            np.asarray(snap.ids[n_base:], dtype=np.int64),
            snap.vectors[n_base:],
        )

    def _publish_manifest(self) -> None:
        """Commit the current state (:func:`_commit`) and charge it."""
        maintainer = self.maintainer
        summaries = maintainer.summaries()
        if any(summary.dirty for summary in summaries):
            raise AssertionError("cannot publish a manifest over dirty chunks")
        manifest = _manifest(
            self.generation,
            self.checkpoint_seq,
            summaries,
            name=self.name,
            dimensions=self.dimensions,
            page_bytes=maintainer.geometry.page_bytes,
            target_chunk_size=maintainer.target_chunk_size,
            next_batch_seq=self._wal.next_batch_seq,
            stats=dataclasses.asdict(maintainer.stats),
        )
        self._charge_write(_commit(self.directory, manifest))

    def _charge_write(self, n_bytes: int) -> None:
        self.io_seconds += (
            self._disk.sequential_write_time_s(int(n_bytes)) + self._disk.sync_time_s
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._wal.close()

    def __enter__(self) -> "StreamingChunkIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the commit point ------------------------------------------------------------


def _manifest(
    generation: int, checkpoint: int, summaries: Sequence[ChunkSummary], **fields: Any
) -> Dict[str, Any]:
    """The manifest: ``fields`` are name, dimensions, page size, target size,
    next batch sequence and maintenance stats.  Its ``chunks`` is a
    generator: :func:`_commit` builds and encodes one entry at a time."""
    # Each live pack is named once; a chunk points at (pack index, section).
    packs = sorted({s.delta.pack for s in summaries if s.delta is not None})
    pack_index = {name: i for i, name in enumerate(packs)}
    chunks = (
        {
            "base_ref": summary.base_ref,
            "delta": None
            if summary.delta is None
            else [pack_index[summary.delta.pack], summary.delta.section],
            "n_descriptors": summary.meta.n_descriptors,
            "centroid": summary.meta.centroid.tolist(),
            "radius": summary.meta.radius,
        }
        for summary in summaries
    )
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "generation": generation,
        "checkpoint": checkpoint,
        "base_chunk_file": _generation_file(generation, "dat"),
        "base_index_file": _generation_file(generation, "idx"),
        "wal_file": _wal_name(checkpoint),
        "packs": packs,
        "split_factor": SPLIT_FACTOR,
        "merge_fraction": MERGE_FRACTION,
        "chunks": chunks,
        **fields,
    }


def _commit(directory: str, manifest: Dict[str, Any]) -> int:
    """The commit point: publish ``manifest`` (atomic replace, directory
    fsync), then remove what it no longer references; returns its size.
    The chunk entries are encoded one at a time, as :func:`_manifest`'s
    generator builds them, into the bytes one encoding of the whole
    manifest gives: a few hundred float lists alive at once would leave
    their allocator pages behind in the process."""
    entries = ",".join(_MANIFEST_JSON.encode(entry) for entry in manifest["chunks"])
    # JSON escapes every quote inside a string, so the one unescaped
    # '"chunks":[]' is the field's own.
    text = _MANIFEST_JSON.encode({**manifest, "chunks": []}).replace(
        '"chunks":[]', f'"chunks":[{entries}]', 1
    )
    payload = (text + "\n").encode("ascii")
    with atomic_output(os.path.join(directory, MANIFEST_NAME)) as stream:
        stream.write(payload)
    fsync_directory(directory)
    _collect_garbage(directory, manifest)
    return len(payload)


def _file_crc32(path: str) -> int:
    """CRC32 of a whole file (what the code file binds the index file by)."""
    with open(path, "rb") as stream:
        return zlib.crc32(stream.read())


def save_generation(
    index: ChunkIndex,
    directory: str,
    write_system: Optional[Callable[[BinaryIO], None]],
) -> None:
    """Save ``index`` as a new generation of ``directory``, numbered above
    every generation and checkpoint there: chunk file, index file, the code
    file bound to both, ``write_system``'s output and an empty WAL under
    fresh names, then the manifest flip (:func:`_commit`)."""
    os.makedirs(directory, exist_ok=True)
    names = [name for name in os.listdir(directory) if name.startswith(_OWNED_PREFIXES)]
    numbers = [name.split("-")[1].split(".")[0] for name in names]
    generation = max((int(n) for n in numbers if n.isdigit()), default=-1) + 1

    def path(kind: str) -> str:
        return os.path.join(directory, _generation_file(generation, kind))

    extents, table_crc = write_chunk_file(
        path("dat"),
        index.dimensions,
        (index.read_chunk(chunk_id) for chunk_id in range(index.n_chunks)),
        PageGeometry(),
    )
    write_index_file(
        path("idx"),
        [
            dataclasses.replace(
                meta, chunk_id=i, page_offset=e.page_offset, page_count=e.page_count
            )
            for i, (meta, e) in enumerate(zip(index.metas, extents))
        ],
    )
    # The cells divide the rectangle as the index file stores it, which
    # is the one a loaded index bounds with.
    lower, upper = round_outward(*index.rectangle_matrices())
    write_code_file(
        path("va"),
        index.dimensions,
        index.n_chunks,
        ((index.read_chunk(i)[1], lower[i], upper[i]) for i in range(index.n_chunks)),
        table_crc,
        _file_crc32(path("idx")),
    )
    if write_system is not None:
        with atomic_output(path("sys")) as stream:
            write_system(stream)
    wal_path = os.path.join(directory, _wal_name(generation))
    WalWriter.create(wal_path, index.dimensions, tag=generation).close()
    manifest = _manifest(
        generation,
        generation,
        [ChunkSummary(meta, i, None, False) for i, meta in enumerate(index.metas)],
        name=index.name,
        dimensions=index.dimensions,
        page_bytes=PageGeometry().page_bytes,
        target_chunk_size=mean_chunk_size(index),
        next_batch_seq=0,
        stats=dataclasses.asdict(MaintenanceStats()),
    )
    _commit(directory, manifest)


def open_generation(directory: str, name: str) -> Tuple[ChunkIndex, str]:
    """The index of the generation ``directory``'s manifest names, opened
    in place (no chunk read; codes bound to its base files), and the path
    of its saved system.  Packs or committed WAL batches are refused:
    :meth:`StreamingChunkIndex.open` replays them."""
    manifest = _read_manifest(directory)
    generation, dimensions = manifest["generation"], manifest["dimensions"]
    _require(
        not manifest["packs"]
        and not scan_wal(os.path.join(directory, manifest["wal_file"])).batches,
        f"{directory!r} holds checkpointed or logged changes; "
        "open it with StreamingChunkIndex.open",
    )
    # The parsed entries go before the index file is read, so their float
    # lists do not pin allocator pages under the index's objects.
    described = [
        (c["base_ref"], c["delta"], c["n_descriptors"]) for c in manifest.pop("chunks")
    ]
    index_path = os.path.join(directory, manifest["base_index_file"])
    metas = read_index_file(index_path)
    _require(
        described == [(i, None, meta.n_descriptors) for i, meta in enumerate(metas)]
        and metas[0].centroid.shape == (dimensions,),
        f"the manifest of {directory!r} does not describe its base index file",
    )
    store = OnDiskChunkStore(
        os.path.join(directory, manifest["base_chunk_file"]),
        [_extent(meta) for meta in metas],
        dimensions,
        PageGeometry(page_bytes=manifest["page_bytes"]),
    )
    codes: Optional[CodeFileReader] = None
    codes_path = os.path.join(directory, _generation_file(generation, "va"))
    try:
        if os.path.exists(codes_path):
            counts = [meta.n_descriptors for meta in metas]
            binding = (store.table_crc, _file_crc32(index_path))
            codes = CodeFileReader(codes_path, dimensions, counts, *binding)
    except BaseException:
        store.close()
        raise
    index = ChunkIndex(metas, store, dimensions, name, codes)
    return index, os.path.join(directory, _generation_file(generation, "sys"))


# -- the loader ----------------------------------------------------------------

#: Integer manifest fields and the least value each may hold.
_MANIFEST_INTS = {
    "dimensions": 1,
    "generation": 0,
    "checkpoint": 0,
    "next_batch_seq": 0,
    "page_bytes": 1,
    "target_chunk_size": 1,
}
#: Integer fields of a manifest chunk entry and the least value each may hold.
_CHUNK_INTS = {"base_ref": -1, "n_descriptors": 1}
_STATS_FIELDS = sorted(field.name for field in dataclasses.fields(MaintenanceStats))


def _is_int(value: Any, least: int) -> bool:
    return type(value) is int and value >= least


def _read_manifest(directory: str) -> Dict[str, Any]:
    """The manifest, every field checked for presence, type and range."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="ascii") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise CorruptFileError(f"no index manifest ({MANIFEST_NAME}) in {directory!r}")
    except (OSError, ValueError) as error:
        raise CorruptFileError(f"unreadable index manifest: {error}")
    _require(isinstance(manifest, dict), "manifest must be a JSON object")
    _require(
        manifest.get("format") == FORMAT_NAME,
        f"manifest format is not {FORMAT_NAME!r}",
    )
    _require(
        manifest.get("version") == FORMAT_VERSION,
        f"unsupported manifest version {manifest.get('version')!r}",
    )
    _require(
        isinstance(manifest.get("name"), str), "manifest field 'name' must be a string"
    )
    for key, least in _MANIFEST_INTS.items():
        _require(
            _is_int(manifest.get(key), least),
            f"manifest field {key!r} must be an int >= {least}",
        )
    for key, constant in (
        ("split_factor", SPLIT_FACTOR),
        ("merge_fraction", MERGE_FRACTION),
    ):
        _require(
            manifest.get(key) == constant, f"manifest field {key!r} must be {constant}"
        )
    stats = manifest.get("stats")
    _require(
        isinstance(stats, dict)
        and sorted(stats) == _STATS_FIELDS
        and all(_is_int(count, 0) for count in stats.values()),
        f"manifest stats must be the ints >= 0 {_STATS_FIELDS}",
    )
    packs = manifest.get("packs")
    _require(isinstance(packs, list), "manifest field 'packs' must be a list")
    files = [
        manifest.get(key) for key in ("base_chunk_file", "base_index_file", "wal_file")
    ]
    for value in files + packs:
        _require(
            isinstance(value, str) and os.path.basename(value) == value,
            f"manifest file reference {value!r} must be a bare file name",
        )
        _require(
            os.path.exists(os.path.join(directory, value)),
            f"manifest references missing file {value!r}",
        )
    chunks = manifest.get("chunks")
    _require(
        isinstance(chunks, list) and bool(chunks),
        "manifest must list at least one chunk",
    )
    for position, entry in enumerate(chunks):
        where = f"manifest chunk {position}"
        _require(isinstance(entry, dict), f"{where} must be an object")
        for key, least in _CHUNK_INTS.items():
            _require(
                _is_int(entry.get(key), least),
                f"{where} field {key!r} must be an int >= {least}",
            )
        delta = entry.get("delta", "missing")
        _require(
            delta is None
            or isinstance(delta, list)
            and len(delta) == 2
            and _is_int(delta[0], 0)
            and delta[0] < len(packs)
            and _is_int(delta[1], 0),
            f"{where} has a malformed delta reference {delta!r}",
        )
        centroid = entry.get("centroid")
        _require(
            isinstance(centroid, list)
            and len(centroid) == manifest["dimensions"]
            and all(type(value) is float for value in centroid)
            and type(entry.get("radius")) is float,
            f"{where} needs a float centroid of {manifest['dimensions']} "
            "components and a float radius",
        )
    return cast(Dict[str, Any], manifest)


class _Loaded:
    """What :func:`_load` has read so far; ``stage`` names the stage running."""

    stage: str
    manifest: Dict[str, Any]
    base_metas: List[ChunkMeta]
    maintainer: ChunkIndexMaintainer
    scan: WalScan


def _load(directory: str, loaded: _Loaded) -> Iterator[str]:
    """Read and validate everything a recovery needs; writes nothing.

    The one loader of a streaming directory, one stage per ``next()``.
    Each stage fills ``loaded`` and yields a one-line account of itself:

    * ``manifest`` — every field present, typed and in range, every
      referenced file present (:func:`_read_manifest`);
    * ``storage`` — the base index, then each chunk's checkpoint state
      rebuilt from the base chunk file and its pack section, every read
      CRC-checked and every count matched to the manifest;
    * ``summaries`` — the maintainer restored from that state;
    * ``wal`` — the log scanned, its dimensionality, checkpoint tag and
      batch sequence matched to the manifest;
    * ``liveness`` — every committed batch replayed in memory.

    Anything malformed raises :class:`CorruptFileError` and nothing else:
    a ``KeyError``, ``TypeError`` or ``ValueError`` out of parsing, the
    restore or the replay is raised as one.
    """
    try:
        loaded.stage = "manifest"
        manifest = loaded.manifest = _read_manifest(directory)
        yield (
            f"generation {manifest['generation']}, checkpoint "
            f"{manifest['checkpoint']}, {len(manifest['chunks'])} chunks"
        )

        loaded.stage = "storage"
        geometry = PageGeometry(page_bytes=manifest["page_bytes"])
        base_metas = loaded.base_metas = read_index_file(
            os.path.join(directory, manifest["base_index_file"])
        )
        snaps = _load_chunk_snapshots(directory, manifest, base_metas, geometry)
        yield (
            f"{len(base_metas)} base chunks, "
            f"{sum(1 for s in snaps if s.delta is not None)} delta sections "
            f"in {len(manifest['packs'])} pack file(s), all checksums verified"
        )

        loaded.stage = "summaries"
        maintainer = loaded.maintainer = ChunkIndexMaintainer.restore(
            dimensions=manifest["dimensions"],
            chunks=snaps,
            target_chunk_size=manifest["target_chunk_size"],
            geometry=geometry,
            stats=MaintenanceStats(**manifest["stats"]),
        )
        yield f"{len(snaps)} chunks restored"

        loaded.stage = "wal"
        scan = loaded.scan = scan_wal(os.path.join(directory, manifest["wal_file"]))
        _require(
            scan.dimensions == manifest["dimensions"],
            "wal dimensionality does not match the manifest",
        )
        _require(
            scan.tag == manifest["checkpoint"],
            "wal checkpoint tag does not match the manifest",
        )
        for expected, batch in enumerate(scan.batches, manifest["next_batch_seq"]):
            _require(
                batch.batch_seq == expected,
                f"wal batch sequence gap: expected {expected}, "
                f"found {batch.batch_seq}",
            )
        yield (
            f"{len(scan.batches)} committed batches, "
            f"{scan.torn_bytes} torn tail bytes "
            f"({scan.discarded_ops} uncommitted ops to discard)"
        )

        loaded.stage = "liveness"
        for batch in scan.batches:
            for op in batch.ops:
                _apply_op(maintainer, op)
        yield (
            f"{len(maintainer)} live descriptors in {maintainer.n_chunks} "
            f"chunks after replaying {len(scan.batches)} batches"
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CorruptFileError(
            f"{loaded.stage} does not load: {type(error).__name__}: {error}"
        ) from error


def _load_chunk_snapshots(
    directory: str,
    manifest: Dict[str, Any],
    base_metas: Sequence[ChunkMeta],
    geometry: PageGeometry,
) -> List[ChunkSnapshot]:
    """Reconstruct every chunk's checkpoint state from base + packs.

    Each referenced pack is opened once; a pack's sections were written
    in chunk-position order and positions only ever shift together, so
    walking the manifest's chunks reads every pack front to back.
    """
    dimensions = manifest["dimensions"]
    snaps: List[ChunkSnapshot] = []
    base_path = os.path.join(directory, manifest["base_chunk_file"])
    with contextlib.ExitStack() as stack:
        base_reader = stack.enter_context(
            ChunkFileReader(base_path, dimensions, geometry)
        )
        packs: Dict[str, DeltaPackReader] = {}
        for position, entry in enumerate(manifest["chunks"]):
            base_ref = entry["base_ref"]
            delta: Optional[DeltaRef] = None
            section: Optional[DeltaSection] = None
            if entry["delta"] is not None:
                pack, number = entry["delta"]
                delta = DeltaRef(manifest["packs"][pack], number)
                if delta.pack not in packs:
                    packs[delta.pack] = stack.enter_context(
                        DeltaPackReader(os.path.join(directory, delta.pack), dimensions)
                    )
                section = packs[delta.pack].read_section(number)
            ids, vectors, origins = _reconstruct_chunk(
                base_reader, base_metas, base_ref, section, f"of chunk {position}"
            )
            _require(
                len(ids) == entry["n_descriptors"],
                f"manifest chunk {position} claims {entry['n_descriptors']} "
                f"descriptors, reconstruction found {len(ids)}",
            )
            snaps.append(
                ChunkSnapshot(
                    ids=tuple(ids.tolist()),
                    vectors=vectors,
                    origins=tuple(origins),
                    base_ref=base_ref,
                    delta=delta,
                    dirty=False,
                )
            )
    return snaps


def _reconstruct_chunk(
    base_reader: ChunkFileReader,
    base_metas: Sequence[ChunkMeta],
    base_ref: int,
    section: Optional[DeltaSection],
    where: str,
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """One chunk's ``(ids, vectors, origins)`` at checkpoint time.

    Member order is the durability contract: live base rows in base
    order, then appended records in insertion order.
    """
    if section is None:
        _require(
            0 <= base_ref < len(base_metas),
            f"manifest entry {where} has no delta and no valid base chunk",
        )
        meta = base_metas[base_ref]
        ids, vectors = base_reader.read_chunk(_extent(meta))
        return ids, vectors, list(range(len(ids)))
    _require(
        section.base_ref == base_ref,
        f"delta section {where} targets base chunk {section.base_ref}, "
        f"manifest says {base_ref}",
    )
    if base_ref < 0:
        _require(section.ids.size > 0, f"baseless delta section {where} is empty")
        return section.ids, section.vectors, [-1] * int(section.ids.size)
    _require(
        base_ref < len(base_metas),
        f"delta section {where} references base chunk {base_ref} "
        "outside the generation",
    )
    meta = base_metas[base_ref]
    live = np.asarray(section.live)
    _require(
        live.size == meta.n_descriptors,
        f"delta section {where} mask covers {live.size} rows, "
        f"base chunk holds {meta.n_descriptors}",
    )
    base_ids, base_vectors = base_reader.read_chunk(_extent(meta))
    live_rows = np.flatnonzero(live)
    ids = np.concatenate([base_ids[live_rows], section.ids])
    parts = [base_vectors[live_rows], section.vectors]
    vectors = np.concatenate(parts, dtype=np.float32)
    _require(ids.size > 0, f"delta section {where} leaves the chunk empty")
    origins = live_rows.tolist() + [-1] * int(section.ids.size)
    return ids, vectors, origins


def _apply_op(maintainer: ChunkIndexMaintainer, op: WalOp) -> None:
    if op.kind == OP_INSERT:
        if op.vector is None:
            raise CorruptFileError("insert op lost its vector")
        maintainer.insert(op.descriptor_id, op.vector)
    elif op.kind == OP_DELETE:
        maintainer.delete(op.descriptor_id)
    else:
        raise CorruptFileError(f"unknown wal op kind {op.kind!r}")


def _validate_batch(
    maintainer: ChunkIndexMaintainer, ops: Sequence[WalOp], dimensions: int
) -> None:
    """Reject a batch that could not replay cleanly.

    Validation happens *before* the WAL append: once a batch commits it
    must apply without error during recovery, so duplicate inserts,
    deletes of absent ids, malformed and non-finite vectors are caught here.
    """
    if not ops:
        raise ValueError("a batch needs at least one operation")
    pending: Dict[int, bool] = {}
    # One row per op, a delete's left zero: one finiteness check at the end.
    rows = np.zeros((len(ops), dimensions), dtype=np.float32)
    lowest, highest = np.iinfo(np.int32).min, np.iinfo(np.int32).max
    for position, op in enumerate(ops):
        descriptor_id = int(op.descriptor_id)
        if not lowest <= descriptor_id <= highest:
            raise ValueError(
                f"descriptor id {descriptor_id} does not fit the on-disk "
                "int32 field"
            )
        present = pending.get(descriptor_id, descriptor_id in maintainer)
        if op.kind == OP_INSERT:
            if op.vector is None:
                raise ValueError("insert op requires a vector")
            vector = np.asarray(op.vector, dtype=np.float32).reshape(-1)
            if vector.shape[0] != dimensions:
                raise ValueError("insert vector dimensionality mismatch")
            if present:
                raise ValueError(f"descriptor id {descriptor_id} already present")
            pending[descriptor_id] = True
            rows[position] = vector
        elif op.kind == OP_DELETE:
            if not present:
                raise KeyError(f"descriptor id {descriptor_id} not in index")
            pending[descriptor_id] = False
        else:
            raise ValueError(f"unknown wal op kind {op.kind!r}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = ops[int(finite.argmin())].descriptor_id
        raise ValueError(f"insert vector of descriptor id {bad} is non-finite")


def _collect_garbage(directory: str, manifest: Dict[str, Any]) -> int:
    """Remove owned files the manifest no longer references (a
    generation's code file and saved system go with its base files).

    A pack stays while the manifest lists it, i.e. while any chunk still
    points at one of its sections; the other sections of such a pack are
    dead weight until the last pointer goes (or ``rebuild_base`` runs).
    """
    keep = {
        manifest["base_chunk_file"],
        manifest["base_index_file"],
        manifest["wal_file"],
        *manifest["packs"],
        *(_generation_file(manifest["generation"], kind) for kind in ("va", "sys")),
    }
    removed = 0
    for file_name in sorted(os.listdir(directory)):
        if file_name in keep or file_name == MANIFEST_NAME:
            continue
        if file_name.startswith(_OWNED_PREFIXES) or file_name.endswith(".tmp"):
            remove_file(os.path.join(directory, file_name))
            removed += 1
    return removed


# -- deep verification ------------------------------------------------------------


def verify_streaming_index(directory: str) -> Dict[str, Any]:
    """Deep consistency check of a streaming or saved index directory (read-only).

    Runs the loader :meth:`StreamingChunkIndex.open` runs, one stage per
    check (``manifest``, ``storage``, ``summaries``, ``wal``,
    ``liveness``), and adds the exactness checks recovery does not need:
    every stored centroid/radius summary equal to the one recomputed from
    the member rows (``summaries``); every live member inside its chunk's
    exact radius (``liveness``) and rectangle, and the base index's
    rectangle block equal to the base chunk contents' (``rectangles``) —
    the invariants the pruning bounds' soundness rests on; and, when the
    generation has a code file, its header bound to the base files and
    every block, CRC-checked, equal to the cell codes of its base chunk
    under the index file's rectangle (``codes``; an absent code file is
    reported, not failed: searches run without one).  The report ends at
    the first stage that does not load, so ``report["ok"]`` implies that
    ``open`` succeeds.

    Returns a JSON-ready report; ``report["ok"]`` is the verdict.  Never
    raises for a damaged directory and never mutates it (torn WAL tails
    are reported, not truncated).  A report that got past loading names
    the generation's system file (``system_file``), which only
    :func:`repro.system.verify_system_file` can check.
    """
    checks: List[Dict[str, Any]] = []
    summary: Dict[str, Any] = {"format": FORMAT_NAME, "checks": checks}

    def record(name: str, problems: List[str], detail: str) -> None:
        checks.append(
            {"name": name, "ok": not problems, "detail": "; ".join(problems) or detail}
        )

    loaded = _Loaded()
    stages = _load(directory, loaded)
    try:
        record("manifest", [], next(stages))
        record("storage", [], next(stages))
        detail = next(stages)
        record(
            "summaries",
            _inexact_summaries(loaded),
            f"{detail}; every stored centroid/radius summary recomputed exactly",
        )
        record("wal", [], next(stages))
        detail = next(stages)
        outside_radius, outside_rectangle = _stray_members(loaded.maintainer)
        record(
            "liveness",
            outside_radius,
            f"{detail}; every member inside its chunk's exact radius",
        )
    except OSError as error:  # CorruptFileError included
        record(loaded.stage, [str(error)], "")
        summary["ok"] = False
        return summary
    record(
        "rectangles",
        _base_rectangle_problems(directory, loaded) + outside_rectangle,
        f"{len(loaded.base_metas)} base rectangles recomputed exactly; "
        "every live member inside its chunk's rectangle",
    )
    record("codes", *_code_file_problems(directory, loaded))
    summary["ok"] = all(check["ok"] for check in checks)
    summary["n_descriptors"] = len(loaded.maintainer)
    summary["n_chunks"] = loaded.maintainer.n_chunks
    summary["replayed_batches"] = len(loaded.scan.batches)
    summary["torn_bytes"] = loaded.scan.torn_bytes
    summary["system_file"] = _generation_file(loaded.manifest["generation"], "sys")
    return summary


def _inexact_summaries(loaded: _Loaded) -> List[str]:
    """Chunks whose stored centroid or radius is not the one recomputed
    from the member rows (not the maintainer's running sums, which would
    check themselves)."""
    problems: List[str] = []
    for position, entry in enumerate(loaded.manifest["chunks"]):
        rows = loaded.maintainer.snapshot(position).vectors
        centroid, radius = summarize_members(rows)
        if entry["centroid"] != centroid.tolist():
            problems.append(f"chunk {position}: stored centroid is not exact")
        if entry["radius"] != radius:
            problems.append(f"chunk {position}: stored radius is not exact")
    return problems


def _stray_members(maintainer: ChunkIndexMaintainer) -> Tuple[List[str], List[str]]:
    """Live members outside their chunk's exact radius (and an id map that
    disagrees with the chunks), and live members outside its rectangle."""
    outside_radius: List[str] = []
    outside_rectangle: List[str] = []
    seen = 0
    for position, chunk in enumerate(maintainer.summaries()):
        meta = chunk.meta
        vectors = maintainer.snapshot(position).vectors
        seen += len(vectors)
        worst = float(np.sqrt(squared_distances(meta.centroid, vectors).max()))
        if worst > meta.radius:
            outside_radius.append(
                f"chunk {position}: member at distance {worst} exceeds radius "
                f"{meta.radius}"
            )
        if np.any(vectors < meta.lower) or np.any(vectors > meta.upper):
            outside_rectangle.append(f"chunk {position}: member outside its rectangle")
    if seen != len(maintainer):
        outside_radius.append(f"id map holds {len(maintainer)} ids, chunks hold {seen}")
    return outside_radius, outside_rectangle


def _base_rectangle_problems(directory: str, loaded: _Loaded) -> List[str]:
    """Base chunks whose stored rectangle is not their members' exact one."""
    manifest = loaded.manifest
    problems: List[str] = []
    try:
        with ChunkFileReader(
            os.path.join(directory, manifest["base_chunk_file"]),
            manifest["dimensions"],
            loaded.maintainer.geometry,
        ) as base_reader:
            for meta in loaded.base_metas:
                _, vectors = base_reader.read_chunk(_extent(meta))
                lower, upper = bounding_rectangle(vectors)
                if not (
                    np.array_equal(lower, meta.lower)
                    and np.array_equal(upper, meta.upper)
                ):
                    problems.append(
                        f"base chunk {meta.chunk_id}: stored rectangle is not exact"
                    )
    except OSError as error:  # CorruptFileError included
        problems.append(str(error))
    return problems


def _code_file_problems(directory: str, loaded: _Loaded) -> Tuple[List[str], str]:
    """The generation's code file opened as a search opens it (header bound
    to the base files), and every block, CRC-checked, compared with what
    :func:`save_generation` writes for its base chunk; the problems and the
    check's detail line.  No code file is no problem: searches run without."""
    manifest = loaded.manifest
    name = _generation_file(manifest["generation"], "va")
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return [], f"no code file {name} (searches run without one)"
    metas = loaded.base_metas
    problems: List[str] = []
    try:
        with ChunkFileReader(
            os.path.join(directory, manifest["base_chunk_file"]),
            manifest["dimensions"],
            loaded.maintainer.geometry,
        ) as base_reader, CodeFileReader(
            path,
            manifest["dimensions"],
            [meta.n_descriptors for meta in metas],
            base_reader.table_crc,
            _file_crc32(os.path.join(directory, manifest["base_index_file"])),
        ) as codes:
            for meta in metas:
                _, vectors = base_reader.read_chunk(_extent(meta))
                expected = encode_cells(vectors, meta.lower, meta.upper)
                if not np.array_equal(codes.read_block(meta.chunk_id), expected):
                    problems.append(
                        f"{name}: code block {meta.chunk_id} is not its chunk's "
                        "cell codes"
                    )
    # CorruptFileError included; ValueError: a member outside its rectangle.
    except (OSError, ValueError) as error:
        problems.append(f"{name}: {error}")
    return problems, (
        f"{name}: {len(metas)} blocks bound to the base files and equal to "
        "their chunks' cell codes"
    )
