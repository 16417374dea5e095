"""Crash-safe streaming ingest: a durable, WAL-fronted chunk index.

:class:`StreamingChunkIndex` extends the in-memory
:class:`~repro.core.maintenance.ChunkIndexMaintainer` with an on-disk
form that survives a kill at any protocol boundary.  The directory holds

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
  provenance (pack + section), extent and exact centroid/radius summary.

Every state transition follows the same discipline: write new files
under new names, fsync, publish the manifest with
:func:`repro.storage.atomic.atomic_output`, then garbage-collect what
the new manifest no longer references.  A crash anywhere leaves either
the old manifest (whose files are all still present) or the new one —
recovery in :meth:`StreamingChunkIndex.open` reconstructs the
checkpoint state, truncates the WAL's torn tail, replays the committed
batches through the identical maintainer code path, and removes
orphans.  Because member order round-trips exactly (live base rows in
base order, then appends in insertion order), recovered centroids,
radii, rectangles, extents and the allocation frontier are bit-identical
to the uncrashed process — which keeps the pruning bounds (sphere and
rectangle) and the centroid router exactness-preserving across crashes.
The manifest stores centroid and radius for verification only;
rectangles, like every summary a search uses, are recomputed from the
members.

Simulated cost: every mutation and compaction is charged through the
:class:`~repro.simio.disk_model.DiskModel` write path (sequential write
plus one sync per durability barrier — a checkpoint has four: pack,
fresh WAL, manifest + directory — however many chunks are dirty) and
accumulated in ``io_seconds``, so the ingest experiments report the same
deterministic simulated time the query path uses.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, cast

import numpy as np

from ..simio.disk_model import DiskModel
from ..storage.atomic import atomic_output, fsync_directory
from ..storage.chunk_file import ChunkExtent, ChunkFileReader, ChunkFileWriter
from ..storage.delta import DeltaPackReader, DeltaSection, write_delta_pack
from ..storage.errors import CorruptFileError
from ..storage.index_file import read_index_file, write_index_file
from ..storage.pages import PageGeometry
from ..storage.wal import (
    OP_DELETE,
    OP_INSERT,
    CrashHook,
    WalOp,
    WalWriter,
    scan_wal,
    truncate_wal,
)
from .chunk import ChunkMeta, bounding_rectangle
from .chunk_index import ChunkIndex
from .distance import squared_distances
from .maintenance import (
    ChunkIndexMaintainer,
    ChunkSnapshot,
    DeltaRef,
    MaintenanceStats,
)

__all__ = [
    "MANIFEST_NAME",
    "FORMAT_NAME",
    "RecoveryReport",
    "CheckpointReport",
    "StreamingChunkIndex",
    "verify_streaming_index",
]

MANIFEST_NAME = "MANIFEST.json"
FORMAT_NAME = "repro-streaming-index"
FORMAT_VERSION = 2

#: File-name patterns owned by the streaming index (garbage collection
#: only ever touches these).
_OWNED_PREFIXES = ("base-", "wal-", "delta-")


def _base_chunk_name(generation: int) -> str:
    return f"base-{generation:06d}.dat"


def _base_index_name(generation: int) -> str:
    return f"base-{generation:06d}.idx"


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
    """What one checkpoint (compaction) pass wrote.

    ``segments_written`` counts the pack's sections (one per dirty chunk
    that diverges from its base) and ``segment_bytes`` is the pack file's
    size.
    """

    checkpoint: int
    segments_written: int
    segment_bytes: int
    pages_reclaimed: int


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
        crash: Optional[CrashHook],
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
        self._crash = crash
        #: Recovery findings when this instance came from :meth:`open`.
        self.recovery = recovery
        #: Simulated seconds of ingest/compaction I/O charged so far.
        self.io_seconds = 0.0
        self._poisoned = False
        self._closed = False

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str,
        index: ChunkIndex,
        target_chunk_size: Optional[int] = None,
        split_factor: float = 2.0,
        merge_fraction: float = 0.2,
        geometry: Optional[PageGeometry] = None,
        disk: Optional[DiskModel] = None,
        crash: Optional[CrashHook] = None,
        name: str = "",
    ) -> "StreamingChunkIndex":
        """Persist ``index`` as generation 0 of a new streaming directory."""
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise ValueError(
                f"directory {directory!r} already holds a streaming index"
            )
        maintainer = ChunkIndexMaintainer(
            index,
            target_chunk_size=target_chunk_size,
            split_factor=split_factor,
            merge_fraction=merge_fraction,
            geometry=geometry,
        )
        self = cls(
            directory=directory,
            name=name or index.name,
            maintainer=maintainer,
            wal=WalWriter.create(
                os.path.join(directory, _wal_name(0)),
                maintainer.dimensions,
                tag=0,
                crash=crash,
            ),
            generation=0,
            checkpoint_seq=0,
            base_counts=[],
            disk=disk or DiskModel(),
            crash=crash,
            recovery=None,
        )
        try:
            self._persist_base(site_prefix="create")
        except BaseException:
            self._poisoned = True
            raise
        return self

    @classmethod
    def open(
        cls,
        directory: str,
        disk: Optional[DiskModel] = None,
        crash: Optional[CrashHook] = None,
    ) -> "StreamingChunkIndex":
        """Recover a streaming index from its directory.

        Reconstructs the checkpoint state from the manifest, truncates
        the WAL's uncommitted suffix, replays every committed batch, and
        garbage-collects files the manifest no longer references.  The
        resulting in-memory state is bit-identical to the process that
        wrote the log.
        """
        manifest = _read_manifest(directory)
        dimensions = int(manifest["dimensions"])
        geometry = PageGeometry(page_bytes=int(manifest["page_bytes"]))
        base_metas = read_index_file(
            os.path.join(directory, str(manifest["base_index_file"]))
        )
        snaps = _load_chunk_snapshots(directory, manifest, base_metas, geometry)
        maintainer = ChunkIndexMaintainer.restore(
            dimensions=dimensions,
            chunks=snaps,
            next_page=int(manifest["next_page"]),
            target_chunk_size=int(manifest["target_chunk_size"]),
            split_factor=float(manifest["split_factor"]),
            merge_fraction=float(manifest["merge_fraction"]),
            geometry=geometry,
            stats=_stats_from_manifest(manifest),
        )

        wal_path = os.path.join(directory, str(manifest["wal_file"]))
        scan = scan_wal(wal_path)
        _require(
            scan.dimensions == dimensions,
            "wal dimensionality does not match the manifest",
        )
        _require(
            scan.tag == int(manifest["checkpoint"]),
            "wal checkpoint tag does not match the manifest",
        )
        torn = truncate_wal(wal_path, scan)
        expected_seq = int(manifest["next_batch_seq"])
        replayed_ops = 0
        for batch in scan.batches:
            _require(
                batch.batch_seq == expected_seq,
                f"wal batch sequence gap: expected {expected_seq}, "
                f"found {batch.batch_seq}",
            )
            expected_seq += 1
            for op in batch.ops:
                _apply_op(maintainer, op)
            replayed_ops += len(batch.ops)
        orphans = _collect_garbage(directory, manifest)
        writer = WalWriter.resume(wal_path, scan, crash=crash)
        writer.next_batch_seq = expected_seq
        return cls(
            directory=directory,
            name=str(manifest["name"]),
            maintainer=maintainer,
            wal=writer,
            generation=int(manifest["generation"]),
            checkpoint_seq=int(manifest["checkpoint"]),
            base_counts=[m.n_descriptors for m in base_metas],
            disk=disk or DiskModel(),
            crash=crash,
            recovery=RecoveryReport(
                replayed_batches=len(scan.batches),
                replayed_ops=replayed_ops,
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
    def n_chunks(self) -> int:
        return self.maintainer.n_chunks

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

    def _reached(self, site: str) -> None:
        if self._crash is not None:
            self._crash.reached(site)

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

    def checkpoint(self, defragment: bool = False) -> CheckpointReport:
        """Persist dirty chunks as one checkpoint pack and rotate the WAL.

        This is the background compactor's unit of work: only chunks
        mutated since their last checkpoint are rewritten (each as a
        tombstone-bitmap + appended-records section of a single pack
        file, published by one atomic write); clean chunks keep their
        existing base extents or their sections of earlier packs.  With
        ``defragment=True`` the logical extents are first compacted
        sequentially, reclaiming relocation holes.  Ends by publishing a
        new manifest and garbage-collecting superseded files.
        """
        self._guard()
        try:
            return self._checkpoint(defragment)
        except BaseException:
            self._poisoned = True
            raise

    def _checkpoint(self, defragment: bool) -> CheckpointReport:
        self._reached("compact.begin")
        maintainer = self.maintainer
        reclaimed = maintainer.compact() if defragment else 0
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
            self._reached("compact.pack")
            for section, position in enumerate(diverged):
                maintainer.checkpointed(position, DeltaRef(pack, section))
        self._rotate_wal(checkpoint)
        self._reached("compact.wal")
        self.checkpoint_seq = checkpoint
        manifest = self._publish_manifest()
        self._reached("compact.manifest")
        _collect_garbage(self.directory, manifest)
        return CheckpointReport(
            checkpoint=checkpoint,
            segments_written=len(diverged),
            segment_bytes=pack_bytes,
            pages_reclaimed=reclaimed,
        )

    def rebuild_base(self) -> int:
        """Fold the whole state into a fresh base generation.

        Writes new checksummed base chunk/index files (compacted,
        sequential extents), declares every chunk a clean base chunk, and
        rotates the WAL — the full-rebuild alternative the compactor
        escalates to when fragmentation makes delta chains poor value.
        Returns the new generation number.
        """
        self._guard()
        try:
            self.generation += 1
            self.checkpoint_seq += 1
            self._persist_base(site_prefix="rebuild")
        except BaseException:
            self._poisoned = True
            raise
        return self.generation

    def _persist_base(self, site_prefix: str) -> None:
        """Shared by :meth:`create` and :meth:`rebuild_base`.

        Order matters for crash safety: chunk file, index file, fresh
        WAL, manifest (the atomic pointer flip), then GC.  Until the
        manifest lands, the previous manifest's files are all intact.
        """
        maintainer = self.maintainer
        maintainer.compact()
        directory = self.directory
        chunk_path = os.path.join(directory, _base_chunk_name(self.generation))
        with ChunkFileWriter(
            chunk_path, maintainer.dimensions, maintainer.geometry
        ) as writer:
            for position in range(maintainer.n_chunks):
                snap = maintainer.snapshot(position)
                extent = writer.write_chunk(
                    np.asarray(snap.ids, dtype=np.int64), snap.vectors
                )
                if (extent.page_offset, extent.page_count) != (
                    snap.page_offset,
                    snap.page_count,
                ):
                    raise AssertionError(
                        "compacted extents must match the sequential writer"
                    )
        self._charge_write(os.path.getsize(chunk_path))
        self._reached(f"{site_prefix}.chunks")
        maintainer.rebase()
        index_path = os.path.join(directory, _base_index_name(self.generation))
        metas = [summary.meta for summary in maintainer.summaries()]
        write_index_file(index_path, metas)
        self._charge_write(os.path.getsize(index_path))
        self._reached(f"{site_prefix}.index")
        self._base_counts = [m.n_descriptors for m in metas]
        self._rotate_wal(self.checkpoint_seq)
        self._reached(f"{site_prefix}.wal")
        manifest = self._publish_manifest()
        self._reached(f"{site_prefix}.manifest")
        _collect_garbage(self.directory, manifest)

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
            crash=self._crash,
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
            mask = np.zeros(base_rows, dtype=bool)
            mask[base_part] = True
            live = mask
            n_base = int(base_part.size)
        return DeltaSection(
            base_ref,
            live,
            np.asarray(snap.ids[n_base:], dtype=np.int64),
            snap.vectors[n_base:],
        )

    def _publish_manifest(self) -> Dict[str, Any]:
        """Flip the atomic pointer; returns what was published (for GC).

        Compact JSON keeps ``json.dumps`` on its C encoder (``indent``
        forces the pure-Python one); ``python -m json.tool`` pretty-prints
        the file for a human.
        """
        manifest = self._manifest_dict()
        payload = (
            json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("ascii")
        with atomic_output(os.path.join(self.directory, MANIFEST_NAME)) as stream:
            stream.write(payload)
        fsync_directory(self.directory)
        self._charge_write(len(payload))
        return manifest

    def _manifest_dict(self) -> Dict[str, Any]:
        maintainer = self.maintainer
        summaries = maintainer.summaries()
        # Each live pack is named once; a chunk points at (pack index, section).
        packs = sorted({s.delta.pack for s in summaries if s.delta is not None})
        pack_index = {name: i for i, name in enumerate(packs)}
        chunks: List[Dict[str, Any]] = []
        for summary in summaries:
            if summary.dirty:
                raise AssertionError("cannot publish a manifest over dirty chunks")
            meta = summary.meta
            delta = summary.delta
            chunks.append(
                {
                    "base_ref": summary.base_ref,
                    "delta": None
                    if delta is None
                    else [pack_index[delta.pack], delta.section],
                    "page_offset": meta.page_offset,
                    "page_count": meta.page_count,
                    "n_descriptors": meta.n_descriptors,
                    "centroid": meta.centroid.tolist(),
                    "radius": meta.radius,
                }
            )
        stats = maintainer.stats
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": self.name,
            "dimensions": self.dimensions,
            "generation": self.generation,
            "checkpoint": self.checkpoint_seq,
            "base_chunk_file": _base_chunk_name(self.generation),
            "base_index_file": _base_index_name(self.generation),
            "wal_file": _wal_name(self.checkpoint_seq),
            "packs": packs,
            "next_batch_seq": self._wal.next_batch_seq,
            "next_page": maintainer.next_page,
            "page_bytes": maintainer.geometry.page_bytes,
            "target_chunk_size": maintainer.target_chunk_size,
            "split_factor": maintainer.split_factor,
            "merge_fraction": maintainer.merge_fraction,
            "stats": {
                "inserts": stats.inserts,
                "deletes": stats.deletes,
                "splits": stats.splits,
                "merges": stats.merges,
                "relocations": stats.relocations,
                "dead_pages": stats.dead_pages,
            },
            "chunks": chunks,
        }

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


# -- shared loading helpers ------------------------------------------------------


def _read_manifest(directory: str) -> Dict[str, Any]:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="ascii") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise CorruptFileError(f"no streaming-index manifest in {directory!r}")
    except (OSError, ValueError) as error:
        raise CorruptFileError(f"unreadable streaming-index manifest: {error}")
    _require(isinstance(manifest, dict), "manifest must be a JSON object")
    _require(
        manifest.get("format") == FORMAT_NAME,
        f"manifest format is not {FORMAT_NAME!r}",
    )
    _require(
        manifest.get("version") == FORMAT_VERSION,
        f"unsupported manifest version {manifest.get('version')!r}",
    )
    for key in (
        "dimensions",
        "generation",
        "checkpoint",
        "next_batch_seq",
        "next_page",
        "page_bytes",
        "target_chunk_size",
    ):
        _require(
            isinstance(manifest.get(key), int), f"manifest field {key!r} must be int"
        )
    for key in ("split_factor", "merge_fraction"):
        _require(
            isinstance(manifest.get(key), (int, float)),
            f"manifest field {key!r} must be numeric",
        )
    packs = manifest.get("packs")
    _require(isinstance(packs, list), "manifest field 'packs' must be a list")
    files = [
        manifest.get(key) for key in ("base_chunk_file", "base_index_file", "wal_file")
    ]
    for value in files + cast(List[Any], packs):
        _require(
            isinstance(value, str) and os.path.basename(value) == value,
            f"manifest file reference {value!r} must be a bare file name",
        )
        _require(
            os.path.exists(os.path.join(directory, str(value))),
            f"manifest references missing file {value!r}",
        )
    _require(
        isinstance(manifest.get("chunks"), list) and bool(manifest["chunks"]),
        "manifest must list at least one chunk",
    )
    return cast(Dict[str, Any], manifest)


def _stats_from_manifest(manifest: Dict[str, Any]) -> MaintenanceStats:
    raw = manifest.get("stats") or {}
    _require(isinstance(raw, dict), "manifest stats must be an object")
    return MaintenanceStats(
        inserts=int(raw.get("inserts", 0)),
        deletes=int(raw.get("deletes", 0)),
        splits=int(raw.get("splits", 0)),
        merges=int(raw.get("merges", 0)),
        relocations=int(raw.get("relocations", 0)),
        dead_pages=int(raw.get("dead_pages", 0)),
    )


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
    dimensions = int(manifest["dimensions"])
    pack_names = cast(List[str], manifest["packs"])
    snaps: List[ChunkSnapshot] = []
    base_path = os.path.join(directory, str(manifest["base_chunk_file"]))
    with contextlib.ExitStack() as stack:
        base_reader = stack.enter_context(
            ChunkFileReader(base_path, dimensions, geometry)
        )
        packs: Dict[str, DeltaPackReader] = {}
        for position, raw in enumerate(manifest["chunks"]):
            _require(
                isinstance(raw, dict), f"manifest chunk {position} must be an object"
            )
            entry = cast(Dict[str, Any], raw)
            base_ref = int(entry["base_ref"])
            delta = _delta_ref(entry.get("delta"), pack_names, position)
            section: Optional[DeltaSection] = None
            if delta is not None:
                if delta.pack not in packs:
                    packs[delta.pack] = stack.enter_context(
                        DeltaPackReader(os.path.join(directory, delta.pack), dimensions)
                    )
                section = packs[delta.pack].read_section(delta.section)
            ids, vectors, origins = _reconstruct_chunk(
                base_reader, base_metas, base_ref, section, f"of chunk {position}"
            )
            _require(
                len(ids) == int(entry["n_descriptors"]),
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
                    page_offset=int(entry["page_offset"]),
                    page_count=int(entry["page_count"]),
                )
            )
    return snaps


def _delta_ref(
    raw: Any, pack_names: Sequence[str], position: int
) -> Optional[DeltaRef]:
    """A manifest chunk's ``[pack index, section]`` pair, validated."""
    if raw is None:
        return None
    _require(
        isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(v, int) for v in raw)
        and 0 <= raw[0] < len(pack_names)
        and raw[1] >= 0,
        f"manifest chunk {position} has a malformed delta reference {raw!r}",
    )
    return DeltaRef(pack_names[raw[0]], raw[1])


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
        ids, vectors = base_reader.read_chunk(
            ChunkExtent(meta.page_offset, meta.page_count, meta.n_descriptors)
        )
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
    live = cast(np.ndarray, section.live)
    _require(
        live.size == meta.n_descriptors,
        f"delta section {where} mask covers {live.size} rows, "
        f"base chunk holds {meta.n_descriptors}",
    )
    base_ids, base_vectors = base_reader.read_chunk(
        ChunkExtent(meta.page_offset, meta.page_count, meta.n_descriptors)
    )
    live_rows = np.flatnonzero(live)
    ids = np.concatenate([base_ids[live_rows], section.ids])
    vectors = np.concatenate(
        [base_vectors[live_rows], section.vectors], axis=0
    ).astype(np.float32, copy=False)
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
    deletes of absent ids and malformed vectors are caught here.
    """
    if not ops:
        raise ValueError("a batch needs at least one operation")
    pending: Dict[int, bool] = {}
    int32 = np.iinfo(np.int32)
    for op in ops:
        descriptor_id = int(op.descriptor_id)
        if not int32.min <= descriptor_id <= int32.max:
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
                raise ValueError(
                    f"descriptor id {descriptor_id} already present"
                )
            pending[descriptor_id] = True
        elif op.kind == OP_DELETE:
            if not present:
                raise KeyError(f"descriptor id {descriptor_id} not in index")
            pending[descriptor_id] = False
        else:
            raise ValueError(f"unknown wal op kind {op.kind!r}")


def _collect_garbage(directory: str, manifest: Dict[str, Any]) -> int:
    """Remove owned files the manifest no longer references.

    A pack stays while the manifest lists it, i.e. while any chunk still
    points at one of its sections; the other sections of such a pack are
    dead weight until the last pointer goes (or ``rebuild_base`` runs).
    """
    keep = {
        str(manifest["base_chunk_file"]),
        str(manifest["base_index_file"]),
        str(manifest["wal_file"]),
        *(str(pack) for pack in manifest["packs"]),
    }
    removed = 0
    for file_name in sorted(os.listdir(directory)):
        if file_name in keep or file_name == MANIFEST_NAME:
            continue
        if file_name.startswith(_OWNED_PREFIXES) or file_name.endswith(".tmp"):
            os.unlink(os.path.join(directory, file_name))
            removed += 1
    return removed


# -- deep verification ------------------------------------------------------------


def verify_streaming_index(directory: str) -> Dict[str, Any]:
    """Deep consistency check of a streaming-index directory (read-only).

    Validates, in dependency order: the manifest and its file references;
    base file checksums; every referenced pack's section table and the
    checksum and structure of each referenced section; exact
    centroid/radius recomputation against the stored summaries; the base
    index's rectangle block against the base chunk contents; extent
    bounds and non-overlap; WAL frame integrity and batch-sequence
    continuity; and, after replaying the committed log, global
    tombstone/liveness accounting (unique ids, non-empty chunks, every
    member inside its chunk's exact bounding radius and rectangle — the
    invariants the pruning bounds' soundness rests on).

    Returns a JSON-ready report; ``report["ok"]`` is the verdict.  Never
    mutates the directory (torn WAL tails are reported, not truncated).
    """
    checks: List[Dict[str, Any]] = []
    summary: Dict[str, Any] = {"format": FORMAT_NAME, "checks": checks}

    def record(name: str, ok: bool, detail: str) -> bool:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    manifest: Optional[Dict[str, Any]] = None
    try:
        manifest = _read_manifest(directory)
        record(
            "manifest",
            True,
            f"generation {manifest['generation']}, checkpoint "
            f"{manifest['checkpoint']}, {len(manifest['chunks'])} chunks",
        )
    except (CorruptFileError, OSError) as error:
        record("manifest", False, str(error))
    if manifest is None:
        summary["ok"] = False
        return summary

    dimensions = int(manifest["dimensions"])
    geometry = PageGeometry(page_bytes=int(manifest["page_bytes"]))
    snaps: Optional[List[ChunkSnapshot]] = None
    base_metas: Optional[List[ChunkMeta]] = None
    try:
        base_metas = read_index_file(
            os.path.join(directory, str(manifest["base_index_file"]))
        )
        snaps = _load_chunk_snapshots(directory, manifest, base_metas, geometry)
        record(
            "storage",
            True,
            f"{len(base_metas)} base chunks, "
            f"{sum(1 for s in snaps if s.delta is not None)} delta sections "
            f"in {len(manifest['packs'])} pack file(s), all checksums verified",
        )
    except (CorruptFileError, OSError) as error:
        record("storage", False, str(error))
    if snaps is None or base_metas is None:
        summary["ok"] = False
        return summary

    maintainer: Optional[ChunkIndexMaintainer] = None
    details: List[str] = []
    try:
        maintainer = ChunkIndexMaintainer.restore(
            dimensions=dimensions,
            chunks=snaps,
            next_page=int(manifest["next_page"]),
            target_chunk_size=int(manifest["target_chunk_size"]),
            split_factor=float(manifest["split_factor"]),
            merge_fraction=float(manifest["merge_fraction"]),
            geometry=geometry,
            stats=_stats_from_manifest(manifest),
        )
        for chunk_summary, raw in zip(maintainer.summaries(), manifest["chunks"]):
            entry = cast(Dict[str, Any], raw)
            meta = chunk_summary.meta
            stored = np.asarray(entry["centroid"], dtype=np.float64)
            if stored.shape != meta.centroid.shape or not np.array_equal(
                stored, meta.centroid
            ):
                details.append(f"chunk {meta.chunk_id}: stored centroid is not exact")
            if float(entry["radius"]) != meta.radius:
                details.append(f"chunk {meta.chunk_id}: stored radius is not exact")
    except ValueError as error:
        maintainer = None
        details.append(f"checkpoint state does not restore: {error}")
    record(
        "summaries",
        not details,
        "; ".join(details)
        if details
        else f"{len(snaps)} stored centroid/radius summaries recomputed exactly",
    )

    extents_ok = True
    details = []
    codec_bytes = np.dtype([("id", "<i4"), ("vector", "<f4", (dimensions,))]).itemsize
    spans: List[Tuple[int, int, int]] = []
    for position, snap in enumerate(snaps):
        needed = geometry.pages_for(len(snap.ids) * codec_bytes)
        if snap.page_count < needed:
            extents_ok = False
            details.append(
                f"chunk {position}: extent of {snap.page_count} pages cannot "
                f"hold {len(snap.ids)} records"
            )
        spans.append((snap.page_offset, snap.page_offset + snap.page_count, position))
    spans.sort()
    for (_, prev_end, prev_pos), (start, _, pos) in zip(spans, spans[1:]):
        if start < prev_end:
            extents_ok = False
            details.append(f"chunks {prev_pos} and {pos}: extents overlap")
    if spans and spans[-1][1] > int(manifest["next_page"]):
        extents_ok = False
        details.append("allocation frontier is behind the last extent")
    record(
        "extents",
        extents_ok,
        "; ".join(details) if details else "extents disjoint and sized",
    )

    scan = None
    try:
        scan = scan_wal(os.path.join(directory, str(manifest["wal_file"])))
        wal_ok = scan.dimensions == dimensions and scan.tag == int(
            manifest["checkpoint"]
        )
        seqs = [batch.batch_seq for batch in scan.batches]
        expected = list(
            range(
                int(manifest["next_batch_seq"]),
                int(manifest["next_batch_seq"]) + len(seqs),
            )
        )
        if seqs != expected:
            wal_ok = False
        record(
            "wal",
            wal_ok,
            f"{len(scan.batches)} committed batches, "
            f"{scan.torn_bytes} torn tail bytes "
            f"({scan.discarded_ops} uncommitted ops to discard)",
        )
        if not wal_ok:
            scan = None
    except (CorruptFileError, OSError) as error:
        record("wal", False, str(error))

    rectangle_details: List[str] = []
    live_members_checked = False
    if maintainer is None:
        record("liveness", False, "skipped: checkpoint state did not restore")
    elif scan is not None:
        try:
            for batch in scan.batches:
                for op in batch.ops:
                    _apply_op(maintainer, op)
            details = []
            seen = 0
            # What a searcher would be handed: an empty chunk cannot be
            # materialized and fails the check through ValueError.
            index = maintainer.to_index()
            for meta in index.metas:
                ids, vectors = index.read_chunk(meta.chunk_id)
                seen += int(ids.size)
                worst = float(
                    np.sqrt(squared_distances(meta.centroid, vectors).max())
                )
                if worst > meta.radius:
                    details.append(
                        f"chunk {meta.chunk_id}: member at distance {worst} "
                        f"exceeds radius {meta.radius}"
                    )
                if np.any(vectors < meta.lower) or np.any(vectors > meta.upper):
                    rectangle_details.append(
                        f"chunk {meta.chunk_id}: member outside its rectangle"
                    )
            live_members_checked = True
            if seen != len(maintainer):
                details.append(
                    f"id map holds {len(maintainer)} ids, chunks hold {seen}"
                )
            record(
                "liveness",
                not details,
                "; ".join(details)
                if details
                else (
                    f"{len(maintainer)} live descriptors in "
                    f"{maintainer.n_chunks} chunks after replaying "
                    f"{len(scan.batches)} batches; every member inside its "
                    "chunk's exact radius"
                ),
            )
            summary["n_descriptors"] = len(maintainer)
            summary["n_chunks"] = maintainer.n_chunks
            summary["replayed_batches"] = len(scan.batches)
            summary["torn_bytes"] = scan.torn_bytes
        except (CorruptFileError, KeyError, ValueError) as error:
            record("liveness", False, f"wal replay failed: {error}")
    else:
        record("liveness", False, "skipped: wal check failed")

    # The base index's rectangle block against the base chunks it describes
    # (live members were checked above, once the log was replayed).
    try:
        with ChunkFileReader(
            os.path.join(directory, str(manifest["base_chunk_file"])),
            dimensions,
            geometry,
        ) as base_reader:
            for meta in base_metas:
                _, vectors = base_reader.read_chunk(
                    ChunkExtent(meta.page_offset, meta.page_count, meta.n_descriptors)
                )
                lower, upper = bounding_rectangle(vectors)
                if not (
                    np.array_equal(lower, meta.lower)
                    and np.array_equal(upper, meta.upper)
                ):
                    rectangle_details.append(
                        f"base chunk {meta.chunk_id}: stored rectangle is not exact"
                    )
    except (CorruptFileError, OSError) as error:
        rectangle_details.append(str(error))
    record(
        "rectangles",
        not rectangle_details,
        "; ".join(rectangle_details)
        if rectangle_details
        else f"{len(base_metas)} base rectangles recomputed exactly; "
        + (
            "every live member inside its chunk's rectangle"
            if live_members_checked
            else "live members not checked (liveness did not run)"
        ),
    )

    summary["ok"] = all(bool(check["ok"]) for check in checks)
    return summary
