"""Checksummed write-ahead log for streaming index mutations.

Every mutation of the on-disk chunk index is made durable *before* it is
applied: the caller appends a batch of insert/delete operations, the
writer frames each one with a CRC32 and seals the batch with a commit
marker, and only after one ``flush`` + ``fsync`` (group commit — one
fsync per batch, however many operations it carries) does the batch
count as acknowledged.  Recovery replays the committed prefix and
discards everything after the last commit marker, so an acknowledged
batch is always fully applied and an unacknowledged one is either fully
applied (its commit marker reached the disk before the crash) or absent
— never a hybrid.

On-disk layout::

    header  : magic "EFF2WLOG", version u32, dims u32, tag u64
    frame*  : crc32 u32, length u32, payload (length bytes)

where each payload starts with a one-byte record type:

    INSERT (1): descriptor id i64, vector float32 x dims
    DELETE (2): descriptor id i64
    COMMIT (3): batch sequence u64, operation count u32

The CRC is computed over the payload.  A *torn tail* — a frame cut
short by a crash, or bytes whose CRC does not match — terminates the
scan: everything from the first invalid byte on (including any valid
frames not yet sealed by a commit marker) is the uncommitted suffix,
reported by :func:`scan_wal` and truncated away by the recovery path
before the log is appended to again.

This module is one of the two sanctioned durable-write sites (the other
is :mod:`repro.storage.atomic`, whose primitives it writes, fsyncs and
truncates through, so a recorded run logs every one of its operations);
the DUR001 lint rule flags direct writes to index/chunk/WAL paths
anywhere else.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .atomic import create_file, fsync_file, truncate_file, write_file
from .errors import MAX_DIMENSIONS, CorruptFileError

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "OP_INSERT",
    "OP_DELETE",
    "WalOp",
    "WalBatch",
    "WalScan",
    "WalWriter",
    "insert_op",
    "delete_op",
    "scan_wal",
    "truncate_wal",
]

WAL_MAGIC = b"EFF2WLOG"
WAL_VERSION = 1

#: Header: magic, version, dims, tag (the checkpoint number that created
#: this log; recovery cross-checks it against the manifest).
_HEADER = struct.Struct("<8sIIQ")
#: Frame prefix: CRC32 of the payload, payload length in bytes.
_FRAME = struct.Struct("<II")

#: Payload record types.
OP_INSERT = "insert"
OP_DELETE = "delete"
_TYPE_INSERT = 1
_TYPE_DELETE = 2
_TYPE_COMMIT = 3

_INSERT_PREFIX = struct.Struct("<Bq")
_DELETE_BODY = struct.Struct("<Bq")
_COMMIT_BODY = struct.Struct("<BQI")


class WalOp(NamedTuple):
    """One logical mutation: an insert (with vector) or a delete."""

    kind: str
    descriptor_id: int
    vector: Optional[np.ndarray]


def insert_op(descriptor_id: int, vector: np.ndarray) -> WalOp:
    """An insert operation carrying a float32 descriptor vector."""
    return WalOp(OP_INSERT, int(descriptor_id), np.asarray(vector, dtype=np.float32))


def delete_op(descriptor_id: int) -> WalOp:
    """A delete operation identified by descriptor id."""
    return WalOp(OP_DELETE, int(descriptor_id), None)


class WalBatch(NamedTuple):
    """One committed batch recovered from the log."""

    batch_seq: int
    ops: Tuple[WalOp, ...]


class WalScan(NamedTuple):
    """Result of scanning a log file.

    Attributes
    ----------
    dimensions:
        Vector dimensionality from the header.
    tag:
        The creator's checkpoint number from the header.
    batches:
        Committed batches, in log order.
    valid_bytes:
        Offset just past the last commit marker (or past the header when
        no batch committed) — the recovery point.  Everything beyond it
        is the uncommitted suffix.
    total_bytes:
        Size of the file as scanned.
    discarded_ops:
        Operations found after the last commit marker (valid frames that
        never committed); they are part of the discarded suffix.
    """

    dimensions: int
    tag: int
    batches: Tuple[WalBatch, ...]
    valid_bytes: int
    total_bytes: int
    discarded_ops: int

    @property
    def torn_bytes(self) -> int:
        """Bytes of uncommitted suffix a recovery will truncate away."""
        return self.total_bytes - self.valid_bytes


def _encode_op(op: WalOp, dimensions: int) -> bytes:
    if op.kind == OP_INSERT:
        if op.vector is None:
            raise ValueError("insert op requires a vector")
        vector = np.ascontiguousarray(op.vector, dtype="<f4").reshape(-1)
        if vector.shape[0] != dimensions:
            raise ValueError(
                f"insert vector has {vector.shape[0]} dims, log holds {dimensions}"
            )
        return _INSERT_PREFIX.pack(_TYPE_INSERT, op.descriptor_id) + vector.tobytes()
    if op.kind == OP_DELETE:
        return _DELETE_BODY.pack(_TYPE_DELETE, op.descriptor_id)
    raise ValueError(f"unknown wal op kind {op.kind!r}")


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(zlib.crc32(payload), len(payload)) + payload


class WalWriter:
    """Appends framed, checksummed operation batches to a log file.

    Use :meth:`create` for a fresh log and :meth:`resume` to continue an
    existing one after a :func:`scan_wal` pass (recovery truncates the
    torn tail first, so appends always start at the recovery point).
    """

    def __init__(
        self, file: BinaryIO, path: str, dimensions: int, tag: int, next_batch_seq: int
    ):
        if not 1 <= dimensions <= MAX_DIMENSIONS:
            raise ValueError(f"implausible dimensionality {dimensions}")
        self._file = file
        self._path = path
        self.dimensions = int(dimensions)
        self.tag = int(tag)
        self.next_batch_seq = int(next_batch_seq)
        #: Total bytes appended through this writer (header included for
        #: :meth:`create`); the ingest layer charges these to the
        #: simulated disk model.
        self.bytes_written = 0

    @classmethod
    def create(
        cls, path: str, dimensions: int, tag: int = 0, next_batch_seq: int = 0
    ) -> "WalWriter":
        """Create a fresh (empty) log: header only, fsynced."""
        if not 1 <= dimensions <= MAX_DIMENSIONS:
            raise ValueError(f"implausible dimensionality {dimensions}")
        file = create_file(path)
        try:
            write_file(file, path, _HEADER.pack(WAL_MAGIC, WAL_VERSION, dimensions, tag))
            fsync_file(file, path)
        except BaseException:
            file.close()
            raise
        writer = cls(file, path, dimensions, tag, next_batch_seq)
        writer.bytes_written = _HEADER.size
        return writer

    @classmethod
    def resume(cls, path: str, scan: WalScan) -> "WalWriter":
        """Continue an existing log at its recovery point.

        The file must already be truncated to ``scan.valid_bytes`` (see
        :func:`truncate_wal`); appending after a torn tail would bury
        garbage inside the committed region.
        """
        if os.path.getsize(path) != scan.valid_bytes:
            raise ValueError(
                "log must be truncated to its recovery point before resuming"
            )
        file = open(path, "ab")
        next_seq = scan.batches[-1].batch_seq + 1 if scan.batches else None
        return cls(
            file,
            path,
            scan.dimensions,
            scan.tag,
            next_seq if next_seq is not None else 0,
        )

    def append_batch(self, ops: Sequence[WalOp]) -> int:
        """Durably append one batch; returns its sequence number.

        Group commit: all operation frames plus the commit marker are
        written and the file is fsynced exactly once.  The return *is*
        the acknowledgement — once this method returns, recovery is
        guaranteed to replay the batch.
        """
        if not ops:
            raise ValueError("a wal batch needs at least one operation")
        seq = self.next_batch_seq
        frames = b"".join(_frame(_encode_op(op, self.dimensions)) for op in ops)
        write_file(self._file, self._path, frames)
        commit = _frame(_COMMIT_BODY.pack(_TYPE_COMMIT, seq, len(ops)))
        write_file(self._file, self._path, commit)
        fsync_file(self._file, self._path)
        self.bytes_written += len(frames) + len(commit)
        self.next_batch_seq = seq + 1
        return seq

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _max_payload(dimensions: int) -> int:
    return max(
        _INSERT_PREFIX.size + 4 * dimensions, _DELETE_BODY.size, _COMMIT_BODY.size
    )


def scan_wal(path: str) -> WalScan:
    """Scan a log, returning its committed batches and recovery point.

    A corrupt *header* raises :class:`CorruptFileError` — there is no
    committed state to recover.  Anything wrong after the header (short
    frame, CRC mismatch, implausible length, malformed payload) is torn-
    tail territory: the scan stops there and reports everything after
    the last commit marker as the uncommitted suffix.
    """
    with open(path, "rb") as stream:
        raw = stream.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise CorruptFileError("wal file too short for its header")
        magic, version, dimensions, tag = _HEADER.unpack(raw)
        if magic != WAL_MAGIC:
            raise CorruptFileError(f"bad wal magic {magic!r}")
        if version != WAL_VERSION:
            raise CorruptFileError(f"unsupported wal version {version}")
        if not 1 <= dimensions <= MAX_DIMENSIONS:
            raise CorruptFileError(
                f"wal header has implausible dimensions {dimensions}"
            )
        data = stream.read()

    limit = _max_payload(dimensions)
    batches: List[WalBatch] = []
    pending: List[WalOp] = []
    discarded_in_tail = 0
    pos = 0
    valid_bytes = _HEADER.size
    while True:
        if pos + _FRAME.size > len(data):
            break
        crc, length = _FRAME.unpack_from(data, pos)
        if not 1 <= length <= limit:
            break
        start = pos + _FRAME.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        op = _decode_payload(payload, dimensions)
        if op is None:
            break
        if isinstance(op, WalOp):
            pending.append(op)
        else:
            seq, count = op
            if count != len(pending):
                # A commit marker that does not seal exactly the pending
                # frames cannot belong to a consistent batch; treat the
                # whole region from the batch start as torn.
                break
            batches.append(WalBatch(seq, tuple(pending)))
            pending = []
            valid_bytes = _HEADER.size + end
        pos = end
    discarded_in_tail = len(pending)
    return WalScan(
        dimensions=dimensions,
        tag=int(tag),
        batches=tuple(batches),
        valid_bytes=valid_bytes,
        total_bytes=_HEADER.size + len(data),
        discarded_ops=discarded_in_tail,
    )


def _decode_payload(
    payload: bytes, dimensions: int
) -> "Optional[WalOp | Tuple[int, int]]":
    kind = payload[0]
    if kind == _TYPE_INSERT:
        if len(payload) != _INSERT_PREFIX.size + 4 * dimensions:
            return None
        _, descriptor_id = _INSERT_PREFIX.unpack_from(payload, 0)
        vector = np.frombuffer(
            payload, dtype="<f4", count=dimensions, offset=_INSERT_PREFIX.size
        ).astype(np.float32, copy=True)
        return WalOp(OP_INSERT, int(descriptor_id), vector)
    if kind == _TYPE_DELETE:
        if len(payload) != _DELETE_BODY.size:
            return None
        _, descriptor_id = _DELETE_BODY.unpack_from(payload, 0)
        return WalOp(OP_DELETE, int(descriptor_id), None)
    if kind == _TYPE_COMMIT:
        if len(payload) != _COMMIT_BODY.size:
            return None
        _, seq, count = _COMMIT_BODY.unpack_from(payload, 0)
        return (int(seq), int(count))
    return None


def truncate_wal(path: str, scan: WalScan) -> int:
    """Discard a log's uncommitted suffix in place; returns bytes removed.

    This is the one mutation recovery performs on the log itself: cutting
    the file back to the recovery point so subsequent appends continue a
    clean committed prefix.  Committed bytes are never touched.
    """
    torn = scan.torn_bytes
    if torn <= 0:
        return 0
    with open(path, "r+b") as stream:
        truncate_file(stream, path, scan.valid_bytes)
        fsync_file(stream, path)
    return torn
