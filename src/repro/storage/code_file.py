"""The code file: one 4-bit cell number per descriptor and dimension.

Beyond the paper: a sidecar of the chunk file (``base-<g>.va``) that lets the
pruner reject a chunk without reading it.  Per dimension, a chunk's own
member rectangle (``ChunkMeta.lower/upper``) is cut into :data:`CELLS` equal
slices and every stored value is replaced by the number of the slice it lies
in — the VA-file idea (Weber, Schek, Blott, VLDB 1998) chunk by chunk, so the
file carries no geometry: :func:`cell_edges` of the rectangle is the geometry.

Format::

    header : magic "EFF2CODE", version u32, dims u32, n_chunks u64,
             chunk_table_crc u32, index_crc u32
    block  : one per chunk, in chunk order — ceil(dims / 2) rows of
             n_descriptors bytes, row b holding dimension 2b in the low and
             2b + 1 in the high nibble of each descriptor's byte (an odd
             ``dims`` pads one nibble with zero), then their CRC32

12 bytes per 24-d descriptor plus 4 per chunk.  The header *binds* the file
to the pair it describes (CRC32 of the chunk file's checksum table, and of
the whole index file): stale codes would excuse a chunk that holds a true
neighbour, so a mismatch is :class:`CorruptFileError` at open.  Block
lengths follow from the index file's descriptor counts and must add up to
the file's length; every block is CRC-verified on every read.

Invariant: every stored value lies in the *closed* cell ``[edges[c],
edges[c + 1]]`` its code names, under exactly the float64 edges
:func:`cell_edges` computes — checked value by value by the encoder.
"""

from __future__ import annotations

import itertools
import os
import struct
import zlib
from typing import BinaryIO, Iterable, List, Sequence, Tuple

import numpy as np

from .atomic import atomic_output
from .errors import ChecksumError, CorruptFileError, read_exact

__all__ = [
    "CELLS",
    "CODE_MAGIC",
    "CODE_VERSION",
    "CodeFileReader",
    "cell_edges",
    "encode_cells",
    "write_code_file",
]

CODE_MAGIC = b"EFF2CODE"
#: The code-file format version (the only one read or written).
CODE_VERSION = 1
#: Cells per dimension: what four bits can number.
CELLS = 16

#: Header: magic, version, dims, n_chunks, chunk_table_crc, index_crc.
_HEADER = struct.Struct("<8sIIQII")
_CRC = struct.Struct("<I")
#: ``c / CELLS`` for the ``CELLS + 1`` edges, every one exact in binary.
_STEPS = np.arange(CELLS + 1, dtype=np.float64)[:, np.newaxis] / CELLS


def cell_edges(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``(..., CELLS + 1, d)`` float64 cell boundaries of one chunk's
    ``(d,)`` rectangle, or of every rectangle of a ``(..., d)`` stack: row
    ``c`` is where cell ``c`` begins and cell ``c - 1`` ends, per dimension.

    Rows 0 and ``CELLS`` are ``lower`` and ``upper`` themselves (``0 * width
    + lower`` is exact, the last row is assigned); the rows between are
    non-decreasing (rounding is monotone) and clamped at ``upper``, so the
    cells tile ``[lower, upper]`` whatever the arithmetic rounds to.  Every
    step is elementwise, so a stack's slice is bit for bit one chunk's edges.
    """
    lower = np.asarray(lower, dtype=np.float64)[..., np.newaxis, :]
    upper = np.asarray(upper, dtype=np.float64)[..., np.newaxis, :]
    edges: np.ndarray = _STEPS * (upper - lower)
    edges += lower
    np.minimum(edges, upper, out=edges)
    edges[..., CELLS, :] = upper[..., 0, :]
    return edges


def encode_cells(vectors: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Packed cell numbers of one chunk: uint8, ``(ceil(d / 2), n)``.

    The cell is estimated arithmetically (``(value - lower) * CELLS /
    width``, truncated), then *checked* against the edges and moved by one
    where rounding put a value next to its cell: the loop ends only when
    every value lies in the closed cell its code names.  A value it cannot
    place (a member outside ``[lower, upper]``) is a ``ValueError``.
    """
    edges = cell_edges(lower, upper)
    dims = edges.shape[1]
    values = np.ascontiguousarray(np.asarray(vectors).T)  # compared as stored
    if values.ndim != 2 or values.shape[0] != dims:
        raise ValueError(f"expected (n, {dims}) vectors, got {np.shape(vectors)}")
    width = edges[CELLS] - edges[0]
    per_unit = (CELLS / np.where(width > 0.0, width, np.inf))[:, np.newaxis]
    estimate = values - edges[0][:, np.newaxis]
    estimate *= per_unit
    np.clip(estimate, 0, CELLS - 1, out=estimate)
    cells = estimate.astype(np.intp)
    # begins[j * (CELLS + 1) + c] is where cell c of dimension j begins and
    # ends[...] where it ends; ``cells`` holds that index from here on.
    begins = edges.T.ravel()
    ends = begins[1:]
    first_edge = (np.arange(dims) * (CELLS + 1))[:, np.newaxis]
    cells += first_edge
    for _ in range(2):  # an estimate is off by one cell at most
        below = values < begins.take(cells, out=estimate, mode="clip")
        above = values > ends.take(cells, out=estimate, mode="clip")
        if not (below.any() or above.any()):
            break
        cells += above
        cells -= below
        np.clip(cells, first_edge, first_edge + (CELLS - 1), out=cells)
    else:
        raise ValueError("a chunk member lies outside the rectangle its cell codes divide")
    cells -= first_edge
    small = cells.astype(np.uint8)
    packed = small[0::2].copy()
    packed[: dims // 2] |= small[1::2] << 4
    return packed


def write_code_file(
    path: str,
    dimensions: int,
    n_chunks: int,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    chunk_table_crc: int,
    index_crc: int,
) -> None:
    """Atomically publish the code file of one chunk-file/index-file pair.
    ``chunks`` yields :func:`encode_cells`' ``(vectors, lower, upper)`` per
    chunk, exactly ``n_chunks`` times, consumed one chunk at a time."""
    written = 0
    with atomic_output(path) as stream:
        header = (CODE_MAGIC, CODE_VERSION, dimensions, n_chunks, chunk_table_crc, index_crc)
        stream.write(_HEADER.pack(*header))
        for vectors, lower, upper in chunks:
            raw = encode_cells(vectors, lower, upper).tobytes()
            stream.write(raw)
            stream.write(_CRC.pack(zlib.crc32(raw)))
            written += 1
        if written != n_chunks:
            raise ValueError(f"code file was promised {n_chunks} chunks, got {written}")


class CodeFileReader:
    """Random-access reads of one chunk's codes, CRC-verified each time.

    Opening validates the header against what the caller knows of the pair
    the file claims to describe (dimensions, chunk count, the two binding
    CRCs) and the file's length against the per-chunk descriptor counts;
    nothing but the block offsets stays resident.
    """

    def __init__(
        self,
        path: str,
        dimensions: int,
        descriptor_counts: Sequence[int],
        chunk_table_crc: int,
        index_crc: int,
    ):
        self._rows = (dimensions + 1) // 2
        lengths = (self._rows * int(n) + _CRC.size for n in descriptor_counts)
        self._offsets: List[int] = list(itertools.accumulate(lengths, initial=_HEADER.size))
        # Unbuffered: a consult is one positioned read of one block.
        self._stream: BinaryIO = open(path, "rb", buffering=0)  # type: ignore[assignment]
        try:
            self._read_header(dimensions, chunk_table_crc, index_crc)
        except BaseException:
            self._stream.close()
            raise

    def _read_header(self, dimensions: int, chunk_table_crc: int, index_crc: int) -> None:
        raw = read_exact(self._stream, _HEADER.size, "code file header")
        magic, version, dims, n_chunks, table_crc, idx_crc = _HEADER.unpack(raw)
        if (magic, version) != (CODE_MAGIC, CODE_VERSION):
            raise CorruptFileError(f"bad code file magic {magic!r} or version {version}")
        if dims != dimensions:
            raise CorruptFileError(
                f"code file holds {dims}-d codes, reader expects {dimensions}-d"
            )
        if n_chunks != len(self):
            raise CorruptFileError(
                f"code file holds {n_chunks} blocks, the index file {len(self)} chunks"
            )
        if (table_crc, idx_crc) != (chunk_table_crc, index_crc):
            raise CorruptFileError(
                "code file describes another chunk file or index file than the "
                f"ones beside it (bound to {table_crc:#010x}/{idx_crc:#010x}, "
                f"found {chunk_table_crc:#010x}/{index_crc:#010x}): stale or torn save"
            )
        size = self._stream.seek(0, os.SEEK_END)
        if size != self._offsets[-1]:
            raise CorruptFileError(
                f"code file truncated or padded: holds {size} bytes, the index "
                f"file's descriptor counts describe {self._offsets[-1]}"
            )

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def read_block(self, chunk_id: int) -> np.ndarray:
        """Chunk ``chunk_id``'s packed codes as :func:`encode_cells` made
        them: a read-only uint8 ``(ceil(d / 2), n_descriptors)`` view of
        the verified bytes."""
        start, end = self._offsets[chunk_id], self._offsets[chunk_id + 1]
        raw = os.pread(self._stream.fileno(), end - start, start)
        if len(raw) != end - start:
            raise CorruptFileError(
                f"code file truncated: wanted {end - start} bytes of block "
                f"{chunk_id}, got {len(raw)}"
            )
        body = memoryview(raw)[: -_CRC.size]
        (stored,) = _CRC.unpack_from(raw, len(body))
        actual = zlib.crc32(body)
        if actual != stored:
            raise ChecksumError(
                f"code block {chunk_id} failed its CRC32 check "
                f"(stored {stored:#010x}, computed {actual:#010x})"
            )
        return np.frombuffer(body, dtype=np.uint8).reshape(self._rows, -1)

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "CodeFileReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

