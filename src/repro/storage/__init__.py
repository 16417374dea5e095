"""On-disk layout of the chunk index (paper section 4.2).

Two files make up a chunk index:

* the **chunk file** (:mod:`repro.storage.chunk_file`) — descriptors grouped
  by chunk, each chunk padded to whole disk pages, chunks stored
  sequentially;
* the **index file** (:mod:`repro.storage.index_file`) — one entry per chunk
  holding its centroid, minimum bounding radius, and page extent, in the
  same order as the chunk file.

Beyond the paper a saved index carries a third, the **code file**
(:mod:`repro.storage.code_file`): 4-bit cell numbers per descriptor and
dimension, which let the pruner reject a chunk without reading it.

:mod:`repro.storage.pages` defines the shared page geometry and
:mod:`repro.storage.records` the paper's 100-byte descriptor record codec.
"""

from .atomic import atomic_output, fsync_directory
from .chunk_file import (
    CHUNK_MAGIC,
    CHUNK_VERSION,
    ChunkExtent,
    ChunkFileReader,
    write_chunk_file,
)
from .collection_file import (
    COLLECTION_MAGIC,
    read_collection_file,
    write_collection_file,
)
from .delta import DeltaPackReader, DeltaSection, write_delta_pack
from .errors import MAX_DIMENSIONS, ChecksumError, CorruptFileError
from .index_file import index_file_bytes, read_index_file, write_index_file
from .pages import DEFAULT_PAGE_BYTES, PageGeometry
from .records import RecordCodec
from .wal import (
    WalBatch,
    WalOp,
    WalScan,
    WalWriter,
    delete_op,
    insert_op,
    scan_wal,
    truncate_wal,
)

__all__ = [
    "ChunkExtent",
    "CHUNK_MAGIC",
    "CHUNK_VERSION",
    "ChecksumError",
    "CorruptFileError",
    "MAX_DIMENSIONS",
    "atomic_output",
    "fsync_directory",
    "DeltaPackReader",
    "DeltaSection",
    "write_delta_pack",
    "WalOp",
    "WalBatch",
    "WalScan",
    "WalWriter",
    "insert_op",
    "delete_op",
    "scan_wal",
    "truncate_wal",
    "COLLECTION_MAGIC",
    "read_collection_file",
    "write_collection_file",
    "ChunkFileReader",
    "write_chunk_file",
    "index_file_bytes",
    "read_index_file",
    "write_index_file",
    "DEFAULT_PAGE_BYTES",
    "PageGeometry",
    "RecordCodec",
]
