"""Typed errors for the on-disk formats.

:class:`CorruptFileError` subclasses :class:`IOError` so existing
``except IOError`` handlers (and tests matching on message substrings)
keep working, while callers that care can catch corruption specifically
— e.g. a serving layer that wants to quarantine a bad shard rather than
retry the read.
"""

from __future__ import annotations

import os
from typing import BinaryIO

__all__ = ["CorruptFileError", "ChecksumError", "MAX_DIMENSIONS", "read_exact"]

#: Upper bound accepted for the ``dims`` header field of any on-disk
#: format.  The paper's descriptors are 24-d; anything above this is a
#: corrupted or hostile header, not a real collection — and because
#: per-record byte size scales with ``dims``, an unchecked huge value
#: defeats the payload-size guard on ``count`` (small count x enormous
#: record size still allocates gigabytes).
MAX_DIMENSIONS = 1 << 16


class CorruptFileError(IOError):
    """An on-disk structure failed validation while being read.

    Raised for bad magic, unsupported versions, implausible header
    fields (negative/overflowing counts or dimensions) and truncated
    payloads in the collection, index and chunk files.
    """


class ChecksumError(CorruptFileError):
    """A payload's stored CRC32 did not match its contents.

    The distinguishing failure mode: the file *structure* is intact (the
    header parsed, the bytes were all there) but the data itself was
    silently altered — a flipped bit, a torn write.  Kept separate from
    plain :class:`CorruptFileError` so fault drills can assert that
    byte-level damage is caught by the checksum layer specifically, not
    by a lucky decode failure downstream.
    """


def read_exact(stream: BinaryIO, nbytes: int, what: str) -> bytes:
    """Read exactly ``nbytes`` or raise :class:`CorruptFileError`.

    ``nbytes`` is derived from header fields, so it is bounded against
    what the stream really holds *before* the read (``seek``/``tell``):
    a damaged count surfaces as truncation, never as a header-sized
    allocation.
    """
    here = stream.tell()
    available = stream.seek(0, os.SEEK_END) - here
    stream.seek(here)
    raw = stream.read(nbytes) if nbytes <= available else b""
    if len(raw) != nbytes:
        raise CorruptFileError(
            f"{what} truncated: wanted {nbytes} bytes, {available} remain"
        )
    return raw
