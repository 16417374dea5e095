"""Crash-safe file publication: write-temp, fsync, atomic rename.

All on-disk formats in this package share the same durability contract:
a writer must never leave a half-written file under the final name.  The
:func:`atomic_output` context manager implements it once — bytes land in
``<path>.tmp``; on clean exit the file is flushed, fsynced and renamed
over the target with :func:`os.replace` (atomic on POSIX); on error the
temporary is unlinked and any pre-existing file at the target survives
untouched.  Every published file goes through it (collection, chunk,
index, code and ground-truth files, checkpoint packs, the streaming
manifest, a saved system's sidecars); the write-ahead log, appended in
place under its own framing (:mod:`repro.storage.wal`), is the only
other durable-write site.
"""

from __future__ import annotations

import contextlib
import os
from typing import BinaryIO, Iterator, Union

__all__ = ["atomic_output", "fsync_directory"]

PathLike = Union[str, os.PathLike]


@contextlib.contextmanager
def atomic_output(path: PathLike) -> Iterator[BinaryIO]:
    """Yield a binary stream that atomically replaces ``path`` on success."""
    final_path = os.fspath(path)
    tmp_path = final_path + ".tmp"
    stream = open(tmp_path, "wb")
    try:
        yield stream
        stream.flush()
        os.fsync(stream.fileno())
        stream.close()
        os.replace(tmp_path, final_path)
    except BaseException:
        stream.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_path)
        raise


def fsync_directory(path: PathLike) -> None:
    """Fsync a directory so a just-renamed entry survives a power cut.

    ``os.replace`` makes the rename atomic but not necessarily durable —
    the directory entry itself must reach the disk.  Best effort: some
    platforms/filesystems refuse to fsync a directory handle, which is
    tolerated (the rename is still atomic, merely not yet durable).
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
