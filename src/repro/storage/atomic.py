"""Crash-safe file publication, and the seam every durable operation passes.

All on-disk formats in this package share the same durability contract:
a writer must never leave a half-written file under the final name.  The
:func:`atomic_output` context manager implements it once — bytes land in
``<path>.tmp``; on clean exit the file is flushed, fsynced and renamed
over the target with :func:`os.replace` (atomic on POSIX); on error the
temporary is unlinked and any pre-existing file at the target survives
untouched.  Every published file goes through it (collection, chunk,
index, code and ground-truth files, checkpoint packs, the manifest, a
saved system's file); the write-ahead log, appended in
place under its own framing (:mod:`repro.storage.wal`), is the only
other durable-write site.

Both perform every create, write, fsync, truncate, rename, unlink and
directory fsync through the primitives below.  While :func:`recording`
runs, each also hands a :class:`DurableOp` to the recorder, in program
order (:mod:`repro.faults.crash_states` enumerates crash states from
that log); otherwise it costs one ``None`` check in :func:`_log`.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, Optional, Union

__all__ = [
    "DurableOp",
    "recording",
    "atomic_output",
    "fsync_directory",
    "remove_file",
]

PathLike = Union[str, os.PathLike]


class DurableOp(NamedTuple):
    """``kind`` (``create``, ``write``, ``fsync``, ``truncate``, ``rename``,
    ``unlink`` or ``fsync_dir``) applied to ``path``; ``arg`` is a write's
    ``(offset, bytes)``, a truncate's size or a rename's destination."""

    kind: str
    path: str
    arg: Any


#: The recorder :func:`recording` installed, or ``None``.
_recorder: Optional[Callable[[DurableOp], None]] = None


@contextlib.contextmanager
def recording(recorder: Callable[[DurableOp], None]) -> Iterator[None]:
    """Hand every durable operation of the block, once it succeeded, to
    ``recorder`` (which may raise to simulate a kill there)."""
    global _recorder
    if _recorder is not None:
        raise RuntimeError("a durable-operation recorder is already installed")
    _recorder = recorder
    try:
        yield
    finally:
        _recorder = None


def _log(kind: str, path: str, arg: Any) -> None:
    """Hand one operation that succeeded to the recorder, if any."""
    if _recorder is not None:
        _recorder(DurableOp(kind, path, arg))


def create_file(path: str) -> BinaryIO:
    """Open ``path`` for writing from empty."""
    stream = open(path, "wb")
    _log("create", path, None)
    return stream


def write_file(stream: BinaryIO, path: str, data: bytes) -> None:
    """Write ``data`` at the stream's position, flushed to the OS."""
    stream.write(data)
    stream.flush()
    if _recorder is not None:  # only a recording pays for the offset and copy
        _log("write", path, (stream.tell() - len(data), bytes(data)))


def fsync_file(stream: BinaryIO, path: str) -> None:
    os.fsync(stream.fileno())
    _log("fsync", path, None)


def truncate_file(stream: BinaryIO, path: str, size: int) -> None:
    stream.truncate(size)
    _log("truncate", path, size)


def replace_file(source: str, destination: str) -> None:
    os.replace(source, destination)
    _log("rename", source, destination)


def remove_file(path: str) -> None:
    """Unlink ``path`` (:class:`FileNotFoundError` when it is missing)."""
    os.unlink(path)
    _log("unlink", path, None)


@contextlib.contextmanager
def atomic_output(path: PathLike) -> Iterator[BinaryIO]:
    """Yield a binary stream that atomically replaces ``path`` on success."""
    final_path = os.fspath(path)
    tmp_path = final_path + ".tmp"
    stream = create_file(tmp_path)
    try:
        yield stream
        stream.flush()
        if _recorder is not None:  # the writer may seek: log the bytes it left
            with open(tmp_path, "rb") as written:
                _log("write", tmp_path, (0, written.read()))
        fsync_file(stream, tmp_path)
        stream.close()
        replace_file(tmp_path, final_path)
    except BaseException:
        stream.close()
        with contextlib.suppress(FileNotFoundError):
            remove_file(tmp_path)
        raise


def fsync_directory(path: PathLike) -> None:
    """Fsync a directory so a just-renamed entry survives a power cut.

    ``os.replace`` makes the rename atomic but not necessarily durable —
    the directory entry itself must reach the disk.  Best effort: some
    platforms/filesystems refuse to fsync a directory handle, which is
    tolerated (the rename is still atomic, merely not yet durable, and
    nothing is recorded).
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        return
    finally:
        os.close(fd)
    _log("fsync_dir", os.fspath(path), None)
