"""DUR001 fixture — linted as ``storage/dur001.py`` (the storage layer,
where *every* direct durable write is flagged regardless of path text).

Never imported at runtime; the linter parses it as text.
"""

import os
from pathlib import Path


def violation_open_write(path):
    with open(path, "w") as handle:  # expect DUR001
        handle.write("x")


def violation_open_append_keyword(path):
    return open(path, mode="ab")  # expect DUR001


def violation_open_update(path):
    return open(path, "r+b")  # expect DUR001


def violation_replace(source, destination):
    os.replace(source, destination)  # expect DUR001


def violation_rename(source, destination):
    os.rename(source, destination)  # expect DUR001


def violation_write_bytes(path):
    Path(path).write_bytes(b"data")  # expect DUR001


def violation_write_text(path):
    Path(path).write_text("data")  # expect DUR001


def violation_unlink(path):
    os.unlink(path)  # expect DUR001


def violation_remove(path):
    os.remove(path)  # expect DUR001


def violation_os_truncate(path):
    os.truncate(path, 0)  # expect DUR001


def violation_stream_truncate(handle):
    handle.truncate(0)  # expect DUR001


def violation_fsync(handle):
    os.fsync(handle.fileno())  # expect DUR001


def ok_read_binary(path):
    with open(path, "rb") as handle:
        return handle.read()


def ok_read_default_mode(path):
    with open(path) as handle:
        return handle.read()


def ok_dynamic_mode(path, mode):
    # Conservative rule: only provably-writing constant modes flag.
    return open(path, mode)


def suppressed_write(path):
    return open(path, "wb")  # repro-lint: disable=DUR001
