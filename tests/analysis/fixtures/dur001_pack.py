"""DUR001 fixture — linted as ``core/dur001_pack.py`` (outside the storage
layer, where only durable operations whose path expressions name a
durable artifact are flagged): a checkpoint pack and a manifest are.

Never imported at runtime; the linter parses it as text.
"""

import os

from repro.storage.atomic import atomic_output


def violation_direct_pack_write(pack_path, payload):
    with open(pack_path, "wb") as handle:  # expect DUR001
        handle.write(payload)


def violation_pack_name_in_path(directory, payload):
    with open(os.path.join(directory, "delta-000001.pack"), "wb") as handle:  # expect DUR001
        handle.write(payload)


def violation_rename_over_pack(tmp, directory, checkpoint):
    os.replace(tmp, _pack_name(directory, checkpoint))  # expect DUR001


def violation_unlink_manifest(manifest_path):
    os.unlink(manifest_path)  # expect DUR001


def violation_remove_pack(directory, checkpoint):
    os.remove(_pack_name(directory, checkpoint))  # expect DUR001


def violation_truncate_wal(wal_path, size):
    os.truncate(wal_path, size)  # expect DUR001


def violation_truncate_wal_stream(wal_stream, size):
    wal_stream.truncate(size)  # expect DUR001


def violation_fsync_manifest(manifest_stream):
    os.fsync(manifest_stream.fileno())  # expect DUR001


def ok_remove_report(out):
    os.unlink(out)


def ok_published_atomically(pack_path, payload):
    with atomic_output(pack_path) as stream:
        stream.write(payload)


def ok_read_pack(pack_path):
    with open(pack_path, "rb") as handle:
        return handle.read()


def ok_report_output(out, text):
    with open(out, "w") as handle:
        handle.write(text)


def _pack_name(directory, checkpoint):
    return os.path.join(directory, f"delta-{checkpoint:06d}.pack")
