"""DUR001 — durable operations go through the sanctioned paths.

Every on-disk artifact the search depends on (collection, chunk and
index files, WAL logs, checkpoint packs, manifests) must be produced by
one of the two crash-safe write sites: the write-temp/fsync/rename
helper in :mod:`repro.storage.atomic` or the WAL writer's framed group
commit.  A bare ``open(path, "w")`` or ``os.replace`` anywhere else can
leave a torn file under a final name — a durability hole no test notices
until a crash lands in exactly the wrong window.  An unlink, truncate or
fsync elsewhere is a durable operation the crash-state recorder behind
those two sites never sees, so those are flagged too.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..config import DURABLE_PATH_KEYWORDS, DURABLE_WRITE_SANCTIONED
from ..diagnostics import Diagnostic
from .base import FileContext, Rule

__all__ = ["DurabilityRule"]

#: Fully-resolved call targets that rename over a final name.
_RENAME_CALLS = frozenset({"os.replace", "os.rename"})

#: Fully-resolved call targets that remove, cut or sync a file.
_OTHER_DURABLE_CALLS = frozenset({"os.unlink", "os.remove", "os.truncate", "os.fsync"})

#: Method names that write a whole file through a path object.
_PATH_WRITE_METHODS = frozenset({"write_bytes", "write_text"})


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The constant mode string of an ``open`` call if it writes.

    Returns ``None`` for read-only modes and for dynamic mode
    expressions (conservative: only provably-writing calls are flagged).
    """
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return None  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if any(flag in mode.value for flag in "wax+"):
            return mode.value
        return None
    return None


class DurabilityRule(Rule):
    """Crash safety in this repo is a property of exactly two write
    sites: storage/atomic.py (write-temp, fsync, atomic rename) and
    storage/wal.py (framed, checksummed group commit); every file
    format, the chunk file included, publishes through them.  Recovery
    reasons about what those sites guarantee — a file under its
    final name is complete, a WAL batch past its commit marker is
    whole.  A bare open(path, 'w') or os.replace against an index,
    chunk, collection, pack, manifest or WAL path anywhere else
    can publish a torn file and silently break every one of those
    recovery invariants; an unlink, truncate or fsync there is a
    durable operation the crash-state recorder never sees.  Inside
    the storage layer any direct one is flagged; elsewhere, those
    whose path expressions mention a durable artifact are.  Report/plot
    outputs (JSON exports, figures) are not durable state and stay
    unflagged."""

    id = "DUR001"
    summary = (
        "direct write/rename/unlink/truncate/fsync of a collection/index/"
        "chunk/WAL path outside storage.atomic or the WAL writer; use the "
        "crash-safe write sites"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.relpath in DURABLE_WRITE_SANCTIONED:
            return
        in_storage = ctx.layer == "storage"
        for node, target in ctx.calls:
            description = _write_description(node, target)
            if description is None:
                continue
            if not in_storage and not _touches_durable_path(node):
                continue
            yield ctx.diagnostic(
                node,
                self.id,
                f"{description}; durable artifacts must be written via "
                "storage.atomic or the WAL writer",
            )


def _write_description(node: ast.Call, target: Optional[str]) -> Optional[str]:
    """A human-readable label when ``node`` (resolved to ``target``)
    performs a file write."""
    if target in _RENAME_CALLS:
        return f"direct {target}() over a final name"
    if target in _OTHER_DURABLE_CALLS:
        return f"direct {target}()"
    if isinstance(node.func, ast.Attribute) and node.func.attr == "truncate":
        return "direct .truncate()"
    if target == "open" or (isinstance(node.func, ast.Name) and node.func.id == "open"):
        mode = _open_write_mode(node)
        return None if mode is None else f"direct open(..., {mode!r})"
    if isinstance(node.func, ast.Attribute) and node.func.attr in _PATH_WRITE_METHODS:
        return f"direct .{node.func.attr}()"
    return None


def _touches_durable_path(node: ast.Call) -> bool:
    """True when any argument expression names a durable artifact."""
    pieces = [ast.unparse(arg) for arg in node.args]
    pieces.extend(ast.unparse(keyword.value) for keyword in node.keywords)
    if isinstance(node.func, ast.Attribute):
        pieces.append(ast.unparse(node.func.value))
    text = " ".join(pieces).lower()
    return any(keyword in text for keyword in DURABLE_PATH_KEYWORDS)
