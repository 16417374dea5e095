"""Sweep checkpointing: resume interrupted experiments point by point.

The sweep drivers (fault rates, chunk-size ladders, service load grids)
are embarrassingly resumable: each point is a pure function of the sweep
configuration, so a killed run loses nothing but the points it had not
yet finished.  :class:`SweepCheckpoint` makes that concrete — after each
completed point the driver stores the point's (JSON-serializable) value
under a stable key, published through
:func:`~repro.storage.atomic.atomic_output` so a crash mid-write can
never corrupt the file; on rerun, completed points are returned from the
checkpoint instead of being recomputed.

A checkpoint is only valid for the exact sweep that wrote it, so the
file embeds the sweep's ``meta`` (scale, index, workload, seed, ...).
Opening a checkpoint whose meta does not match starts empty: the stale
points belong to a different experiment and the first :meth:`put`
replaces the file wholesale.  Values pass through a JSON round-trip on
:meth:`put`, so a resumed run sees bit-identical numbers to a fresh one
— float precision is never silently laundered through the cache.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Optional, Union

from ..storage.atomic import atomic_output

__all__ = ["SweepCheckpoint"]

PathLike = Union[str, os.PathLike]

_FORMAT = "repro-sweep-checkpoint-v1"


class SweepCheckpoint:
    """Point-by-point resume state for one sweep run.

    Parameters
    ----------
    path:
        Checkpoint file location (created on the first :meth:`put`), or
        ``None`` for an in-memory checkpoint: nothing is read or
        written, but values still take the same JSON round-trip, so a
        sweep run without a resume file computes with exactly the
        numbers a resumed one would read back.
    meta:
        JSON-serializable identity of the sweep — everything that
        determines its output (experiment name, scale, index, workload,
        seed, grid, ...).  An existing file with different meta is
        ignored, not merged.
    """

    def __init__(self, path: Optional[PathLike], meta: Dict[str, object]):
        self.path = None if path is None else os.fspath(path)
        # Round-trip the meta through JSON so comparison happens in the
        # serialized domain (tuples become lists, ints stay ints).
        self.meta: Dict[str, object] = json.loads(json.dumps(meta, sort_keys=True))
        self._points: Dict[str, object] = {}
        if self.path is not None and os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as stream:
                stored = json.load(stream)
            if (
                isinstance(stored, dict)
                and stored.get("format") == _FORMAT
                and stored.get("meta") == self.meta
            ):
                self._points = dict(stored["points"])

    def put(self, key: str, value: object) -> None:
        """Store one completed point and publish the file atomically.

        ``value`` is immediately round-tripped through JSON, so what the
        caller continues computing with is exactly what a resumed run
        would read back.
        """
        self._points[key] = json.loads(json.dumps(value))
        if self.path is None:
            return
        payload = {
            "format": _FORMAT,
            "meta": self.meta,
            "points": self._points,
        }
        encoded = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")
        with atomic_output(self.path) as stream:
            stream.write(encoded)

    def point(self, key: str, compute: Callable[[], object]) -> object:
        """The value stored under ``key``, computing and storing it first
        when absent — the one resume step every sweep driver takes."""
        if key not in self._points:
            self.put(key, compute())
        return self._points[key]
