"""Crash states from a persistence model of one recorded run (DESIGN §8).

:func:`record` snapshots a directory and logs, in program order, every
durable operation :mod:`repro.storage.atomic` and :mod:`repro.storage.wal`
perform inside it.  A crash at position ``p`` comes after the first ``p``
operations; the disk may then hold the snapshot replayed with

* each file's writes and truncations since its last fsync as a prefix,
  the first lost write possibly torn at a :data:`SECTOR` boundary;
* the creates, renames and unlinks since the directory's last fsync as a
  program-order prefix (ext4 ``data=ordered``; an assumption).

Those choices span a mixed-radix space per position.  Between two fsyncs
an earlier position's states are among a later one's, so only the
positions just before each fsync and the end of the log are visited.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..storage import atomic
from ..storage.atomic import DurableOp

__all__ = [
    "STATES_PER_INTERVAL",
    "InjectedCrash",
    "CrashState",
    "Recording",
    "record",
    "seeded_crash_steps",
]

#: Granularity at which an un-fsynced write may tear.
SECTOR = 512
#: States taken at one position; beyond it both extremes and a seeded sample.
STATES_PER_INTERVAL = 8

#: SeedSequence stream tags of crash-step draws and state samples.
_STREAM_CRASH = 7
_STREAM_STATES = 8

_DIRECTORY_KINDS = ("link", "rename", "unlink")


class InjectedCrash(RuntimeError):
    """A simulated process kill after the first ``position`` operations."""

    def __init__(self, position: int):
        super().__init__(f"injected crash after durable operation {position}")
        self.position = position


class CrashState(NamedTuple):
    """State number ``index`` of the space at crash ``position``."""

    position: int
    index: int


class _Entry(NamedTuple):
    """A logged operation resolved to the file (``inode``) it concerns:
    ``kind`` is ``link``, ``rename`` or ``unlink`` (``arg``: the names),
    ``data`` (a write's ``(offset, bytes)`` or a truncate's size), ``fsync``
    or ``fsync_dir``."""

    position: int
    kind: str
    inode: int
    arg: Any


class _Space(NamedTuple):
    """What a crash at one position may keep or lose."""

    directory: List[_Entry]  # the durable directory operations first
    n_durable: int
    data: Dict[int, Tuple[List[_Entry], List[_Entry]]]  # durable, un-fsynced
    files: List[Tuple[int, List[Tuple[int, int]]]]  # file, its outcomes
    size: int
    labels: List[str]  # each file's first name


class Recording:
    """A directory's snapshot and the durable operations logged after it.

    ``stop_at`` raises :class:`InjectedCrash` once that many are logged;
    nothing the dying process does after that is logged.
    """

    def __init__(self, directory: str, stop_at: Optional[int]):
        self.directory = os.path.abspath(directory)
        self.snapshot: Dict[str, bytes] = {}
        for name in sorted(os.listdir(self.directory)):
            with open(os.path.join(self.directory, name), "rb") as handle:
                self.snapshot[name] = handle.read()
        self.ops: List[DurableOp] = []
        self.stop_at = stop_at

    def __call__(self, op: DurableOp) -> None:
        if self.stop_at is None or len(self.ops) < self.stop_at:
            self.ops.append(op)
            if len(self.ops) == self.stop_at:
                raise InjectedCrash(self.stop_at)

    def _entries(self, position: int) -> Tuple[List[_Entry], List[str]]:
        """The first ``position`` operations that touch the directory, names
        bound to files in program order (a create over a name truncates),
        and each file's first name."""
        labels = list(self.snapshot)
        names = {name: inode for inode, name in enumerate(labels)}
        entries: List[_Entry] = []
        for index, (kind, path, arg) in enumerate(self.ops[:position]):
            path = os.path.abspath(path)
            name = os.path.basename(path)
            if kind == "fsync_dir" and path == self.directory:
                entries.append(_Entry(index, kind, -1, None))
            elif kind == "fsync_dir" or os.path.dirname(path) != self.directory:
                continue  # another directory
            elif kind == "create" and name not in names:
                names[name] = len(labels)
                labels.append(name)
                entries.append(_Entry(index, "link", names[name], name))
            elif kind == "rename":
                target = os.path.basename(arg)
                names[target] = names.pop(name)
                entries.append(_Entry(index, kind, names[target], (name, target)))
            elif kind == "unlink":
                entries.append(_Entry(index, kind, names.pop(name), name))
            elif kind == "fsync":
                entries.append(_Entry(index, kind, names[name], None))
            else:  # a write, a truncate, or a create over an existing file
                entries.append(_Entry(index, "data", names[name], arg or 0))
        return entries, labels

    def _space(self, position: int) -> _Space:
        entries, labels = self._entries(position)
        directory = [e for e in entries if e.kind in _DIRECTORY_KINDS]
        synced = max([e.position for e in entries if e.kind == "fsync_dir"] + [-1])
        n_durable = sum(e.position < synced for e in directory)
        names = _namespace(self.snapshot, directory[:n_durable])
        reachable = set(names.values())  # files some surviving prefix names
        for entry in directory[n_durable:]:
            _bind(names, entry)
            reachable.update(names.values())
        data: Dict[int, Tuple[List[_Entry], List[_Entry]]] = {}
        for inode in range(len(labels)):
            mine = [e for e in entries if e.inode == inode]
            synced = max([e.position for e in mine if e.kind == "fsync"] + [-1])
            writes = [e for e in mine if e.kind == "data"]
            data[inode] = (
                [e for e in writes if e.position < synced],
                [e for e in writes if e.position > synced],
            )
        files = [(i, _outcomes(data[i][1])) for i in sorted(reachable) if data[i][1]]
        size = (len(directory) - n_durable + 1) * math.prod(len(o) for _, o in files)
        return _Space(directory, n_durable, data, files, size, labels)

    def _decode(self, state: CrashState) -> Tuple[_Space, int, Dict[int, Any]]:
        """The space of ``state``, the un-fsynced directory operations it
        keeps and, per file, ``(data operations kept, bytes of the next)``."""
        space = self._space(state.position)
        radix = len(space.directory) - space.n_durable + 1
        rest, kept_directory = divmod(state.index, radix)
        kept: Dict[int, Any] = {}
        for inode, outcomes in space.files:
            rest, digit = divmod(rest, len(outcomes))
            kept[inode] = outcomes[digit]
        return space, kept_directory, kept

    def crash_points(self) -> List[int]:
        """The positions just before each fsync, and the end of the log."""
        ends = [i for i, op in enumerate(self.ops) if op.kind in ("fsync", "fsync_dir")]
        return ends + [len(self.ops)]

    def states_at(
        self, position: int, cap: Optional[int], seed: int
    ) -> List[CrashState]:
        """Every state at ``position``; beyond ``cap`` (at least 2) both
        extremes — nothing un-fsynced kept, everything — and a seeded sample."""
        size = self._space(position).size
        if cap is None or size <= cap:
            return [CrashState(position, index) for index in range(size)]
        sample = _rng(seed, position).choice(size - 2, size=cap - 2, replace=False)
        picks = [0, *sorted(int(index) + 1 for index in sample), size - 1]
        return [CrashState(position, index) for index in picks]

    def enumerate_states(self, cap: Optional[int], seed: int) -> List[CrashState]:
        """:meth:`states_at` every crash point, in log order."""
        return [s for p in self.crash_points() for s in self.states_at(p, cap, seed)]

    def seeded_state(self, position: int, seed: int) -> CrashState:
        """One state at ``position``, drawn uniformly."""
        size = self._space(position).size
        return CrashState(position, int(_rng(seed, position).integers(size)))

    def materialise(self, state: CrashState, target: str) -> None:
        """Write the files ``state`` leaves into the empty ``target``."""
        space, kept_directory, kept = self._decode(state)
        kept_ops = space.directory[: space.n_durable + kept_directory]
        for name, inode in _namespace(self.snapshot, kept_ops).items():
            durable, unsynced = space.data[inode]
            n_kept, torn = kept.get(inode, (len(unsynced), 0))
            old = inode < len(self.snapshot)
            content = bytearray(self.snapshot[space.labels[inode]] if old else b"")
            for entry in durable + unsynced[:n_kept]:
                _apply(content, entry.arg)
            if torn:
                offset, data = unsynced[n_kept].arg
                _apply(content, (offset, data[:torn]))
            with open(os.path.join(target, name), "wb") as handle:
                handle.write(content)

    def describe(self, state: CrashState) -> str:
        """One line: where the crash is and what it lost."""
        space, kept_directory, kept = self._decode(state)
        where = "after the last operation"
        if state.position < len(self.ops):
            op = self.ops[state.position]
            where = f"before {op.kind} {os.path.basename(op.path)}"
        unsynced = space.directory[space.n_durable :]
        parts = [f"crash at {state.position}/{len(self.ops)} {where}"]
        parts.append(f"directory ops kept {kept_directory}/{len(unsynced)}")
        if kept_directory < len(unsynced):
            lost = unsynced[kept_directory]
            names = ">".join(lost.arg) if lost.kind == "rename" else lost.arg
            parts[-1] += f" (first lost: {lost.kind} {names})"
        for inode, (n_kept, torn) in kept.items():
            total = len(space.data[inode][1])
            torn_text = f" + {torn} B torn" if torn else ""
            parts.append(f"{space.labels[inode]} data ops kept {n_kept}/{total}{torn_text}")
        return "; ".join(parts)


def _namespace(snapshot: Dict[str, bytes], directory: List[_Entry]) -> Dict[str, int]:
    """File names after ``directory`` operations on the snapshot's."""
    names = {name: inode for inode, name in enumerate(snapshot)}
    for entry in directory:
        _bind(names, entry)
    return names


def _bind(names: Dict[str, int], entry: _Entry) -> None:
    if entry.kind == "link":
        names[entry.arg] = entry.inode
    elif entry.kind == "rename":
        names[entry.arg[1]] = names.pop(entry.arg[0])
    else:
        del names[entry.arg]


def _outcomes(unsynced: List[_Entry]) -> List[Tuple[int, int]]:
    """``(operations kept, bytes of the next write kept)``, from nothing
    to everything, for a file's un-fsynced data operations."""
    outcomes: List[Tuple[int, int]] = []
    for kept, entry in enumerate(unsynced):
        outcomes.append((kept, 0))
        if isinstance(entry.arg, tuple):  # a write may tear at a sector
            offset, data = entry.arg
            cuts = range((offset // SECTOR + 1) * SECTOR, offset + len(data), SECTOR)
            outcomes.extend((kept, cut - offset) for cut in cuts)
    return outcomes + [(len(unsynced), 0)]


def _apply(content: bytearray, arg: Any) -> None:
    """A write ``(offset, bytes)`` or a truncate (the new size)."""
    if isinstance(arg, tuple):
        offset, data = arg
        content.extend(bytes(max(0, offset - len(content))))
        content[offset : offset + len(data)] = data
    else:
        del content[arg:]
        content.extend(bytes(arg - len(content)))


def _rng(seed: int, position: int) -> np.random.Generator:
    entropy = np.random.SeedSequence(entropy=(int(seed), _STREAM_STATES, position))
    return np.random.Generator(np.random.PCG64(entropy))


@contextlib.contextmanager
def record(directory: str, stop_at: Optional[int]) -> Iterator[Recording]:
    """Snapshot ``directory`` and log the durable operations in it."""
    recording = Recording(directory, stop_at)
    with atomic.recording(recording):
        yield recording


def seeded_crash_steps(seed: int, n_steps: int, n_points: int) -> Tuple[int, ...]:
    """A reproducible, sorted subset of crash-step indices.

    Pure function of ``(seed, n_steps, n_points)``: the CI crash-recovery
    matrix and a local rerun pick exactly the same kill points.  When
    ``n_points >= n_steps`` every step is returned.
    """
    if n_steps <= 0:
        return ()
    if n_points >= n_steps:
        return tuple(range(n_steps))
    if n_points <= 0:
        return ()
    entropy = np.random.SeedSequence(entropy=(int(seed), _STREAM_CRASH, int(n_steps)))
    rng = np.random.Generator(np.random.PCG64(entropy))
    chosen = rng.choice(n_steps, size=n_points, replace=False)
    return tuple(int(step) for step in np.sort(chosen))
