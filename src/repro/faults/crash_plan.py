"""Seeded crash-point plans for the streaming-ingest durability protocol.

The WAL writer, the checkpoint compactor and the base rebuild announce
every protocol boundary — operation frames flushed, commit marker
flushed, fsync done, the checkpoint pack published, manifest renamed — by
calling ``plan.reached(site)`` with a stable site name.  A crash plan
decides whether the "process" dies there, by raising
:class:`InjectedCrash`; the test harness catches it, reopens the
directory through recovery, and verifies the restored index.

Three plans cover the matrix-style drills the acceptance criteria ask
for:

* :class:`CrashPlan` — the null plan: never crashes (also the base
  class).
* :class:`RecordingCrashPlan` — never crashes either, but records the
  full ordered site sequence of a run; its length is the size of the
  crash matrix.
* :class:`CrashAtStep` — dies at the N-th announced site, whatever its
  name; running it for every N in ``range(len(recording.sites))``
  exercises a kill at *every* WAL/pack/rename boundary.

:func:`seeded_crash_steps` draws a reproducible subset of step indices
for CI-sized matrices, using the same
:class:`numpy.random.SeedSequence`-from-explicit-entropy discipline as
:class:`~repro.faults.plan.FaultPlan`.

Like every fault-layer injection, a crash here is *simulated*: the
exception unwinds the writer mid-protocol instead of a real ``kill -9``.
The protocol's crash sites sit between durability boundaries (after a
flush or fsync, before the next protocol step), so the on-disk state the
recovery sees is deterministic; byte-level torn states inside a single
write are exercised separately by the WAL truncation tests.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "InjectedCrash",
    "CrashPlan",
    "RecordingCrashPlan",
    "CrashAtStep",
    "seeded_crash_steps",
]

#: SeedSequence stream tag separating crash-step draws from any other
#: consumer of the same root seed.
_STREAM_CRASH = 7


class InjectedCrash(RuntimeError):
    """A simulated process kill at a named protocol boundary.

    Attributes
    ----------
    site:
        The boundary name (e.g. ``"wal.batch.commit"``).
    step:
        The global 0-based index of the boundary within the run.
    """

    def __init__(self, site: str, step: int):
        super().__init__(f"injected crash at {site} (step {step})")
        self.site = site
        self.step = step


class CrashPlan:
    """Base/null plan: observes every boundary, never crashes."""

    def __init__(self) -> None:
        self.steps_seen = 0

    def reached(self, site: str) -> None:
        """Announce one protocol boundary.  The null plan just counts."""
        self.steps_seen += 1


class RecordingCrashPlan(CrashPlan):
    """Records the ordered site sequence of a run without crashing.

    A recording pass enumerates the crash matrix: running the same
    scenario again under ``CrashAtStep(n)`` for each ``n`` kills the
    writer at every boundary the recording saw.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sites: List[str] = []

    def reached(self, site: str) -> None:
        self.sites.append(site)
        super().reached(site)


class CrashAtStep(CrashPlan):
    """Dies (raises :class:`InjectedCrash`) at the N-th announced boundary."""

    def __init__(self, step: int):
        super().__init__()
        if step < 0:
            raise ValueError("crash step must be non-negative")
        self.step = int(step)

    def reached(self, site: str) -> None:
        current = self.steps_seen
        super().reached(site)
        if current == self.step:
            raise InjectedCrash(site, current)


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
