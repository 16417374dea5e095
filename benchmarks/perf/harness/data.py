"""Seeded benchmark inputs and the on-disk cache for the slow ones.

The program under test only ever receives the arrays made here.  The
*shape* of a collection (pattern centres, their popularity and spread)
is fixed by :data:`STRUCTURE_SEED` and is part of the workload's
definition; ``--seed`` draws the sample from that shape: which
descriptors exist, which are queried, which are inserted and deleted.
Two seeds therefore give different inputs of the same difficulty, which
is what lets runs with different seeds be compared at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Callable, Dict, NamedTuple

import numpy as np

#: Fixes every collection's pattern geometry (the paper's EMMA workshop date).
STRUCTURE_SEED = 20050405

# SeedSequence stream tags: one independent stream per consumer of ``--seed``.
_STREAM_COLLECTION = 1
_STREAM_QUERIES = 2
_STREAM_DELETES = 3

#: Query kinds, interleaved 1:1 in every pool.
KIND_DQ = 0  # a descriptor of the collection: a query with good matches
KIND_SQ = 1  # uniform in the trimmed value ranges: a query with no match


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


@dataclasses.dataclass(frozen=True)
class CollectionSpec:
    """Generator configuration of one synthetic descriptor collection."""

    n_descriptors: int
    dimensions: int = 24
    n_patterns: int = 400
    popularity_exponent: float = 1.1
    pattern_std: float = 0.02
    clutter_fraction: float = 0.10
    descriptors_per_image: int = 50

    def key(self) -> Dict[str, object]:
        return dict(dataclasses.asdict(self), structure_seed=STRUCTURE_SEED)


class Structure(NamedTuple):
    centers: np.ndarray  # (P, d) float32
    weights: np.ndarray  # (P,) float64, sums to 1
    stds: np.ndarray  # (P,) float32


def structure(spec: CollectionSpec) -> Structure:
    """Pattern centres grown hierarchically (most perturb an earlier
    centre at a log-uniform scale, so inter-pattern distances span an
    order of magnitude), Zipf popularity, per-pattern spread."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    p, d = spec.n_patterns, spec.dimensions
    centers = np.empty((p, d))
    centers[0] = rng.uniform(0.0, 1.0, size=d)
    for i in range(1, p):
        if rng.random() < 0.75:
            offset = rng.standard_normal(d)
            offset *= 10.0 ** rng.uniform(-0.8, 0.0) / np.linalg.norm(offset)
            centers[i] = np.clip(centers[rng.integers(i)] + offset, 0.0, 1.0)
        else:
            centers[i] = rng.uniform(0.0, 1.0, size=d)
    weights = np.arange(1, p + 1, dtype=np.float64) ** -spec.popularity_exponent
    weights = rng.permutation(weights / weights.sum())
    stds = spec.pattern_std * rng.uniform(0.6, 1.6, size=p)
    return Structure(centers.astype(np.float32), weights, stds.astype(np.float32))


class Collection(NamedTuple):
    vectors: np.ndarray  # (n, d) float32
    ids: np.ndarray  # (n,) int64, row numbers
    image_ids: np.ndarray  # (n,) int64
    labels: np.ndarray  # (n,) int32 pattern of each row, -1 for clutter


def generate_collection(spec: CollectionSpec, seed: int) -> Collection:
    """``n_descriptors`` rows: a pattern centre plus Gaussian noise, or
    (``clutter_fraction`` of them) a uniform point of the unit box."""
    shape = structure(spec)
    rng = _rng(seed, _STREAM_COLLECTION)
    n, d = spec.n_descriptors, spec.dimensions
    labels = rng.choice(spec.n_patterns, size=n, p=shape.weights).astype(np.int32)
    vectors = rng.standard_normal((n, d), dtype=np.float32)
    vectors *= shape.stds[labels][:, np.newaxis]
    vectors += shape.centers[labels]
    clutter = np.flatnonzero(rng.random(n) < spec.clutter_fraction)
    vectors[clutter] = rng.random((clutter.size, d), dtype=np.float32)
    labels[clutter] = -1
    ids = np.arange(n, dtype=np.int64)
    return Collection(vectors, ids, ids // spec.descriptors_per_image, labels)


class QueryPool(NamedTuple):
    queries: np.ndarray  # (n, d) float64
    kinds: np.ndarray  # (n,) KIND_DQ / KIND_SQ, alternating


def query_pool(
    collection: Collection, spec: CollectionSpec, seed: int, n_queries: int
) -> QueryPool:
    """``n_queries`` distinct queries, DQ and SQ interleaved 1:1.

    DQ sources are *stratified*: which pattern (or clutter) the i-th DQ
    query comes from is fixed by the structure seed, and ``seed`` picks
    the member row.  A query's cost depends mostly on the region it
    falls in, so every seed gets the same mix of cheap and dear queries.
    """
    rng = _rng(seed, _STREAM_QUERIES)
    shape = structure(spec)
    n_dq = (n_queries + 1) // 2
    n_sq = n_queries - n_dq
    d = spec.dimensions

    mix = np.append(
        shape.weights * (1.0 - spec.clutter_fraction), spec.clutter_fraction
    )
    schedule = np.random.default_rng(STRUCTURE_SEED + 1).choice(
        spec.n_patterns + 1, size=n_dq, p=mix
    )
    schedule[schedule == spec.n_patterns] = -1
    order = np.argsort(collection.labels, kind="stable")
    sorted_labels = collection.labels[order]
    lo = np.searchsorted(sorted_labels, schedule, side="left")
    hi = np.searchsorted(sorted_labels, schedule, side="right")
    empty = hi == lo  # a pattern with no member at a tiny scale: any row
    lo[empty], hi[empty] = 0, order.size
    rows = order[lo + (rng.random(n_dq) * (hi - lo)).astype(np.int64)]
    dq = collection.vectors[rows].astype(np.float64)

    sample = collection.vectors[:: max(1, len(collection.vectors) // 50_000)]
    low, high = np.quantile(sample, [0.05, 0.95], axis=0)
    sq = rng.uniform(low, high, size=(n_sq, d))

    queries = np.empty((n_queries, d), dtype=np.float64)
    queries[0::2] = dq
    queries[1::2] = sq
    kinds = np.zeros(n_queries, dtype=np.int8)
    kinds[1::2] = KIND_SQ
    return QueryPool(queries, kinds)


def delete_schedule(n_base: int, seed: int, n_deletes: int) -> np.ndarray:
    """``n_deletes`` distinct base ids in seeded order: every delete hits
    a live descriptor and none is deleted twice."""
    if n_deletes > n_base:
        raise ValueError(f"cannot delete {n_deletes} of {n_base} base descriptors")
    return _rng(seed, _STREAM_DELETES).permutation(n_base)[:n_deletes].astype(np.int64)


class InputCache:
    """Directory of generated inputs keyed by (kind, generator config, seed).

    Only inputs that cost more to make than to load are kept here (the
    brute-force reference answers; a collection is regenerated faster
    than 50 MB is read back).  Entries are published by rename, so a
    killed run never leaves a half-written entry, and the oldest are
    removed beyond ``keep`` so a long series of seeds cannot fill the disk.
    """

    def __init__(self, root: Path, keep: int = 32):
        self.root = Path(root)
        self.keep = keep

    def get(
        self,
        kind: str,
        key: Dict[str, object],
        make: Callable[[], Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        digest = hashlib.sha1(
            json.dumps(key, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]
        entry = self.root / f"{kind}-{digest}"
        if entry.is_dir():
            os.utime(entry)
            return {p.stem: np.load(p) for p in sorted(entry.glob("*.npy"))}
        arrays = make()
        self.root.mkdir(parents=True, exist_ok=True)
        staging = self.root / f".staging-{os.getpid()}-{digest}"
        staging.mkdir()
        for name, array in arrays.items():
            np.save(staging / f"{name}.npy", array)
        (staging / "key.json").write_text(json.dumps(key, sort_keys=True))
        try:
            staging.rename(entry)
        except OSError:  # another run published the same entry first
            shutil.rmtree(staging, ignore_errors=True)
        self._prune(kind)
        return arrays

    def _prune(self, kind: str) -> None:
        entries = sorted(
            (p for p in self.root.glob(f"{kind}-*") if p.is_dir()),
            key=lambda p: p.stat().st_mtime,
        )
        for stale in entries[: max(0, len(entries) - self.keep)]:
            shutil.rmtree(stale, ignore_errors=True)
