"""The BAG clustering algorithm (Berrani, Amsaleg, Gros — CIKM 2003).

Reimplemented from the paper's section 3 description.  BAG "tries to create
clusters of minimal volume in order to maximize the intra-cluster
similarity"; it is derived from the first phase of BIRCH and outputs
hyper-spherical clusters identified by centroid and minimum bounding
radius.

Algorithm (one *pass* = the paper's "step"):

1. Start with one zero-radius cluster per descriptor.
2. Scan the current clusters.  A cluster may merge with another iff the
   radius of the merged cluster is smaller than the radius of the larger of
   the two plus **MPI** (the Maximum Possible Increment).  On a merge the
   new centroid and the new minimum bounding radius are computed; a cluster
   that does not merge has its radius incremented by MPI (its radius
   becomes non-minimal).  Each cluster takes exactly one action per pass.
3. At the end of each pass the average cluster population is computed and
   every cluster holding fewer than :data:`DESTROY_FRACTION` (20 % in the
   paper) of that average is destroyed, its descriptors re-entering as
   zero-radius singletons.
4. When the cluster count falls below a user threshold the algorithm
   stops; clusters holding fewer than :data:`FINAL_OUTLIER_FRACTION` of
   the average population are destroyed and their descriptors become
   **outliers**.

Fidelity notes
--------------
* The original "examines all existing clusters every time a cluster is
  checked" — an O(m) scan per cluster per pass that made the paper's run
  take ~12 days on 5M descriptors.  We keep the same merge semantics but
  search merge partners among the :data:`CANDIDATE_CHECKS` nearest centroids
  (computed in one vectorized pass, refreshed lazily when candidates were
  consumed by earlier merges).  The nearest feasible partner is the one an
  exhaustive scan would overwhelmingly select, since the merged radius
  grows with centroid distance.
* The paper generated its SMALL/MEDIUM/LARGE clusterings "in succession";
  :meth:`BagClusterer.run_with_snapshots` mirrors that: one clustering run,
  snapshotting whenever the cluster count first falls below each requested
  threshold.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from ..core.chunk import Chunk, ChunkSet
from ..core.dataset import DescriptorCollection
from .base import Chunker, ChunkingResult

__all__ = [
    "BagClusterer",
    "BagSnapshot",
    "CANDIDATE_CHECKS",
    "DESTROY_FRACTION",
    "FINAL_OUTLIER_FRACTION",
    "MAX_PASSES",
    "MPI_SAMPLE_SIZE",
    "estimate_mpi",
]

#: Final destruction threshold, as a fraction of the mean cluster
#: population; descriptors of destroyed clusters become outliers.
FINAL_OUTLIER_FRACTION = 0.2
#: Per-pass destruction threshold, as a fraction of the mean cluster
#: population (0.2 in the paper).
DESTROY_FRACTION = 0.2
#: How many nearest clusters are tested as merge partners per scan.
CANDIDATE_CHECKS = 4
#: Descriptors :func:`estimate_mpi` samples (capped at the collection size).
MPI_SAMPLE_SIZE = 2000
#: Safety bound on the clustering pass loop.
MAX_PASSES = 400


def estimate_mpi(
    collection: DescriptorCollection,
    factor: float = 0.5,
    seed: int = 0,
) -> float:
    """Heuristic MPI: a fraction of the median nearest-neighbor distance.

    MPI controls how fast radii may grow per pass; tying it to the typical
    nearest-neighbor spacing makes the pass count insensitive to the
    absolute scale of the data.
    """
    n = len(collection)
    if n < 2:
        raise ValueError("need at least two descriptors to estimate MPI")
    rng = np.random.default_rng(seed)
    take = min(MPI_SAMPLE_SIZE, n)
    rows = rng.choice(n, size=take, replace=False)
    sample = collection.vectors[rows].astype(np.float64)
    diffs = sample[:, np.newaxis, :] - sample[np.newaxis, :, :]
    d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(d2, np.inf)
    nn = np.sqrt(d2.min(axis=1))
    return float(np.median(nn) * factor)


class _Cluster:
    """Internal mutable cluster state."""

    __slots__ = ("rows", "centroid", "radius")

    def __init__(self, rows: List[int], centroid: np.ndarray, radius: float):
        self.rows = rows
        self.centroid = centroid
        self.radius = radius

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclasses.dataclass
class BagSnapshot:
    """Cluster state captured when the count crossed one threshold."""

    threshold: int
    passes_run: int
    rows_per_cluster: List[np.ndarray]


class BagClusterer(Chunker):
    """BAG chunk-forming strategy.

    Parameters
    ----------
    mpi:
        Maximum Possible Increment for radii (data-scale dependent; see
        :func:`estimate_mpi`).
    target_clusters:
        Terminate once the cluster count falls to or below this.

    The pass loop stops at :data:`MAX_PASSES`.
    """

    name = "BAG"

    def __init__(self, mpi: float, target_clusters: int):
        if mpi <= 0:
            raise ValueError(f"MPI must be positive, got {mpi}")
        if target_clusters < 1:
            raise ValueError("target cluster count must be at least 1")
        self.mpi = float(mpi)
        self.target_clusters = int(target_clusters)

    # -- public API -----------------------------------------------------------

    def form_chunks(self, collection: DescriptorCollection) -> ChunkingResult:
        """Run to the configured threshold and finalize one chunk index."""
        snapshots = self.run_with_snapshots(collection, [self.target_clusters])
        return self.finalize(collection, snapshots[0])

    def run_with_snapshots(
        self,
        collection: DescriptorCollection,
        thresholds: Sequence[int],
    ) -> List[BagSnapshot]:
        """One clustering run, snapshotting at each (descending) threshold.

        ``thresholds`` are cluster-count targets; they are sorted
        descending internally (the run crosses larger counts first), and a
        snapshot is captured the first time the live cluster count falls to
        or below each.
        """
        if len(collection) == 0:
            raise ValueError("cannot cluster an empty collection")
        pending = sorted(set(int(t) for t in thresholds), reverse=True)
        if not pending:
            raise ValueError("need at least one threshold")
        if pending[-1] < 1:
            raise ValueError("thresholds must be positive")

        vectors = collection.vectors.astype(np.float64)
        clusters: List[_Cluster] = [
            _Cluster([row], vectors[row].copy(), 0.0) for row in range(len(collection))
        ]
        snapshots: List[BagSnapshot] = []
        passes = 0

        def capture(count: int, materialize: Callable[[], List[_Cluster]]) -> None:
            """Snapshot every threshold the live count has fallen to.

            Called after every state change — including after individual
            merges inside a pass, since a single avalanche pass can step
            the count past several thresholds at once; the paper terminates
            "at that time", i.e. the moment the count crosses.

            ``materialize`` lazily produces the live cluster list, so the
            common no-crossing case costs one integer comparison.
            """
            while pending and count <= pending[0]:
                snapshots.append(
                    BagSnapshot(
                        threshold=pending.pop(0),
                        passes_run=passes,
                        rows_per_cluster=[
                            np.asarray(c.rows, dtype=np.intp) for c in materialize()
                        ],
                    )
                )

        capture(len(clusters), lambda: clusters)
        while pending and passes < MAX_PASSES:
            clusters = self._run_pass(clusters, vectors, on_change=capture)
            passes += 1
            if not pending:
                break
            # Destruction re-creates singletons and can push the count back
            # above a threshold already crossed; check again afterwards.
            clusters = self._destroy_small(clusters, vectors, DESTROY_FRACTION)
            capture(len(clusters), lambda: clusters)

        if pending:
            raise RuntimeError(
                f"BAG did not reach cluster count {pending[0]} within "
                f"{MAX_PASSES} passes ({len(clusters)} clusters remain); "
                "increase mpi"
            )
        return snapshots

    def finalize(
        self, collection: DescriptorCollection, snapshot: BagSnapshot
    ) -> ChunkingResult:
        """Apply final outlier removal and build the chunk set.

        Chunk centroids and radii are recomputed exactly from the member
        descriptors (BAG's working radii are non-minimal after increments;
        the chunk index stores minimum bounding radii).
        """
        sizes = np.asarray([rows.size for rows in snapshot.rows_per_cluster])
        mean_size = sizes.mean()
        keep_cluster = sizes >= FINAL_OUTLIER_FRACTION * mean_size
        if not keep_cluster.any():
            raise RuntimeError("final outlier removal destroyed every cluster")

        outlier_rows = (
            np.concatenate(
                [
                    rows
                    for rows, keep in zip(snapshot.rows_per_cluster, keep_cluster)
                    if not keep
                ]
            )
            if not keep_cluster.all()
            else np.empty(0, dtype=np.intp)
        )
        keep_mask = np.ones(len(collection), dtype=bool)
        keep_mask[outlier_rows] = False
        retained = collection.mask(keep_mask)

        # Map original rows to retained rows.
        new_row = np.cumsum(keep_mask) - 1
        chunks = [
            Chunk.from_rows(retained, new_row[rows])
            for rows, keep in zip(snapshot.rows_per_cluster, keep_cluster)
            if keep
        ]
        return ChunkingResult(
            original=collection,
            retained=retained,
            chunk_set=ChunkSet(retained, chunks),
            outlier_rows=np.sort(outlier_rows),
            build_info={
                "passes_run": float(snapshot.passes_run),
                "threshold": float(snapshot.threshold),
                "mpi": self.mpi,
            },
        )

    # -- the pass -----------------------------------------------------------------

    def _run_pass(
        self,
        clusters: List[_Cluster],
        vectors: np.ndarray,
        on_change: Optional[Callable[[List[_Cluster]], None]] = None,
    ) -> List[_Cluster]:
        """One scan over the cluster list.

        Each cluster is analyzed once: it either merges (into the best
        available partner) or has its radius incremented by MPI.  A cluster
        that already merged this pass is not re-analyzed, but it remains a
        valid merge *target* for clusters analyzed later — the paper's
        "merged into larger clusters" wording constrains the analyzed
        cluster, not the target, and large clusters do absorb many small
        ones within one pass.

        ``on_change(count, materialize)``, when given, is invoked after
        every merge with the live cluster count and a lazy materializer of
        the live list, so callers can snapshot threshold crossings
        mid-pass without paying to build the list each time.
        """
        m = len(clusters)
        if m <= 1:
            for cluster in clusters:
                cluster.radius += self.mpi
            return clusters

        centroids = np.stack([c.centroid for c in clusters]).astype(np.float32)
        sizes = np.asarray([c.size for c in clusters], dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        acted = np.zeros(m, dtype=bool)  # analyzed this pass (merged or incremented)
        live_count = m
        candidates = self._nearest_candidates(centroids)

        for i in range(m):
            if not alive[i] or acted[i]:
                continue
            merged_into = None
            for j in self._iter_partners(i, candidates[i], alive, centroids):
                merged = self._try_merge(clusters[i], clusters[j], vectors)
                if merged is not None:
                    merged_into = j
                    break
            if merged_into is None:
                clusters[i].radius += self.mpi
                acted[i] = True
                continue
            # Store the merged cluster at the larger side's slot; it stays
            # alive as a target but will not be analyzed again this pass.
            j = merged_into
            keep, drop = (i, j) if sizes[i] >= sizes[j] else (j, i)
            clusters[keep] = merged
            alive[drop] = False
            acted[keep] = True
            centroids[keep] = merged.centroid.astype(np.float32)
            sizes[keep] = merged.size
            live_count -= 1
            if on_change is not None:
                on_change(
                    live_count,
                    lambda: [clusters[x] for x in range(m) if alive[x]],
                )

        return [clusters[i] for i in range(m) if alive[i]]

    def _nearest_candidates(self, centroids: np.ndarray) -> np.ndarray:
        """``(m, K)`` merge-candidate lists, best first: the nearest
        centroids — merges stay local, matching an exhaustive scan that
        prefers the partner minimizing the merged radius."""
        m = centroids.shape[0]
        k = min(CANDIDATE_CHECKS, m - 1)
        out = np.empty((m, k), dtype=np.intp)
        block = max(1, int(2_000_000 // max(m, 1)))
        sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        for start in range(0, m, block):
            stop = min(start + block, m)
            cross = centroids[start:stop] @ centroids.T
            d2 = sq_norms[np.newaxis, :] - 2.0 * cross + sq_norms[start:stop, np.newaxis]
            np.maximum(d2, 0.0, out=d2)
            rows = np.arange(start, stop)
            d2[rows - start, rows] = np.inf
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            part_s = np.take_along_axis(d2, part, axis=1)
            order = np.argsort(part_s, axis=1, kind="stable")
            out[start:stop] = np.take_along_axis(part, order, axis=1)
        return out

    def _iter_partners(
        self,
        i: int,
        candidate_row: np.ndarray,
        alive: np.ndarray,
        centroids: np.ndarray,
    ) -> Iterator[int]:
        """Yield partner candidates for cluster ``i``: the precomputed
        nearest ones first, then (if all were consumed by earlier
        merges) the current best recomputed fresh."""
        yielded = 0
        for j in candidate_row:
            if alive[j] and j != i:
                yielded += 1
                yield int(j)
        if yielded:
            return
        usable = alive.copy()
        usable[i] = False
        if not usable.any():
            return
        diffs = centroids[usable].astype(np.float64) - centroids[i].astype(np.float64)
        score = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        yield int(np.flatnonzero(usable)[int(np.argmin(score))])

    def _try_merge(
        self, a: _Cluster, b: _Cluster, vectors: np.ndarray
    ) -> Optional[_Cluster]:
        """Merge test from the paper: the merged minimum bounding radius
        must stay below the larger radius plus MPI."""
        rows = a.rows + b.rows
        points = vectors[rows]
        centroid = points.mean(axis=0)
        diffs = points - centroid
        radius = float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs).max()))
        if radius < max(a.radius, b.radius) + self.mpi:
            return _Cluster(rows, centroid, radius)
        return None

    def _destroy_small(
        self,
        clusters: List[_Cluster],
        vectors: np.ndarray,
        fraction: float,
    ) -> List[_Cluster]:
        """End-of-pass destruction: clusters below ``fraction`` of the mean
        population dissolve back into zero-radius singletons."""
        if fraction <= 0.0 or not clusters:
            return clusters
        sizes = np.asarray([c.size for c in clusters], dtype=np.float64)
        cutoff = fraction * sizes.mean()
        kept: List[_Cluster] = []
        reborn: List[_Cluster] = []
        for cluster, size in zip(clusters, sizes):
            if size < cutoff:
                for row in cluster.rows:
                    reborn.append(_Cluster([row], vectors[row].copy(), 0.0))
            else:
                kept.append(cluster)
        return kept + reborn
