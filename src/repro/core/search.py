"""The approximate chunk-search algorithm (paper section 4.3) — one engine.

For a query descriptor the searcher:

1. computes the distance between the query and the centroids of all chunks
   and ranks the chunks by increasing distance (one pass over the index
   file, charged as a sequential read plus ranking CPU);
2. reads chunks in rank order; each chunk's descriptors are fetched and
   their distances to the query computed, possibly updating the current
   neighbor set;
3. after every chunk, consults the stop rule, and independently checks the
   exact-completion proof: once ``k`` neighbors are known and the minimum
   possible distance to any *remaining* chunk (``d(query, centroid) -
   radius``, the reason radii are stored in the index) exceeds the current
   k-th distance, all true nearest neighbors have provably been found.

The paper's whole methodology is workload-shaped — every figure and table
comes from running hundreds of queries against the same chunk index — so
the unit of execution is a *cohort* of queries (:meth:`ChunkSearcher.
search_batch`); :meth:`ChunkSearcher.search` is a cohort of one.  A cohort
shares host work, never a simulated timestamp:

* **vectorized ranking** — chunk ranking for the whole ``(q, d)`` cohort is
  one :func:`~repro.core.distance.expanded_squared_distances` call plus a
  batched stable argsort;
* **coalesced chunk reads** — within a cohort each chunk is fetched from
  the store at most once (and its float32 descriptor matrix promoted to
  float64 exactly once), then scanned against every query of the cohort
  with one ``(q, n_chunk)`` kernel call.  A cohort of one retains nothing:
  there is no other query to share with;
* **shared norms** — the queries' ``|q|^2`` terms are computed once per
  cohort for the ranking and every scan, and an in-memory store keeps each
  chunk's ``|p|^2`` terms across cohorts and searchers
  (:meth:`~repro.core.chunk_index.InMemoryChunkStore.member_sq_norms`), so
  a resident chunk's scan is one BLAS product;
* **per-query timing model** — every query owns its own timeline (three
  floats carrying the :class:`~repro.simio.pipeline.PipelineSimulator`
  recurrence, the reference the tests replay it against), so simulated
  time is charged per query exactly as the paper measures it.

Queries always run one after the other (query 0 to its stop, then query
1, ...), so when the cost model carries a shared cache — whose simulated
I/O charge depends on the global order of touches — the touch order is the
one a loop of single-query calls would produce.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.plan import OK_OUTCOME
from ..simio.calibration import PAPER_2005_COST_MODEL
from ..simio.pipeline import CostModel
from ..storage.code_file import CELLS, cell_edges
from ..storage.errors import CorruptFileError
from .chunk_index import ChunkIndex, InMemoryChunkStore
from .distance import (
    cell_squared_gaps,
    expanded_squared_distances,
    pairwise_squared_distances,
    squared_norms,
)
from .neighbors import Neighbor, NeighborSet
from .stop_rules import ExactCompletion, SearchProgress, StopRule
from .trace import SearchTrace

__all__ = [
    "ChunkSearcher",
    "SearchResult",
    "BatchSearchResult",
    "RANK_BY_CENTROID",
    "RANK_BY_LOWER_BOUND",
]

#: Rank chunks by distance to the centroid (what the paper does).
RANK_BY_CENTROID = "centroid"
#: Rank chunks by the lower bound ``d(centroid) - radius`` (ablation).
RANK_BY_LOWER_BOUND = "lower_bound"

#: A chunk as the store hands it out: ``(ids, vectors)``, views of the
#: verified read for an on-disk chunk.
_Read = Tuple[np.ndarray, np.ndarray]
#: A chunk's promoted contents: ``(int64 ids, contiguous float64 vectors)``.
_Payload = Tuple[np.ndarray, np.ndarray]

#: Unit roundoff of float64 (``2**-53``), the ``u`` of the rectangle
#: bound's slack (:meth:`ChunkSearcher.rectangle_bounds`).
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
#: Smallest normal float64: an absolute floor under that slack, dominating
#: the (at most a few hundred times ``2**-1075``) error of products that
#: underflow, where the relative-error model does not hold.
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
#: A chunk's codes are consulted only once the bounds the index already
#: gives, ``max(sphere, rectangle)``, reach this fraction of the k-th
#: distance, and only while the latest scan admitted nothing (the k-th
#: distance is not falling).  Measured (DESIGN §5, "The code bound"): a
#: consult costs ~0.6 of the read + scan it can save and excuses 51% of
#: chunks at a ratio of 0.3-0.4, 76% at 0.4-0.5, 90%+ above.
_CODE_GATE = 0.4


@dataclasses.dataclass
class SearchResult:
    """Outcome of one query.

    Attributes
    ----------
    neighbors:
        Final neighbor list, best first.
    trace:
        Per-chunk execution log (always recorded).
    stop_reason:
        Which rule ended the search: ``"completed"`` for the exactness
        proof, ``"exhausted"`` when every chunk was read, else the stop
        rule's reason string.
    completed:
        True iff the result is provably the exact k-NN answer.  Never
        True for a degraded run: a skipped chunk may have held a true
        neighbor, so the exactness proof is unsound over it.
    degraded:
        True when at least one chunk was skipped after exhausting its
        read retries (see ``trace.chunks_skipped`` for how many and
        ``coverage_fraction`` for the descriptor coverage that remains).
    chunks_pruned:
        How many visited chunks the pruner (sphere or member-rectangle
        lower bound above the k-th distance) excused from scanning
        (host-side work saved).  Pruning never changes the
        result: a pruned chunk is charged identical simulated time and
        logged with an identical trace event — it provably could not have
        altered the neighbor set, so only the wall-clock work (store read,
        distance kernel, neighbor-set update) is skipped.
    """

    neighbors: List[Neighbor]
    trace: SearchTrace
    stop_reason: str
    completed: bool
    degraded: bool = False
    chunks_pruned: int = 0

    @property
    def chunks_read(self) -> int:
        return self.trace.chunks_read

    @property
    def chunks_skipped(self) -> int:
        """Chunks abandoned under degraded execution."""
        return self.trace.chunks_skipped

    @property
    def elapsed_s(self) -> float:
        return self.trace.final_elapsed_s

    def neighbor_ids(self) -> np.ndarray:
        """Descriptor ids of the result neighbors, best first (int64)."""
        return np.asarray([n.descriptor_id for n in self.neighbors], dtype=np.int64)

    def holds_under_deadline(self, budget_s: float) -> bool:
        """True when repeating this search — same searcher, query and ``k``
        — under ``DeadlineBudget(budget_s)`` would
        return this very result, so it need not be run again.

        Nothing but the stop rule decides *when* a scan stops: which chunk
        comes next, its charge and its neighbor-set update depend only on
        the events before it.  So the repeat logs the same events until
        the first one at which the chunk loop (:meth:`ChunkSearcher._run`)
        stops it, and that loop tests, at every event and in this order,
        the completion proof, then the stop rule (the budget fires at
        ``elapsed_s >= budget_s``), then exhaustion.  Elapsed time never
        decreases along a trace, so one comparison stands for all the
        events before it:

        * ``"completed"``: the proof first fired at the last event, ahead
          of the rule; the repeat ends the same iff no *earlier* event
          reached the budget.
        * ``"exhausted"``: the rule is tested before exhaustion, so the
          last event must stay under the budget too — at or above it the
          repeat ends ``deadline(...)`` with ``completed=False``.
        * any other reason was a stop rule's, which names its own budget:
          search again.
        """
        elapsed = self.trace.elapsed
        if self.stop_reason == "completed":
            return len(elapsed) < 2 or elapsed[-2] < budget_s
        if self.stop_reason == "exhausted":
            return self.trace.final_elapsed_s < budget_s
        return False


@dataclasses.dataclass
class BatchSearchResult:
    """Per-query :class:`SearchResult` list plus batch-level conveniences.

    ``results[i]`` is what ``ChunkSearcher.search(queries[i], ...)`` returns;
    this wrapper only adds aggregate views, it never merges query outcomes.
    """

    results: List[SearchResult]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __getitem__(self, i: int) -> SearchResult:
        return self.results[i]

    def elapsed_s(self) -> np.ndarray:
        """Simulated per-query elapsed seconds (float64; the paper's clock)."""
        return np.asarray([r.elapsed_s for r in self.results], dtype=np.float64)

    def traces(self) -> List[SearchTrace]:
        return [r.trace for r in self.results]

    @property
    def total_chunks_read(self) -> int:
        return int(sum(r.chunks_read for r in self.results))

    @property
    def total_chunks_pruned(self) -> int:
        """Visited chunks the pruner excused from scanning, batch-wide."""
        return int(sum(r.chunks_pruned for r in self.results))

    @property
    def mean_elapsed_s(self) -> float:
        return float(self.elapsed_s().mean()) if self.results else 0.0


class _QueryState:
    """The inputs of one query of a cohort."""

    __slots__ = (
        "fault_key",
        "query",
        "truth",
        "order",
        "suffix_list",
        "lb_list",
        "rect_list",
    )

    def __init__(
        self,
        fault_key: int,
        query: np.ndarray,
        truth: Optional[frozenset],
        order: np.ndarray,
        suffix_min: np.ndarray,
        ranked_lb: np.ndarray,
        rect_bounds: Optional[np.ndarray],
    ):
        self.fault_key = fault_key
        self.query = query
        self.truth = truth
        # Rectangle bound per chunk *id*; never read when the searcher does
        # not prune.
        self.rect_list: List[float] = (
            rect_bounds.tolist() if rect_bounds is not None else []
        )
        # Plain Python lists: the execution loop touches one element per
        # event, where numpy scalar extraction would dominate.
        self.order = order.tolist()
        self.suffix_list = suffix_min.tolist()
        self.lb_list = ranked_lb.tolist()


class ChunkSearcher:
    """Executes ranked chunk scans over one :class:`ChunkIndex`, one query
    (:meth:`search`) or a whole cohort (:meth:`search_batch`) at a time."""

    def __init__(
        self,
        index: ChunkIndex,
        cost_model: CostModel = PAPER_2005_COST_MODEL,
        rank_by: str = RANK_BY_CENTROID,
        prune: bool = True,
    ):
        """``prune=True`` (default) activates the chunk pruner: a visited
        chunk whose lower bound — the larger of the sphere's
        ``d(centroid) - radius`` and the member rectangle's
        (:meth:`rectangle_bounds`) — strictly exceeds the current k-th
        distance is charged and logged exactly as if scanned (results,
        traces, and simulated timestamps are bit-identical) but its store
        read and distance kernel are skipped on the host.
        """
        if rank_by not in (RANK_BY_CENTROID, RANK_BY_LOWER_BOUND):
            raise ValueError(f"unknown ranking rule {rank_by!r}")
        self.index = index
        self.cost_model = cost_model
        self.rank_by = rank_by
        self.prune = bool(prune)
        self._centroids = index.centroid_matrix()
        self._radii = index.radius_vector()
        # The expanded-form kernel's point-norm terms, in its own
        # formulation, so passing them changes no bit of the ranking.
        self._centroid_sq_norms = squared_norms(self._centroids)
        # Member norms kept across scans: only a store that holds its chunks
        # in memory keeps them (DESIGN §5); any other store, or a proxy of
        # one, has its members' norms recomputed by every scan.
        self._store_norms: Optional[InMemoryChunkStore] = (
            index.store if isinstance(index.store, InMemoryChunkStore) else None
        )
        self._rect_lower, self._rect_upper = index.rectangle_matrices()
        # sum_j max(lower_j^2, upper_j^2) >= |p|^2 for every member p: the
        # per-chunk term of the rectangle bound's slack.
        self._rect_sq_norms = np.maximum(
            np.square(self._rect_lower), np.square(self._rect_upper)
        ).sum(axis=1)
        self._rect_slack = 4.0 * (index.dimensions + 4) * _UNIT_ROUNDOFF
        # Where byte b's 256-entry table starts among code_bound's tables, in
        # the narrowest unsigned type that numbers them all (no intp widening).
        n_bytes = (index.dimensions + 1) // 2
        self._code_table_starts = (np.arange(n_bytes) * CELLS * CELLS).astype(
            np.min_scalar_type(n_bytes * CELLS * CELLS - 1)
        )[:, np.newaxis]
        # Every chunk's cell edges, once: only the gaps to them depend on a query.
        self._code_edges: Optional[np.ndarray] = None
        if index.codes is not None:
            self._code_edges = cell_edges(self._rect_lower, self._rect_upper)
        # Per-chunk scalars as plain Python values: the execution loop
        # touches these once per (query, chunk) event, where repeated
        # numpy indexing and cost-model calls would dominate.
        self._pages: List[int] = index.page_counts().tolist()
        counts: List[int] = index.descriptor_counts().tolist()
        # Searchers are built per snapshot and per shard partition, so the
        # cost model is asked once per distinct size, not once per chunk.
        io_s = {p: cost_model.disk.random_read_time_s(p) for p in set(self._pages)}
        cpu_s = {n: cost_model.cpu.chunk_processing_time_s(n) for n in set(counts)}
        # ``(io_s, cpu_s, n_descriptors)`` per chunk, read together by
        # every event: one index plus an unpack beats three list lookups.
        self._chunk_cost = [
            (io_s[p], cpu_s[n], n) for p, n in zip(self._pages, counts)
        ]
        self._overlap = cost_model.overlap_io_cpu
        # The start-of-query charge (index read + ranking) is the same for
        # every query: start_query's arithmetic, once per searcher.
        self._start_s = cost_model.disk.sequential_read_time_s(
            index.index_bytes
        ) + cost_model.cpu.ranking_time_s(index.n_chunks)
        # A chunk cache makes a chunk's I/O charge a function of the global
        # touch order: ``(page offset, bytes, warm charge)`` per chunk.
        self._cache = cost_model.chunk_cache
        if self._cache is not None:
            page_bytes = cost_model.disk.page_bytes
            memcpy = self._cache.memcpy_bytes_per_s
            self._cache_cost = [
                (meta.page_offset, p * page_bytes, p * page_bytes / memcpy)
                for meta, p in zip(index.metas, self._pages)
            ]

    # -- ownership -----------------------------------------------------------

    def close(self) -> None:
        """Release the underlying index (and its chunk reader)."""
        self.index.close()

    def __enter__(self) -> "ChunkSearcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ranking -------------------------------------------------------------

    def rank_chunks(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rank all chunks for a query.

        Returns ``(order, suffix_min_lower_bound)`` where ``order[r]`` is
        the chunk id at rank ``r`` and ``suffix_min_lower_bound[r]`` is the
        smallest lower bound among chunks at rank ``r`` or later — the
        quantity the completion proof compares against the k-th distance
        after ``r`` chunks were read.
        """
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        orders, suffix_min = self.rank_chunks_batch(query)
        return orders[0], suffix_min[0]

    def rank_chunks_batch(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank all chunks for every query in one shot.

        Returns ``(orders, suffix_min_lower_bounds)``, both of shape
        ``(n_queries, n_chunks)`` — row ``i`` is :meth:`rank_chunks` of
        query ``i``: chunk ids in scan order and the running minimum lower
        bound over the not-yet-scanned suffix (the completion-proof
        threshold).
        """
        orders, suffix_min, _ = self._rank_full(
            pairwise_squared_distances(
                queries, self._centroids, self._centroid_sq_norms
            )
        )
        return orders, suffix_min

    def _rank_full(
        self, centroid_d2: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(orders, suffix_min, ranked_lower_bounds)`` from the kernel's
        squared query-centroid distances — the public ranking plus the
        per-rank lower bounds the pruner compares against the k-th
        distance."""
        centroid_d = np.sqrt(centroid_d2)
        lower_bounds = np.maximum(0.0, centroid_d - self._radii[np.newaxis, :])
        key = centroid_d if self.rank_by == RANK_BY_CENTROID else lower_bounds
        # Per row, ascending key; a stable sort breaks ties by chunk id.
        orders = np.argsort(key, axis=-1, kind="stable")
        ranked_bounds = np.take_along_axis(lower_bounds, orders, axis=1)
        # suffix_min[:, r] = min lower bound over ranks >= r.
        suffix_min = np.minimum.accumulate(ranked_bounds[:, ::-1], axis=1)[:, ::-1]
        return orders, suffix_min, ranked_bounds

    def rectangle_bounds(self, queries: np.ndarray) -> np.ndarray:
        """``(n_queries, n_chunks)`` float64 lower bounds on the *kernel*
        distance from each query to any member of each chunk, from the
        chunks' member rectangles.  Only the pruner reads them: the rank
        key and the completion proof stay on the sphere.

        With ``t_j = max(lower_j - q_j, q_j - upper_j, 0)`` the rectangle
        distance ``R^2 = sum_j t_j^2`` satisfies ``R^2 <= |q - p|^2`` for
        every member ``p``, but a scanned chunk is judged by the
        expanded-form kernel (:func:`pairwise_squared_distances`), whose
        value ``K`` differs from ``|q - p|^2`` by rounding.  So the bound
        is ``sqrt(max(0, R^2 - c u (|q|^2 + N)))``, ``N = sum_j
        max(lower_j^2, upper_j^2) >= |p|^2``, ``u = 2**-53``, ``c = 4 (d +
        4)``, and it never exceeds ``sqrt(K)``.  Writing ``E = |q|^2 +
        |p|^2 <= |q|^2 + N`` and dropping ``O(u^2)`` terms:

        * *the kernel:* each of ``|q|^2``, ``|p|^2`` and ``q.p`` is a
          ``d``-term sum of products, relative error ``d u`` of its
          absolute-value sum whatever the summation order or FMA use, and
          ``2 |q.p| <= 2 |q||p| <= E``: together ``2 d u E``.  The two
          additions combining them round results of magnitude at most
          ``2 E`` each: ``4 u E``.  Clamping at zero only raises ``K``.
          Hence ``K >= |q - p|^2 - (2 d + 4) u E``.
        * *the computed* ``R^2``: one subtraction, one square and ``d - 1``
          additions per term, all of non-negative terms, overestimate it by
          at most ``(d + 2) u R^2 <= 2 (d + 2) u E`` (``R^2 <= |q - p|^2 <=
          2 E``).
        * *the subtraction* of the slack rounds a result of at most ``2 E``:
          ``2 u E``.

        Sum: ``(4 d + 10) u E``.  ``c = 4 d + 16`` leaves ``6 u E`` for the
        slack's own rounding (relative error ``(d + 3) u`` of itself); the
        smallest normal number is subtracted on top, covering underflow.
        ``sqrt`` is monotone and correctly rounded, so the root preserves
        the inequality; the pruner's strict ``>`` against the k-th distance
        then never excuses a chunk holding an admissible or tied descriptor.
        A query inside a rectangle (a stored duplicate included) gets 0.

        Queries are processed one at a time against one reused ``(n_chunks,
        d)`` buffer: no ``(q, C, d)`` temporary is ever formed.
        """
        queries = np.asarray(queries, dtype=np.float64)
        lower, upper = self._rect_lower, self._rect_upper
        out = np.empty((queries.shape[0], lower.shape[0]), dtype=np.float64)
        gap = np.empty_like(lower)
        query_sq_norms = squared_norms(queries)
        for row, query in enumerate(queries):
            # gap = clip(query, lower, upper) - query: t_j up to sign.
            np.maximum(lower, query, out=gap)
            np.minimum(gap, upper, out=gap)
            np.subtract(gap, query, out=gap)
            bound = out[row]
            np.einsum("cd,cd->c", gap, gap, out=bound)
            bound -= self._kernel_slack(query_sq_norms[row], self._rect_sq_norms)
        np.maximum(out, 0.0, out=out)
        return np.sqrt(out, out=out)

    def _kernel_slack(
        self, query_sq_norm: float, member_sq_norms: "np.ndarray | float"
    ) -> "np.ndarray | float":
        """``c u (|q|^2 + N) + tiny``: what a squared rectangle distance —
        to the member rectangle or to a member's cell — gives up before it
        is compared with the kernel's value (:meth:`rectangle_bounds`)."""
        return self._rect_slack * (query_sq_norm + member_sq_norms) + _SMALLEST_NORMAL

    def code_bound(self, query: np.ndarray, chunk_id: int) -> float:
        """Lower bound on the *kernel* distance from ``query`` to any
        member of chunk ``chunk_id``, from its cell codes (``index.codes``).

        A member's cell is a rectangle that contains it (the code file's
        invariant, under the very edges the searcher holds), so the minimum over
        the members of the squared rectangle distance to each one's cell
        bounds ``|q - p|^2`` and :meth:`rectangle_bounds`' derivation
        carries over term by term — same ``N``, ``d`` subtract-and-square
        terms joined by ``d - 1`` additions of non-negative numbers, same
        :meth:`_kernel_slack` (DESIGN §5, "The code bound").  Costs one
        CRC-verified read of ``ceil(d / 2)`` bytes per member and a
        256-entry table per byte: entry ``16 * hi + lo`` of table ``b`` is
        the gap to cell ``lo`` of dimension ``2b`` plus that to cell ``hi``
        of dimension ``2b + 1``.
        """
        codes, edges = self.index.codes, self._code_edges
        assert codes is not None and edges is not None, "the index carries no code file"
        query = np.asarray(query, dtype=np.float64)
        block = codes.read_block(chunk_id)
        gaps = cell_squared_gaps(query, edges[chunk_id]).T
        if gaps.shape[0] % 2:  # the nibble an odd d pads: a gap of zero
            gaps = np.concatenate([gaps, np.zeros_like(gaps[:1])])
        tables = gaps[0::2, np.newaxis, :] + gaps[1::2, :, np.newaxis]
        # One gather for all the bytes: row b looks up table b.
        starts = self._code_table_starts
        entries = np.add(block, starts, dtype=starts.dtype)
        nearest = float(tables.ravel().take(entries).sum(axis=0).min())
        nearest -= self._kernel_slack(
            float(np.dot(query, query)), float(self._rect_sq_norms[chunk_id])
        )
        return math.sqrt(max(0.0, nearest))

    # -- search ----------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int = 30,
        stop_rule: Optional[StopRule] = None,
        true_neighbor_ids: Optional[Sequence[int]] = None,
    ) -> SearchResult:
        """Run one query: :meth:`search_batch` on a cohort of one.

        Parameters
        ----------
        query:
            The query descriptor, shape ``(d,)``.
        k:
            Neighbors to return (the paper uses 30 throughout).
        stop_rule:
            Early-termination policy; defaults to
            :class:`~repro.core.stop_rules.ExactCompletion` (run until the
            exactness proof fires).
        true_neighbor_ids:
            Optional ground-truth ids for this query.  When given, every
            trace event records how many true neighbors the intermediate
            result already holds — the paper's quality measurement.

        Degraded execution takes :meth:`search_batch`'s ``faults`` and
        ``query_indices``.
        """
        return self.search_batch(
            np.asarray(query, dtype=np.float64).reshape(1, -1),
            k=k,
            stop_rule=stop_rule,
            true_neighbor_ids=(
                None if true_neighbor_ids is None else [true_neighbor_ids]
            ),
        ).results[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 30,
        stop_rule: Optional[StopRule] = None,
        true_neighbor_ids: Optional[Sequence[Optional[Sequence[int]]]] = None,
        faults: Optional[FaultInjector] = None,
        query_indices: Optional[Sequence[int]] = None,
    ) -> BatchSearchResult:
        """Run every query of a cohort; without ``faults``, ``results[i]`` is
        what ``search(queries[i], ...)`` returns.

        Parameters
        ----------
        queries:
            ``(n_queries, d)`` batch (a single ``(d,)`` vector is promoted).
        k:
            Neighbors per query (the paper uses 30 throughout).
        stop_rule:
            Early-termination policy shared by all queries; defaults to
            :class:`~repro.core.stop_rules.ExactCompletion`.  The shipped
            rules are stateless, so one instance can serve the whole batch.
        true_neighbor_ids:
            Optional per-query ground-truth id lists (``None`` entries skip
            match counting for that query), enabling the paper's
            intermediate-quality trace columns.
        faults:
            Optional fault injector enabling *degraded execution*: chunk
            reads may fail (injected or real), are retried with backoff
            charged to the simulated clock, and are skipped once retries
            run out — the query finishes regardless.  With a zero-rate
            plan the search is bit-identical to ``faults=None``.  Without
            an injector, real storage errors propagate.  The fault plan is
            keyed by a query's *position in this batch* unless
            ``query_indices`` says otherwise, so faulted outcomes do not
            depend on cohort shape.
        query_indices:
            Optional per-query fault-plan keys overriding the default
            batch positions.  A service running one query per call passes
            the query's stable workload index here so its fault draws
            match a whole-workload batch run.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[np.newaxis, :]
        if queries.ndim != 2:
            raise ValueError(f"queries must be a (n, d) matrix, got {queries.shape}")
        if queries.shape[0] == 0:
            return BatchSearchResult(results=[])
        if queries.shape[1] != self.index.dimensions:
            raise ValueError(
                f"queries have {queries.shape[1]} dims, "
                f"index has {self.index.dimensions}"
            )
        if not np.all(np.isfinite(queries)):
            raise ValueError("queries contain NaN or infinite components")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        n_queries = queries.shape[0]
        if true_neighbor_ids is not None and len(true_neighbor_ids) != n_queries:
            raise ValueError(
                f"got {len(true_neighbor_ids)} ground-truth lists "
                f"for {n_queries} queries"
            )
        if query_indices is not None and len(query_indices) != n_queries:
            raise ValueError(
                f"got {len(query_indices)} query indices for {n_queries} queries"
            )
        stop_rule = stop_rule if stop_rule is not None else ExactCompletion()

        # One memory layout for every consumer of the rows and their norms
        # (einsum's summation order depends on it).
        queries = np.ascontiguousarray(queries)
        query_sq_norms = squared_norms(queries)
        orders, suffix_mins, ranked_lbs = self._rank_full(
            expanded_squared_distances(
                queries, self._centroids, query_sq_norms, self._centroid_sq_norms
            )
        )
        rect_bounds = self.rectangle_bounds(queries) if self.prune else None
        states = []
        for i in range(n_queries):
            truth_i = None
            if true_neighbor_ids is not None and true_neighbor_ids[i] is not None:
                truth_i = frozenset(int(x) for x in true_neighbor_ids[i])
            states.append(
                _QueryState(
                    fault_key=int(query_indices[i]) if query_indices is not None else i,
                    query=queries[i],
                    truth=truth_i,
                    order=orders[i],
                    suffix_min=suffix_mins[i],
                    ranked_lb=ranked_lbs[i],
                    rect_bounds=rect_bounds[i] if rect_bounds is not None else None,
                )
            )

        return BatchSearchResult(
            results=self._run(
                states, queries, query_sq_norms, k, stop_rule, faults
            )
        )

    # -- execution internals -------------------------------------------------

    def _run(
        self,
        states: List[_QueryState],
        queries: np.ndarray,
        query_sq_norms: np.ndarray,
        k: int,
        stop_rule: StopRule,
        faults: Optional[FaultInjector],
    ) -> List[SearchResult]:
        """The chunk loop: each query of the cohort runs to its stop in turn
        — the touch order a shared simulated cache must see — visiting
        chunks in rank order.  One visit is one pass of the loop body:

        1. *prune test* — a chunk whose lower bound (sphere, rectangle or,
           where the index has codes and the gates say a consult is worth
           it, the members' cells) strictly exceeds the k-th distance
           cannot admit a candidate;
        2. *fault outcome* (``faults`` only) — the chunk's readability is
           probed and the query's outcome table answers (the injector, for
           a ``None`` entry or an unreadable chunk).  A failed outcome is a
           *skip*: the attempts occupy the disk, no CPU work happens and
           the neighbor set is untouched;
        3. *charge* — the chunk's I/O (cold, from the chunk cache, plus the
           outcome's ``extra_io_s``) and CPU time on the query's timeline;
        4. *scan* — unless skipped or pruned, the chunk's distance row is
           folded into the neighbor set.  A pruned chunk is charged and
           logged exactly like a scanned one: only the host work is saved;
        5. *log* — one entry in each column of the query's trace, and a
           fault mark unless the outcome is ``OK_OUTCOME``;
        6. *stop* — the completion proof, then the stop rule, then
           exhaustion.

        The per-visit state is locals: the neighbor-set mirrors ``n_found``
        / ``kth`` / ``matches``, ``settled``, the three floats carrying the
        :class:`~repro.simio.pipeline.PipelineSimulator` recurrence and the
        rank.

        A cohort larger than one shares host work through two per-cohort
        caches.  The first time any query demands a chunk, its contents
        are read and its distances computed for the *whole* cohort in a
        single kernel call against the cohort's query matrix, and the rows
        kept — each chunk costs one store read, one float64 promotion, and
        one fixed-shape kernel call per cohort, however the per-query rank
        orders interleave.  Every kernel call takes the cohort's query
        norms, and an in-memory store's member norms, instead of computing
        them.  A query's row is its index in ``states``, so
        dispensing a kept row is two list reads; rows computed for
        already-finished (or later-pruning) queries are never consumed and
        cost only BLAS throughput, far below the per-chunk bookkeeping
        they save.  A cohort of one keeps neither: no later query could
        consume them, and parking every scanned chunk's float64 payload
        until the query ends is the whole collection for an exact search.

        Degraded execution (``faults``) preserves the sharing: fault
        decisions are keyed by ``(query key, chunk)``, never by call
        order; a chunk whose *real* read fails is marked failed once for
        the cohort.  It needs the chunk's *readability* even when pruning
        would skip the scan: the fault outcome (and therefore the timing
        and trace) depends on it.  So every visit is probed — read from the
        store and CRC-verified once per cohort — but only a scan promotes:
        the promotion is the scan's, as without faults.

        Pruning composes with the sharing: a query arriving at a prunable
        chunk never demands its distance row, so a chunk every remaining
        query prunes is neither read nor scanned."""
        prune = self.prune
        coded = self.index.codes is not None
        shared = len(states) > 1
        reads: Dict[int, _Read] = {}  # a cohort of one keeps none
        rows: Dict[int, "Tuple[_Payload, np.ndarray, List[float]]"] = {}
        failed: Set[int] = set()
        store_norms = self._store_norms
        # Ranked ids are in range: the store, not the index's checked read.
        read = self.index.store.read_chunk
        chunk_cost, pages, overlap = self._chunk_cost, self._pages, self._overlap
        cache, start_s, n_chunks = self._cache, self._start_s, self.index.n_chunks
        if cache is not None:
            touch, cache_cost = cache.touch, self._cache_cost
        # ExactCompletion never stops early: no progress snapshot for it.
        check = None if type(stop_rule) is ExactCompletion else stop_rule.check
        outcome, ok, chunk = OK_OUTCOME, True, None
        results = []
        for row, state in enumerate(states):
            query, truth = state.query, state.truth
            if faults is not None:
                table = faults.outcome_table(state.fault_key, n_chunks)
            order, lbs, suffix = state.order, state.lb_list, state.suffix_list
            rects = state.rect_list
            neighbors = NeighborSet(k)
            trace = SearchTrace(start_s)
            log_chunk, log_elapsed = trace.chunk_ids.append, trace.elapsed.append
            log_count = trace.n_descriptors.append
            log_found = trace.neighbors_found.append
            log_kth = trace.kth_distance.append
            log_matches = trace.true_matches.append
            # R[i-1], C[i-1], C[i-2] of the pipeline recurrence.
            prev_read = prev_proc = drained = start_s
            # Mirrors of len(neighbors) / neighbors.kth_distance, refreshed
            # only when an update admits candidates.
            n_found, kth = 0, math.inf
            # True while the latest scanned chunk admitted nothing: the k-th
            # distance has stopped falling, for now (the codes' second gate).
            settled = False
            # Valid whenever truth is set: an empty set holds no true neighbor.
            matches = 0 if truth is not None else -1
            rank = pruned = 0
            degraded = False
            while True:
                chunk_id, lb = order[rank], lbs[rank]
                # Ties must still be scanned — an equal-distance, smaller-id
                # descriptor would enter the neighbor set.  kth is +inf
                # until k neighbors are known: never fires early.
                prunable = prune and (
                    lb > kth
                    or (rect := rects[chunk_id]) > kth
                    or (
                        coded
                        and settled
                        and max(lb, rect) >= _CODE_GATE * kth
                        and self.code_bound(query, chunk_id) > kth
                    )
                )
                io, cpu, count = chunk_cost[chunk_id]
                if faults is not None:
                    # The probe: read and verified once per cohort; a real
                    # failure (a CRC mismatch) marks it failed for the cohort.
                    chunk = reads.get(chunk_id)
                    if chunk is None and chunk_id not in failed:
                        try:
                            chunk = read(chunk_id)
                        except CorruptFileError:
                            failed.add(chunk_id)
                        else:
                            if shared:
                                reads[chunk_id] = chunk
                    outcome = table[chunk_id]
                    if outcome is None or chunk is None:
                        outcome = faults.outcome(
                            state.fault_key, chunk_id, pages[chunk_id],
                            readable=chunk is not None,
                        )
                    ok = outcome.ok
                # The pipeline recurrence (a skip has cpu = 0) on three
                # floats — same operations in the same order (a conditional
                # is max), so timestamps are bit-identical: R[i] =
                # max(R[i-1], C[i-2]) + io; C[i] = max(R[i], C[i-1]) + cpu;
                # serial without overlap.  Adding a 0.0 charge is exact.
                if ok:
                    if cache is not None:
                        # One touch per readable visit, in visit order; a
                        # skipped chunk touches nothing.
                        offset, nbytes, warm = cache_cost[chunk_id]
                        if touch(offset, nbytes):
                            io = warm
                    io += outcome.extra_io_s
                else:
                    io, cpu = outcome.extra_io_s, 0.0
                if overlap:
                    prev_read = (drained if drained > prev_read else prev_read) + io
                    elapsed = (prev_proc if prev_proc > prev_read else prev_read) + cpu
                else:
                    elapsed = prev_proc + io + cpu
                drained, prev_proc = prev_proc, elapsed
                if not ok:
                    # The proof then resolves to "proof-degraded" and
                    # exhaustion to completed=False.
                    degraded = True
                elif prunable:
                    pruned += 1
                else:
                    entry = rows.get(chunk_id)
                    if entry is None:
                        ids, vectors = chunk if chunk is not None else read(chunk_id)
                        # The float64 promotion: the only copy an on-disk
                        # chunk's vectors get (the store hands out views of
                        # the verified read).
                        payload = (
                            np.asarray(ids, dtype=np.int64),
                            np.ascontiguousarray(vectors, dtype=np.float64),
                        )
                        d2 = expanded_squared_distances(
                            queries,
                            payload[1],
                            query_sq_norms,
                            None
                            if store_norms is None
                            else store_norms.member_sq_norms(chunk_id, payload[1]),
                        )
                        # Row minima batched too: the per-query admission
                        # gate then costs a list index, not a reduction.
                        mins2 = (
                            d2.min(axis=1).tolist()
                            if d2.shape[1]
                            else [math.inf] * len(states)
                        )
                        # The kept entry holds the payload although only
                        # its ids are read again: dropping each promoted
                        # copy right after its kernel call measured slower
                        # on a large exact batch (allocator churn).
                        entry = (payload, d2, mins2)
                        if shared:
                            rows[chunk_id] = entry
                    # The row stays in *squared* space: sqrt is monotone and
                    # correctly rounded (IEEE 754; math.sqrt and np.sqrt
                    # agree), so sqrt(min(sq)) is bit-equal to min(sqrt(sq))
                    # and the root of the whole row is only taken for chunks
                    # that pass this admission gate.  A chunk whose best
                    # candidate cannot beat the k-th neighbor admits
                    # nothing; skip the merge.
                    settled = True
                    if n_found < k or math.sqrt(entry[2][row]) <= kth:
                        if neighbors.update(np.sqrt(entry[1][row]), entry[0][0]):
                            settled = False
                            n_found = len(neighbors)
                            kth = neighbors.kth_distance
                            if truth is not None:
                                matches = neighbors.true_match_count(truth)
                if outcome is not OK_OUTCOME:
                    trace.faults[rank] = (not ok, outcome.kind, outcome.retries)
                log_chunk(chunk_id)
                log_elapsed(elapsed)
                log_count(count)
                log_found(n_found)
                log_kth(kth)
                log_matches(matches)
                rank += 1
                at_end = rank >= n_chunks
                remaining_lb = math.inf if at_end else suffix[rank]
                if n_found >= k and remaining_lb > kth:
                    # The completion proof: k found and no remaining chunk
                    # can help.  It still bounds the remaining chunks when
                    # some were skipped, so the scan stops either way — but
                    # a degraded run can never claim exactness (a skipped
                    # chunk may have held a true neighbor).
                    reason = "proof-degraded" if degraded else "completed"
                    completed = not degraded
                    break
                if check is not None:
                    # The fields in order: a positional build costs a
                    # third of a keyword one, once per visit.
                    ruled = check(
                        SearchProgress(rank, elapsed, n_found, kth, remaining_lb)
                    )
                    if ruled is not None:
                        reason, completed = ruled, False
                        break
                if at_end:
                    # Every chunk read without the proof firing early: the
                    # result is nevertheless exact (nothing is left to
                    # read) — unless skipped chunks left holes in the scan.
                    reason, completed = "exhausted", not degraded
                    break
            results.append(
                SearchResult(
                    neighbors=neighbors.sorted(),
                    trace=trace,
                    stop_reason=reason,
                    completed=completed,
                    degraded=degraded,
                    chunks_pruned=pruned,
                )
            )
        return results
