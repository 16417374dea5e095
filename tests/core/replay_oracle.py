"""Independent replay of a ``SearchResult.trace``.

There is one search engine, so "cohort of N == N cohorts of one" compares
it with itself.  This oracle does not: it walks a finished trace with the
references the engine does not own — direct-form ``squared_distances``,
the heap ``NeighborSet`` of ``reference_neighbors.py`` (not the shipped
sorted-array set), the ``PipelineSimulator`` of ``reference_pipeline.py``,
the ``FaultPlan`` and brute-force ``exact_knn`` — and does no ranking,
pruning or stop logic of its own.
Given the query's ground truth it also recounts, after every chunk, how
many true neighbors the replayed set holds.
"""

import numpy as np
import pytest

from reference_neighbors import NeighborSet
from reference_pipeline import PipelineSimulator
from repro.core.distance import squared_distances
from repro.core.ground_truth import exact_knn
from repro.core.search import RANK_BY_CENTROID
from repro.simio.calibration import PAPER_2005_COST_MODEL
from descriptors import from_vectors


class ReplayOracle:
    """Replays results of searches over ``index`` with ``k`` neighbors.

    ``cost_model`` must be the searcher's model — for a cache-carrying
    model a *fresh equal* one, with :meth:`check` called in the order the
    queries ran, so the replayed cache sees the same touches.  ``faults``
    is the run's injector; its plan is a pure function of (query, chunk).
    """

    def __init__(self, index, k, rank_by=RANK_BY_CENTROID,
                 cost_model=PAPER_2005_COST_MODEL, faults=None):
        self.index, self.k, self.rank_by = index, k, rank_by
        self.cost_model, self.faults = cost_model, faults
        self.centroids, self.radii = index.centroid_matrix(), index.radius_vector()
        chunks = [index.read_chunk(c) for c in range(index.n_chunks)]
        self.collection = from_vectors(
            np.vstack([v for _, v in chunks]), ids=np.concatenate([i for i, _ in chunks])
        )

    def check(self, query, result, query_index=0, truth=None):
        """``truth``: the ground-truth ids the search was given, if any."""
        index, events = self.index, result.trace.events
        truth = None if truth is None else {int(i) for i in truth}
        centroid_d = np.sqrt(squared_distances(query, self.centroids))
        bounds = np.maximum(0.0, centroid_d - self.radii)
        key = centroid_d if self.rank_by == RANK_BY_CENTROID else bounds
        order = np.lexsort((np.arange(index.n_chunks), key))
        assert [e.chunk_id for e in events] == order[: len(events)].tolist()
        assert [e.rank for e in events] == list(range(1, len(events) + 1))

        simulator = PipelineSimulator(self.cost_model)
        assert result.trace.start_elapsed_s == simulator.start_query(
            index.n_chunks, index.index_bytes
        )
        neighbors = NeighborSet(self.k)
        for event in events:
            meta = index.metas[event.chunk_id]
            extra_io_s = 0.0
            if self.faults is not None:
                outcome = self.faults.outcome(query_index, event.chunk_id, meta.page_count)
                assert (event.skipped, event.fault, event.retries) == (
                    not outcome.ok, outcome.kind, outcome.retries
                )
                extra_io_s = outcome.extra_io_s
            if event.skipped:
                elapsed = simulator.skip_chunk(extra_io_s)
            else:
                # Pruned chunks are replayed too: they must admit nothing.
                ids, vectors = index.read_chunk(event.chunk_id)
                neighbors.update(np.sqrt(squared_distances(query, vectors)), ids)
                elapsed = simulator.process_chunk(
                    meta.page_count, meta.n_descriptors,
                    page_offset=meta.page_offset, extra_io_s=extra_io_s,
                )
            assert event.elapsed_s == elapsed
            assert event.n_descriptors == meta.n_descriptors
            assert event.neighbors_found == len(neighbors)
            assert event.kth_distance == pytest.approx(neighbors.kth_distance, rel=1e-12)
            assert event.true_matches == (
                -1 if truth is None else len(truth & neighbors.id_set())
            )
        replayed = [n.descriptor_id for n in neighbors.sorted()]
        assert result.neighbor_ids().tolist() == replayed
        assert result.degraded == any(e.skipped for e in events)
        if result.completed:
            assert replayed == exact_knn(self.collection, query, self.k).tolist()
