"""Cross-module integration tests.

These exercise the whole pipeline the way a user would: generate data,
form chunks with every strategy (and BAG's under a size cap), build and
persist indexes, search under different stop rules, and measure quality —
asserting the invariants that hold regardless of strategy.
"""

import numpy as np
import pytest

from repro.chunking import bag
from repro.chunking.bag import BagClusterer, estimate_mpi
from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker, cap_chunk_sizes
from repro.core.chunk_index import ChunkIndex, build_chunk_index
from repro.core.ground_truth import GroundTruthStore, exact_knn
from repro.core.metrics import precision_at_k
from repro.core.search import ChunkSearcher
from repro.core.stop_rules import MaxChunks
from repro.workloads.queries import dataset_queries, space_queries


@pytest.fixture(scope="module")
def chunkers(small_synthetic):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bag, "MPI_SAMPLE_SIZE", 400)
        mpi = estimate_mpi(small_synthetic)
    return {
        "SR": SRTreeChunker(leaf_capacity=48),
        "BAG": BagClusterer(mpi=mpi, target_clusters=120),
        "RR": RoundRobinChunker(n_chunks=32),
    }


@pytest.fixture(scope="module")
def built_indexes(small_synthetic, chunkers):
    built = {}
    for name, chunker in chunkers.items():
        result = chunker.form_chunks(small_synthetic)
        result.validate()
        built[name] = (
            result,
            build_chunk_index(result.retained, result.chunk_set, name=name),
        )
    capped = cap_chunk_sizes(built["BAG"][0], 2.0)
    capped.validate()
    built["BAG s=2"] = (
        capped, build_chunk_index(capped.retained, capped.chunk_set, name="BAG s=2")
    )
    return built


class TestEveryStrategyIsSearchable:
    def test_completion_equals_sequential_scan(self, built_indexes):
        rng = np.random.default_rng(0)
        for name, (result, index) in built_indexes.items():
            searcher = ChunkSearcher(index)
            rows = rng.choice(len(result.retained), size=3, replace=False)
            for row in rows:
                query = result.retained.vectors[row].astype(float)
                got = searcher.search(query, k=8)
                assert got.completed, name
                np.testing.assert_array_equal(
                    got.neighbor_ids(),
                    exact_knn(result.retained, query, 8),
                    err_msg=name,
                )

    def test_approximate_precision_improves_with_chunks(self, built_indexes):
        """More chunks read never hurts average precision."""
        rng = np.random.default_rng(1)
        for name, (result, index) in built_indexes.items():
            searcher = ChunkSearcher(index)
            rows = rng.choice(len(result.retained), size=5, replace=False)
            precision_small, precision_large = [], []
            for row in rows:
                query = result.retained.vectors[row].astype(float)
                truth = exact_knn(result.retained, query, 10)
                few = searcher.search(query, k=10, stop_rule=MaxChunks(1))
                many = searcher.search(query, k=10, stop_rule=MaxChunks(8))
                precision_small.append(precision_at_k(few.neighbor_ids(), truth))
                precision_large.append(precision_at_k(many.neighbor_ids(), truth))
            assert np.mean(precision_large) >= np.mean(precision_small), name

    def test_locality_aware_beats_random_per_chunk(self, built_indexes):
        """SR and capped BAG must deliver better precision after one chunk than
        round-robin chunks, which are random as far as locality goes — the
        premise of the whole paper."""
        rng = np.random.default_rng(2)

        def one_chunk_precision(name):
            result, index = built_indexes[name]
            searcher = ChunkSearcher(index)
            scores = []
            for row in rng.choice(len(result.retained), size=8, replace=False):
                query = result.retained.vectors[row].astype(float)
                truth = exact_knn(result.retained, query, 10)
                got = searcher.search(query, k=10, stop_rule=MaxChunks(1))
                scores.append(precision_at_k(got.neighbor_ids(), truth))
            return float(np.mean(scores))

        strawman_score = one_chunk_precision("RR")
        assert one_chunk_precision("SR") > strawman_score
        assert one_chunk_precision("BAG s=2") > strawman_score


class TestPersistenceRoundtrip:
    def test_save_search_load_search(self, built_indexes, tmp_path):
        result, index = built_indexes["SR"]
        query = result.retained.vectors[0].astype(float)
        before = ChunkSearcher(index).search(query, k=5).neighbor_ids()
        directory = str(tmp_path / "sr_index")
        index.save(directory)
        loaded = ChunkIndex.load(directory, dimensions=result.retained.dimensions)
        after = ChunkSearcher(loaded).search(query, k=5).neighbor_ids()
        np.testing.assert_array_equal(before, after)
        loaded.close()


class TestWorkloadPipeline:
    def test_dq_workload_end_to_end(self, small_synthetic, built_indexes):
        workload = dataset_queries(small_synthetic, 5, seed=3)
        result, index = built_indexes["SR"]
        truth = GroundTruthStore.compute(result.retained, workload.queries, 10)
        searcher = ChunkSearcher(index)
        for i, query in enumerate(workload.queries):
            got = searcher.search(query, k=10, true_neighbor_ids=truth.get(i))
            assert got.trace.events[-1].true_matches == 10

    def test_sq_workload_end_to_end(self, small_synthetic, built_indexes):
        workload = space_queries(small_synthetic, 5, seed=4)
        result, index = built_indexes["SR"]
        truth = GroundTruthStore.compute(result.retained, workload.queries, 10)
        searcher = ChunkSearcher(index)
        for i, query in enumerate(workload.queries):
            got = searcher.search(query, k=10, true_neighbor_ids=truth.get(i))
            assert got.completed
            assert got.trace.time_to_find(10) <= got.trace.final_elapsed_s
