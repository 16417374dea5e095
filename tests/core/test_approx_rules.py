"""Tests for the AC-NN approximation rule."""

import math

import numpy as np
import pytest

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.approx_rules import EpsilonApproximation
from repro.core.chunk_index import build_chunk_index
from repro.core.ground_truth import exact_knn
from repro.core.search import ChunkSearcher
from repro.core.stop_rules import SearchProgress


def progress(**kwargs):
    defaults = dict(
        chunks_read=5,
        elapsed_s=0.1,
        neighbors_found=10,
        kth_distance=1.0,
        remaining_lower_bound=0.95,
    )
    defaults.update(kwargs)
    return SearchProgress(**defaults)


class TestEpsilonRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonApproximation(-0.1, 10)
        with pytest.raises(ValueError):
            EpsilonApproximation(0.1, 0)

    def test_zero_epsilon_equals_exact_proof(self):
        rule = EpsilonApproximation(0.0, 10)
        # Exact proof: bound must exceed kth; 0.95 < 1.0 -> continue.
        assert rule.check(progress()) is None
        assert rule.check(progress(remaining_lower_bound=1.01)) is not None

    def test_relaxation_stops_earlier(self):
        rule = EpsilonApproximation(0.2, 10)
        # 0.95 > 1.0 / 1.2 -> the relaxed proof fires.
        assert rule.check(progress()) == "epsilon-approx(0.2)"

    def test_waits_for_k_neighbors(self):
        rule = EpsilonApproximation(0.5, 10)
        assert rule.check(progress(neighbors_found=5)) is None

    def test_infinite_kth_never_fires(self):
        rule = EpsilonApproximation(0.5, 10)
        assert rule.check(progress(kth_distance=math.inf)) is None

    def test_guarantee_holds_end_to_end(self, tiny_collection):
        """The returned k-th distance is within (1+eps) of the truth."""
        chunking = SRTreeChunker(leaf_capacity=6).form_chunks(tiny_collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        searcher = ChunkSearcher(index)
        epsilon = 0.5
        rng = np.random.default_rng(4)
        for _ in range(10):
            query = rng.standard_normal(4) * 4
            result = searcher.search(
                query, k=5, stop_rule=EpsilonApproximation(epsilon, 5)
            )
            got_kth = result.neighbors[-1].distance
            truth = exact_knn(tiny_collection, query, 5)  # ids are row numbers
            true_kth = np.linalg.norm(
                tiny_collection.vectors[truth[-1]].astype(float) - query
            )
            assert got_kth <= (1 + epsilon) * true_kth + 1e-9
