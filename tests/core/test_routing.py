"""Unit tests for the coarse centroid router's build: a deterministic
partition of the chunks into ``ceil(sqrt(C))`` groups.  No search reads
it (``tests/core/test_pruned_equivalence.py::TestRouterEquivalence``)."""

import math

import numpy as np
import pytest

from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core import BatchChunkSearcher
from repro.core.chunk_index import build_chunk_index
from repro.core.routing import CentroidRouter


def make_index(collection, leaf_capacity=7):
    result = SRTreeChunker(leaf_capacity=leaf_capacity).form_chunks(collection)
    return build_chunk_index(result.retained, result.chunk_set)


class TestBuild:
    def test_group_count_defaults_to_sqrt(self, tiny_collection):
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        assert len(router.member_ids) == math.ceil(math.sqrt(index.n_chunks))
        assert router.n_chunks == index.n_chunks

    def test_groups_partition_the_chunks(self, tiny_collection):
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        all_ids = np.concatenate(router.member_ids)
        assert sorted(all_ids.tolist()) == list(range(index.n_chunks))

    def test_build_is_deterministic(self, tiny_collection):
        index = make_index(tiny_collection)
        a = CentroidRouter.from_index(index, seed=11)
        b = CentroidRouter.from_index(index, seed=11)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.key_slack, b.key_slack)
        np.testing.assert_array_equal(a.lb_slack, b.lb_slack)
        for ids_a, ids_b in zip(a.member_ids, b.member_ids):
            np.testing.assert_array_equal(ids_a, ids_b)

    def test_single_group_degenerate_case(self, tiny_collection):
        """A one-chunk index has ``ceil(sqrt(1)) = 1`` group, holding that
        chunk."""
        index = make_index(tiny_collection, leaf_capacity=len(tiny_collection))
        assert index.n_chunks == 1
        router = CentroidRouter.from_index(index)
        assert len(router.member_ids) == 1
        assert [ids.tolist() for ids in router.member_ids] == [[0]]

    def test_rejects_bad_centroid_shape(self):
        with pytest.raises(ValueError, match="centroid matrix"):
            CentroidRouter.build(np.zeros((0, 4)), np.zeros(0))
        with pytest.raises(ValueError, match="centroid matrix"):
            CentroidRouter.build(np.zeros(4), np.zeros(1))

    def test_rejects_mismatched_radii(self):
        with pytest.raises(ValueError, match="radii"):
            CentroidRouter.build(np.zeros((3, 4)), np.zeros(2))

    def test_rejects_unknown_rank_rule(self, tiny_collection):
        """A searcher handed a router still refuses an unknown rank rule."""
        index = make_index(tiny_collection)
        router = CentroidRouter.from_index(index)
        with pytest.raises(ValueError, match="unknown ranking rule"):
            BatchChunkSearcher(index, rank_by="nope", router=router)
