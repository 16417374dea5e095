"""Cross-module property-based tests (hypothesis).

The single most load-bearing property of the whole system is tested here
under adversarial inputs: *a run-to-completion chunk search equals a
sequential scan, for any data and any chunking* — plus a stateful model
test of the index maintainer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.dataset import DescriptorCollection
from repro.core.ground_truth import exact_knn
from repro.core.maintenance import ChunkIndexMaintainer
from repro.core.search import ChunkSearcher
from descriptors import from_vectors

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``).
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples


@st.composite
def collections(draw, max_points=60, max_dims=6):
    n = draw(st.integers(2, max_points))
    d = draw(st.integers(1, max_dims))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # A mix of clustered and duplicate-heavy data to stress tie handling.
    base = rng.standard_normal((n, d)) * draw(st.floats(0.01, 10.0))
    if draw(st.booleans()):
        base[: n // 2] = base[0]  # duplicates
    return from_vectors(base.astype(np.float32))


class TestSearchExactnessProperty:
    @given(
        collections(),
        st.integers(1, 10),
        st.integers(2, 16),
        st.booleans(),
    )
    @settings(max_examples=40 * EXAMPLES, deadline=None)
    def test_completion_equals_scan(self, collection, k, granule, use_round_robin):
        chunker = (
            RoundRobinChunker(n_chunks=granule)
            if use_round_robin
            else SRTreeChunker(leaf_capacity=granule)
        )
        result = chunker.form_chunks(collection)
        index = build_chunk_index(result.retained, result.chunk_set)
        searcher = ChunkSearcher(index)
        rng = np.random.default_rng(1)
        query = rng.standard_normal(collection.dimensions)
        got = searcher.search(query, k=min(k, len(collection)))
        assert got.completed
        expected = exact_knn(collection, query, min(k, len(collection)))
        np.testing.assert_array_equal(got.neighbor_ids(), expected)

    @given(collections(), st.integers(2, 12))
    @settings(max_examples=30 * EXAMPLES, deadline=None)
    def test_chunk_invariants_hold(self, collection, granule):
        result = SRTreeChunker(leaf_capacity=granule).form_chunks(collection)
        result.validate()
        assert result.chunk_set.is_partition()


class MaintainerMachine(RuleBasedStateMachine):
    """Model-based test: the maintainer against a plain dict model."""

    def __init__(self):
        super().__init__()
        self.model = {}
        self.maintainer = None
        self.rng = np.random.default_rng(99)
        self.next_id = 1000

    @initialize()
    def build(self):
        vectors = self.rng.standard_normal((20, 3)).astype(np.float32) * 2
        collection = from_vectors(vectors)
        chunking = SRTreeChunker(leaf_capacity=6).form_chunks(collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        self.maintainer = ChunkIndexMaintainer(index)
        self.model = {
            int(i): vectors[row] for row, i in enumerate(collection.ids)
        }

    @rule()
    def insert(self):
        vector = self.rng.standard_normal(3).astype(np.float32) * 2
        self.maintainer.insert(self.next_id, vector)
        self.model[self.next_id] = vector
        self.next_id += 1

    @rule(pick=st.integers(0, 10**6))
    def delete(self, pick):
        if len(self.model) <= 2:
            return
        keys = sorted(self.model)
        victim = keys[pick % len(keys)]
        self.maintainer.delete(victim)
        del self.model[victim]

    @invariant()
    def search_matches_model(self):
        if self.maintainer is None or len(self.model) < 2:
            return
        ids = sorted(self.model)
        logical = DescriptorCollection(
            vectors=np.vstack([self.model[i] for i in ids]),
            ids=np.asarray(ids, dtype=np.int64),
            image_ids=np.zeros(len(ids), dtype=np.int64),
        )
        searcher = ChunkSearcher(self.maintainer.to_index())
        query = self.rng.standard_normal(3) * 2
        k = min(4, len(ids))
        got = searcher.search(query, k=k)
        np.testing.assert_array_equal(
            got.neighbor_ids(), exact_knn(logical, query, k)
        )

    @invariant()
    def sizes_agree(self):
        if self.maintainer is not None:
            assert len(self.maintainer) == len(self.model)


MaintainerMachine.TestCase.settings = settings(
    max_examples=15 * EXAMPLES, stateful_step_count=12, deadline=None
)
TestMaintainerStateMachine = MaintainerMachine.TestCase
