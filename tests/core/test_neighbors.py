"""Unit and property tests for the bounded neighbor set, and a differential
check of it and of the sharded merge against the heap-based reference kept
in ``reference_neighbors.py``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_neighbors as oracle
from repro.core.neighbors import Neighbor, NeighborSet, merge_neighbor_lists


def offer(ns, distance, descriptor_id):
    """A one-candidate update; returns how many entered (0 or 1)."""
    return ns.update(np.array([distance]), np.array([descriptor_id]))


class TestNeighbor:
    def test_ordering_by_distance_then_id(self):
        assert Neighbor(1.0, 5) < Neighbor(2.0, 1)
        assert Neighbor(1.0, 1) < Neighbor(1.0, 2)

    def test_accessors(self):
        n = Neighbor(1.5, 7)
        assert n.distance == 1.5
        assert n.descriptor_id == 7


class TestNeighborSet:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            NeighborSet(0)

    def test_kth_distance_infinite_until_full(self):
        ns = NeighborSet(2)
        assert math.isinf(ns.kth_distance)
        offer(ns, 1.0, 1)
        assert math.isinf(ns.kth_distance)
        offer(ns, 2.0, 2)
        assert ns.kth_distance == 2.0

    def test_eviction_keeps_best(self):
        ns = NeighborSet(2)
        for d, i in [(5.0, 1), (3.0, 2), (4.0, 3), (1.0, 4)]:
            offer(ns, d, i)
        assert [n.descriptor_id for n in ns.sorted()] == [4, 2]

    def test_rejects_worse_when_full(self):
        ns = NeighborSet(1)
        assert offer(ns, 1.0, 1) == 1
        assert offer(ns, 2.0, 2) == 0

    def test_tie_admits_lower_id(self):
        ns = NeighborSet(1)
        offer(ns, 1.0, 10)
        assert offer(ns, 1.0, 3) == 1
        assert ns.sorted() == [Neighbor(1.0, 3)]

    def test_tie_rejects_higher_id(self):
        ns = NeighborSet(1)
        offer(ns, 1.0, 3)
        assert offer(ns, 1.0, 10) == 0
        assert ns.sorted() == [Neighbor(1.0, 3)]

    def test_bulk_update_matches_individual(self):
        rng = np.random.default_rng(0)
        distances = rng.random(100)
        ids = rng.permutation(100)
        bulk = NeighborSet(10)
        bulk.update(distances, ids)
        single = NeighborSet(10)
        for d, i in zip(distances, ids):
            offer(single, d, i)
        assert bulk.sorted() == single.sorted()

    def test_update_returns_admitted_count(self):
        ns = NeighborSet(3)
        admitted = ns.update(np.array([1.0, 2.0, 3.0, 4.0]), np.arange(4))
        assert admitted == 3

    def test_update_shape_mismatch(self):
        with pytest.raises(ValueError):
            NeighborSet(2).update(np.ones(3), np.arange(2))

    def test_contains_and_id_set(self):
        ns = NeighborSet(2)
        offer(ns, 1.0, 42)
        assert 42 in ns
        assert 7 not in ns
        assert ns.id_set() == {42}

    def test_ids_sorted_best_first(self):
        ns = NeighborSet(3)
        ns.update(np.array([3.0, 1.0, 2.0]), np.array([30, 10, 20]))
        assert [n.descriptor_id for n in ns.sorted()] == [10, 20, 30]

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False), st.integers(0, 10_000)
            ),
            min_size=1,
            max_size=80,
        ),
        st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equals_sorted_prefix(self, pairs, k):
        """The set must always equal the k best of everything offered,
        under (distance, id) ordering with duplicate ids allowed."""
        ns = NeighborSet(k)
        for d, i in pairs:
            offer(ns, d, i)
        # The set may hold a (d, id) pair twice if it was offered twice, so
        # compare against the multiset of offers.
        expected_multiset = sorted(pairs, key=lambda p: (p[0], p[1]))[:k]
        got = [(n.distance, n.descriptor_id) for n in ns.sorted()]
        assert got == expected_multiset

    @given(
        st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=60),
        st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_kth_distance_is_max_retained(self, distances, k):
        ns = NeighborSet(k)
        ns.update(np.asarray(distances), np.arange(len(distances)))
        if len(ns) < k:
            assert math.isinf(ns.kth_distance)
        else:
            assert ns.kth_distance == max(n.distance for n in ns.sorted())


class TestMergeNeighborLists:
    def test_disjoint_merge_equals_global_top_k(self):
        rng = np.random.default_rng(3)
        distances = rng.random(30)
        all_neighbors = [Neighbor(d, i) for i, d in enumerate(distances)]
        parts = [all_neighbors[:10], all_neighbors[10:18], all_neighbors[18:]]
        merged = merge_neighbor_lists(parts, k=7)
        assert merged == sorted(all_neighbors)[:7]

    def test_duplicate_ids_keep_the_best(self):
        parts = [
            [Neighbor(0.5, 1), Neighbor(0.9, 2)],
            [Neighbor(0.3, 1), Neighbor(0.7, 3)],
        ]
        merged = merge_neighbor_lists(parts, k=10)
        assert merged == [Neighbor(0.3, 1), Neighbor(0.7, 3), Neighbor(0.9, 2)]

    def test_empty_inputs_merge_to_empty(self):
        assert merge_neighbor_lists([], k=5) == []
        assert merge_neighbor_lists([[], []], k=5) == []

    def test_short_lists_return_what_exists(self):
        merged = merge_neighbor_lists([[Neighbor(1.0, 4)]], k=10)
        assert merged == [Neighbor(1.0, 4)]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be positive"):
            merge_neighbor_lists([], k=0)

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), max_size=30),
        st.integers(1, 5),
        st.integers(1, 10),
    )
    @settings(deadline=None, max_examples=60)
    def test_property_matches_neighbor_set(self, distances, n_parts, k):
        """Merging disjoint lists (ids unique, as partitions guarantee)
        must agree with updating one bounded NeighborSet with every part in
        turn — the single-node accumulation order."""
        neighbors = [Neighbor(d, i) for i, d in enumerate(distances)]
        lists = [neighbors[part::n_parts] for part in range(n_parts)]
        merged = merge_neighbor_lists(lists, k)
        reference = NeighborSet(k)
        for part in lists:
            reference.update(
                np.array([n.distance for n in part]),
                np.array([n.descriptor_id for n in part], dtype=np.int64),
            )
        assert merged == reference.sorted()


# Few distinct distances and ids, so that ties at the k-th distance, equal
# distances with distinct ids and repeated (distance, id) pairs (an id that
# two overlapping chunks both hold) are common draws.
DISTANCES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
    st.floats(0, 4, allow_nan=False),
)
IDS = st.integers(0, 40)


@st.composite
def update_sequences(draw):
    """``(k, updates)``: each update a list of ``(distance, id)`` pairs,
    empty, shorter than k or longer than k."""
    k = draw(st.integers(1, 10))
    updates = draw(
        st.lists(
            st.lists(st.tuples(DISTANCES, IDS), max_size=3 * k + 2),
            min_size=1,
            max_size=8,
        )
    )
    return k, updates


def as_arrays(pairs):
    return (
        np.array([d for d, _ in pairs], dtype=np.float64),
        np.array([i for _, i in pairs], dtype=np.int64),
    )


class TestAgainstHeapReference:
    @given(update_sequences())
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    def test_update_sequence_matches_heap(self, case):
        """After every update the sorted-array set and the heap agree on
        the neighbors, the k-th distance, the size, the id set and how many
        candidates the call admitted."""
        k, updates = case
        ns, heap = NeighborSet(k), oracle.NeighborSet(k)
        for pairs in updates:
            distances, ids = as_arrays(pairs)
            assert ns.update(distances, ids) == heap.update(distances, ids)
            assert ns.sorted() == heap.sorted()
            assert ns.kth_distance == heap.kth_distance
            assert len(ns) == len(heap)
            assert ns.id_set() == heap.id_set()

    def test_tie_at_kth_distance_admits_smaller_ids_only(self):
        ns, heap = NeighborSet(4), oracle.NeighborSet(4)
        for held in (ns, heap):
            held.update(np.array([1.0, 2.0, 2.0, 2.0]), np.array([5, 6, 8, 9]))
        distances, ids = np.array([2.0, 2.0, 2.0, 3.0]), np.array([10, 7, 1, 0])
        assert ns.update(distances, ids) == heap.update(distances, ids) == 2
        assert ns.sorted() == heap.sorted() == [
            Neighbor(1.0, 5), Neighbor(2.0, 1), Neighbor(2.0, 6), Neighbor(2.0, 7)
        ]

    @given(
        st.lists(
            st.tuples(DISTANCES, st.integers(0, 25)),
            max_size=30,
            unique_by=lambda pair: pair[1],
        ),
        st.integers(1, 4),
        st.lists(st.integers(0, 3), max_size=4),
        st.lists(st.tuples(DISTANCES, st.integers(0, 25)), max_size=6),
        st.integers(1, 12),
    )
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    def test_merge_matches_reference(self, entries, n_parts, hedged, stray, k):
        """Disjoint parts, some answered twice (a hedged pair executed the
        same partition), plus stray entries whose ids repeat with other
        distances: the merge keeps each id's best entry, like the dict
        reference."""
        neighbors = [Neighbor(d, i) for d, i in entries]
        parts = [neighbors[part::n_parts] for part in range(n_parts)]
        parts += [parts[h % n_parts] for h in hedged]
        parts.append([Neighbor(d, i) for d, i in stray])
        assert merge_neighbor_lists(parts, k) == oracle.merge_neighbor_lists(parts, k)
