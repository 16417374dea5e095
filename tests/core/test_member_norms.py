"""Resident chunks keep their kernel norms.

``InMemoryChunkStore.member_sq_norms`` memoizes each scanned chunk's
``|p|^2`` terms, and ``ChunkSearcher`` hands them to the expanded-form
kernel instead of recomputing them per scan, and to the member bound, which
settles a chunk of a cohort of one in float32 without its scan.  A store
without the memo — an on-disk store, or a proxy exposing only
``read_chunk`` / ``__len__`` / ``close`` — recomputes them on every scan
and has no member bound, which is the reference: the two paths must agree
in every bit of every observable.  The memo's contract: each chunk's norms
are computed at most once per store, only for a chunk some search scans
or bounds, and never for an index searched from disk.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptors import from_vectors
from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core import chunk_index, search
from repro.core.chunk_index import ChunkIndex, InMemoryChunkStore, build_chunk_index
from repro.core.search import ChunkSearcher
from repro.core.stop_rules import ExactCompletion, MaxChunks, TimeBudget
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import LruChunkCache

K = 5
_PAGE = PAPER_2005_COST_MODEL.disk.page_bytes


class ReadOnlyProxy:
    """A store exposing only ``read_chunk`` / ``__len__`` / ``close``: the
    searcher cannot find a memo behind it, so every scan recomputes."""

    def __init__(self, inner):
        self._inner = inner

    def __len__(self):
        return len(self._inner)

    def read_chunk(self, chunk_id):
        return self._inner.read_chunk(chunk_id)

    def close(self):
        """The inner store is closed by its own index."""


@dataclasses.dataclass(frozen=True)
class Case:
    seed: int
    n: int
    dims: int
    chunker: str
    cohort: int
    prune: bool
    fault_rate: float
    cache: bool
    approximate: bool


def make_index(case):
    rng = np.random.default_rng(case.seed)
    centers = rng.uniform(-6.0, 6.0, size=(4, case.dims))
    vectors = centers[rng.integers(0, 4, case.n)] + rng.standard_normal(
        (case.n, case.dims)
    )
    collection = from_vectors(vectors.astype(np.float32))
    chunker = (
        SRTreeChunker(leaf_capacity=7)
        if case.chunker == "sr"
        else RoundRobinChunker(n_chunks=9)
    )
    result = chunker.form_chunks(collection)
    return build_chunk_index(result.retained, result.chunk_set)


def make_queries(case, index):
    """Half perturbed members (small k-th distance), half uniform points."""
    rng = np.random.default_rng(case.seed + 1)
    members = np.concatenate([index.read_chunk(c)[1] for c in range(index.n_chunks)])
    near = members[rng.integers(0, len(members), case.cohort)].astype(np.float64)
    near += 0.05 * rng.standard_normal(near.shape)
    far = rng.uniform(-8.0, 8.0, size=near.shape)
    return np.where(np.arange(case.cohort)[:, np.newaxis] % 2 == 0, near, far)


def make_searcher(case, index):
    """A searcher with its own chunk cache (the cache is stateful)."""
    model = PAPER_2005_COST_MODEL
    if case.cache:
        model = dataclasses.replace(
            model, chunk_cache=LruChunkCache(capacity_bytes=3 * _PAGE)
        )
    return ChunkSearcher(index, cost_model=model, prune=case.prune)


def injector(case):
    if not case.fault_rate:
        return None
    return FaultInjector.from_cost_model(
        FaultPlan.balanced(case.fault_rate, seed=case.seed), PAPER_2005_COST_MODEL
    )


def run(case, searcher, queries, truth):
    return searcher.search_batch(
        queries,
        k=K,
        stop_rule=MaxChunks(3) if case.approximate else None,
        true_neighbor_ids=truth,
        faults=injector(case),
    )


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for one, other in zip(got, want):
        assert one.neighbor_ids().tolist() == other.neighbor_ids().tolist()
        assert bits([n.distance for n in one.neighbors]) == bits(
            [n.distance for n in other.neighbors]
        )
        assert (one.stop_reason, one.completed, one.degraded, one.chunks_pruned) == (
            other.stop_reason,
            other.completed,
            other.degraded,
            other.chunks_pruned,
        )
        mine, theirs = one.trace, other.trace
        assert bits([mine.start_elapsed_s]) == bits([theirs.start_elapsed_s])
        assert mine.chunk_ids == theirs.chunk_ids
        assert bits(mine.elapsed) == bits(theirs.elapsed)
        assert mine.n_descriptors == theirs.n_descriptors
        assert mine.neighbors_found == theirs.neighbors_found
        assert bits(mine.kth_distance) == bits(theirs.kth_distance)
        assert mine.true_matches == theirs.true_matches
        assert mine.faults == theirs.faults


def chunk_of(index, descriptor_id):
    """``(chunk id, position)`` of one descriptor."""
    for chunk_id in range(index.n_chunks):
        ids = index.read_chunk(chunk_id)[0]
        hits = np.flatnonzero(ids == descriptor_id)
        if hits.size:
            return chunk_id, int(hits[0])
    raise KeyError(descriptor_id)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the distance kernel's calls: one ranking per search, one per
    chunk scan."""
    calls = []
    real = search.expanded_squared_distances

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(search, "expanded_squared_distances", counting)
    return calls


def check_paths_agree(case, plant=False):
    """The memo path — a first searcher filling the store's memo, then a
    second searcher over the same store reading it — equals the recompute
    path through :class:`ReadOnlyProxy`, bit for bit.  ``plant`` nudges one
    kept norm by one ulp before the second searcher runs."""
    index = make_index(case)
    queries = make_queries(case, index)
    truth = [[int(i) for i in index.read_chunk(0)[0][:K]]] * case.cohort
    proxied = dataclasses.replace(index, store=ReadOnlyProxy(index.store))
    want = run(case, make_searcher(case, proxied), queries, truth)

    filling = run(case, make_searcher(case, index), queries, truth)
    assert_bit_identical(filling, want)
    if plant:
        store = index.store
        chunk_id, position = chunk_of(index, want[0].neighbors[0].descriptor_id)
        nudged = store._sq_norms[chunk_id].copy()
        nudged[position] = np.nextafter(nudged[position], np.inf)
        store._sq_norms[chunk_id] = nudged
    assert_bit_identical(run(case, make_searcher(case, index), queries, truth), want)


CASES = st.builds(
    Case,
    seed=st.integers(0, 2**16),
    n=st.integers(20, 90),
    dims=st.sampled_from([3, 24]),
    chunker=st.sampled_from(["sr", "round-robin"]),
    cohort=st.sampled_from([1, 3, 8]),
    prune=st.booleans(),
    fault_rate=st.sampled_from([0.0, 0.3]),
    cache=st.booleans(),
    approximate=st.booleans(),
)


class TestMemoEqualsRecompute:
    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    @given(case=CASES)
    def test_memo_path_is_bit_identical(self, case):
        check_paths_agree(case)

    @pytest.mark.parametrize("cohort", [1, 3, 8])
    @pytest.mark.parametrize("chunker", ["sr", "round-robin"])
    def test_a_nudged_memo_entry_is_caught(self, chunker, cohort):
        # The planted twin: a memo one ulp off in one entry — the nearest
        # neighbor's own — must break the property.
        case = Case(
            seed=11,
            n=60,
            dims=24,
            chunker=chunker,
            cohort=cohort,
            prune=True,
            fault_rate=0.0,
            cache=False,
            approximate=False,
        )
        check_paths_agree(case)
        with pytest.raises(AssertionError):
            check_paths_agree(case, plant=True)

    def test_query_layout_changes_no_bit(self):
        """The cohort's rows are made contiguous before their norms are
        taken once for every consumer: a Fortran-order cohort searches
        exactly like the same rows in C order."""
        case = Case(11, 80, 24, "sr", 8, True, 0.0, False, False)
        index = make_index(case)
        queries = np.ascontiguousarray(make_queries(case, index))
        searcher = ChunkSearcher(index)
        assert_bit_identical(
            searcher.search_batch(np.asfortranarray(queries), k=K),
            searcher.search_batch(queries, k=K),
        )


@pytest.fixture
def resident():
    case = Case(3, 300, 24, "sr", 8, True, 0.0, False, False)
    index = make_index(case)
    return index, make_queries(case, index)


@pytest.fixture
def fill_counter(monkeypatch):
    """Counts the store's norm computations, one per fill."""
    calls = []
    real = chunk_index.squared_norms

    def counting(vectors):
        calls.append(len(vectors))
        return real(vectors)

    monkeypatch.setattr(chunk_index, "squared_norms", counting)
    return calls


def filled(store):
    return {c for c, norms in enumerate(store._sq_norms) if norms is not None}


class TestMemoContract:
    def test_each_chunk_is_filled_at_most_once(self, resident, fill_counter):
        index, queries = resident
        first = ChunkSearcher(index)
        first.search_batch(queries, k=K)
        assert len(fill_counter) == len(filled(index.store)) > 0
        for query in queries:  # again, one query at a time
            first.search(query, k=K)
        ChunkSearcher(index).search_batch(queries, k=K)  # a second searcher
        ChunkSearcher(index, prune=False).search_batch(queries, k=K)
        assert len(fill_counter) == len(filled(index.store)) == index.n_chunks

    def test_kept_norms_are_the_kernels(self, resident):
        index, queries = resident
        ChunkSearcher(index, prune=False).search_batch(queries, k=K)
        for chunk_id in range(index.n_chunks):
            vectors = index.read_chunk(chunk_id)[1].astype(np.float64)
            assert bits(index.store._sq_norms[chunk_id]) == bits(
                np.einsum("pd,pd->p", vectors, vectors)
            )

    def test_pruned_and_unvisited_chunks_fill_nothing(
        self, resident, monkeypatch, kernel_calls
    ):
        """One fill per chunk read, where a read is a scan's or, for a
        chunk the member bound settles, the bound's: both need the norms."""
        index, queries = resident
        store = index.store
        read = []
        read_chunk = store.read_chunk

        def recording(chunk_id):  # without faults, only a scan or a bound reads
            read.append(chunk_id)
            return read_chunk(chunk_id)

        monkeypatch.setattr(store, "read_chunk", recording)
        result = ChunkSearcher(index).search(queries[0], k=K)
        visited = set(result.trace.chunk_ids)
        pruned = visited - set(read)
        assert result.completed and len(pruned) == result.chunks_pruned > 0
        assert visited != set(range(index.n_chunks))
        assert filled(store) == set(read)
        scans = len(kernel_calls) - 1  # the ranking's call
        assert len(read) == len(set(read)) > scans  # some chunk was settled

    def test_skipped_chunks_fill_nothing(self, resident):
        index, queries = resident
        faults = FaultInjector.from_cost_model(
            FaultPlan.balanced(0.5, seed=7), PAPER_2005_COST_MODEL
        )
        result = ChunkSearcher(index, prune=False).search_batch(
            [queries[0]], k=K, faults=faults
        )[0]
        skipped = {
            result.trace.chunk_ids[rank]
            for rank, (was_skipped, _, _) in result.trace.faults.items()
            if was_skipped
        }
        assert skipped and result.degraded
        assert filled(index.store) == set(result.trace.chunk_ids) - skipped

    def test_a_loaded_index_holds_no_member_norms(
        self, resident, tmp_path, fill_counter
    ):
        index, queries = resident
        index.save(str(tmp_path))
        with ChunkSearcher(ChunkIndex.load(str(tmp_path), index.dimensions)) as disk:
            assert not isinstance(disk.index.store, InMemoryChunkStore)
            assert disk._store_norms is None
            results = disk.search_batch(queries, k=K)
        # Nothing was kept: the disk store has no memo, and the in-memory
        # store it was saved from was never scanned.
        assert fill_counter == [] and filled(index.store) == set()
        assert all(result.completed for result in results)

    def test_a_proxied_store_keeps_nothing(self, resident, fill_counter):
        index, queries = resident
        proxied = dataclasses.replace(index, store=ReadOnlyProxy(index.store))
        searcher = ChunkSearcher(proxied)
        assert searcher._store_norms is None
        searcher.search_batch(queries, k=K)
        assert fill_counter == [] and filled(index.store) == set()


class TestResidentChunksAreReadOnly:
    def test_a_write_through_a_read_raises(self, resident):
        index, _ = resident
        ChunkSearcher(index).search_batch(index.read_chunk(0)[1], k=K)
        ids, vectors = index.read_chunk(0)
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = -1
        with pytest.raises(ValueError, match="read-only"):
            vectors[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            index.store._sq_norms[0][0] = 0.0

    def test_the_callers_arrays_keep_their_flags(self):
        ids = np.arange(3, dtype=np.int64)
        vectors = np.ones((3, 2), dtype=np.float32)
        store = InMemoryChunkStore([(ids, vectors)])
        assert ids.flags.writeable and vectors.flags.writeable
        assert not any(part.flags.writeable for part in store.read_chunk(0))


def searched_alone(case, searcher, queries, rule):
    """Each query a cohort of one, through one injector keyed by the
    query's position."""
    faults = injector(case)
    return [
        searcher.search_batch(
            query[np.newaxis], k=K, stop_rule=rule, faults=faults, query_indices=[i]
        )[0]
        for i, query in enumerate(queries)
    ]


class TestTheMemberBoundChangesNoSearch:
    """Searches of one query over a store keeping norms — where the member
    bound settles chunks — equal the same searches through
    :class:`ReadOnlyProxy`, where the bound is off by construction: ids,
    distance bits, stop reasons, ``chunks_pruned`` and every trace column,
    under each stop rule, faults, an evicting chunk cache and pruning on or
    off.  Each case checks that the bound settled chunks, so it is not
    vacuous."""

    RULES = {
        "exact": ExactCompletion(),
        "max-chunks": MaxChunks(16),
        "time-budget": TimeBudget(0.15),
    }

    @pytest.mark.parametrize(
        "rule,faulted,cache,prune",
        list(itertools.product(RULES, [False, True], [False, True], [False, True])),
    )
    def test_equal_to_the_normless_store(
        self, rule, faulted, cache, prune, kernel_calls
    ):
        case = Case(3, 300, 24, "sr", 16, prune, 0.3 if faulted else 0.0, cache, False)
        index = make_index(case)
        queries = make_queries(case, index)
        proxied = dataclasses.replace(index, store=ReadOnlyProxy(index.store))
        want = searched_alone(
            case, make_searcher(case, proxied), queries, self.RULES[rule]
        )
        calls_without = len(kernel_calls)
        searcher = make_searcher(case, index)
        got = searched_alone(case, searcher, queries, self.RULES[rule])
        assert_bit_identical(got, want)
        # One ranking call per search either way: fewer calls are fewer scans.
        assert len(kernel_calls) - calls_without < calls_without
        assert (searcher._cache.evictions > 0) if cache else searcher._cache is None
