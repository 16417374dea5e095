"""Pruned scan path: pruning, routing, and the chunk cache must be pure
optimizations — never semantic changes.

The property under test (the ISSUE's acceptance gate): with pruning on,
every observable of every query — neighbor ids and distances, stop
reasons, completed/degraded flags, and every simulated trace timestamp —
is *bit-identical* to the unpruned scan, on every chunker in the zoo,
for a cohort of one and a cohort of N, with and without fault
injection.  The only thing pruning may change is ``chunks_pruned`` (and
how fast the host finishes).

A searcher handed a router (``BatchChunkSearcher``, the benchmark
harness's name for the engine) must answer exactly as one without, and
the simulated chunk cache must change timing only through its documented
warm-hit charge — identically for every cohort shape.  Every compared result also replays against the
independent references (``replay_oracle.ReplayOracle``).
"""

import dataclasses
import math
import shutil

import numpy as np
import pytest

from repro.chunking.bag import BagClusterer, estimate_mpi
from repro.chunking.round_robin import RoundRobinChunker
from repro.chunking.srtree_chunker import SRTreeChunker
from repro.core import BatchChunkSearcher
from repro.core.chunk_index import ChunkIndex, build_chunk_index
from repro.core.routing import CentroidRouter
from repro.core.search import RANK_BY_LOWER_BOUND, ChunkSearcher
from repro.core.stop_rules import ExactCompletion, MaxChunks, TimeBudget
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.chunk_cache import LruChunkCache
from replay_oracle import ReplayOracle
from descriptors import from_vectors, sphere_lower_bound

CHUNKER_FACTORIES = {
    "srtree": lambda collection: SRTreeChunker(leaf_capacity=7),
    "bag": lambda collection: BagClusterer(
        mpi=estimate_mpi(collection, seed=3),
        target_clusters=5,
    ),
    "round-robin": lambda collection: RoundRobinChunker(n_chunks=9),
}


def make_index(collection, chunker_name):
    chunker = CHUNKER_FACTORIES[chunker_name](collection)
    result = chunker.form_chunks(collection)
    return build_chunk_index(result.retained, result.chunk_set)


def make_queries(n, dims, seed=97):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dims)) * 4.0


def make_clutter_queries(collection, n, seed=31):
    """Half dataset queries (a member, slightly perturbed: small k-th
    distance), half uniform ones (large k-th distance)."""
    rng = np.random.default_rng(seed)
    dims = collection.dimensions
    near = collection.vectors[rng.choice(len(collection), n // 2, replace=False)]
    near = near.astype(np.float64) + 0.01 * rng.standard_normal((n // 2, dims))
    return np.vstack([near, rng.uniform(-4.0, 4.0, size=(n - n // 2, dims))])


def injector(rate, seed=42):
    plan = FaultPlan.balanced(rate, seed=seed)
    return FaultInjector.from_cost_model(plan, PAPER_2005_COST_MODEL)


def assert_results_identical(got, want, replay, query, query_index=0):
    """Every observable equal to the bit — no tolerances anywhere — and
    replayable against the independent references."""
    replay.check(query, got, query_index=query_index)
    np.testing.assert_array_equal(got.neighbor_ids(), want.neighbor_ids())
    assert [n.distance for n in got.neighbors] == [
        n.distance for n in want.neighbors
    ]
    assert got.stop_reason == want.stop_reason
    assert got.completed == want.completed
    assert got.degraded == want.degraded
    assert got.elapsed_s == want.elapsed_s
    assert got.trace.start_elapsed_s == want.trace.start_elapsed_s
    assert got.trace.events == want.trace.events


def assert_batches_identical(got, want, replay, queries):
    assert len(got) == len(want) == len(queries)
    for i, (got_result, want_result) in enumerate(zip(got, want)):
        assert_results_identical(got_result, want_result, replay, queries[i], i)


def assert_results_equivalent(got, want, replay, query, query_index=0):
    """Cross-cohort comparator: everything exact except kernel distances,
    which BLAS may round differently in the last bit for a one-row and an
    N-row product."""
    replay.check(query, got, query_index=query_index)
    np.testing.assert_array_equal(got.neighbor_ids(), want.neighbor_ids())
    np.testing.assert_allclose(
        [n.distance for n in got.neighbors],
        [n.distance for n in want.neighbors],
        rtol=1e-12,
    )
    assert got.stop_reason == want.stop_reason
    assert got.completed == want.completed
    assert got.degraded == want.degraded
    assert got.chunks_pruned == want.chunks_pruned
    assert got.elapsed_s == want.elapsed_s
    assert got.trace.start_elapsed_s == want.trace.start_elapsed_s
    assert len(got.trace) == len(want.trace)
    for got_event, want_event in zip(got.trace.events, want.trace.events):
        assert got_event.chunk_id == want_event.chunk_id
        assert got_event.rank == want_event.rank
        assert got_event.elapsed_s == want_event.elapsed_s
        assert got_event.n_descriptors == want_event.n_descriptors
        assert got_event.neighbors_found == want_event.neighbors_found
        assert got_event.true_matches == want_event.true_matches
        assert got_event.skipped == want_event.skipped
        assert got_event.fault == want_event.fault
        assert got_event.retries == want_event.retries
        assert got_event.kth_distance == pytest.approx(
            want_event.kth_distance, rel=1e-12
        )


class TestPrunedEquivalence:
    """Pruned scan == unpruned scan, to the bit, everywhere."""

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_sequential_engine(self, tiny_collection, chunker_name):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(12, tiny_collection.dimensions)
        plain = ChunkSearcher(index, prune=False)
        pruned = ChunkSearcher(index, prune=True)
        replay = ReplayOracle(index, k=7)
        for query in queries:
            want = plain.search(query, k=7)
            got = pruned.search(query, k=7)
            assert_results_identical(got, want, replay, query)
            assert want.chunks_pruned == 0

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_batch_engine(self, tiny_collection, chunker_name):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(12, tiny_collection.dimensions)
        want = ChunkSearcher(index, prune=False).search_batch(queries, k=7)
        got = ChunkSearcher(index, prune=True).search_batch(queries, k=7)
        assert_batches_identical(got, want, ReplayOracle(index, k=7), queries)
        assert want.total_chunks_pruned == 0

    def test_pruning_actually_fires(self, tiny_collection):
        """The guard that this suite tests something: on a clustered
        collection the triangle-inequality bound must exclude chunks."""
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(12, tiny_collection.dimensions)
        batch = ChunkSearcher(index).search_batch(queries, k=7)
        assert batch.total_chunks_pruned > 0
        sequential = ChunkSearcher(index)
        assert (
            sum(sequential.search(q, k=7).chunks_pruned for q in queries) > 0
        )

    @pytest.mark.parametrize("chunker_name", ["srtree", "bag"])
    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_sequential_engine_under_faults(
        self, tiny_collection, chunker_name, rate
    ):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(8, tiny_collection.dimensions)
        plain = ChunkSearcher(index, prune=False)
        pruned = ChunkSearcher(index, prune=True)
        replay = ReplayOracle(index, k=5, faults=injector(rate))
        for i, query in enumerate(queries):
            want = plain.search_batch(
                [query], k=5, faults=injector(rate), query_indices=[i]
            )[0]
            got = pruned.search_batch(
                [query], k=5, faults=injector(rate), query_indices=[i]
            )[0]
            assert_results_identical(got, want, replay, query, i)

    @pytest.mark.parametrize("chunker_name", ["srtree", "bag"])
    @pytest.mark.parametrize("rate", [0.0, 0.25])
    def test_batch_engine_under_faults(self, tiny_collection, chunker_name, rate):
        index = make_index(tiny_collection, chunker_name)
        queries = make_queries(8, tiny_collection.dimensions)
        want = ChunkSearcher(index, prune=False).search_batch(
            queries, k=5, faults=injector(rate)
        )
        got = ChunkSearcher(index, prune=True).search_batch(
            queries, k=5, faults=injector(rate)
        )
        replay = ReplayOracle(index, k=5, faults=injector(rate))
        assert_batches_identical(got, want, replay, queries)

    @pytest.mark.parametrize(
        "stop_rule_factory",
        [lambda: MaxChunks(3), lambda: TimeBudget(0.08)],
        ids=["max-chunks", "time-budget"],
    )
    def test_early_stop_rules(self, tiny_collection, stop_rule_factory):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions)
        want = ChunkSearcher(index, prune=False).search_batch(
            queries, k=5, stop_rule=stop_rule_factory()
        )
        got = ChunkSearcher(index, prune=True).search_batch(
            queries, k=5, stop_rule=stop_rule_factory()
        )
        assert_batches_identical(got, want, ReplayOracle(index, k=5), queries)


class TestRectangleBoundEquivalence:
    """Tight patterns plus uniform clutter: most sphere bounds are 0, most
    rectangle bounds are not, so nearly every prune here is the
    rectangle's — through the whole configuration matrix, to the bit."""

    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "chunk-cache"])
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("routed", [False, True], ids=["flat", "router"])
    @pytest.mark.parametrize("cohort", ["one", "several"])
    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_pruned_equals_unpruned(
        self, clutter_collection, chunker_name, cohort, routed, faulted, cache
    ):
        index = make_index(clutter_collection, chunker_name)
        queries = make_clutter_queries(clutter_collection, 8)
        router = CentroidRouter.from_index(index) if routed else None

        def model():
            if not cache:
                return PAPER_2005_COST_MODEL
            return dataclasses.replace(
                PAPER_2005_COST_MODEL,
                chunk_cache=LruChunkCache(capacity_bytes=3 * _PAGE),
            )

        def faults():
            return injector(0.25) if faulted else None

        def run(prune):
            searcher = BatchChunkSearcher(
                index, cost_model=model(), prune=prune, router=router
            )
            if cohort == "several":
                return searcher.search_batch(queries, k=5, faults=faults()).results
            return [
                searcher.search_batch(
                    [query], k=5, faults=faults(), query_indices=[i]
                )[0]
                for i, query in enumerate(queries)
            ]

        want, got = run(prune=False), run(prune=True)
        replay = ReplayOracle(index, k=5, cost_model=model(), faults=faults())
        assert_batches_identical(got, want, replay, queries)
        assert sum(result.chunks_pruned for result in want) == 0

    def test_rectangle_prunes_more_than_the_sphere(self, clutter_collection):
        """The sphere-only count is replayed from the trace: pruning
        changes no k-th distance, so ``d(centroid) - radius`` against the
        k-th distance before each visit is what a sphere-only pruner
        would have excused."""
        # Leaves of 16 over 10% clutter: nearly every chunk holds a
        # clutter point, as the benchmark's 1,000-descriptor leaves do.
        chunking = SRTreeChunker(leaf_capacity=16).form_chunks(clutter_collection)
        index = build_chunk_index(chunking.retained, chunking.chunk_set)
        queries = make_clutter_queries(clutter_collection, 16)
        batch = ChunkSearcher(index).search_batch(queries, k=5)
        sphere_only = 0
        for query, result in zip(queries, batch):
            kth = math.inf
            for event in result.trace.events:
                meta = index.metas[event.chunk_id]
                sphere_only += sphere_lower_bound(meta, query) > kth
                kth = event.kth_distance
        assert batch.total_chunks_pruned > 2 * sphere_only > 0


@pytest.fixture(scope="module")
def coded_and_plain(tmp_path_factory):
    """One saved index opened twice — with its code file and from a
    copy of the directory without it — plus the queries: 24-d patterns
    with 10% clutter in leaves of 40, the benchmark's shape in small."""
    rng = np.random.default_rng(23)
    centers = rng.uniform(0.0, 1.0, size=(12, 24))
    patterns = centers[rng.integers(12, size=2160)] + 0.02 * rng.standard_normal(
        (2160, 24)
    )
    vectors = np.vstack([patterns, rng.uniform(0.0, 1.0, size=(240, 24))])
    collection = from_vectors(
        vectors[rng.permutation(len(vectors))].astype(np.float32)
    )
    chunking = SRTreeChunker(leaf_capacity=40).form_chunks(collection)
    coded_dir = tmp_path_factory.mktemp("coded")
    build_chunk_index(chunking.retained, chunking.chunk_set).save(str(coded_dir))
    plain_dir = tmp_path_factory.mktemp("plain") / "index"
    shutil.copytree(coded_dir, plain_dir)
    (plain_dir / "base-000000.va").unlink()
    near = collection.vectors[rng.choice(len(collection), 8, replace=False)]
    queries = np.vstack(
        [
            near.astype(np.float64) + 0.005 * rng.standard_normal((8, 24)),
            rng.uniform(0.0, 1.0, size=(8, 24)),
        ]
    )
    with ChunkIndex.load(str(coded_dir), 24) as coded:
        with ChunkIndex.load(str(plain_dir), 24) as plain:
            assert coded.codes is not None and plain.codes is None
            yield coded, plain, queries


class TestCodeBoundEquivalence:
    """The code bound only ever turns a scan into a prune: with and
    without the code file every observable but ``chunks_pruned`` is equal
    to the bit."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize(
        "stop_rule", [ExactCompletion(), MaxChunks(16)], ids=["exact", "16-chunks"]
    )
    @pytest.mark.parametrize("cohort", [1, 8])
    def test_with_codes_equals_without(self, coded_and_plain, cohort, stop_rule, faulted):
        coded, plain, queries = coded_and_plain

        def run(index):
            searcher = ChunkSearcher(index)
            faults = injector(0.25) if faulted else None
            results = []
            for start in range(0, len(queries), cohort):
                results.extend(
                    searcher.search_batch(
                        queries[start : start + cohort],
                        k=10,
                        stop_rule=stop_rule,
                        faults=faults,
                        query_indices=range(start, start + cohort),
                    ).results
                )
            return results

        want, got = run(plain), run(coded)
        replay = ReplayOracle(
            plain, k=10, faults=injector(0.25) if faulted else None
        )
        assert_batches_identical(got, want, replay, queries)
        if isinstance(stop_rule, ExactCompletion):
            assert all(r.completed or r.degraded for r in got)
            # The suite tests something: the codes excuse chunks the
            # sphere and the rectangle could not.
            assert sum(r.chunks_pruned for r in got) > 1.2 * sum(
                r.chunks_pruned for r in want
            )
        else:
            assert all(len(r.trace) == 16 for r in got)

    def test_unpruned_searcher_never_consults(self, coded_and_plain, monkeypatch):
        coded, _, queries = coded_and_plain

        def forbidden(self, query, chunk_id):
            raise AssertionError("prune=False must not consult the codes")

        monkeypatch.setattr(ChunkSearcher, "code_bound", forbidden)
        batch = ChunkSearcher(coded, prune=False).search_batch(queries, k=10)
        assert batch.total_chunks_pruned == 0


class TestRouterEquivalence:
    """A router changes nothing observable: ``BatchChunkSearcher`` checks
    that it covers the index and ranks flat, to the bit, for any cohort
    shape."""

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    @pytest.mark.parametrize("rank_by", ["centroid", RANK_BY_LOWER_BOUND])
    def test_sequential_engine(self, tiny_collection, chunker_name, rank_by):
        index = make_index(tiny_collection, chunker_name)
        router = CentroidRouter.from_index(index)
        queries = make_queries(10, tiny_collection.dimensions)
        flat = ChunkSearcher(index, rank_by=rank_by)
        routed = BatchChunkSearcher(index, rank_by=rank_by, router=router)
        replay = ReplayOracle(index, k=6, rank_by=rank_by)
        for query in queries:
            assert_results_identical(
                routed.search(query, k=6), flat.search(query, k=6), replay, query
            )

    @pytest.mark.parametrize("chunker_name", sorted(CHUNKER_FACTORIES))
    def test_batch_engine(self, tiny_collection, chunker_name):
        index = make_index(tiny_collection, chunker_name)
        router = CentroidRouter.from_index(index)
        queries = make_queries(10, tiny_collection.dimensions)
        want = ChunkSearcher(index).search_batch(queries, k=6)
        got = BatchChunkSearcher(index, router=router).search_batch(
            queries, k=6
        )
        assert_batches_identical(got, want, ReplayOracle(index, k=6), queries)

    def test_batch_engine_matches_sequential(self, tiny_collection):
        """Cross-cohort: a cohort of N vs N single queries, both handed a
        router, agree on every observable (distances to within one ulp)."""
        index = make_index(tiny_collection, "srtree")
        router = CentroidRouter.from_index(index)
        queries = make_queries(10, tiny_collection.dimensions)
        sequential = BatchChunkSearcher(index, router=router)
        want = [sequential.search(q, k=6) for q in queries]
        got = BatchChunkSearcher(index, router=router).search_batch(
            queries, k=6
        )
        assert len(got) == len(want)
        replay = ReplayOracle(index, k=6)
        for got_result, want_result, query in zip(got, want, queries):
            assert_results_equivalent(got_result, want_result, replay, query)

    def test_router_under_faults(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        router = CentroidRouter.from_index(index)
        queries = make_queries(8, tiny_collection.dimensions)
        want = ChunkSearcher(index).search_batch(
            queries, k=5, faults=injector(0.25)
        )
        got = BatchChunkSearcher(index, router=router).search_batch(
            queries, k=5, faults=injector(0.25)
        )
        replay = ReplayOracle(index, k=5, faults=injector(0.25))
        assert_batches_identical(got, want, replay, queries)

    def test_router_with_early_stop(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        router = CentroidRouter.from_index(index)
        queries = make_queries(8, tiny_collection.dimensions)
        want = ChunkSearcher(index).search_batch(
            queries, k=5, stop_rule=MaxChunks(2)
        )
        got = BatchChunkSearcher(index, router=router).search_batch(
            queries, k=5, stop_rule=MaxChunks(2)
        )
        assert_batches_identical(got, want, ReplayOracle(index, k=5), queries)

    def test_router_is_never_consulted(self, tiny_collection):
        """Every query ranks flat: a router whose stream raises changes
        nothing, with faults, pruning and an evicting chunk cache on."""

        class Unrouted(CentroidRouter):
            def stream(self, *args, **kwargs):
                raise AssertionError("a search opened a router stream")

        index = make_index(tiny_collection, "srtree")
        router = Unrouted.from_index(index)
        queries = make_queries(8, tiny_collection.dimensions, seed=29)
        want = ChunkSearcher(
            index, cost_model=_small_cache_model(), prune=True
        ).search_batch(queries, k=5, faults=injector(0.25))
        got = BatchChunkSearcher(
            index, cost_model=_small_cache_model(), prune=True, router=router
        ).search_batch(queries, k=5, faults=injector(0.25))
        replay = ReplayOracle(
            index, k=5, cost_model=_small_cache_model(), faults=injector(0.25)
        )
        # Ids, distances, elapsed and every trace column (as its events).
        assert_batches_identical(got, want, replay, queries)
        assert any(result.degraded for result in got)
        assert sum(result.chunks_pruned for result in got) > 0

    def test_router_for_another_index_refused(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        chunking = RoundRobinChunker(n_chunks=4).form_chunks(tiny_collection)
        other = build_chunk_index(chunking.retained, chunking.chunk_set)
        assert other.n_chunks != index.n_chunks
        with pytest.raises(ValueError, match="router covers"):
            BatchChunkSearcher(index, router=CentroidRouter.from_index(other))


class TestChunkCacheEquivalence:
    """The simulated chunk cache: cohort-independent, deterministic."""

    def _model(self, capacity_bytes=1 << 20):
        return dataclasses.replace(
            PAPER_2005_COST_MODEL,
            chunk_cache=LruChunkCache(capacity_bytes=capacity_bytes),
        )

    def test_batch_matches_sequential(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        model_a = self._model()
        model_b = self._model()
        sequential = ChunkSearcher(index, cost_model=model_a)
        want = [sequential.search(q, k=5) for q in queries]
        batch = ChunkSearcher(index, cost_model=model_b).search_batch(queries, k=5)
        assert len(batch) == len(want)
        # The replay charges through its own fresh cache, in query order.
        replay = ReplayOracle(index, k=5, cost_model=self._model())
        for got_result, want_result, query in zip(batch, want, queries):
            assert_results_equivalent(got_result, want_result, replay, query)
        assert model_b.chunk_cache.hits == model_a.chunk_cache.hits
        assert model_b.chunk_cache.misses == model_a.chunk_cache.misses
        assert model_b.chunk_cache.hits > 0

    def test_batch_matches_sequential_under_faults(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(8, tiny_collection.dimensions, seed=29)
        sequential = ChunkSearcher(index, cost_model=self._model())
        want = [
            sequential.search_batch(
                [q], k=5, faults=injector(0.25), query_indices=[i]
            )[0]
            for i, q in enumerate(queries)
        ]
        batch = ChunkSearcher(
            index, cost_model=self._model()
        ).search_batch(queries, k=5, faults=injector(0.25))
        assert len(batch) == len(want)
        replay = ReplayOracle(
            index, k=5, cost_model=self._model(), faults=injector(0.25)
        )
        for i, (got_result, want_result) in enumerate(zip(batch, want)):
            assert_results_equivalent(got_result, want_result, replay, queries[i], i)

    def test_warm_batch_is_simulated_faster(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        cold_model = self._model()
        searcher = ChunkSearcher(index, cost_model=cold_model)
        cold = searcher.search_batch(queries, k=5)
        warm = searcher.search_batch(queries, k=5)
        # Identical results, cheaper timing: warm hits are charged at
        # memory-copy cost instead of the disk's random-read price.
        for cold_result, warm_result in zip(cold, warm):
            np.testing.assert_array_equal(
                cold_result.neighbor_ids(), warm_result.neighbor_ids()
            )
        assert warm.mean_elapsed_s < cold.mean_elapsed_s

    def test_determinism_across_fresh_caches(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        run_a = ChunkSearcher(index, cost_model=self._model()).search_batch(
            queries, k=5
        )
        run_b = ChunkSearcher(index, cost_model=self._model()).search_batch(
            queries, k=5
        )
        replay = ReplayOracle(index, k=5, cost_model=self._model())
        assert_batches_identical(run_a, run_b, replay, queries)

    def test_cache_composes_with_router_and_pruning(self, tiny_collection):
        index = make_index(tiny_collection, "srtree")
        router = CentroidRouter.from_index(index)
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        want = ChunkSearcher(
            index, cost_model=self._model(), prune=False
        ).search_batch(queries, k=5)
        got = BatchChunkSearcher(
            index, cost_model=self._model(), prune=True, router=router
        ).search_batch(queries, k=5)
        replay = ReplayOracle(index, k=5, cost_model=self._model())
        assert_batches_identical(got, want, replay, queries)


_PAGE = PAPER_2005_COST_MODEL.disk.page_bytes

def _small_cache_model():
    """Three one-page chunks' worth of cache under a ~9-chunk index."""
    return dataclasses.replace(
        PAPER_2005_COST_MODEL, chunk_cache=LruChunkCache(capacity_bytes=3 * _PAGE)
    )


def _cache_state(model):
    """Every counter the cache keeps plus how much is resident."""
    cache = model.chunk_cache
    return (cache.hits, cache.misses, cache.evictions, len(cache))


class TestCachedCostModelsReplay:
    """The engine charges a cache-carrying cost model through its own
    inlined recurrence; ``reference_pipeline.PipelineSimulator``, driven by
    the replay oracle over a *fresh equal* cache, is the independent
    reference.  The caches are small, so evictions happen, and the fault
    plan yields retries (an ok read that touches the cache after its failed
    attempts) as well as skips (which must touch nothing)."""

    @pytest.mark.parametrize("cohort", ["one", "several"])
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_timestamps_and_cache_counters_match_the_reference(
        self, tiny_collection, faulted, cohort
    ):
        index = make_index(tiny_collection, "srtree")
        queries = make_queries(10, tiny_collection.dimensions, seed=29)
        model, reference = _small_cache_model(), _small_cache_model()
        faults = injector(0.35) if faulted else None
        searcher = ChunkSearcher(index, cost_model=model)
        if cohort == "one":
            results = [
                searcher.search_batch([q], k=5, faults=faults, query_indices=[i])[0]
                for i, q in enumerate(queries)
            ]
        else:
            results = searcher.search_batch(queries, k=5, faults=faults).results

        # check() asserts every event's timestamp equal to the bit.
        replay = ReplayOracle(index, k=5, cost_model=reference, faults=faults)
        for i, (query, result) in enumerate(zip(queries, results)):
            replay.check(query, result, query_index=i)
        assert _cache_state(model) == _cache_state(reference)

        events = [e for result in results for e in result.trace.events]
        cache = model.chunk_cache
        assert cache.hits > 0 and cache.misses > len(cache)  # it evicted
        if faulted:
            assert any(e.skipped for e in events)
            assert any(e.retries and not e.skipped for e in events)
