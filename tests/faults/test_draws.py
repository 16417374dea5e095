"""The keyed draws every fault plan makes are numpy's ``SeedSequence``,
bit for bit.

``repro.faults.draws.keyed_uniforms`` re-implements ``SeedSequence``'s
entropy mix and ``generate_state`` for a whole (query range x chunk range)
grid of keys at once; the references here are numpy itself, one
``SeedSequence`` per key, and the per-query draw it replaced
(``reference_draws.keyed_uniforms``).  The lattice covers one- to
three-word seeds, both streams, query ids at the 32-bit edges, grids
whose query or chunk range crosses the one-to-two-word boundary (or a
window edge of the injector), 0 to 4 draws, and the shard plan's six-word
keys (more words than the four-word pool, so the mix's extra-entropy loop
runs).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import plan as plan_module
from repro.faults import shard_plan as shard_plan_module
from repro.faults.draws import key_uniforms, keyed_uniforms, listed_uniforms
from repro.faults.injector import _WINDOW_ROWS
from repro.faults.plan import FaultPlan
from repro.faults.shard_plan import ShardFaultPlan
from repro.service.sharding import (
    ShardServiceConfig,
    ShardedQueryService,
    estimate_chunk_costs,
    plan_placement,
)
import reference_draws

#: 1 under tier-1's profile, 25 under ``--hypothesis-profile=explore``
#: (``tests/conftest.py``).
EXAMPLES = settings().max_examples // settings.get_profile("tier1").max_examples

SEEDS = (0, 1, 2005, 2**32 - 1, 2**32, 2**64 + 1)
STREAMS = (0, 1)
QUERIES = (0, 2**31, 2**32 - 1)


def reference(key, n):
    """What the plans drew before: one ``SeedSequence`` per key."""
    words = np.random.SeedSequence(entropy=key).generate_state(n, dtype=np.uint64)
    return np.asarray(words, dtype=np.float64) * 2.0**-64


def assert_bit_equal(got, want):
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def assert_grid(prefix, rows, columns, n):
    """The grid against numpy, one ``SeedSequence`` per key."""
    got = keyed_uniforms(prefix, rows, columns, n)
    assert got.shape == (len(rows), len(columns), n)
    for i, row in enumerate(rows):
        for j, column in enumerate(columns):
            assert_bit_equal(got[i, j], reference(tuple(prefix) + (row, column), n))
    return got


#: A window of the injector over 500 chunks, and query ranges across it.
WINDOW = _WINDOW_ROWS // 500


class TestSeedSequenceEquality:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("query", QUERIES)
    def test_chunk_ranges(self, seed, stream, query):
        # One query's chunk ranges drawn apart, as one, and as the per-query
        # draw did: every row is its key's, whatever grid it came in.
        for n in (1, 2, 3, 4):
            queries = range(query, query + 1)
            first = keyed_uniforms((seed, stream), queries, range(0, 5), n)
            grown = keyed_uniforms((seed, stream), queries, range(5, 12), n)
            whole = assert_grid((seed, stream), queries, range(0, 12), n)
            assert_bit_equal(np.concatenate([first, grown], axis=1), whole)
            before = reference_draws.keyed_uniforms((seed, stream, query), 0, 12, n)
            assert_bit_equal(whole[0], before)

    @pytest.mark.parametrize("start", [2**32 - 3, 2**64 - 5])
    def test_ranges_across_a_word_boundary(self, start):
        # The last integer gains a word mid-range, or fills two words; so
        # does the query integer, on the other axis.
        for rows, columns in [
            (range(7, 8), range(start, start + 5)),
            (range(start, start + 5), range(3)),
            (range(start, start + 5), range(start + 2, start + 4)),
        ]:
            assert_grid((2005, 0), rows, columns, 3)

    def test_query_ranges_across_window_edges(self):
        # The injector's windows are aligned to their size: the last query
        # of one window and the first of the next, up to query 2**32 - 1.
        for low in (WINDOW - 2, 2 * WINDOW - 1, 2**32 - WINDOW - 1, 2**32 - 2):
            got = assert_grid((2**32, 0), range(low, low + 3), range(40), 3)
            for i in range(3):
                before = reference_draws.keyed_uniforms((2**32, 0, low + i), 0, 40, 3)
                assert_bit_equal(got[i], before)

    def test_one_key_past_two_words(self):
        key = (2005, 0, 7)
        for last in (2**64, 2**96 + 5):
            got = keyed_uniforms(key[:2], range(7, 8), range(last, last + 1), 2)
            assert_bit_equal(got[0, 0], reference(key + (last,), 2))
            got = keyed_uniforms(key[:2], range(last, last + 1), range(7, 8), 2)
            assert_bit_equal(got[0, 0], reference(key[:2] + (last, 7), 2))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_six_word_shard_keys(self, seed):
        for query, partition, shard, attempt in [
            (0, 0, 0, 0), (3, 1, 2, 1), (2**32 - 1, 7, 5, 3), (2**31, 2, 0, 2**32),
        ]:
            key = (seed, 0, query, partition)
            got = keyed_uniforms(key, range(shard, shard + 1), range(attempt, attempt + 1), 1)
            assert_bit_equal(got[0, 0], reference(key + (shard, attempt), 1))

    def test_zero_draws_are_numpys_empty_state(self):
        # numpy's generate_state(0) is an empty array, not an error.
        assert reference((1, 2, 3), 0).shape == (0,)
        for rows, columns in [(range(3, 4), range(0, 5)), (range(0, 4), range(2, 3))]:
            got = keyed_uniforms((1,), rows, columns, 0)
            assert got.shape == (len(rows), len(columns), 0) and got.dtype == np.float64

    @given(
        prefix=st.lists(st.integers(0, 2**70), max_size=7),
        row=st.integers(0, 2**40) | st.integers(2**32 - 4, 2**32),
        n_rows=st.integers(0, 4),
        column=st.integers(0, 2**40) | st.integers(2**32 - 4, 2**32),
        n_columns=st.integers(0, 5),
        n=st.integers(0, 4),
    )
    @settings(max_examples=60 * EXAMPLES, deadline=None)
    def test_any_key(self, prefix, row, n_rows, column, n_columns, n):
        assert_grid(
            tuple(prefix), range(row, row + n_rows), range(column, column + n_columns), n
        )


@pytest.fixture(scope="module")
def shard_service(experiment_data):
    """A sharded service over the test-scale SR index (2 replicas, one
    worker a shard, hedging) and the queries it runs; tests set its
    ``faults``."""
    index = experiment_data.built("SR", "SMALL").index
    cost_model = experiment_data.scale.cost_model
    plan = plan_placement(
        estimate_chunk_costs(index, cost_model), n_shards=4, n_replicas=2,
        strategy="greedy", seed=2005,
    )
    config = ShardServiceConfig(
        workers_per_shard=1, deadline_s=0.5, arrival_rate_qps=20.0, seed=2005,
        k=10, hedge_delay_s=0.05,
    )
    service = ShardedQueryService(index, plan, config, cost_model=cost_model)
    yield service, experiment_data.workloads["DQ"].queries
    service.close()


class TestPlanDraws:
    def test_plans_draw_what_seed_sequence_draws(self):
        plan = FaultPlan.balanced(0.3, seed=2**32)
        table = plan.chunk_draws(range(8, 10), range(6))
        for query in (8, 9):
            for chunk in range(6):
                want = reference((2**32, 0, query, chunk), plan_module.MAX_RETRIES + 1)
                got = reference_draws.uniforms(
                    plan, 0, query, chunk, plan_module.MAX_RETRIES + 1
                )
                assert_bit_equal(got, want)
                assert_bit_equal(table[query - 8, chunk], want)

    @given(
        seed=st.sampled_from(SEEDS) | st.integers(0, 2**70),
        keys=st.lists(
            st.tuples(*[st.integers(0, 9) | st.integers(0, 2**40)] * 4),
            min_size=1, max_size=12,
        ),
        rates=st.sampled_from([(0.3, 0.3), (0.1, 0.0), (0.0, 0.5), (0.0, 0.0)]),
    )
    @example(seed=11, keys=[(0, 0, 0, 0), (4, 3, 1, 2)], rates=(0.3, 0.3))
    @example(seed=2**32, keys=[(2**32, 1, 0, 2**32 - 1), (3, 2**33, 1, 0)], rates=(0.3, 0.3))
    @settings(max_examples=30 * EXAMPLES, deadline=None)
    def test_shard_plan_draws_what_seed_sequence_draws(self, seed, keys, rates):
        # A list of sub-request keys, hashed in one call (keys of one and
        # of two words mixed), against one SeedSequence per key and the
        # per-key decision the plan made before.
        error, straggler = rates
        plan = ShardFaultPlan(
            seed=seed, error_rate=error, straggler_rate=straggler, outage_rate=0.5,
            outage_duration_s=1.0, horizon_s=10.0,
        )
        table = listed_uniforms((seed, 0), np.array(keys, dtype=np.int64), 1)
        assert table.shape == (len(keys), 1)
        faults = plan.sub_requests(keys)
        for key, row, fault in zip(keys, table, faults):
            want = reference((seed, 0) + key, 1)
            assert_bit_equal(row, want)
            assert_bit_equal(key_uniforms((seed, 0) + key, 1), want)
            assert fault == reference_draws.sub_request(plan, *key)
            (u,) = want.tolist()
            if error or straggler:
                assert fault.failed == (u < error)
                assert fault.straggler == (error <= u < error + straggler)
        for shard in range(6):
            hit, where = reference((seed, 1, shard), 2).tolist()
            window = plan.outage_window(shard)
            if hit >= 0.5:
                assert window is None
            else:
                assert window == (where * 9.0, where * 9.0 + 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_sharded_run_draws_what_the_per_key_plan_drew(self, shard_service, seed):
        # A faulted, hedged run draws every attempt it may dispatch in one
        # call; with the per-key draw it replaced the run is the same, every
        # record and count.
        service, queries = shard_service
        service.faults = ShardFaultPlan(
            seed=seed, error_rate=0.2, straggler_rate=0.2, outage_rate=0.5,
            outage_duration_s=0.5, horizon_s=5.0,
        )
        calls = []
        shipped = ShardFaultPlan.sub_requests

        def counted(plan, keys):
            calls.append(len(keys))
            return shipped(plan, keys)

        def per_key(plan, keys):
            return [reference_draws.sub_request(plan, *key) for key in keys.tolist()]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ShardFaultPlan, "sub_requests", counted)
            got = service.run(queries)
            patch.setattr(ShardFaultPlan, "sub_requests", per_key)
            want = service.run(queries)
        assert len(calls) == 1
        assert sum(got.shard_failed) > 0 and got.n_hedges > 0
        # repr, not ==: a NaN field never equals itself.
        assert repr(got) == repr(want)

    def test_outage_windows_are_drawn_once(self, monkeypatch):
        plan = ShardFaultPlan.balanced(0.5, seed=3, horizon_s=10.0)
        calls = []
        draw = shard_plan_module.key_uniforms
        monkeypatch.setattr(
            shard_plan_module, "key_uniforms",
            lambda *args: calls.append(args) or draw(*args),
        )
        first = [plan.outage_window(shard) for shard in range(4)]
        for now in (0.0, 2.5, 5.0, 9.9):
            for shard in range(4):
                plan.shard_down(shard, now)
        assert [plan.outage_window(shard) for shard in range(4)] == first
        assert len(calls) == 4

    def test_negative_keys_raise_value_error(self):
        plan = FaultPlan.balanced(0.3, seed=1)
        with pytest.raises(ValueError):
            key_uniforms((1, 0, 0, -3), 2)
        with pytest.raises(ValueError):
            keyed_uniforms((1, -2), range(0, 1), range(0, 3), 1)
        with pytest.raises(ValueError):
            keyed_uniforms((1, 2), range(0, 1), range(-1, 3), 1)
        with pytest.raises(ValueError):
            keyed_uniforms((1, 2), range(-1, 1), range(0, 3), 1)
        with pytest.raises(ValueError):
            plan.chunk_draws(range(-1, 2), range(3))

    def test_draw_width_follows_max_retries(self, monkeypatch):
        monkeypatch.setattr(plan_module, "MAX_RETRIES", 3)
        plan = FaultPlan(seed=11, read_error_rate=0.4)
        table = plan.chunk_draws(range(0, 2), range(8))
        assert table.shape == (2, 8, 4)
        assert_bit_equal(table[1, 5], reference((11, 0, 1, 5), 4))
