"""End-to-end tests for the sharded scatter-gather coordinator.

The load-bearing claim is *exact equivalence*: with zero faults and
hedging disabled, the sharded service's merged top-k must be
bit-identical — ids, distances, stop reasons — to the single-node
:class:`~repro.core.search.ChunkSearcher`, for every placement
strategy and chunk family.  Everything else (failover, hedging,
deadlines, breakers, quorum) must degrade *honestly*: coverage
fractions that add up, stop reasons that name the cause, and no run
that ever hangs or silently drops a query.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.metrics import (
    OUTCOME_DEADLINE,
    OUTCOME_DEGRADED,
    OUTCOME_OK,
    OUTCOME_SHED,
)
from repro.core.search import ChunkSearcher, SearchResult
from repro.experiments.config import K
from repro.faults import ShardFaultPlan
from repro.service import breaker
from repro.service.sharding import (
    PLACEMENT_STRATEGIES,
    ShardServiceConfig,
    ShardedQueryService,
    coordinator,
    estimate_chunk_costs,
    plan_placement,
)

SEED = 2005


@pytest.fixture(autouse=True, scope="module")
def roomy_admission():
    """No query of these runs is shed by the in-flight bound unless a test
    lowers it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordinator, "MAX_IN_FLIGHT", 1024)
        yield


class ShardHarness:
    """One built index plus its single-node exact reference results."""

    def __init__(self, data, family="SR"):
        built = data.built(family, "SMALL")
        self.index = built.index
        self.cost_model = data.scale.cost_model
        self.k = K
        self.queries = data.workloads["DQ"].queries
        self.costs = estimate_chunk_costs(self.index, self.cost_model)
        searcher = ChunkSearcher(self.index, cost_model=self.cost_model)
        self.reference = [
            searcher.search(query, k=self.k)
            for i, query in enumerate(self.queries)
        ]

    def plan(self, n_shards, n_replicas=1, strategy="greedy"):
        return plan_placement(
            self.costs,
            n_shards=n_shards,
            n_replicas=n_replicas,
            strategy=strategy,
            seed=SEED,
        )

    def config(self, **overrides):
        settings = dict(
            workers_per_shard=2,
            deadline_s=1e6,
            arrival_rate_qps=1.0,
            seed=SEED,
            k=self.k,
        )
        settings.update(overrides)
        return ShardServiceConfig(**settings)

    def run(self, plan, config=None, faults=None, queries=None, truth=None):
        service = ShardedQueryService(
            self.index,
            plan,
            config or self.config(),
            cost_model=self.cost_model,
            faults=faults,
            true_neighbor_ids=truth,
        )
        try:
            return service.run(
                self.queries if queries is None else queries
            )
        finally:
            service.close()


@pytest.fixture(scope="module")
def harness(experiment_data):
    return ShardHarness(experiment_data, family="SR")


@pytest.fixture(scope="module")
def bag_harness(experiment_data):
    return ShardHarness(experiment_data, family="BAG")


def assert_bit_identical(records, reference):
    for record, ref in zip(records, reference):
        assert record.outcome == OUTCOME_OK
        assert record.stop_reason == ref.stop_reason
        assert list(record.neighbors) == list(ref.neighbors)
        assert record.coverage_fraction == 1.0
        assert record.n_lost_partitions == 0


class TestExactEquivalence:
    @pytest.mark.parametrize("strategy", PLACEMENT_STRATEGIES)
    def test_every_placement_matches_single_node(self, harness, strategy):
        plan = harness.plan(n_shards=4, n_replicas=2, strategy=strategy)
        result = harness.run(plan)
        assert_bit_identical(result.records, harness.reference)

    def test_bag_family_matches_single_node(self, bag_harness):
        plan = bag_harness.plan(n_shards=3, n_replicas=1, strategy="greedy")
        result = bag_harness.run(plan)
        assert_bit_identical(result.records, bag_harness.reference)

    def test_single_shard_degenerates_to_single_node(self, harness):
        plan = harness.plan(n_shards=1)
        result = harness.run(plan)
        assert plan.n_partitions == 1
        assert_bit_identical(result.records, harness.reference)

    def test_failover_preserves_exactness(self, harness):
        """Injected read errors with R=2: every query whose partitions all
        found a surviving replica is still bit-identical."""
        plan = harness.plan(n_shards=4, n_replicas=2)
        faults = ShardFaultPlan(seed=SEED, error_rate=0.35)
        result = harness.run(plan, faults=faults)
        assert result.n_failovers > 0
        clean = [r for r in result.records if r.n_lost_partitions == 0]
        assert clean, "expected some fully answered queries"
        for record in clean:
            ref = harness.reference[record.index]
            assert list(record.neighbors) == list(ref.neighbors)
            assert record.stop_reason == ref.stop_reason
        for record in result.records:
            if record.n_lost_partitions > 0:
                assert record.outcome == OUTCOME_DEGRADED
                assert record.coverage_fraction < 1.0
                assert record.stop_reason.startswith(
                    ("shard-lost", "below-quorum")
                )

    def test_hedging_preserves_exactness(self, harness, monkeypatch):
        monkeypatch.setattr(coordinator, "STRAGGLER_FACTOR", 20.0)
        plan = harness.plan(n_shards=4, n_replicas=2)
        faults = ShardFaultPlan(seed=3, straggler_rate=0.3)
        config = harness.config(arrival_rate_qps=0.5, hedge_delay_s=0.3)
        result = harness.run(plan, config=config, faults=faults)
        assert result.n_hedges > 0
        assert_bit_identical(result.records, harness.reference)


class TestDegradation:
    def test_coverage_falls_monotonically_with_error_rate(self, harness):
        plan = harness.plan(n_shards=4, n_replicas=1)
        coverages = []
        for rate in (0.0, 0.4, 0.8):
            faults = (
                ShardFaultPlan(seed=SEED, error_rate=rate) if rate else None
            )
            result = harness.run(plan, faults=faults)
            coverages.append(result.mean_coverage)
        assert coverages[0] == 1.0
        assert coverages[0] > coverages[1] > coverages[2]

    def test_all_partitions_lost_degrades_cleanly(self, harness):
        """Certain failure everywhere, no replicas: the run must still
        terminate, answer every query, and say exactly what happened."""
        plan = harness.plan(n_shards=2, n_replicas=1)
        faults = ShardFaultPlan(seed=1, error_rate=1.0)
        result = harness.run(plan, faults=faults)
        assert len(result.records) == len(harness.queries)
        for record in result.records:
            assert record.outcome == OUTCOME_DEGRADED
            assert record.stop_reason.startswith("below-quorum")
            assert record.coverage_fraction == 0.0
            assert record.neighbors == ()
            assert record.recall == 0.0

    def test_deadline_partials_are_honest(self, harness, monkeypatch):
        """A deadline shorter than the work: deadline outcomes with
        coverage in [0, 1), plus sheds once in-flight saturates."""
        monkeypatch.setattr(coordinator, "MAX_IN_FLIGHT", 4)
        plan = harness.plan(n_shards=2, n_replicas=1)
        config = harness.config(
            workers_per_shard=1,
            deadline_s=0.1,
            arrival_rate_qps=50.0,
        )
        result = harness.run(plan, config=config)
        outcomes = {record.outcome for record in result.records}
        assert OUTCOME_DEADLINE in outcomes
        assert OUTCOME_SHED in outcomes
        for record in result.records:
            if record.outcome == OUTCOME_DEADLINE:
                assert record.stop_reason == "deadline(0.1s)"
                assert 0.0 <= record.coverage_fraction < 1.0
                assert record.latency_s == pytest.approx(0.1)
            elif record.outcome == OUTCOME_SHED:
                assert math.isnan(record.latency_s)
                assert record.stop_reason == "in-flight-limit"

    def test_quorum_threshold_names_thin_answers(self, harness, monkeypatch):
        plan = harness.plan(n_shards=4, n_replicas=1)
        faults = ShardFaultPlan(seed=SEED, error_rate=0.6)
        monkeypatch.setattr(coordinator, "QUORUM_COVERAGE", 1.0)
        strict = harness.run(plan, faults=faults)
        monkeypatch.setattr(coordinator, "QUORUM_COVERAGE", 0.0)
        lenient = harness.run(plan, faults=faults)
        # Identical merged answers; only the labelling moves.
        for a, b in zip(strict.records, lenient.records):
            assert a.neighbors == b.neighbors
        assert any(
            r.stop_reason.startswith("below-quorum") for r in strict.records
        )
        assert not any(
            r.stop_reason.startswith("below-quorum") for r in lenient.records
        )


class TestHedging:
    def test_hedges_cut_straggler_latency(self, harness, monkeypatch):
        monkeypatch.setattr(coordinator, "STRAGGLER_FACTOR", 20.0)
        plan = harness.plan(n_shards=4, n_replicas=2)
        faults = ShardFaultPlan(seed=3, straggler_rate=0.3)
        base = dict(arrival_rate_qps=0.5)
        queries = np.tile(harness.queries, (4, 1))
        off = harness.run(
            plan, config=harness.config(**base), faults=faults,
            queries=queries,
        )
        on = harness.run(
            plan,
            config=harness.config(hedge_delay_s=0.3, **base),
            faults=faults,
            queries=queries,
        )
        assert on.n_hedges > 0
        assert on.n_hedge_wins > 0
        assert on.reclaimed_s > 0.0
        assert on.stats.mean_latency_s < off.stats.mean_latency_s
        assert on.stats.p99_s <= off.stats.p99_s

    def test_hedging_disabled_spawns_no_hedges(self, harness):
        plan = harness.plan(n_shards=4, n_replicas=2)
        result = harness.run(plan)
        assert result.n_hedges == result.n_hedge_wins == 0

    def test_single_replica_cannot_hedge(self, harness):
        plan = harness.plan(n_shards=4, n_replicas=1)
        config = harness.config(hedge_delay_s=1e-6)
        result = harness.run(plan, config=config)
        assert result.n_hedges == 0
        assert_bit_identical(result.records, harness.reference)


class TestOneSearchPerSubTask:
    """A hedge or failover reuses its partition's first answer when
    ``SearchResult.holds_under_deadline`` says its budget cannot cut it.
    Differential: the same run with the predicate forced to ``False``
    (every attempt searches) must match byte for byte."""

    SCENARIOS = {
        # (ShardFaultPlan arguments, config overrides, STRAGGLER_FACTOR or
        # None for the shipped one)
        "hedge-storm": (
            dict(seed=3, straggler_rate=0.3),
            dict(arrival_rate_qps=0.5, hedge_delay_s=0.3),
            20.0,
        ),
        "failovers": (dict(seed=SEED, error_rate=0.35), {}, None),
        "tight-deadline": (
            dict(seed=SEED, error_rate=0.2),
            dict(
                workers_per_shard=1,
                deadline_s=0.3,
                arrival_rate_qps=5.0,
                hedge_delay_s=0.02,
            ),
            None,
        ),
    }

    @staticmethod
    def run(harness, scenario, reuse):
        """``(result, every search's result, every verdict the coordinator
        asked for)``; ``reuse=False`` forces the search-again branch."""
        fault_args, overrides, straggler_factor = scenario
        search = ChunkSearcher.search
        holds = SearchResult.holds_under_deadline
        searched, verdicts = [], []

        def counted_search(self, *args, **kwargs):
            searched.append(search(self, *args, **kwargs))
            return searched[-1]

        def spied_holds(self, budget_s):
            verdicts.append(reuse and holds(self, budget_s))
            return verdicts[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ChunkSearcher, "search", counted_search)
            patch.setattr(SearchResult, "holds_under_deadline", spied_holds)
            if straggler_factor is not None:
                patch.setattr(coordinator, "STRAGGLER_FACTOR", straggler_factor)
            result = harness.run(
                harness.plan(n_shards=4, n_replicas=2),
                config=harness.config(**overrides),
                faults=ShardFaultPlan(**fault_args),
            )
        return result, searched, verdicts

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_reuse_changes_no_byte(self, harness, name):
        scenario = self.SCENARIOS[name]
        shipped, searched, verdicts = self.run(harness, scenario, reuse=True)
        always, searched_always, _ = self.run(harness, scenario, reuse=False)
        # repr, not ==: a NaN field never equals itself.
        assert repr(shipped) == repr(always)
        if name == "hedge-storm":
            assert shipped.n_hedges > 0
            # Searching every attempt is one search per attempt with a result.
            assert len(searched) < len(searched_always)
        elif name == "failovers":
            assert shipped.n_failovers > 0
        else:
            assert any(
                r.stop_reason.startswith("deadline(") for r in searched
            )
            # Both branches ran: some kept answers held, some did not.
            assert {True, False} <= set(verdicts)


class TestBreakers:
    @pytest.fixture(scope="class")
    def outage_run(self, harness):
        """Every shard suffers one 1.5 s outage somewhere in an 8 s
        horizon; breakers must open during it and close after it."""
        plan = harness.plan(n_shards=2, n_replicas=2)
        faults = ShardFaultPlan(
            seed=11, outage_rate=1.0, outage_duration_s=1.5, horizon_s=8.0
        )
        config = harness.config(deadline_s=1.0, arrival_rate_qps=10.0)
        queries = np.tile(harness.queries, (4, 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(breaker, "BREAKER_COOLDOWN_S", 0.3)
            patch.setattr(breaker, "BREAKER_FAILURE_THRESHOLD", 3)
            return harness.run(plan, config=config, faults=faults, queries=queries)

    def test_outage_trips_and_recovers_breakers(self, outage_run):
        transitions = outage_run.breaker_transitions
        assert transitions["opened"] > 0
        assert transitions["half_opened"] > 0
        assert transitions["closed"] > 0
        # By the end of the run both shards are healthy again.
        assert outage_run.breaker_state_counts == {
            "closed": 2, "open": 0, "half-open": 0,
        }

    def test_open_breakers_cause_skips_and_failovers(self, outage_run):
        assert outage_run.n_breaker_skips > 0
        assert outage_run.n_failovers > 0
        assert sum(outage_run.shard_failed) > 0

    def test_transitions_surface_in_report(self, outage_run):
        """Every transition a ``shardsim`` cell reads is counted, JSON-ready."""
        transitions = outage_run.breaker_transitions
        assert sorted(transitions) == ["closed", "half_opened", "opened"]
        json.dumps(transitions)


class TestDeterminismAndAccounting:
    def test_same_seed_reports_are_byte_identical(self, harness):
        plan = harness.plan(n_shards=4, n_replicas=2)
        faults = ShardFaultPlan.balanced(0.2, seed=7, horizon_s=30.0)
        config = harness.config(
            deadline_s=0.5, arrival_rate_qps=40.0, hedge_delay_s=0.05
        )
        first = harness.run(plan, config=config, faults=faults)
        second = harness.run(plan, config=config, faults=faults)
        # Every field, records included; repr, as a NaN never equals itself.
        assert repr(first) == repr(second)

    def test_every_query_recorded_once_in_order(self, harness):
        plan = harness.plan(n_shards=3, n_replicas=1)
        result = harness.run(plan)
        assert [r.index for r in result.records] == list(
            range(len(harness.queries))
        )

    def test_utilization_and_makespan_are_sane(self, harness):
        plan = harness.plan(n_shards=3, n_replicas=2)
        result = harness.run(plan)
        assert result.makespan_s > 0.0
        assert 0.0 < result.mean_utilization <= 1.0

    def test_ground_truth_drives_recall(self, experiment_data, harness):
        truth = experiment_data.ground_truth("SMALL", "DQ")
        truth_lists = [truth.get(i) for i in range(len(harness.queries))]
        plan = harness.plan(n_shards=2, n_replicas=1)
        result = harness.run(plan, truth=truth_lists)
        assert result.stats.mean_recall == pytest.approx(1.0)

    def test_truth_length_mismatch_rejected(self, harness):
        plan = harness.plan(n_shards=2)
        with pytest.raises(ValueError, match="ground-truth"):
            harness.run(plan, truth=[None])


class TestValidation:
    def test_zero_worker_shards_rejected(self, harness):
        with pytest.raises(ValueError, match="worker"):
            harness.config(workers_per_shard=0)

    def test_plan_must_tile_the_index(self, harness):
        foreign = plan_placement(
            [1.0] * (harness.index.n_chunks - 1), n_shards=2
        )
        with pytest.raises(ValueError, match="tile"):
            harness.run(foreign)

    def test_shared_caches_rejected(self, harness):
        from repro.simio.chunk_cache import LruChunkCache

        cached = dataclasses.replace(
            harness.cost_model,
            chunk_cache=LruChunkCache(capacity_bytes=1 << 20, seed=0),
        )
        with pytest.raises(ValueError, match="cache"):
            ShardedQueryService(
                harness.index, harness.plan(2), harness.config(), cost_model=cached
            )

    def test_queries_must_be_a_matrix(self, harness):
        plan = harness.plan(n_shards=2)
        with pytest.raises(ValueError, match="matrix"):
            harness.run(plan, queries=np.zeros((0, harness.index.dimensions)))
