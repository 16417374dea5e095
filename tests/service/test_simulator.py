"""End-to-end tests for the simulated resilient query service.

One harness, three open-loop arrival rates (0.5x, 2x, 8x the pool's
calibrated capacity): the service must keep p99 under the target at
every load, paying with a monotonically rising shed+degraded fraction —
the ISSUE's acceptance criterion, asserted on a small sweep.  The
deadline doubles as the p99 target, so the envelope being checked is
the one the deadline-propagation machinery genuinely enforces.
"""

import json
import math

import numpy as np
import pytest

from repro.core.metrics import OUTCOME_SHED, REQUEST_OUTCOMES
from repro.core.search import ChunkSearcher
from repro.experiments.config import K
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.service import QueryService, ServiceConfig
from repro.service.breaker import BreakerGuardedInjector
from repro.service.request import request_quality

N_REQUESTS = 96
N_WORKERS = 4
SEED = 2005
LOADS = (0.5, 2.0, 8.0)


class ServiceHarness:
    """A searcher pool calibrated against its own index, plus a cache of
    same-seed runs so each load is simulated once per module."""

    def __init__(self, data):
        built = data.built("SR", "SMALL")
        self.k = K
        self.searcher = ChunkSearcher(
            built.index, cost_model=data.scale.cost_model
        )
        workload = data.workloads["DQ"].queries
        reps = -(-N_REQUESTS // workload.shape[0])
        self.queries = np.tile(workload, (reps, 1))[:N_REQUESTS]
        self.mean_service_s = self.searcher.search_batch(
            workload, k=self.k
        ).mean_elapsed_s
        self._runs = {}

    def config(self, load, **overrides):
        capacity_qps = N_WORKERS / self.mean_service_s
        deadline_s = 4.0 * self.mean_service_s
        settings = dict(
            n_workers=N_WORKERS,
            deadline_s=deadline_s,
            target_p99_s=deadline_s,
            arrival_rate_qps=load * capacity_qps,
            seed=SEED,
            k=self.k,
            initial_service_estimate_s=self.mean_service_s,
            shed_slack=0.75,
        )
        settings.update(overrides)
        return ServiceConfig(**settings)

    def service(self, load, faults=None, truth=None):
        return QueryService(
            self.searcher,
            self.config(load),
            faults=faults,
            true_neighbor_ids=truth,
        )

    def run(self, load):
        if load not in self._runs:
            self._runs[load] = self.service(load).run(self.queries)
        return self._runs[load]

    def faulted_run(self, fault_rate=0.3, load=2.0):
        plan = FaultPlan.balanced(fault_rate, seed=SEED)
        faults = FaultInjector.from_cost_model(
            plan, self.searcher.cost_model
        )
        return self.service(load, faults=faults).run(self.queries)


@pytest.fixture(scope="module")
def harness(experiment_data):
    return ServiceHarness(experiment_data)


class TestDeterminism:
    def test_same_seed_reports_are_byte_identical(self, harness):
        first = harness.service(2.0).run(harness.queries)
        second = harness.service(2.0).run(harness.queries)
        assert json.dumps(first.to_report(), sort_keys=True) == json.dumps(
            second.to_report(), sort_keys=True
        )

    def test_faulted_runs_are_deterministic_too(self, harness):
        first = harness.faulted_run()
        second = harness.faulted_run()
        assert json.dumps(first.to_report(), sort_keys=True) == json.dumps(
            second.to_report(), sort_keys=True
        )


class TestEnvelope:
    def test_p99_held_under_target_at_high_load(self, harness):
        result = harness.run(8.0)
        assert result.stats.p99_s <= harness.config(8.0).target_p99_s

    def test_shed_fraction_rises_monotonically_with_load(self, harness):
        fractions = [harness.run(load).stats.shed_fraction for load in LOADS]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0
        assert fractions[-1] > 0.5  # heavy overload really does shed

    def test_shed_plus_degraded_rises_monotonically(self, harness):
        combined = [
            harness.run(load).stats.shed_fraction
            + harness.run(load).stats.degraded_fraction
            for load in LOADS
        ]
        assert combined == sorted(combined)
        assert combined[-1] > combined[0]

    def test_underloaded_pool_serves_everything_perfectly(self, harness):
        stats = harness.run(0.5).stats
        assert stats.ok_fraction == 1.0
        assert stats.shed_fraction == 0.0
        assert stats.mean_recall == 1.0  # full scans: coverage proxy is 1


class TestAccounting:
    def test_every_request_recorded_exactly_once(self, harness):
        for load in LOADS:
            records = harness.run(load).records
            assert [r.index for r in records] == list(range(N_REQUESTS))
            assert {r.outcome for r in records} <= set(REQUEST_OUTCOMES)

    def test_shed_records_carry_nan_timings(self, harness):
        records = harness.run(8.0).records
        shed = [r for r in records if r.outcome == OUTCOME_SHED]
        served = [r for r in records if r.outcome != OUTCOME_SHED]
        assert shed and served  # overload produces both
        for record in shed:
            assert math.isnan(record.start_s)
            assert math.isnan(record.latency_s)
            assert math.isnan(record.recall)
            assert record.chunks_read == 0
            assert record.stop_reason in ("queue-full", "predicted-late")
        for record in served:
            assert record.start_s >= record.arrival_s
            assert record.latency_s == record.finish_s - record.arrival_s
            assert math.isfinite(record.latency_s)

    def test_utilization_and_makespan(self, harness):
        result = harness.run(2.0)
        assert 0.0 < result.utilization <= 1.0
        last_finish = max(
            r.finish_s for r in result.records if r.outcome != OUTCOME_SHED
        )
        assert result.makespan_s >= last_finish > 0.0


class TestFaultsAndBreakers:
    def test_clean_traffic_never_trips_breakers(self, harness):
        for load in LOADS:
            result = harness.run(load)
            assert result.breaker_opens == 0
            assert result.breaker_skipped_chunks == 0

    def test_faulty_regions_trip_breakers_and_cost_recall(self, harness):
        result = harness.faulted_run()
        assert result.breaker_opens > 0
        assert result.breaker_skipped_chunks > 0
        assert result.breaker_skipped_chunks == sum(
            record.breaker_skips for record in result.records
        )
        assert result.stats.degraded_fraction > 0.0
        assert result.stats.mean_recall < 1.0

    def test_the_breaker_facade_only_where_a_region_is_blocked(
        self, harness, monkeypatch
    ):
        """A request starting with every region closed searches through the
        injector itself; one starting with a region blocked, through a
        facade blocking exactly those regions."""
        plan = FaultPlan.balanced(0.3, seed=SEED)
        injector = FaultInjector.from_cost_model(plan, harness.searcher.cost_model)
        handed = []
        search_batch = harness.searcher.search_batch

        def spy(*args, **kwargs):
            handed.append(kwargs["faults"])
            return search_batch(*args, **kwargs)

        monkeypatch.setattr(harness.searcher, "search_batch", spy)
        harness.service(2.0, faults=injector).run(harness.queries)
        bare = [f for f in handed if f is injector]
        guarded = [f for f in handed if isinstance(f, BreakerGuardedInjector)]
        assert bare and guarded and len(bare) + len(guarded) == len(handed)
        assert all(f._blocked and f._inner is injector for f in guarded)


class TestGroundTruth:
    def test_supplied_truth_drives_the_recall_metric(self, harness):
        truth = [[-1] for _ in range(N_REQUESTS)]  # nothing found is "true"
        result = harness.service(0.5, truth=truth).run(harness.queries)
        assert result.stats.mean_recall == 0.0

    def test_truth_length_must_match_queries(self, harness):
        with pytest.raises(ValueError, match="ground-truth"):
            harness.service(0.5, truth=[[0]]).run(harness.queries)


class TestRecallProxyGuards:
    def test_zero_descriptor_index_recall_is_nan(self):
        """The coverage proxy must not divide by a zero-descriptor total.

        An index can legitimately hold zero descriptors (every image
        filtered as an outlier); an incomplete search over it has no
        meaningful scanned fraction, so the proxy reports NaN — the same
        "no quality signal" marker shed requests carry — instead of
        raising ZeroDivisionError.
        """
        assert math.isnan(request_quality([], None, False, 0, 0))
        # Provable exactness needs no scanning, even over zero descriptors.
        assert request_quality([], None, True, 0, 0) == 1.0
