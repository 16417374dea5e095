"""Exact simulated-time charges of degraded execution.

Every fault kind has a precise price in simulated seconds — failed read
attempts at the chunk's uncached random-read cost, exponential backoff
between attempts, spike latency on slow successes — and these tests pin
that price *exactly* (float equality, accumulating in the same order as
the implementation), per fault kind and retry count, both at the plan
level and end-to-end through the pipeline simulator.
"""

import numpy as np
import pytest

from repro.chunking.round_robin import RoundRobinChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.search import ChunkSearcher
from repro.faults import plan as plan_module
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_CORRUPT,
    FAULT_READ_ERROR,
    FAULT_SPIKE,
    FAULT_TRUNCATE,
    FaultPlan,
)
from repro.simio.calibration import PAPER_2005_COST_MODEL
from repro.simio.pipeline import CostModel
from reference_draws import chunk_outcome, uniforms

IO_S = 0.010  # attempt cost used by the plan-level tests


def skip_charge(plan, attempt_io_s):
    """The exact price of an exhausted-retry skip, accumulated in the
    implementation's order: each failed attempt pays the read, then the
    backoff when a retry follows."""
    budget = plan_module.MAX_RETRIES + 1
    extra = 0.0
    for attempt in range(budget):
        extra += attempt_io_s
        if attempt < budget - 1:
            extra += plan.backoff_delay_s(attempt)
    return extra


class TestBackoffLadder:
    def test_backoff_is_exactly_geometric(self):
        assert (plan_module.BACKOFF_S, plan_module.BACKOFF_MULTIPLIER) == (0.01, 2.0)
        plan = FaultPlan(seed=1)
        assert plan.backoff_delay_s(0) == 0.01
        assert plan.backoff_delay_s(1) == 0.02
        assert plan.backoff_delay_s(2) == 0.04
        assert plan.backoff_delay_s(5) == 0.01 * 2.0**5
        with pytest.raises(ValueError):
            plan.backoff_delay_s(-1)


class TestSkipCharges:
    @pytest.mark.parametrize(
        "kind, rates",
        [
            (FAULT_READ_ERROR, dict(read_error_rate=1.0)),
            (FAULT_CORRUPT, dict(corrupt_rate=1.0)),
            (FAULT_TRUNCATE, dict(truncate_rate=1.0)),
        ],
    )
    @pytest.mark.parametrize("max_retries", [0, 1, 2, 4])
    def test_exhausted_retries_charge_every_attempt(
        self, kind, rates, max_retries, monkeypatch
    ):
        monkeypatch.setattr(plan_module, "MAX_RETRIES", max_retries)
        plan = FaultPlan(seed=3, **rates)
        outcome = chunk_outcome(plan, 0, 0, IO_S)
        assert not outcome.ok
        assert outcome.kind == kind
        assert outcome.attempts == max_retries + 1
        assert outcome.retries == max_retries
        assert not outcome.spiked
        assert outcome.extra_io_s == skip_charge(plan, IO_S)

    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_unreadable_chunk_charges_the_full_ladder(self, max_retries, monkeypatch):
        # A real storage failure (readable=False) is persistent damage:
        # budget * io, then the backoffs, in the implementation's order.
        monkeypatch.setattr(plan_module, "MAX_RETRIES", max_retries)
        plan = FaultPlan(seed=3)
        outcome = plan.unreadable_outcome(IO_S)
        budget = max_retries + 1
        expected = budget * IO_S
        for retry in range(budget - 1):
            expected += plan.backoff_delay_s(retry)
        assert not outcome.ok
        assert outcome.kind == FAULT_CORRUPT
        assert outcome.attempts == budget
        assert outcome.extra_io_s == expected


class TestSuccessCharges:
    def test_spike_charges_exactly_spike_seconds(self, monkeypatch):
        monkeypatch.setattr(plan_module, "SPIKE_S", 0.123)
        plan = FaultPlan(seed=3, spike_rate=1.0)
        outcome = chunk_outcome(plan, 0, 0, IO_S)
        assert outcome.ok and outcome.spiked
        assert outcome.kind == FAULT_SPIKE
        assert outcome.attempts == 1 and outcome.retries == 0
        assert outcome.extra_io_s == 0.123

    def find_key_with_failure_prefix(self, plan, rate, n_failures):
        """First (query=0, chunk) whose draws fail exactly ``n_failures``
        times and then succeed cleanly — deterministic, so the test is."""
        budget = plan_module.MAX_RETRIES + 1
        assert n_failures < budget
        for chunk in range(10_000):
            us = uniforms(plan, 0, 0, chunk, budget)  # stream 0 = chunk stream
            prefix_fails = all(us[i] < rate for i in range(n_failures))
            then_clean = us[n_failures] >= rate
            if prefix_fails and then_clean:
                return chunk
        raise AssertionError("no suitable key found")

    @pytest.mark.parametrize("n_failures", [1, 2])
    def test_transient_success_pays_failed_attempts_plus_backoff(
        self, n_failures, monkeypatch
    ):
        rate = 0.4
        monkeypatch.setattr(plan_module, "MAX_RETRIES", 3)
        plan = FaultPlan(seed=11, read_error_rate=rate)
        chunk = self.find_key_with_failure_prefix(plan, rate, n_failures)
        outcome = chunk_outcome(plan, 0, chunk, IO_S)
        expected = 0.0
        for attempt in range(n_failures):
            expected += IO_S
            expected += plan.backoff_delay_s(attempt)
        assert outcome.ok
        assert outcome.kind == FAULT_READ_ERROR
        assert outcome.attempts == n_failures + 1
        assert outcome.retries == n_failures
        assert outcome.extra_io_s == expected


class TestEndToEndTiming:
    """The charges must land on the simulated clock unchanged: with a
    sequential (non-overlapped) pipeline, a fully-degraded search's
    elapsed time is exactly the query-start cost plus every skip charge,
    accumulated chunk by chunk."""

    @pytest.fixture()
    def index(self, tiny_collection):
        result = RoundRobinChunker(n_chunks=5).form_chunks(tiny_collection)
        return build_chunk_index(result.retained, result.chunk_set)

    def test_all_skip_run_charges_exact_ladder_per_chunk(self, index):
        model = CostModel(
            disk=PAPER_2005_COST_MODEL.disk,
            cpu=PAPER_2005_COST_MODEL.cpu,
            overlap_io_cpu=False,
        )
        plan = FaultPlan(seed=5, read_error_rate=1.0)
        injector = FaultInjector.from_cost_model(plan, model)
        searcher = ChunkSearcher(index, cost_model=model)
        result = searcher.search_batch(
            [np.zeros(index.dimensions)], k=3, faults=injector, query_indices=[0]
        )[0]
        assert result.chunks_skipped == index.n_chunks
        expected = result.trace.start_elapsed_s
        for event in result.trace.events:
            attempt_io = injector.attempt_io_s(
                int(searcher._pages[event.chunk_id])
            )
            assert event.skipped and event.fault == FAULT_READ_ERROR
            assert event.retries == plan_module.MAX_RETRIES
            expected += skip_charge(plan, attempt_io)
            assert event.elapsed_s == expected
        assert result.elapsed_s == expected
