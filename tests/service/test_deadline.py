"""Tests for deadline propagation into per-request stop rules."""

import numpy as np
import pytest

from repro.chunking.round_robin import RoundRobinChunker
from repro.core.chunk_index import build_chunk_index
from repro.core.search import ChunkSearcher
from repro.core.stop_rules import DeadlineBudget, FirstOf, MaxChunks
from repro.service.deadline import (
    EXPIRED_BUDGET_S,
    deadline_rule,
    propagated_stop_rule,
)


class TestPropagatedStopRule:
    def test_bounded_budget_composes_deadline_and_chunks(self):
        rule = propagated_stop_rule(0.25, chunk_budget=3, n_chunks=10)
        assert isinstance(rule, FirstOf)
        kinds = {type(member) for member in rule.rules}
        assert kinds == {DeadlineBudget, MaxChunks}
        deadline = next(r for r in rule.rules if isinstance(r, DeadlineBudget))
        chunks = next(r for r in rule.rules if isinstance(r, MaxChunks))
        assert deadline.budget_s == 0.25
        assert chunks.n_chunks == 3

    @pytest.mark.parametrize("budget", [0, 10, 99])
    def test_vacuous_chunk_budget_leaves_bare_deadline(self, budget):
        rule = propagated_stop_rule(0.25, chunk_budget=budget, n_chunks=10)
        assert isinstance(rule, DeadlineBudget)
        assert rule.budget_s == 0.25

    @pytest.mark.parametrize("remaining", [0.0, -1.0, -1e-12])
    def test_expired_budget_becomes_epsilon(self, remaining):
        rule = propagated_stop_rule(remaining, chunk_budget=0, n_chunks=4)
        assert isinstance(rule, DeadlineBudget)
        assert rule.budget_s == EXPIRED_BUDGET_S

    @pytest.mark.parametrize("remaining", [0.25, 0.0, -1.0])
    def test_an_unbounded_chunk_budget_is_the_deadline_rule(self, remaining):
        """A sharded sub-request calls :func:`deadline_rule` directly."""
        rule = deadline_rule(remaining)
        assert type(rule) is DeadlineBudget
        assert rule.budget_s == propagated_stop_rule(remaining, 0, 4).budget_s

    def test_validation(self):
        with pytest.raises(ValueError, match="chunk"):
            propagated_stop_rule(1.0, chunk_budget=0, n_chunks=0)
        with pytest.raises(ValueError, match="budget"):
            propagated_stop_rule(1.0, chunk_budget=-1, n_chunks=4)


class TestEndToEnd:
    """An expired deadline must still yield a valid (minimal) answer —
    through both search engines, with identical observables."""

    @pytest.fixture()
    def index(self, tiny_collection):
        result = RoundRobinChunker(n_chunks=6).form_chunks(tiny_collection)
        return build_chunk_index(result.retained, result.chunk_set)

    def test_expired_deadline_scans_exactly_one_chunk(self, index):
        rule = propagated_stop_rule(-1.0, chunk_budget=0, n_chunks=index.n_chunks)
        query = np.zeros(index.dimensions)
        result = ChunkSearcher(index).search(query, k=3, stop_rule=rule)
        assert result.chunks_read == 1
        assert result.stop_reason.startswith("deadline(")
        assert not result.completed
        assert len(result.neighbors) > 0  # degraded but valid

    def test_both_engines_agree_under_deadline(self, index):
        queries = np.random.default_rng(7).standard_normal(
            (5, index.dimensions)
        )
        for remaining in (-1.0, 0.02):
            sequential = [
                ChunkSearcher(index).search(
                    q,
                    k=3,
                    stop_rule=propagated_stop_rule(remaining, 0, index.n_chunks),
                )
                for q in queries
            ]
            batch = ChunkSearcher(index).search_batch(
                queries,
                k=3,
                stop_rule=propagated_stop_rule(remaining, 0, index.n_chunks),
            )
            for got, want in zip(batch, sequential):
                np.testing.assert_array_equal(
                    got.neighbor_ids(), want.neighbor_ids()
                )
                assert got.stop_reason == want.stop_reason
                assert got.elapsed_s == want.elapsed_s
                assert got.chunks_read == want.chunks_read
