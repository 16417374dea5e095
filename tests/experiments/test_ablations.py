"""Tests for the ablation drivers (TEST scale)."""

import pytest

from repro.experiments import ablations


class TestOverlapAblation:
    def test_serial_never_faster(self, experiment_data):
        result = ablations.run_overlap_ablation(experiment_data)
        assert result.experiment_id == "ablation_overlap"
        for row in result.rows:
            _, t_overlap, t_serial, c_overlap, c_serial = row
            assert t_serial >= t_overlap * 0.999
            assert c_serial >= c_overlap * 0.999


class TestRankingAblation:
    def test_runs_and_reports_both_rules(self, experiment_data):
        result = ablations.run_ranking_ablation(experiment_data)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row[1] > 0 and row[2] > 0


class TestStopRuleAblation:
    def test_precisions_in_range(self, experiment_data):
        result = ablations.run_stop_rule_ablation(experiment_data)
        for row in result.rows:
            _, budget, p_chunks, t_budget, p_time = row
            assert 0.0 <= p_chunks <= 1.0
            assert 0.0 <= p_time <= 1.0
            assert t_budget > 0


class TestOutlierAblation:
    def test_schemes_comparable(self, experiment_data):
        """The paper: the two outlier schemes gave 'almost identical
        results'.  Assert both produce working indexes with quality in the
        same ballpark."""
        result = ablations.run_outlier_ablation(experiment_data)
        assert len(result.rows) == 2
        chunks_a, chunks_b = result.rows[0][2], result.rows[1][2]
        assert chunks_a > 0 and chunks_b > 0
        assert max(chunks_a, chunks_b) <= 5 * min(chunks_a, chunks_b)


class TestCacheAblation:
    def test_protocols(self, experiment_data):
        from repro.experiments.ablations import run_cache_ablation

        result = run_cache_ablation(experiment_data)
        rows = {row[0]: row for row in result.rows}
        assert rows["warm repeat"][1] < rows["cold (no cache)"][1]
        assert rows["round-robin (cleared)"][1] == pytest.approx(
            rows["cold (no cache)"][1], rel=0.02
        )


class TestChunkerZoo:
    @pytest.fixture(scope="class")
    def rows(self, experiment_data):
        from repro.experiments.ablations import run_chunker_zoo

        return run_chunker_zoo(experiment_data).rows

    def test_all_strategies_present(self, rows):
        assert [row[0] for row in rows] == ["BAG", "SR", "TSVQ", "HYB", "RR"]

    def test_locality_beats_strawmen(self, rows):
        by_name = {row[0]: row for row in rows}
        for name in ("BAG", "SR", "TSVQ", "HYB"):
            assert by_name[name][3] < by_name["RR"][3]

    def test_hybrid_completes_close_to_sr(self, rows):
        """The conclusion's proposal: uniform size first keeps completion
        at worst close to SR's."""
        completion = {row[0]: row[5] for row in rows}
        assert completion["HYB"] <= completion["SR"] * 1.5


class TestLessonsSummary:
    def test_guarantee_always_costs_more(self, experiment_data):
        from repro.experiments.ablations import run_lessons_summary

        result = run_lessons_summary(experiment_data)
        assert len(result.rows) == 12
        for row in result.rows:
            assert row[3] >= row[2]  # guarantee >= 90%-quality time
            assert row[4] >= 1.0
