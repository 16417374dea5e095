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


class TestHybridAblation:
    def test_hybrid_runs_against_both_extremes(self, experiment_data):
        result = ablations.run_hybrid_ablation(experiment_data)
        labels = [row[0] for row in result.rows]
        assert labels == ["BAG/MEDIUM", "SR/MEDIUM", "HYB/MEDIUM"]
        completion = {row[0]: row[3] for row in result.rows}
        # The hybrid's whole point: completion at worst close to SR's.
        assert completion["HYB/MEDIUM"] <= completion["SR/MEDIUM"] * 1.5


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
    def test_all_strategies_present(self, experiment_data):
        from repro.experiments.ablations import run_chunker_zoo

        result = run_chunker_zoo(experiment_data)
        names = [row[0] for row in result.rows]
        assert names == ["BAG", "SR", "TSVQ", "CF", "HYB", "RR", "RAND"]

    def test_locality_beats_strawmen(self, experiment_data):
        from repro.experiments.ablations import run_chunker_zoo

        rows = {row[0]: row for row in run_chunker_zoo(experiment_data).rows}
        for name in ("BAG", "SR", "TSVQ", "HYB"):
            assert rows[name][3] < rows["RAND"][3]


class TestRelatedWorkShootout:
    def test_recalls_valid(self, experiment_data):
        from repro.experiments.ablations import run_related_work_shootout

        result = run_related_work_shootout(experiment_data)
        assert [row[0] for row in result.rows] == ["chunk-search(5)", "va-file"]
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0


class TestLessonsSummary:
    def test_guarantee_always_costs_more(self, experiment_data):
        from repro.experiments.ablations import run_lessons_summary

        result = run_lessons_summary(experiment_data)
        assert len(result.rows) == 12
        for row in result.rows:
            assert row[3] >= row[2]  # guarantee >= 90%-quality time
            assert row[4] >= 1.0
