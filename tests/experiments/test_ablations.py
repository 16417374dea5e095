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


class TestSizeCap:
    LABELS = ["BAG", "s=inf", "s=8", "s=4", "s=2", "s=1.5", "s=1", "RR", "SR"]

    @pytest.fixture(scope="class")
    def cells(self, experiment_data):
        """Rows by (class, workload), in table order, without those keys."""
        from repro.experiments.ablations import run_size_cap_ablation

        cells = {}
        for row in run_size_cap_ablation(experiment_data).rows:
            cells.setdefault((row[0], row[1]), []).append(row[2:])
        return cells

    def test_all_rows_present(self, cells):
        assert sorted(cells) == sorted(
            (c, w) for c in ("SMALL", "MEDIUM", "LARGE") for w in ("DQ", "SQ")
        )
        for rows in cells.values():
            assert [row[0] for row in rows] == self.LABELS

    def test_uncapped_dial_is_bag(self, cells):
        for rows in cells.values():
            by_name = {row[0]: row for row in rows}
            assert by_name["s=inf"][1:] == by_name["BAG"][1:]

    def test_chunk_counts_do_not_fall_as_s_falls(self, cells):
        for rows in cells.values():
            counts = [row[1] for row in rows if row[0].startswith("s=")]
            assert counts == sorted(counts)

    def test_locality_beats_strawmen(self, cells):
        for rows in cells.values():
            by_name = {row[0]: row for row in rows}
            for name in self.LABELS:
                if name != "RR":
                    assert by_name[name][4] < by_name["RR"][4]


class TestLessonsSummary:
    def test_guarantee_always_costs_more(self, experiment_data):
        from repro.experiments.ablations import run_lessons_summary

        result = run_lessons_summary(experiment_data)
        assert len(result.rows) == 12
        for row in result.rows:
            assert row[3] >= row[2]  # guarantee >= 90%-quality time
            assert row[4] >= 1.0
