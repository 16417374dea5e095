"""Calibration tests: the simulated hardware must reproduce the paper's
reported timings within tolerance.  If these fail, every elapsed-time
figure drifts."""

import pytest

from repro.simio.calibration import PAPER_2005_COST_MODEL, verify_calibration


@pytest.fixture(scope="module")
def predictions():
    return verify_calibration()


class TestAnchors:
    def test_sr_chunk_read_and_process(self, predictions):
        """Paper: reading and processing an SR chunk takes ~10 ms."""
        assert predictions["sr_chunk_read_and_process_s"] == pytest.approx(
            0.010, rel=0.35
        )

    def test_giant_bag_chunk_cpu(self, predictions):
        """Paper: the largest BAG chunk took ~1.8 s to process."""
        assert predictions["giant_bag_chunk_cpu_s"] == pytest.approx(1.8, rel=0.05)

    def test_index_read(self, predictions):
        """Paper: reading the chunk index takes ~50 ms (we accept 2x)."""
        assert 0.01 <= predictions["index_read_s"] <= 0.1

    def test_table2_sr_column(self, predictions):
        """Paper Table 2, SR-tree DQ column: 45.0 / 31.3 / 25.2 s."""
        assert predictions["table2_sr_small_s"] == pytest.approx(45.0, rel=0.1)
        assert predictions["table2_sr_medium_s"] == pytest.approx(31.3, rel=0.1)
        assert predictions["table2_sr_large_s"] == pytest.approx(25.2, rel=0.1)

    def test_table2_ordering(self, predictions):
        """Larger chunks complete faster (fewer random accesses)."""
        assert (
            predictions["table2_sr_small_s"]
            > predictions["table2_sr_medium_s"]
            > predictions["table2_sr_large_s"]
        )

    def test_overlap_enabled_by_default(self):
        assert PAPER_2005_COST_MODEL.overlap_io_cpu
