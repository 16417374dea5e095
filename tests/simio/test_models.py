"""Tests for the disk and CPU cost models."""

import dataclasses

import pytest

from repro.simio.cpu_model import CpuModel
from repro.simio.disk_model import DiskModel


class TestDiskModel:
    def test_positioning(self):
        disk = DiskModel(seek_time_s=0.003, rotational_latency_s=0.004)
        assert disk.positioning_time_s == pytest.approx(0.007)

    def test_transfer_linear(self):
        disk = DiskModel(transfer_rate_bytes_per_s=1e6)
        assert disk.transfer_time_s(1_000_000) == pytest.approx(1.0)
        assert disk.transfer_time_s(0) == 0.0

    def test_random_read(self):
        disk = DiskModel(
            seek_time_s=0.01,
            rotational_latency_s=0.0,
            transfer_rate_bytes_per_s=1e6,
            page_bytes=1000,
        )
        assert disk.random_read_time_s(5) == pytest.approx(0.01 + 0.005)

    def test_sequential_read(self):
        disk = DiskModel(
            seek_time_s=0.01, rotational_latency_s=0.0,
            transfer_rate_bytes_per_s=1e6,
        )
        assert disk.sequential_read_time_s(2_000_000) == pytest.approx(2.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskModel(seek_time_s=-1.0)
        with pytest.raises(ValueError):
            DiskModel(transfer_rate_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            DiskModel().random_read_time_s(0)
        with pytest.raises(ValueError):
            DiskModel().transfer_time_s(-5)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(DiskModel)])
    def test_refuses_nan(self, field):
        # A NaN passes ``x < 0``; every later timestamp would be NaN and no
        # time budget would ever fire.
        with pytest.raises(ValueError):
            DiskModel(**{field: float("nan")})

    def test_larger_reads_cost_more(self):
        disk = DiskModel()
        assert disk.random_read_time_s(10) > disk.random_read_time_s(1)


class TestCpuModel:
    def test_linear_in_descriptors(self):
        cpu = CpuModel(distance_time_s=1e-6, chunk_overhead_s=1e-4)
        assert cpu.chunk_processing_time_s(0) == pytest.approx(1e-4)
        assert cpu.chunk_processing_time_s(1000) == pytest.approx(1.1e-3)

    def test_ranking_linear_in_chunks(self):
        cpu = CpuModel(ranking_time_per_chunk_s=2e-6)
        assert cpu.ranking_time_s(500) == pytest.approx(1e-3)
        assert cpu.ranking_time_s(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuModel(distance_time_s=-1.0)
        with pytest.raises(ValueError):
            CpuModel().chunk_processing_time_s(-1)
        with pytest.raises(ValueError):
            CpuModel().ranking_time_s(-1)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CpuModel)])
    def test_refuses_nan(self, field):
        with pytest.raises(ValueError, match="NaN"):
            CpuModel(**{field: float("nan")})

