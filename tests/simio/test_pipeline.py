"""Tests for the I/O-CPU overlap pipeline simulation."""

import dataclasses

import pytest

from reference_pipeline import PipelineSimulator
from repro.simio.cpu_model import CpuModel
from repro.simio.disk_model import DiskModel
from repro.simio.pipeline import CostModel


def make_model(io_per_page=0.010, cpu_per_desc=0.001, overlap=True):
    """A model with easily hand-computable costs: positioning folded into
    the per-page transfer, zero chunk overhead."""
    return CostModel(
        disk=DiskModel(
            seek_time_s=0.0,
            rotational_latency_s=0.0,
            transfer_rate_bytes_per_s=1000 / io_per_page,  # 1000-byte pages
            page_bytes=1000,
        ),
        cpu=CpuModel(
            distance_time_s=cpu_per_desc,
            chunk_overhead_s=0.0,
            ranking_time_per_chunk_s=0.0,
        ),
        overlap_io_cpu=overlap,
    )


class TestSerialTimeline:
    def test_sum_of_io_and_cpu(self):
        sim = make_model(overlap=False).simulator()
        start = sim.start_query(n_chunks=2, index_bytes=0)
        assert start == 0.0
        t1 = sim.process_chunk(page_count=1, n_descriptors=10)
        assert t1 == pytest.approx(0.010 + 0.010)
        t2 = sim.process_chunk(page_count=2, n_descriptors=5)
        assert t2 == pytest.approx(t1 + 0.020 + 0.005)


class TestOverlappedTimeline:
    def test_io_bound_pipeline(self):
        """When io > cpu per chunk, steady state is io-bound: chunk i
        completes at (i+1)*io + cpu."""
        sim = make_model(io_per_page=0.010, cpu_per_desc=0.001).simulator()
        sim.start_query(n_chunks=4, index_bytes=0)
        times = [sim.process_chunk(1, 2) for _ in range(4)]
        for i, t in enumerate(times):
            assert t == pytest.approx((i + 1) * 0.010 + 0.002)

    def test_cpu_bound_pipeline(self):
        """When cpu > io, steady state is cpu-bound: chunk i completes at
        io + (i+1)*cpu."""
        sim = make_model(io_per_page=0.001, cpu_per_desc=0.010).simulator()
        sim.start_query(n_chunks=3, index_bytes=0)
        times = [sim.process_chunk(1, 1) for _ in range(3)]
        for i, t in enumerate(times):
            assert t == pytest.approx(0.001 + (i + 1) * 0.010)

    def test_overlap_never_slower_than_serial(self):
        overlap = make_model(overlap=True).simulator()
        serial = make_model(overlap=False).simulator()
        for sim in (overlap, serial):
            sim.start_query(n_chunks=5, index_bytes=1000)
        chunks = [(1, 10), (3, 2), (2, 8), (1, 1), (4, 20)]
        for pages, descs in chunks:
            t_overlap = overlap.process_chunk(pages, descs)
            t_serial = serial.process_chunk(pages, descs)
        assert t_overlap <= t_serial

    def test_giant_chunk_stalls_pipeline(self):
        """A single huge chunk delays every later result — the paper's
        explanation for BAG's slow early quality (section 5.5)."""
        model = make_model(io_per_page=0.010, cpu_per_desc=0.001)
        uniform = model.simulator()
        uniform.start_query(2, 0)
        uniform.process_chunk(1, 10)
        t_uniform = uniform.process_chunk(1, 10)

        skewed = model.simulator()
        skewed.start_query(2, 0)
        skewed.process_chunk(1, 1000)  # giant first chunk: 1 s of CPU
        t_skewed = skewed.process_chunk(1, 10)
        assert t_skewed > t_uniform + 0.9

    def test_double_buffering_limits_prefetch(self):
        """The read of chunk i+1 cannot start before chunk i-1 finished
        processing (only two buffers)."""
        sim = make_model(io_per_page=0.001, cpu_per_desc=0.010).simulator()
        sim.start_query(3, 0)
        sim.process_chunk(1, 10)  # C0 = 0.001 + 0.1
        sim.process_chunk(1, 10)  # R1 = 0.002, C1 = 0.201
        t3 = sim.process_chunk(1, 10)
        # R2 = max(R1, C0) + io = 0.101 + 0.001; C2 = max(R2, C1) + 0.1.
        assert t3 == pytest.approx(0.301)


class TestDegradedTimeline:
    def test_extra_io_extends_the_read(self):
        """Fault latency (retries, backoff, spikes) rides on the read
        stage: the chunk completes exactly extra_io_s later."""
        model = make_model(io_per_page=0.010, cpu_per_desc=0.001)
        clean = model.simulator()
        clean.start_query(1, 0)
        t_clean = clean.process_chunk(1, 10)

        faulted = PipelineSimulator(model)
        faulted.start_query(1, 0)
        t_faulted = faulted.process_chunk(1, 10, extra_io_s=0.25)
        assert t_faulted == pytest.approx(t_clean + 0.25)

    def test_zero_extra_io_is_bit_identical(self):
        model = make_model()
        a, b = model.simulator(), PipelineSimulator(model)
        for sim in (a, b):
            sim.start_query(3, 500)
        for pages, descs in [(1, 10), (2, 4), (1, 7)]:
            t_a = a.process_chunk(pages, descs)
            t_b = b.process_chunk(pages, descs, extra_io_s=0.0)
            assert t_a == t_b  # exactly, not approximately

    def test_skip_charges_pure_io(self):
        """A skipped chunk pays its failed-attempt I/O but no CPU."""
        sim = PipelineSimulator(make_model(io_per_page=0.010, cpu_per_desc=0.001,
                                           overlap=False))
        sim.start_query(2, 0)
        t1 = sim.skip_chunk(0.030)
        assert t1 == pytest.approx(0.030)
        t2 = sim.process_chunk(1, 10)
        assert t2 == pytest.approx(0.030 + 0.010 + 0.010)

    def test_skip_in_overlap_mode_occupies_read_stage(self):
        """Under overlap, the failed reads serialize with other reads but
        the processing stage stays free."""
        sim = PipelineSimulator(make_model(io_per_page=0.010, cpu_per_desc=0.001))
        sim.start_query(3, 0)
        sim.process_chunk(1, 10)          # R0 = 0.010, C0 = 0.020
        t_skip = sim.skip_chunk(0.040)    # R1 = 0.050, no CPU
        assert t_skip == pytest.approx(0.050)
        t2 = sim.process_chunk(1, 10)
        # R2 = max(R1, C0) + 0.010 = 0.060; C2 = max(R2, C1) + 0.010.
        assert t2 == pytest.approx(0.070)

    def test_skip_validation(self):
        sim = PipelineSimulator(make_model())
        with pytest.raises(RuntimeError):
            sim.skip_chunk(0.01)
        sim.start_query(1, 0)
        with pytest.raises(ValueError):
            sim.skip_chunk(-0.01)
        with pytest.raises(ValueError):
            sim.process_chunk(1, 1, extra_io_s=-0.5)


class TestProtocol:
    def test_start_query_charges_index_read(self):
        model = make_model()
        sim = model.simulator()
        t = sim.start_query(n_chunks=10, index_bytes=5000)
        assert t == pytest.approx(model.disk.sequential_read_time_s(5000))

    def test_start_query_only_once(self):
        sim = make_model().simulator()
        sim.start_query(1, 0)
        with pytest.raises(RuntimeError):
            sim.start_query(1, 0)

    def test_chunk_before_start_rejected(self):
        with pytest.raises(RuntimeError):
            make_model().simulator().process_chunk(1, 1)

    def test_elapsed_tracks_latest(self):
        sim = make_model().simulator()
        assert sim.elapsed == 0.0
        sim.start_query(1, 1000)
        assert sim.elapsed > 0.0
        before = sim.elapsed
        sim.process_chunk(1, 5)
        assert sim.elapsed > before
