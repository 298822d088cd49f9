"""Tests for the SpMV kernel and the timeline analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.timeline import (
    Timeline,
    event_rate_timeline,
    latency_timeline,
    occupancy_timeline,
)
from repro.core.stall_monitor import LatencySample, StallMonitor
from repro.errors import KernelArgumentError, TraceDecodeError
from repro.kernels.spmv import (
    SpMVKernel,
    allocate_spmv_buffers,
    expected_spmv,
    random_csr,
)


class TestSpMV:
    def _run(self, fabric, rows=6, columns=32, nnz=4, monitor=None):
        allocate_spmv_buffers(fabric, rows, columns, nnz)
        kernel = SpMVKernel([nnz] * rows, stall_monitor=monitor)
        fabric.run_kernel(kernel, {"rows": rows})
        return fabric.memory.buffer("y").snapshot(), rows, nnz

    def test_result_correct(self, fabric):
        y, rows, nnz = self._run(fabric)
        assert np.array_equal(y, expected_spmv(fabric, rows, nnz))

    def test_instrumented_result_unperturbed(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=256)
        y, rows, nnz = self._run(fabric, monitor=monitor)
        assert np.array_equal(y, expected_spmv(fabric, rows, nnz))

    def test_gather_latency_trace_collected(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=256)
        _, rows, nnz = self._run(fabric, monitor=monitor)
        samples = monitor.latencies(0, 1)
        assert len(samples) == rows * nnz
        assert all(sample.latency > 0 for sample in samples)

    def test_irregular_rows_supported(self, fabric):
        lengths = [1, 3, 0, 2]
        nnz = sum(lengths)
        fabric.memory.allocate("row_ptr", 5)
        fabric.memory.allocate("col_idx", nnz).fill([0, 0, 1, 2, 1, 3])
        fabric.memory.allocate("values", nnz).fill([2, 1, 1, 1, 5, 5])
        fabric.memory.allocate("x", 4).fill([1, 10, 100, 1000])
        y = fabric.memory.allocate("y", 4)
        fabric.run_kernel(SpMVKernel(lengths), {"rows": 4})
        assert list(y.snapshot()) == [2, 111, 0, 5050]

    def test_negative_row_length_rejected(self):
        with pytest.raises(KernelArgumentError):
            SpMVKernel([2, -1])

    def test_random_csr_shape_and_validation(self):
        csr = random_csr(4, 16, 3)
        assert len(csr["col_idx"]) == 12
        assert csr["row_ptr"][-1] == 12
        assert (csr["col_idx"] < 16).all()
        with pytest.raises(KernelArgumentError):
            random_csr(2, 4, 5)


class TestTimeline:
    def _samples(self, spec):
        return [LatencySample(start_cycle=s, end_cycle=e,
                              start_value=0, end_value=0)
                for s, e in spec]

    def test_occupancy_counts_overlap(self):
        # Two ops fully covering one bin -> occupancy 2.0 there.
        timeline = occupancy_timeline(
            self._samples([(0, 64), (0, 64), (64, 128)]), bin_width=64)
        assert timeline.values[0] == pytest.approx(2.0)
        assert timeline.values[1] == pytest.approx(1.0)

    def test_partial_overlap_fractional(self):
        timeline = occupancy_timeline(self._samples([(0, 32)]), bin_width=64)
        assert timeline.values[0] == pytest.approx(0.5)

    def test_event_rate_binning(self):
        entries = [{"timestamp": t} for t in (0, 1, 2, 100)]
        timeline = event_rate_timeline(entries, bin_width=64)
        assert timeline.values == (3.0, 1.0)

    def test_latency_timeline_means(self):
        samples = self._samples([(0, 10), (0, 30), (64, 100)])
        timeline = latency_timeline(samples, bin_width=64)
        assert timeline.values[0] == pytest.approx(20.0)
        assert timeline.values[1] == pytest.approx(36.0)

    def test_sparkline_renders_per_bin(self):
        timeline = Timeline(start=0, bin_width=1, values=(0.0, 0.5, 1.0))
        spark = timeline.sparkline()
        assert len(spark) == 3
        assert spark[0] == " "
        assert spark[2] == "█"

    def test_empty_inputs_rejected(self):
        with pytest.raises(TraceDecodeError):
            occupancy_timeline([])
        with pytest.raises(TraceDecodeError):
            event_rate_timeline([])

    def test_end_to_end_from_monitor(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=512)
        allocate_spmv_buffers(fabric, 8, 64, 4)
        fabric.run_kernel(SpMVKernel([4] * 8, stall_monitor=monitor),
                          {"rows": 8})
        samples = monitor.latencies(0, 1)
        timeline = occupancy_timeline(samples, bin_width=32)
        assert max(timeline.values) > 0
        assert "peak" in timeline.render("gather occupancy")
