"""Tests for the vendor-profiler baseline (§6 comparison)."""

from __future__ import annotations

import pytest

from repro.core.stall_monitor import StallMonitor
from repro.core.vendor_profiler import VendorProfiler
from repro.errors import ReproError
from repro.kernels.matmul import MatMulKernel, allocate_matmul_buffers


def _run_matmul(fabric, monitor=None):
    kernel = MatMulKernel(stall_monitor=monitor)
    allocate_matmul_buffers(fabric, 4, 8, 4)
    return fabric.run_kernel(kernel, {"rows_a": 4, "col_a": 8, "col_b": 4})


class TestAggregateCounters:
    def test_lsu_counters_accumulate(self, fabric):
        profiler = VendorProfiler(fabric)
        engine = _run_matmul(fabric)
        report = profiler.report(engine)
        loads = [c for c in report.lsus if c.kind == "load"]
        assert sum(c.accesses for c in loads) == 2 * 4 * 8 * 4
        assert all(c.mean_latency_cycles > 0 for c in loads)

    def test_busiest_site_identified(self, fabric):
        profiler = VendorProfiler(fabric)
        engine = _run_matmul(fabric)
        busiest = profiler.report(engine).busiest_site()
        assert busiest is not None
        assert busiest.kind == "load"

    def test_bandwidth_accounting(self, fabric):
        profiler = VendorProfiler(fabric)
        engine = _run_matmul(fabric)
        report = profiler.report(engine)
        assert report.total_bytes == (2 * 4 * 8 * 4 + 4 * 4) * 8  # loads+stores
        assert report.buffer_bandwidth["data_a"] > 0

    def test_window_is_profiling_span(self, fabric):
        fabric.advance(100)
        profiler = VendorProfiler(fabric)
        engine = _run_matmul(fabric)
        report = profiler.report(engine)
        assert report.window_cycles == fabric.sim.now - 100

    def test_requires_engines(self, fabric):
        with pytest.raises(ReproError):
            VendorProfiler(fabric).report()

    def test_render(self, fabric):
        profiler = VendorProfiler(fabric)
        engine = _run_matmul(fabric)
        text = profiler.report(engine).render()
        assert "Vendor profiler report" in text
        assert "bandwidth by buffer" in text


class TestChannelStallCounters:
    def test_channel_stalls_visible(self, fabric):
        channel = fabric.channels.declare("c", depth=1)

        def producer():
            for value in range(4):
                yield from channel.write(value)
        def slow_consumer():
            for _ in range(4):
                yield fabric.sim.timeout(10)
                yield from channel.read()
        fabric.sim.process(producer())
        fabric.sim.process(slow_consumer())
        profiler = VendorProfiler(fabric)
        fabric.advance(100)
        report = profiler.report_channels_only()
        counters = {c.name: c for c in report}
        assert counters["c"].write_stall_cycles > 0


class TestComparisonWithIBuffer:
    def test_aggregate_mean_matches_trace_mean_but_loses_detail(self, fabric):
        """The key §6 claim: same aggregate truth, no per-event insight."""
        monitor = StallMonitor(fabric, sites=2, depth=512)
        profiler = VendorProfiler(fabric)
        engine = _run_matmul(fabric, monitor)

        samples = [s.latency for s in monitor.latencies(0, 1)]
        report = profiler.report(engine)
        def line_of(counter):
            _, _, tail = counter.site.rpartition("@L")
            return int(tail) if tail.isdigit() else 1 << 30
        a_load = min((c for c in report.lsus if c.kind == "load"), key=line_of)

        # Aggregates agree...
        assert a_load.accesses == len(samples)
        assert a_load.mean_latency_cycles == pytest.approx(
            sum(samples) / len(samples))
        assert a_load.max_latency_cycles == max(samples)
        # ...but only the ibuffer trace has per-event timestamps/order:
        assert not hasattr(a_load, "samples")
        assert len(set(samples)) > 1   # real distribution, flattened by the baseline
