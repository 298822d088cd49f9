"""Integration tests for the §5.1 stall monitor."""

from __future__ import annotations

import pytest

from repro.core.commands import SamplingMode
from repro.core.stall_monitor import StallMonitor, caller_site_profile
from repro.errors import IBufferError
from repro.kernels.matmul import MatMulKernel, allocate_matmul_buffers
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import SingleTaskKernel


class TimedEvent(SingleTaskKernel):
    """Brackets a known-duration event with snapshots (deterministic)."""

    def __init__(self, monitor, duration, n, **kw):
        super().__init__(**kw)
        self.monitor = monitor
        self.duration = duration
        self.count = n

    def iteration_space(self, args):
        return range(self.count)

    def body(self, ctx):
        self.monitor.take_snapshot(ctx, 0, ctx.iteration)
        yield ctx.compute(self.duration)
        self.monitor.take_snapshot(ctx, 1, ctx.iteration)


class TestValidation:
    def test_zero_sites_rejected(self, fabric):
        with pytest.raises(IBufferError):
            StallMonitor(fabric, sites=0)

    def test_bad_site_index_rejected(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=8)
        class Bad(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                monitor.take_snapshot(ctx, 5, 0)
                yield ctx.compute(1)
        from repro.errors import ProcessError
        with pytest.raises(ProcessError):
            fabric.run_kernel(Bad(name="bad"), {})


class TestLatencyMeasurement:
    def test_known_duration_measured_exactly(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=32)
        kernel = TimedEvent(monitor, duration=23, n=4, name="timed")
        fabric.run_kernel(kernel, {})
        samples = monitor.latencies(0, 1)
        assert [s.latency for s in samples] == [23, 23, 23, 23]

    def test_values_recorded_alongside(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=32)
        kernel = TimedEvent(monitor, duration=5, n=3, name="timed")
        fabric.run_kernel(kernel, {})
        samples = monitor.latencies(0, 1)
        assert [s.start_value for s in samples] == [0, 1, 2]
        assert [s.end_value for s in samples] == [0, 1, 2]

    def test_matmul_load_latency_matches_lsu_truth(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=256)
        kernel = MatMulKernel(stall_monitor=monitor)
        allocate_matmul_buffers(fabric, 3, 4, 3)
        engine = fabric.run_kernel(kernel, {"rows_a": 3, "col_a": 4,
                                            "col_b": 3})
        measured = [s.latency for s in monitor.latencies(0, 1)]
        def line_of(lsu):
            _, _, tail = lsu.site.rpartition("@L")
            return int(tail)
        data_a_lsu = min((lsu for (s, k), lsu in engine.lsus.items()
                          if k == "load"), key=line_of)
        assert measured == data_a_lsu.stats.samples

    def test_trace_window_bounded_by_depth(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=4,
                               mode=SamplingMode.LINEAR)
        kernel = TimedEvent(monitor, duration=3, n=10, name="timed")
        fabric.run_kernel(kernel, {})
        assert len(monitor.latencies(0, 1)) == 4  # window == DEPTH

    def test_cyclic_mode_keeps_last_window(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=4,
                               mode=SamplingMode.CYCLIC)
        kernel = TimedEvent(monitor, duration=3, n=10, name="timed")
        fabric.run_kernel(kernel, {})
        samples = monitor.latencies(0, 1)
        assert [s.start_value for s in samples] == [6, 7, 8, 9]


class TestProfiles:
    def test_monitor_profile_scales_with_sites(self, fabric):
        two = StallMonitor(fabric, sites=2, depth=16, name="m2")
        other = Fabric()
        four = StallMonitor(other, sites=4, depth=16, name="m4")
        assert (four.resource_profile().local_memory_bits
                == 2 * two.resource_profile().local_memory_bits)

    def test_caller_site_profile_counts_endpoints(self):
        assert caller_site_profile(sites=3).channel_endpoints == 3

    def test_kernels_listed_for_design(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=16)
        kernels = monitor.kernels()
        assert monitor.ibuffer in kernels
        assert monitor.host.kernel in kernels
