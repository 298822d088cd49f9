"""Failure-injection and extreme-configuration tests.

These exercise the substrate where real designs break: pathological
memory configurations, saturated channels, overflowing counters, and
misconfigured instrumentation. The library must either behave sensibly or
fail loudly — never corrupt results silently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stall_monitor import StallMonitor
from repro.errors import ProcessError, SimulationError
from repro.hdl.counter import GetTimeModule
from repro.kernels.matmul import MatMulKernel, allocate_matmul_buffers, expected_matmul
from repro.kernels.vecadd import VecAddKernel
from repro.memory.global_memory import GlobalMemoryConfig
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import SingleTaskKernel


class TestExtremeMemoryConfigs:
    @pytest.mark.parametrize("config", [
        GlobalMemoryConfig(pipe_latency=0, row_hit_cycles=0,
                           row_miss_cycles=0, bank_busy_cycles=0,
                           posted_write_latency=0),
        GlobalMemoryConfig(pipe_latency=500, row_miss_cycles=200),
        GlobalMemoryConfig(banks=1),
        GlobalMemoryConfig(banks=64, row_bytes=64),
    ])
    def test_vecadd_correct_under_any_timing(self, config):
        fabric = Fabric(memory_config=config)
        n = 12
        fabric.memory.allocate("a", n).fill(np.arange(n))
        fabric.memory.allocate("b", n).fill(np.arange(n))
        c = fabric.memory.allocate("c", n)
        fabric.run_kernel(VecAddKernel(), {"n": n})
        assert np.array_equal(c.snapshot(), np.arange(n) * 2)

    def test_zero_latency_memory_still_in_order(self):
        fabric = Fabric(memory_config=GlobalMemoryConfig(
            pipe_latency=0, row_hit_cycles=0, row_miss_cycles=0,
            bank_busy_cycles=0))
        fabric.memory.allocate("data", 8).fill(range(8))
        order = []
        class Probe(SingleTaskKernel):
            def iteration_space(self, args):
                return range(8)
            def body(self, ctx):
                value = yield ctx.load("data", 7 - ctx.iteration)
                order.append(value)
        fabric.run_kernel(Probe(name="probe"), {})
        assert order == [7 - i for i in range(8)]


class TestInstrumentationOverflow:
    def test_saturated_data_channel_drops_but_never_corrupts(self, fabric):
        """A monitor whose ibuffer cannot keep up (same-cycle bursts) must
        drop samples, not stall or corrupt the kernel."""
        monitor = StallMonitor(fabric, sites=1, depth=1024, name="burst_mon")
        class Burst(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                # 64 snapshots in a single cycle: channel depth is 8.
                for value in range(64):
                    monitor.take_snapshot(ctx, 0, value)
                yield ctx.compute(1)
        fabric.run_kernel(Burst(name="burst"), {})
        entries = monitor.read_site(0)
        values = [entry["value"] for entry in entries]
        # Only the channel-depth prefix survives (FIFO order preserved);
        # the channel reports the dropped writes.
        data_channel = monitor.ibuffer.data_c[0]
        assert values == sorted(values)
        assert data_channel.stats.write_failures > 0
        assert len(values) + data_channel.stats.write_failures == 64
        assert values == list(range(len(values)))  # exact FIFO prefix

    def test_counter_wraparound(self, fabric):
        """A narrow HDL counter wraps; timestamps stay well-defined."""
        module = GetTimeModule(fabric.sim, width_bits=6)   # wraps at 64
        fabric.advance(100)
        assert module.synthesize_behavior() == 100 % 64

    def test_kernel_with_zero_iterations_and_monitor(self, fabric):
        monitor = StallMonitor(fabric, sites=2, depth=8)
        kernel = MatMulKernel(stall_monitor=monitor)
        allocate_matmul_buffers(fabric, 1, 1, 1)
        fabric.run_kernel(kernel, {"rows_a": 0, "col_a": 0, "col_b": 0})
        assert monitor.read_site(0) == []


class TestTimeoutAndDeadlockGuards:
    def test_run_kernel_cycle_guard(self, fabric):
        class Slow(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.compute(10_000)
        with pytest.raises(SimulationError, match="did not complete"):
            fabric.run_kernel(Slow(name="slow"), {}, max_cycles=100)

    def test_out_of_bounds_load_fails_loudly(self, fabric):
        fabric.memory.allocate("data", 4)
        class Wild(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.load("data", 99)
        with pytest.raises(ProcessError, match="out of range"):
            fabric.run_kernel(Wild(name="wild"), {})

    def test_unknown_buffer_fails_loudly(self, fabric):
        class Ghost(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.load("nonexistent", 0)
        with pytest.raises(ProcessError, match="no buffer"):
            fabric.run_kernel(Ghost(name="ghost"), {})


class TestResultIntegrityUnderInstrumentation:
    @pytest.mark.parametrize("depth", [1, 4, 4096])
    def test_matmul_result_invariant_to_trace_depth(self, depth):
        fabric = Fabric()
        monitor = StallMonitor(fabric, sites=2, depth=depth)
        kernel = MatMulKernel(stall_monitor=monitor)
        buffers = allocate_matmul_buffers(fabric, 3, 4, 3)
        fabric.run_kernel(kernel, {"rows_a": 3, "col_a": 4, "col_b": 3})
        assert np.array_equal(buffers["data_c"].snapshot().reshape(3, 3),
                              expected_matmul(3, 4, 3))

    def test_cycle_count_invariant_to_trace_depth(self):
        cycles = []
        for depth in (4, 2048):
            fabric = Fabric()
            monitor = StallMonitor(fabric, sites=2, depth=depth)
            kernel = MatMulKernel(stall_monitor=monitor)
            allocate_matmul_buffers(fabric, 3, 4, 3)
            engine = fabric.run_kernel(kernel, {"rows_a": 3, "col_a": 4,
                                                "col_b": 3})
            cycles.append(engine.stats.total_cycles)
        assert cycles[0] == cycles[1]
