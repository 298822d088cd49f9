"""Integration tests for §5.2 smart watchpoints."""

from __future__ import annotations

import pytest

from repro.core.watchpoint import SmartWatchpoint, caller_site_profile
from repro.errors import IBufferError
from repro.pipeline.kernel import SingleTaskKernel


class MonitoredWriter(SingleTaskKernel):
    """Writes a sequence of values to data[target], all monitored."""

    def __init__(self, watchpoint, values, target=0, **kw):
        super().__init__(**kw)
        self.watchpoint = watchpoint
        self.values = values
        self.target = target

    def iteration_space(self, args):
        return range(len(self.values))

    def body(self, ctx):
        i = ctx.iteration
        memory = ctx._instance.fabric.memory
        data = memory.buffer("data")
        if i == 0:
            self.watchpoint.add_watch(ctx, 0, data.address_of(self.target))
        yield ctx.store("data", self.target, self.values[i])
        self.watchpoint.monitor_address(ctx, 0, data.address_of(self.target),
                                        self.values[i])


class TestValidation:
    def test_zero_units_rejected(self, fabric):
        with pytest.raises(IBufferError):
            SmartWatchpoint(fabric, units=0)

    def test_unit_bounds_checked_kernel_side(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=8)
        fabric.memory.allocate("data", 4)
        class Bad(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                self.args  # touch ctx to be a generator
                watchpoint.monitor_address(ctx, 3, 0, 0)
                yield ctx.compute(1)
        from repro.errors import ProcessError
        with pytest.raises(ProcessError):
            fabric.run_kernel(Bad(name="bad"), {})

    def test_set_bounds_unit_range_checked(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=8)
        with pytest.raises(IBufferError):
            watchpoint.set_bounds(0, 10, unit=4)


class TestWatchHistory:
    def test_value_history_recorded(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=32)
        fabric.memory.allocate("data", 4)
        kernel = MonitoredWriter(watchpoint, [5, 6, 7], name="writer")
        fabric.run_kernel(kernel, {})
        matches = watchpoint.matches(0)
        assert [m["tag"] for m in matches] == [5, 6, 7]
        stamps = [m["timestamp"] for m in matches]
        assert stamps == sorted(stamps)

    def test_unwatched_address_not_recorded(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=32)
        fabric.memory.allocate("data", 4)
        class NoWatch(SingleTaskKernel):
            def iteration_space(self, args):
                return range(3)
            def body(self, ctx):
                data = ctx._instance.fabric.memory.buffer("data")
                # Monitor address of element 1; nothing watches it.
                watchpoint.monitor_address(ctx, 0, data.address_of(1), 9)
                yield ctx.compute(1)
        fabric.run_kernel(NoWatch(name="nw"), {})
        assert watchpoint.matches(0) == []


class TestBoundChecking:
    def test_violations_outside_buffer_extent(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=32)
        data = fabric.memory.allocate("data", 4)
        watchpoint.set_bounds_to_buffer("data")
        class OffByOne(SingleTaskKernel):
            def iteration_space(self, args):
                return range(6)
            def body(self, ctx):
                address = data.base_address + ctx.iteration * data.itemsize
                watchpoint.monitor_address(ctx, 0, address, 0)
                yield ctx.compute(1)
        fabric.run_kernel(OffByOne(name="obo"), {})
        violations = watchpoint.bound_violations(0)
        assert len(violations) == 2  # indices 4, 5 are past the end
        assert violations[0]["address"] == data.end_address

    def test_bounds_disabled_by_default(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=8)
        fabric.memory.allocate("data", 2)
        class Wild(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                watchpoint.monitor_address(ctx, 0, 0xdead_beef, 0)
                yield ctx.compute(1)
        fabric.run_kernel(Wild(name="wild"), {})
        assert watchpoint.bound_violations(0) == []


class TestInvariance:
    def test_change_detected(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=32,
                                     invariance=True)
        fabric.memory.allocate("data", 2)
        kernel = MonitoredWriter(watchpoint, [5, 5, 9, 9], name="writer")
        fabric.run_kernel(kernel, {})
        violations = watchpoint.invariance_violations(0)
        assert len(violations) == 1
        assert violations[0]["tag"] == 9

    def test_constant_value_clean(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=32,
                                     invariance=True)
        fabric.memory.allocate("data", 2)
        kernel = MonitoredWriter(watchpoint, [5, 5, 5], name="writer")
        fabric.run_kernel(kernel, {})
        assert watchpoint.invariance_violations(0) == []


class TestProfiles:
    def test_caller_profile_counts_both_channels(self):
        profile = caller_site_profile(monitor_sites=2, watch_sites=1)
        assert profile.channel_endpoints == 3

    def test_kernels_listed_for_design(self, fabric):
        watchpoint = SmartWatchpoint(fabric, units=1, depth=8)
        assert len(watchpoint.kernels()) == 2
