"""Tests for the timestamp primitive patterns (§3.1)."""

from __future__ import annotations

import pytest

from repro.core.timestamp import (
    HDLTimestampService,
    PersistentTimestampService,
)
from repro.errors import KernelError
from repro.hdl.library import HDLLibrary
from repro.pipeline.kernel import SingleTaskKernel


class ReadOnce(SingleTaskKernel):
    """Reads one timestamp after a configurable delay."""

    def __init__(self, reader, delay, **kw):
        super().__init__(**kw)
        self.reader = reader
        self.delay = delay
        self.values = []

    def iteration_space(self, args):
        return [0]

    def body(self, ctx):
        yield ctx.compute(self.delay)
        value = yield self.reader(ctx)
        self.values.append(value)


class TestPersistentPattern:
    def test_counter_tracks_cycles(self, fabric):
        service = PersistentTimestampService(fabric, sites=1)
        kernel = ReadOnce(lambda ctx: service.read_op(ctx, 0), delay=25,
                          name="probe")
        fabric.run_kernel(kernel, {})
        # Counter started at cycle 0 and increments by 1/cycle; the read
        # at cycle ~25 must be within a cycle of that.
        assert abs(kernel.values[0] - 26) <= 1

    def test_one_kernel_per_channel(self, fabric):
        service = PersistentTimestampService(fabric, sites=3)
        assert len(service.kernels) == 3
        assert len(service.channels) == 3
        names = {kernel.name for kernel in service.kernels}
        assert len(names) == 3

    def test_zero_sites_rejected(self, fabric):
        with pytest.raises(KernelError):
            PersistentTimestampService(fabric, sites=0)

    def test_skew_length_mismatch_rejected(self, fabric):
        with pytest.raises(KernelError):
            PersistentTimestampService(fabric, sites=2, launch_skews=[1])

    def test_launch_skew_offsets_counter(self, fabric):
        service = PersistentTimestampService(fabric, sites=1,
                                             launch_skews=[10])
        kernel = ReadOnce(lambda ctx: service.read_op(ctx, 0), delay=30,
                          name="probe")
        fabric.run_kernel(kernel, {})
        # The counter started 10 cycles late: value ~ (30 - 10).
        assert abs(kernel.values[0] - 21) <= 1

    def test_nonblocking_read_helper(self, fabric):
        service = PersistentTimestampService(fabric, sites=1)
        got = []
        class NB(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.compute(5)
                got.append(service.read(ctx, 0))
        fabric.run_kernel(NB(name="nb"), {})
        assert abs(got[0] - 6) <= 1

    def test_compiled_depth_produces_stale_values(self, fabric):
        service = PersistentTimestampService(fabric, sites=1,
                                             compiled_depth=8)
        kernel = ReadOnce(lambda ctx: service.read_op(ctx, 0), delay=50,
                          name="probe")
        fabric.run_kernel(kernel, {})
        # A FIFO keeps the oldest counter values: the read is very stale.
        assert kernel.values[0] <= 9


class TestHDLPattern:
    def test_get_time_returns_cycle(self, fabric):
        service = HDLTimestampService(fabric)
        kernel = ReadOnce(lambda ctx: service.get_time(ctx, 0), delay=17,
                          name="probe")
        fabric.run_kernel(kernel, {})
        assert kernel.values[0] == 17

    def test_start_offset_models_reset_time(self, fabric):
        service = HDLTimestampService(fabric, start_offset=1000)
        kernel = ReadOnce(lambda ctx: service.get_time(ctx, 0), delay=5,
                          name="probe")
        fabric.run_kernel(kernel, {})
        assert kernel.values[0] == 1005

    def test_emulation_mode_returns_command_plus_one(self, fabric):
        """Listing 3: the OpenCL stub used under emulation."""
        library = HDLLibrary(fabric.sim)
        service = HDLTimestampService(fabric, library, mode="emulation")
        kernel = ReadOnce(lambda ctx: service.get_time(ctx, 41), delay=9,
                          name="probe")
        fabric.run_kernel(kernel, {})
        assert kernel.values[0] == 42

    def test_registered_in_library(self, fabric):
        library = HDLLibrary(fabric.sim)
        HDLTimestampService(fabric, library, name="ts")
        assert "ts" in library


class TestPatternAgreement:
    def test_both_patterns_measure_same_interval(self, fabric):
        """A fixed 40-cycle event must measure as 40 under either pattern."""
        persistent = PersistentTimestampService(fabric, sites=2)
        hdl = HDLTimestampService(fabric)
        results = {}

        class Both(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                p0 = yield persistent.read_op(ctx, 0)
                h0 = yield hdl.get_time(ctx, 0)
                yield ctx.compute(40)
                p1 = yield persistent.read_op(ctx, 1)
                h1 = yield hdl.get_time(ctx, 0)
                results["persistent"] = p1 - p0
                results["hdl"] = h1 - h0
        fabric.run_kernel(Both(name="both"), {})
        assert results["hdl"] == 40
        assert results["persistent"] == results["hdl"]
