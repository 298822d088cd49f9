"""Tests for the functional emulator (the aocl -march=emulator flow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.order import classify_order, order_records
from repro.core.sequence import SequenceService
from repro.core.timestamp import HDLTimestampService, PersistentTimestampService
from repro.errors import HostAPIError
from repro.host.emulation import Emulator
from repro.kernels.dot_product import DotProductKernel
from repro.kernels.matmul import MatMulKernel, allocate_matmul_buffers, expected_matmul
from repro.kernels.matvec import (
    MatVecNDRange,
    MatVecSingleTask,
    allocate_matvec_buffers,
)
from repro.kernels.vecadd import VecAddKernel
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel


class TestFunctionalEquivalence:
    def test_vecadd_matches_hardware_sim(self):
        results = {}
        for flow in ("emulation", "hardware"):
            fabric = Fabric()
            n = 16
            fabric.memory.allocate("a", n).fill(np.arange(n))
            fabric.memory.allocate("b", n).fill(np.arange(n) * 3)
            fabric.memory.allocate("c", n)
            if flow == "emulation":
                Emulator(fabric).run_kernel(VecAddKernel(), {"n": n})
            else:
                fabric.run_kernel(VecAddKernel(), {"n": n})
            results[flow] = fabric.memory.buffer("c").snapshot()
        assert np.array_equal(results["emulation"], results["hardware"])

    def test_matmul_correct_under_emulation(self):
        fabric = Fabric()
        allocate_matmul_buffers(fabric, 3, 4, 3)
        stats = Emulator(fabric).run_kernel(
            MatMulKernel(), {"rows_a": 3, "col_a": 4, "col_b": 3})
        result = fabric.memory.buffer("data_c").snapshot().reshape(3, 3)
        assert np.array_equal(result, expected_matmul(3, 4, 3))
        assert stats.iterations == 3 * 4 * 3

    def test_autorun_cannot_be_run_directly(self):
        fabric = Fabric()
        class Auto(AutorunKernel):
            def body(self, ctx):
                while True:
                    yield ctx.cycle()
        with pytest.raises(HostAPIError):
            Emulator(fabric).run_kernel(Auto(name="auto"))


class TestEmulationStubs:
    def test_get_time_stub_returns_command_plus_one(self):
        """Listing 3: emulation uses the OpenCL definition."""
        fabric = Fabric()
        hdl = HDLTimestampService(fabric)
        kernel = DotProductKernel(timestamps="hdl", hdl=hdl)
        n = 8
        fabric.memory.allocate("x", n).fill(np.arange(n))
        fabric.memory.allocate("y", n).fill(np.ones(n, dtype=np.int64))
        fabric.memory.allocate("z", 1)
        Emulator(fabric).run_kernel(kernel, {"n": n})
        # Result correct; "timestamps" are the stub's command+1 values.
        assert fabric.memory.buffer("z").read(0) == np.arange(n).sum()
        start, end = kernel.measurements[0]
        assert start == 1                     # get_time(0) -> 1
        assert end == np.arange(n).sum() + 1  # get_time(sum) -> sum+1

    def test_sequence_service_emulated_cooperatively(self):
        fabric = Fabric()
        seq = SequenceService(fabric)
        ts = PersistentTimestampService(fabric, sites=1)
        buffers = allocate_matvec_buffers(fabric, 3, 4, probe_i=2)
        Emulator(fabric).run_kernel(MatVecSingleTask(seq, ts, probe_i=2),
                                    {"N": 3, "num": 4})
        info2 = buffers["info2"].snapshot()
        # Sequence slots 1..6 all written (gap-free counter emulation).
        assert [int(info2[s]) for s in range(1, 7)] == [0, 0, 1, 1, 2, 2]


class TestEmulationDivergence:
    """The paper's motivation, §1: emulation looks sequential; hardware
    does not. Figure 2(b)'s interleaving is invisible to the emulator."""

    def _order(self, flow):
        fabric = Fabric()
        seq = SequenceService(fabric)
        ts = PersistentTimestampService(fabric, sites=1)
        n, num, probe = 4, 6, 3
        buffers = allocate_matvec_buffers(fabric, n, num, probe_i=probe)
        kernel = MatVecNDRange(seq, ts, probe_i=probe)
        if flow == "emulation":
            Emulator(fabric).run_kernel(kernel, {"N": n, "num": num})
        else:
            fabric.run_kernel(kernel, {"N": n, "num": num})
        records = order_records(buffers["info1"].snapshot(),
                                buffers["info2"].snapshot(),
                                buffers["info3"].snapshot(),
                                count=n * probe)
        return classify_order(records), buffers["z"].snapshot()

    def test_ndrange_emulates_sequentially_but_runs_interleaved(self):
        emu_order, emu_z = self._order("emulation")
        hw_order, hw_z = self._order("hardware")
        assert emu_order == "program-order"     # the emulator's lie
        assert hw_order == "interleaved"        # what hardware actually does
        assert np.array_equal(emu_z, hw_z)      # but results agree

    def test_depth_ignored_warning(self):
        fabric = Fabric()
        channel = fabric.channels.declare("d0", depth=0)
        emulator = Emulator(fabric)
        emulator._channel(channel)
        assert any("depth ignored" in warning
                   for warning in emulator.stats.warnings)

    def test_blocking_read_without_producer_reports_deadlock(self):
        fabric = Fabric()
        channel = fabric.channels.declare("never", depth=4)
        from repro.pipeline.kernel import SingleTaskKernel
        class Blocked(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]
            def body(self, ctx):
                yield ctx.read_channel(channel)
        with pytest.raises(HostAPIError, match="deadlock"):
            Emulator(fabric).run_kernel(Blocked(name="blocked"), {})


class TestEmulatingCompiledKernels:
    def test_compiled_kernel_runs_under_emulator(self):
        """Frontend-compiled kernels emulate like native ones (same ops)."""
        from repro.frontend import compile_source
        fabric = Fabric()
        program = compile_source(fabric, """
            __kernel void doubler(__global int* data, int n) {
                for (int i = 0; i < n; i++) { data[i] = data[i] * 2; }
            }
        """)
        fabric.memory.allocate("data", 4).fill([1, 2, 3, 4])
        Emulator(fabric).run_kernel(program.kernel("doubler"),
                                    {"data": "data", "n": 4})
        assert list(fabric.memory.buffer("data").snapshot()) == [2, 4, 6, 8]

    def test_compiled_autorun_channels_fall_back_to_fifo(self):
        """Compiled autorun services have no emulation model: the emulator
        warns and treats their channels as plain FIFOs."""
        from repro.frontend import compile_source
        fabric = Fabric()
        compile_source(fabric, """
            channel int c __attribute__((depth(0)));
            __attribute__((autorun))
            __kernel void srv(void) {
                int count = 0;
                while (1) { count++; write_channel_nb_altera(c, count); }
            }
        """)
        emulator = Emulator(fabric)
        assert any("no emulation model" in warning
                   for warning in emulator.stats.warnings)
