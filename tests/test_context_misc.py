"""Coverage for KernelContext edges and miscellaneous small surfaces."""

from __future__ import annotations

import pytest

from repro.errors import KernelArgumentError
from repro.pipeline.context import KernelContext
from repro.pipeline.engine import KernelInstance
from repro.pipeline.kernel import SingleTaskKernel


class _Dummy(SingleTaskKernel):
    def iteration_space(self, args):
        return [0]

    def body(self, ctx):
        yield ctx.compute(1)


def _context(fabric, tag=(3, 4), args=None):
    instance = KernelInstance(fabric, _Dummy(name="dummy"), args or {})
    return KernelContext(instance, iteration=tag)


class TestContextIdentity:
    def test_global_id_from_tuple(self, fabric):
        assert _context(fabric, tag=(7, 2)).global_id == 7

    def test_global_id_from_int(self, fabric):
        assert _context(fabric, tag=5).global_id == 5

    def test_global_id_invalid_tag(self, fabric):
        with pytest.raises(KernelArgumentError):
            _ = _context(fabric, tag=None).global_id

    def test_kernel_name_and_now(self, fabric):
        ctx = _context(fabric)
        assert ctx.kernel_name == "dummy"
        assert ctx.now == fabric.sim.now

    def test_missing_arg_reported_with_kernel_name(self, fabric):
        ctx = _context(fabric)
        with pytest.raises(KernelArgumentError, match="dummy"):
            ctx.arg("missing")

    def test_args_view(self, fabric):
        ctx = _context(fabric, args={"n": 3})
        assert ctx.args["n"] == 3


class TestContextChannelResolution:
    def test_channel_by_name(self, fabric):
        declared = fabric.channels.declare("c", depth=1)
        assert _context(fabric).channel("c") is declared

    def test_channel_array_by_name(self, fabric):
        fabric.channels.declare_array("arr", 3)
        assert len(_context(fabric).channel_array("arr")) == 3


class TestOpConstruction:
    def test_compute_negative_rejected(self, fabric):
        with pytest.raises(ValueError):
            _context(fabric).compute(-1)

    def test_mem_fence_is_zero_time_op(self, fabric):
        from repro.pipeline import ops
        fence = _context(fabric).mem_fence()
        assert isinstance(fence, ops.MemFence)

    def test_explicit_sites_carried(self, fabric):
        load = _context(fabric).load("buf", 0, site="S")
        assert load.site == "S"


class TestMiscSurfaces:
    def test_trace_buffer_total_writes_counts_past_capacity(self, sim):
        from repro.core.commands import SamplingMode
        from repro.core.trace_buffer import RAW_LAYOUT, TraceBuffer
        from repro.memory.local_memory import LocalMemory
        memory = LocalMemory(sim, "m", 2 * RAW_LAYOUT.words_per_entry)
        buffer = TraceBuffer(memory, RAW_LAYOUT, 2, SamplingMode.CYCLIC)
        for index in range(5):
            buffer.write({"timestamp": index, "value": index})
        assert buffer.total_writes == 5
        assert buffer.valid_entries == 2

    def test_ibuffer_words_per_readout(self, fabric):
        from repro.core.ibuffer import IBuffer, IBufferConfig
        from repro.core.logic_blocks import StallMonitorLogic
        ibuffer = IBuffer(fabric, "ib",
                          logic_factory=lambda cu: StallMonitorLogic(cu),
                          config=IBufferConfig(count=1, depth=10))
        # STALL layout: valid + timestamp + value + slot = 4 words/entry.
        assert ibuffer.words_per_readout == 40

    def test_engine_stats_total_cycles_none_before_finish(self, fabric):
        fabric.memory.allocate("src", 1)
        engine = fabric.launch(_Dummy(name="d2"), {})
        assert engine.stats.total_cycles is None
        fabric.run(engine.completion)
        assert engine.stats.total_cycles is not None

    def test_channel_stats_as_dict_keys(self, fabric):
        channel = fabric.channels.declare("c", depth=1)
        channel.write_nb(1)
        stats = channel.stats.as_dict()
        assert stats["writes"] == 1
        assert set(stats) == {"writes", "write_failures", "reads",
                              "read_failures", "write_stall_cycles",
                              "read_stall_cycles", "max_occupancy"}

    def test_resource_vector_as_dict(self):
        from repro.synthesis import ResourceVector
        vector = ResourceVector(alms=1, registers=2, memory_bits=3,
                                ram_blocks=4, dsps=5)
        assert vector.as_dict() == {"alms": 1, "registers": 2,
                                    "memory_bits": 3, "ram_blocks": 4,
                                    "dsps": 5}

    def test_interrupt_cause_property(self, sim):
        from repro.sim.core import Interrupt
        assert Interrupt("why").cause == "why"
