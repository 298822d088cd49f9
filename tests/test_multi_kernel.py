"""Integration tests: probing multiple kernels with one replicated ibuffer.

The §4 replication scenario: producer/consumer kernels on one channel,
each feeding its own ibuffer instance; the merged traces reconstruct the
global event order and quantify backpressure.
"""

from __future__ import annotations

import numpy as np

from repro.core.stall_monitor import StallMonitor
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import SingleTaskKernel


class _Producer(SingleTaskKernel):
    def __init__(self, channel, monitor, **kw):
        super().__init__(**kw)
        self.channel = channel
        self.monitor = monitor

    def iteration_space(self, args):
        return range(args["n"])

    def body(self, ctx):
        value = yield ctx.load("src", ctx.iteration)
        self.monitor.take_snapshot(ctx, 0, ctx.iteration)
        yield ctx.write_channel(self.channel, value)


class _Consumer(SingleTaskKernel):
    def __init__(self, channel, monitor, ii=1, **kw):
        from repro.pipeline.kernel import PipelineConfig
        super().__init__(pipeline=PipelineConfig(ii=ii, max_inflight=1), **kw)
        self.channel = channel
        self.monitor = monitor

    def iteration_space(self, args):
        return range(args["n"])

    def body(self, ctx):
        value = yield ctx.read_channel(self.channel)
        self.monitor.take_snapshot(ctx, 1, ctx.iteration)
        yield ctx.compute(ctx.arg("work"))
        yield ctx.store("dst", ctx.iteration, value)


def _run(n=24, work=7, depth=4):
    fabric = Fabric()
    channel = fabric.channels.declare("stream", depth=depth)
    monitor = StallMonitor(fabric, sites=2, depth=128, name="pipe_mon")
    fabric.memory.allocate("src", n).fill(np.arange(n))
    fabric.memory.allocate("dst", n)
    producer = fabric.launch(_Producer(channel, monitor, name="producer"),
                             {"n": n})
    consumer = fabric.launch(
        _Consumer(channel, monitor, ii=work, name="consumer"),
        {"n": n, "work": work})
    fabric.run(producer.completion, consumer.completion)
    fabric.run(fabric.memory.drained())
    return fabric, channel, monitor


class TestMultiKernelProbing:
    def test_results_correct_through_channel(self):
        fabric, _, _ = _run()
        assert np.array_equal(fabric.memory.buffer("dst").snapshot(),
                              np.arange(24))

    def test_each_kernel_fills_its_own_instance(self):
        _, _, monitor = _run()
        sends = monitor.read_site(0)
        recvs = monitor.read_site(1)
        assert len(sends) == len(recvs) == 24
        assert [e["value"] for e in sends] == list(range(24))
        assert [e["value"] for e in recvs] == list(range(24))

    def test_every_item_sent_before_received(self):
        _, _, monitor = _run()
        send_at = {e["value"]: e["timestamp"] for e in monitor.read_site(0)}
        recv_at = {e["value"]: e["timestamp"] for e in monitor.read_site(1)}
        assert all(send_at[item] <= recv_at[item] for item in send_at)

    def test_backpressure_measurable_in_trace_and_counters(self):
        """A slow consumer + shallow channel must show up both ways."""
        _, channel, monitor = _run(work=15, depth=2)
        assert channel.stats.write_stall_cycles > 0
        send_at = {e["value"]: e["timestamp"] for e in monitor.read_site(0)}
        recv_at = {e["value"]: e["timestamp"] for e in monitor.read_site(1)}
        residency = [recv_at[i] - send_at[i] for i in send_at]
        # Once the channel fills, items wait roughly the consumer's period.
        assert max(residency) > min(residency)

    def test_deeper_channel_reduces_backpressure(self):
        _, shallow, _ = _run(work=15, depth=2)
        _, deep, _ = _run(work=15, depth=64)
        assert (deep.stats.write_stall_cycles
                < shallow.stats.write_stall_cycles)
