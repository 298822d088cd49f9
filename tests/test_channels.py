"""Unit tests for the AOCL channel model."""

from __future__ import annotations

import pytest

from repro.channels.channel import Channel
from repro.errors import ChannelDepthError, ChannelUsageError


class TestConstruction:
    def test_negative_depth_rejected(self, sim):
        with pytest.raises(ChannelDepthError):
            Channel(sim, "c", depth=-1)

    def test_negative_compiled_depth_rejected(self, sim):
        with pytest.raises(ChannelDepthError):
            Channel(sim, "c", depth=0, compiled_depth=-2)

    def test_compiled_depth_overrides_requested(self, sim):
        channel = Channel(sim, "c", depth=0, compiled_depth=8)
        assert channel.requested_depth == 0
        assert channel.depth == 8


class TestFifoChannel:
    def test_nb_write_then_nb_read(self, sim):
        channel = Channel(sim, "c", depth=4)
        assert channel.write_nb(11)
        value, ok = channel.read_nb()
        assert (value, ok) == (11, True)

    def test_nb_read_empty_invalid(self, sim):
        channel = Channel(sim, "c", depth=2)
        value, ok = channel.read_nb()
        assert not ok
        assert channel.stats.read_failures == 1

    def test_nb_write_full_fails(self, sim):
        channel = Channel(sim, "c", depth=1)
        assert channel.write_nb(1)
        assert not channel.write_nb(2)
        assert channel.stats.write_failures == 1

    def test_fifo_ordering_preserved(self, sim):
        channel = Channel(sim, "c", depth=8)
        for value in range(5):
            channel.write_nb(value)
        drained = [channel.read_nb()[0] for _ in range(5)]
        assert drained == [0, 1, 2, 3, 4]

    def test_blocking_read_stalls_until_write(self, sim):
        channel = Channel(sim, "c", depth=2)
        got = []
        def consumer():
            value = yield from channel.read()
            got.append((sim.now, value))
        def producer():
            yield sim.timeout(7)
            yield from channel.write("v")
        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(7, "v")]
        assert channel.stats.read_stall_cycles == 7

    def test_blocking_write_stalls_when_full(self, sim):
        channel = Channel(sim, "c", depth=1)
        channel.write_nb("old")
        done = []
        def producer():
            yield from channel.write("new")
            done.append(sim.now)
        def consumer():
            yield sim.timeout(5)
            channel.read_nb()
        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert done == [5]
        assert channel.stats.write_stall_cycles == 5

    def test_max_occupancy_tracked(self, sim):
        channel = Channel(sim, "c", depth=4)
        for value in range(3):
            channel.write_nb(value)
        assert channel.stats.max_occupancy == 3


class TestDepthZeroRegister:
    """Listing 1 semantics: nb writes keep the most recent value visible."""

    def test_nb_write_always_succeeds(self, sim):
        channel = Channel(sim, "c", depth=0)
        for value in range(10):
            assert channel.write_nb(value)

    def test_read_nb_sees_latest_value(self, sim):
        channel = Channel(sim, "c", depth=0)
        channel.write_nb(1)
        channel.write_nb(2)
        channel.write_nb(3)
        assert channel.read_nb() == (3, True)

    def test_register_read_is_non_destructive(self, sim):
        channel = Channel(sim, "c", depth=0)
        channel.write_nb(42)
        assert channel.read_nb() == (42, True)
        assert channel.read_nb() == (42, True)

    def test_read_nb_before_any_write_invalid(self, sim):
        channel = Channel(sim, "c", depth=0)
        value, ok = channel.read_nb()
        assert not ok

    def test_blocking_read_waits_for_first_write(self, sim):
        channel = Channel(sim, "c", depth=0)
        got = []
        def consumer():
            value = yield from channel.read()
            got.append((sim.now, value))
        def producer():
            yield sim.timeout(3)
            channel.write_nb("first")
        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(3, "first")]


class TestDepthZeroRendezvous:
    """Listing 5 semantics: blocking writes complete only on a read."""

    def test_blocking_write_waits_for_reader(self, sim):
        channel = Channel(sim, "c", depth=0)
        events = []
        def producer():
            yield from channel.write("seq1")
            events.append(("write-done", sim.now))
        def consumer():
            yield sim.timeout(8)
            value = yield from channel.read()
            events.append(("read", value, sim.now))
        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("write-done", 8) in events
        assert ("read", "seq1", 8) in events

    def test_sequence_counter_advances_once_per_read(self, sim):
        channel = Channel(sim, "c", depth=0)
        def seq_srv():
            count = 0
            while True:
                count += 1
                yield from channel.write(count)
        sim.process(seq_srv())
        got = []
        def consumer():
            for delay in (3, 1, 10):
                yield sim.timeout(delay)
                value = yield from channel.read()
                got.append(value)
        sim.process(consumer())
        sim.run(until=100)
        assert got == [1, 2, 3]

    def test_read_nb_prefers_waiting_writer_over_register(self, sim):
        channel = Channel(sim, "c", depth=0)
        channel.write_nb("register")
        def producer():
            yield from channel.write("rendezvous")
        sim.process(producer())
        sim.run()
        assert channel.read_nb() == ("rendezvous", True)


class TestEndpointDiscipline:
    def test_second_producer_rejected(self, sim):
        channel = Channel(sim, "c", depth=1)
        channel.bind_producer("kernel_a")
        channel.bind_producer("kernel_a")  # same owner is fine
        with pytest.raises(ChannelUsageError):
            channel.bind_producer("kernel_b")

    def test_second_consumer_rejected(self, sim):
        channel = Channel(sim, "c", depth=1)
        channel.bind_consumer("kernel_a")
        with pytest.raises(ChannelUsageError):
            channel.bind_consumer("kernel_b")

    def test_producer_and_consumer_may_differ(self, sim):
        channel = Channel(sim, "c", depth=1)
        channel.bind_producer("kernel_a")
        channel.bind_consumer("kernel_b")
        assert channel.producer == "kernel_a"
        assert channel.consumer == "kernel_b"


class TestCompiledDepthPitfall:
    """§3.1 limitation 1: overridden depth makes timestamps stale."""

    def test_overridden_depth_buffers_stale_values(self, sim):
        channel = Channel(sim, "c", depth=0, compiled_depth=4)
        # The counter writes 1..6; a depth-4 FIFO keeps the OLDEST four.
        for value in range(1, 7):
            channel.write_nb(value)
        value, ok = channel.read_nb()
        assert ok
        assert value == 1  # stale: not the most recent (6)

    def test_honoured_depth_zero_returns_freshest(self, sim):
        channel = Channel(sim, "c", depth=0)
        for value in range(1, 7):
            channel.write_nb(value)
        assert channel.read_nb() == (6, True)
