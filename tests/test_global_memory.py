"""Unit tests for the global memory controller."""

from __future__ import annotations

import pytest

from repro.errors import AddressError
from repro.memory.global_memory import GlobalMemory, GlobalMemoryConfig


def _loader(sim, memory, name, index, out):
    def body():
        value = yield memory.load(name, index)
        out.append((sim.now, value))
    return body()


class TestConfigValidation:
    def test_bad_banks_rejected(self):
        with pytest.raises(AddressError):
            GlobalMemoryConfig(banks=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(AddressError):
            GlobalMemoryConfig(pipe_latency=-1)

    def test_max_outstanding_is_not_a_field(self):
        # The controller never bounded in-flight requests, so the knob
        # that claimed to is gone rather than silently accepted.
        with pytest.raises(TypeError):
            GlobalMemoryConfig(max_outstanding=64)


class TestLoadTiming:
    def test_first_load_costs_pipe_plus_row_miss(self, sim):
        memory = GlobalMemory(sim)
        memory.allocate("x", 8).fill(range(8))
        out = []
        sim.process(_loader(sim, memory, "x", 0, out))
        sim.run()
        config = memory.config
        expected = (config.pipe_latency + config.row_miss_cycles
                    + config.bank_busy_cycles)
        assert out == [(expected, 0)]

    def test_row_hit_cheaper_than_row_miss(self, sim):
        memory = GlobalMemory(sim)
        memory.allocate("x", 512).fill(range(512))
        times = []
        def body():
            start = sim.now
            yield memory.load("x", 0)        # row miss
            times.append(sim.now - start)
            start = sim.now
            yield memory.load("x", 1)        # same row: hit
            times.append(sim.now - start)
        sim.process(body())
        sim.run()
        assert times[1] < times[0]
        assert memory.stats.row_hits == 1
        assert memory.stats.row_misses == 1

    def test_same_bank_accesses_serialize(self, sim):
        memory = GlobalMemory(sim)
        memory.allocate("x", 4096).fill(range(4096))
        completions = []
        def issuer():
            # Two concurrent loads to the same row/bank.
            first = memory.load("x", 0)
            second = memory.load("x", 2)
            first.add_callback(lambda e: completions.append(("first", sim.now)))
            second.add_callback(lambda e: completions.append(("second", sim.now)))
            yield sim.timeout(0)
        sim.process(issuer())
        sim.run()
        assert completions[0][0] == "first"
        assert completions[1][1] > completions[0][1]

    def test_different_banks_overlap(self, sim):
        config = GlobalMemoryConfig(banks=8, row_bytes=64)
        memory = GlobalMemory(sim, config)
        memory.allocate("x", 64).fill(range(64))
        completions = []
        def issuer():
            # Elements 0 and 8 are 64 bytes apart: adjacent rows, banks 0/1.
            a = memory.load("x", 0)
            b = memory.load("x", 8)
            a.add_callback(lambda e: completions.append(sim.now))
            b.add_callback(lambda e: completions.append(sim.now))
            yield sim.timeout(0)
        sim.process(issuer())
        sim.run()
        assert completions[0] == completions[1]  # fully parallel banks

    def test_load_returns_current_value_at_completion(self, sim):
        memory = GlobalMemory(sim)
        store = memory.allocate("x", 4)
        out = []
        sim.process(_loader(sim, memory, "x", 1, out))
        store.write(1, 123)  # written before the load completes
        sim.run()
        assert out[0][1] == 123

    def test_out_of_range_load_raises_immediately(self, sim):
        memory = GlobalMemory(sim)
        memory.allocate("x", 4)
        with pytest.raises(AddressError):
            memory.load("x", 10)


class TestStores:
    def test_posted_store_unblocks_early_commits_late(self, sim):
        memory = GlobalMemory(sim)
        store = memory.allocate("x", 4)
        resumed = []
        def body():
            yield memory.store("x", 0, 9)
            resumed.append(sim.now)
        sim.process(body())
        sim.run(until=memory.config.posted_write_latency + 1)
        assert resumed == [memory.config.posted_write_latency]
        assert memory.pending_commits == 1
        sim.run()
        assert memory.pending_commits == 0
        assert store.read(0) == 9

    def test_drained_event_waits_for_commits(self, sim):
        memory = GlobalMemory(sim)
        memory.allocate("x", 4)
        drained_at = []
        def body():
            yield memory.store("x", 0, 1)
            yield memory.drained()
            drained_at.append(sim.now)
        sim.process(body())
        sim.run()
        assert drained_at[0] > memory.config.posted_write_latency

    def test_drained_immediate_when_no_stores(self, sim):
        memory = GlobalMemory(sim)
        event = memory.drained()
        assert event.triggered


class TestStats:
    def test_mean_latency_accumulates(self, sim):
        memory = GlobalMemory(sim)
        memory.allocate("x", 8).fill(range(8))
        def body():
            yield memory.load("x", 0)
            yield memory.load("x", 1)
        sim.process(body())
        sim.run()
        assert memory.stats.loads == 2
        assert memory.stats.mean_load_latency > 0

    def test_empty_stats_mean_zero(self, sim):
        memory = GlobalMemory(sim)
        assert memory.stats.mean_load_latency == 0.0


class TestConfigPhysicality:
    def test_hit_slower_than_miss_rejected(self):
        with pytest.raises(AddressError):
            GlobalMemoryConfig(row_hit_cycles=30, row_miss_cycles=10)
