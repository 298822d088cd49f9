"""Unit tests for Store and Resource."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Resource, Store


class TestStoreBasics:
    def test_negative_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=-1)

    def test_try_put_try_get_roundtrip(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put("x")
        assert store.level == 1
        value, ok = store.try_get()
        assert (value, ok) == ("x", True)
        assert store.level == 0

    def test_try_get_empty_fails(self, sim):
        store = Store(sim, capacity=1)
        value, ok = store.try_get()
        assert not ok and value is None

    def test_try_put_full_fails(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put(1)
        assert not store.try_put(2)
        assert store.is_full

    def test_fifo_order(self, sim):
        store = Store(sim, capacity=5)
        for item in (1, 2, 3):
            store.try_put(item)
        drained = [store.try_get()[0] for _ in range(3)]
        assert drained == [1, 2, 3]


class TestStoreBlocking:
    def test_get_blocks_until_put(self, sim):
        store = Store(sim, capacity=1)
        got = []
        def consumer():
            value = yield store.get()
            got.append((sim.now, value))
        def producer():
            yield sim.timeout(6)
            yield store.put("late")
        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(6, "late")]

    def test_put_blocks_when_full(self, sim):
        store = Store(sim, capacity=1)
        store.try_put("first")
        times = []
        def producer():
            yield store.put("second")
            times.append(sim.now)
        def consumer():
            yield sim.timeout(9)
            yield store.get()
        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert times == [9]

    def test_zero_capacity_rendezvous(self, sim):
        store = Store(sim, capacity=0)
        log = []
        def producer():
            yield store.put("hand-off")
            log.append(("put-done", sim.now))
        def consumer():
            yield sim.timeout(4)
            value = yield store.get()
            log.append(("got", value, sim.now))
        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("got", "hand-off", 4) in log
        assert ("put-done", 4) in log

    def test_try_put_to_waiting_getter_bypasses_buffer(self, sim):
        store = Store(sim, capacity=0)
        got = []
        def consumer():
            value = yield store.get()
            got.append(value)
        sim.process(consumer())
        sim.run()  # consumer now blocked
        assert store.try_put("direct")
        sim.run()
        assert got == ["direct"]

    def test_waiting_getters_fifo(self, sim):
        store = Store(sim, capacity=4)
        got = []
        for name in ("a", "b"):
            def consumer(n=name):
                value = yield store.get()
                got.append((n, value))
            sim.process(consumer())
        def producer():
            yield sim.timeout(1)
            store.try_put(1)
            store.try_put(2)
        sim.process(producer())
        sim.run()
        assert got == [("a", 1), ("b", 2)]


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_exclusive_access_serializes(self, sim):
        resource = Resource(sim, capacity=1)
        schedule = []
        def user(name, hold):
            request = resource.request()
            yield request
            schedule.append((name, "start", sim.now))
            yield sim.timeout(hold)
            resource.release(request)
            schedule.append((name, "end", sim.now))
        sim.process(user("a", 5))
        sim.process(user("b", 3))
        sim.run()
        assert schedule == [("a", "start", 0), ("a", "end", 5),
                            ("b", "start", 5), ("b", "end", 8)]

    def test_capacity_two_allows_overlap(self, sim):
        resource = Resource(sim, capacity=2)
        starts = []
        def user(name):
            request = resource.request()
            yield request
            starts.append((name, sim.now))
            yield sim.timeout(4)
            resource.release(request)
        sim.process(user("a"))
        sim.process(user("b"))
        sim.run()
        assert starts == [("a", 0), ("b", 0)]

    def test_release_waiting_request_cancels_it(self, sim):
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        assert not second.triggered
        resource.release(second)  # cancel while queued
        resource.release(first)
        assert resource.count == 0
