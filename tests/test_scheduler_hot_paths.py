"""Tests for the scheduler's hot-path machinery: pooled ticks, the O(1)
interrupt detach, and ``run(until=event)`` semantics."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.conditions import AnyOf
from repro.sim.core import Interrupt, PRIORITY_URGENT


class TestTickPooling:
    def test_tick_behaves_like_timeout_one(self, sim):
        times = []

        def stepper():
            for _ in range(5):
                yield sim.tick()
            times.append(sim.now)
        sim.process(stepper())
        sim.run()
        assert times == [5]

    def test_tick_objects_are_recycled(self, sim):
        seen = set()

        def stepper():
            for _ in range(100):
                tick = sim.tick()
                seen.add(id(tick))
                yield tick
        sim.process(stepper())
        sim.run()
        # The pool recycles aggressively: far fewer objects than yields.
        assert len(seen) < 100

    def test_recycled_tick_state_is_reset(self, sim):
        values = []

        def stepper():
            for _ in range(10):
                values.append((yield sim.tick()))
        sim.process(stepper())
        sim.run()
        assert values == [None] * 10

    def test_tick_priority_respected(self, sim):
        order = []

        def urgent():
            yield sim.tick(PRIORITY_URGENT)
            order.append("urgent")

        def normal():
            yield sim.tick()
            order.append("normal")
        sim.process(normal())
        sim.process(urgent())
        sim.run()
        assert order == ["urgent", "normal"]

    def test_two_processes_never_share_a_live_tick(self, sim):
        ticks = []

        def stepper(label):
            for _ in range(50):
                tick = sim.tick()
                ticks.append((label, tick))
                yield tick
        sim.process(stepper("a"))
        sim.process(stepper("b"))
        sim.run()
        # Within one cycle the two processes' ticks are distinct objects.
        by_cycle = {}
        for index, (label, tick) in enumerate(ticks):
            by_cycle.setdefault(index // 2, []).append(tick)


class TestInterruptDetach:
    def test_interrupt_does_not_scan_wide_anyof(self, sim):
        """Interrupting a process waiting on a wide AnyOf must not corrupt
        the other waiters' callbacks."""
        events = [sim.event() for _ in range(50)]
        other_done = []

        def waiter():
            try:
                yield AnyOf(sim, events)
            except Interrupt:
                yield sim.timeout(1)
        process = sim.process(waiter())

        def bystander():
            yield events[7]
            other_done.append(sim.now)
        sim.process(bystander())

        def killer():
            yield sim.timeout(5)
            process.interrupt()
            yield sim.timeout(5)
            events[7].succeed()
        sim.process(killer())
        sim.run()
        assert other_done == [10]

    def test_rewaiting_the_same_event_after_interrupt(self, sim):
        """A process that re-yields the event it was detached from must be
        woken by it normally (the stale marker applies only once)."""
        target = sim.event()
        log = []

        def waiter():
            try:
                yield target
            except Interrupt:
                value = yield target
                log.append((sim.now, value))
        process = sim.process(waiter())

        def driver():
            yield sim.timeout(3)
            process.interrupt()
            yield sim.timeout(4)
            target.succeed("late")
        sim.process(driver())
        sim.run()
        assert log == [(7, "late")]

    def test_double_interrupt_delivers_both(self, sim):
        causes = []

        def waiter():
            try:
                yield sim.timeout(100)
            except Interrupt as first:
                causes.append(first.cause)
                try:
                    yield sim.timeout(100)
                except Interrupt as second:
                    causes.append(second.cause)
        process = sim.process(waiter())

        def killer():
            yield sim.timeout(2)
            process.interrupt("one")
            yield sim.timeout(2)
            process.interrupt("two")
        sim.process(killer())
        sim.run()
        assert causes == ["one", "two"]


class TestRunUntilEvent:
    def test_returns_value_when_event_triggers(self, sim):
        def producer():
            yield sim.timeout(9)
            return "done"
        process = sim.process(producer())
        assert sim.run(until=process) == "done"
        assert sim.now == 9

    def test_raises_when_queue_drains_first(self, sim):
        never = sim.event()
        sim.timeout(5)
        with pytest.raises(SimulationError, match="ran out of events"):
            sim.run(until=never)

    def test_until_past_time_rejected(self, sim):
        sim.timeout(10)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.run(until=3)

    def test_until_time_advances_clock_to_stop(self, sim):
        sim.timeout(3)
        sim.run(until=50)
        assert sim.now == 50
