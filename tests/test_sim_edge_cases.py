"""Edge-case tests for the simulation core: interrupts under blocking
operations, condition failures, and scheduler corner cases."""

from __future__ import annotations

import pytest

from repro.channels.channel import Channel
from repro.errors import ProcessError, SimulationError
from repro.sim.conditions import AllOf, AnyOf
from repro.sim.core import Interrupt, PRIORITY_URGENT
from repro.sim.resources import Store


class TestInterruptWhileBlocked:
    def test_interrupt_during_store_get(self, sim):
        store = Store(sim, capacity=2)
        outcome = []

        def consumer():
            try:
                yield store.get()
                outcome.append("got")
            except Interrupt:
                outcome.append("interrupted")
        process = sim.process(consumer())

        def killer():
            yield sim.timeout(5)
            process.interrupt()
        sim.process(killer())
        sim.run()
        assert outcome == ["interrupted"]

    def test_interrupt_during_blocking_channel_read(self, sim):
        channel = Channel(sim, "c", depth=2)
        outcome = []

        def consumer():
            try:
                value = yield from channel.read()
                outcome.append(value)
            except Interrupt:
                outcome.append("stopped")
        process = sim.process(consumer())

        def killer():
            yield sim.timeout(3)
            process.interrupt("teardown")
        sim.process(killer())
        sim.run()
        assert outcome == ["stopped"]

    def test_interrupted_process_can_finish_cleanly(self, sim):
        log = []

        def body():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(2)       # continue after the interrupt
            log.append(sim.now)
        process = sim.process(body())

        def killer():
            yield sim.timeout(10)
            process.interrupt()
        sim.process(killer())
        sim.run()
        assert log == [12]


class TestConditionsEdgeCases:
    def test_allof_with_already_processed_events(self, sim):
        done = sim.timeout(0)
        sim.run()
        pending = sim.timeout(4)
        condition = AllOf(sim, [done, pending])
        sim.run()
        assert condition.triggered
        assert len(condition.value) == 2

    def test_anyof_failure_before_success(self, sim):
        bad = sim.event()
        slow = sim.timeout(50)
        condition = AnyOf(sim, [bad, slow])
        caught = []

        def waiter():
            try:
                yield condition
            except RuntimeError as exc:
                caught.append(str(exc))
        sim.process(waiter())

        def failer():
            yield sim.timeout(1)
            bad.fail(RuntimeError("early failure"))
        sim.process(failer())
        sim.run()
        assert caught == ["early failure"]

    def test_nested_conditions(self, sim):
        a, b, c = sim.timeout(1), sim.timeout(2), sim.timeout(30)
        inner = AllOf(sim, [a, b])
        outer = AnyOf(sim, [inner, c])
        fired_at = []

        def waiter():
            yield outer
            fired_at.append(sim.now)
        sim.process(waiter())
        sim.run()
        assert fired_at == [2]


class TestSchedulerCornerCases:
    def test_same_cycle_urgent_event_in_callback(self, sim):
        """An urgent event scheduled from a normal callback still runs in
        the same cycle (after all already-queued work)."""
        order = []

        def normal():
            yield sim.timeout(5)
            order.append("normal")
            sim.timeout(0, priority=PRIORITY_URGENT).add_callback(
                lambda e: order.append("urgent-after"))
        sim.process(normal())
        sim.run()
        assert order == ["normal", "urgent-after"]
        assert sim.now == 5

    def test_many_processes_fifo_fairness(self, sim):
        order = []
        for index in range(50):
            def body(i=index):
                yield sim.timeout(1)
                order.append(i)
            sim.process(body())
        sim.run()
        assert order == list(range(50))

    def test_event_failure_without_waiter_is_loud(self, sim):
        def body():
            yield sim.timeout(1)
            raise ValueError("unobserved crash")
        sim.process(body())
        with pytest.raises(ProcessError, match="unobserved crash"):
            sim.run()

    def test_run_until_event_with_empty_queue_raises(self, sim):
        never = sim.event()
        with pytest.raises(SimulationError, match="ran out of events"):
            sim.run(until=never)
