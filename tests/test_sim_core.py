"""Unit tests for the discrete-event simulation core."""

from __future__ import annotations

import pytest

from repro.errors import ProcessError, SimulationError
from repro.sim.core import (
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Interrupt,
)
from tests.timer_oracle import at_each_cycle


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_sets_value(self, sim):
        event = sim.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_fail_carries_exception(self, sim):
        boom = ValueError("boom")
        event = sim.event().fail(boom)
        event._defused = True
        sim.run()
        assert not event.ok
        assert event.value is boom

    def test_callback_after_processing_runs_immediately(self, sim):
        event = sim.event().succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]


class TestTimeout:
    def test_fires_at_delay(self, sim):
        timeout = sim.timeout(5, value="v")
        sim.run()
        assert sim.now == 5
        assert timeout.value == "v"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_zero_delay_allowed(self, sim):
        sim.timeout(0)
        sim.run()
        assert sim.now == 0


class TestProcess:
    def test_process_runs_and_returns(self, sim):
        def body():
            yield sim.timeout(3)
            return "done"
        process = sim.process(body())
        result = sim.run(until=process)
        assert result == "done"
        assert sim.now == 3

    def test_non_generator_rejected(self, sim):
        with pytest.raises(ProcessError):
            sim.process(lambda: None)

    def test_sequential_timeouts_accumulate(self, sim):
        log = []
        def body():
            yield sim.timeout(2)
            log.append(sim.now)
            yield sim.timeout(3)
            log.append(sim.now)
        sim.process(body())
        sim.run()
        assert log == [2, 5]

    def test_yielding_non_event_crashes_process(self, sim):
        def body():
            yield 42
        sim.process(body())
        with pytest.raises(ProcessError):
            sim.run()

    def test_exception_in_process_propagates(self, sim):
        def body():
            yield sim.timeout(1)
            raise RuntimeError("kernel bug")
        sim.process(body())
        with pytest.raises(ProcessError, match="kernel bug"):
            sim.run()

    def test_wait_on_event_receives_value(self, sim):
        event = sim.event()
        got = []
        def waiter():
            value = yield event
            got.append(value)
        def trigger():
            yield sim.timeout(4)
            event.succeed("payload")
        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert got == ["payload"]

    def test_wait_on_already_processed_event(self, sim):
        event = sim.event().succeed("x")
        sim.run()
        got = []
        def waiter():
            value = yield event
            got.append((sim.now, value))
        sim.process(waiter())
        sim.run()
        assert got == [(0, "x")]

    def test_failed_event_throws_into_waiter(self, sim):
        event = sim.event()
        caught = []
        def waiter():
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))
        def trigger():
            yield sim.timeout(1)
            event.fail(ValueError("broken"))
        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert caught == ["broken"]

    def test_interrupt_reaches_process(self, sim):
        seen = []
        def body():
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                seen.append((sim.now, interrupt.cause))
        process = sim.process(body())
        def killer():
            yield sim.timeout(10)
            process.interrupt("stop now")
        sim.process(killer())
        sim.run()
        assert seen == [(10, "stop now")]

    def test_interrupt_finished_process_rejected(self, sim):
        def body():
            yield sim.timeout(1)
        process = sim.process(body())
        sim.run()
        with pytest.raises(ProcessError):
            process.interrupt()

    def test_is_alive_lifecycle(self, sim):
        def body():
            yield sim.timeout(5)
        process = sim.process(body())
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestSimulatorRun:
    def test_run_until_time_stops_before_later_events(self, sim):
        fired = []
        def body():
            yield sim.timeout(10)
            fired.append(sim.now)
        sim.process(body())
        sim.run(until=5)
        assert fired == []
        assert sim.now == 5
        sim.run(until=20)
        assert fired == [10]

    def test_run_until_past_time_rejected(self, sim):
        sim.timeout(1)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0)

    def test_run_until_event_returns_its_value(self, sim):
        def body():
            yield sim.timeout(2)
            return 99
        process = sim.process(body())
        assert sim.run(until=process) == 99

    def test_step_on_empty_queue_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek_reports_next_event_time(self, sim):
        assert sim.peek() is None
        sim.timeout(7)
        assert sim.peek() == 7

    def test_run_all_guards_against_livelock(self, sim):
        def forever():
            while True:
                yield sim.timeout(1)
        sim.process(forever())
        with pytest.raises(SimulationError, match="livelock"):
            sim.run_all(max_cycles=100)


class TestPriorities:
    def test_urgent_runs_before_normal_same_cycle(self, sim):
        order = []
        def late():
            yield sim.timeout(5, priority=PRIORITY_NORMAL)
            order.append("normal")
        def early():
            yield sim.timeout(5, priority=PRIORITY_URGENT)
            order.append("urgent")
        sim.process(late())
        sim.process(early())
        sim.run()
        assert order == ["urgent", "normal"]

    def test_late_runs_after_normal_same_cycle(self, sim):
        order = []
        def monitor():
            yield sim.timeout(3, priority=PRIORITY_LATE)
            order.append("late")
        def work():
            yield sim.timeout(3, priority=PRIORITY_NORMAL)
            order.append("normal")
        sim.process(monitor())
        sim.process(work())
        sim.run()
        assert order == ["normal", "late"]

    def test_fifo_within_same_priority(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            def body(t=tag):
                yield sim.timeout(1)
                order.append(t)
            sim.process(body())
        sim.run()
        assert order == ["a", "b", "c"]


class TestLastBegunCycle:
    def test_a_dequeued_event_begins_its_cycle(self, sim):
        assert sim.last_begun_cycle() == -1
        seen = []
        sim.timeout(3).add_callback(
            lambda _event: seen.append(sim.last_begun_cycle()))
        sim.run()
        assert seen == [3] and sim.last_begun_cycle() == 3

    def test_run_until_stops_between_cycles(self, sim):
        sim.timeout(2)
        sim.run(until=5)
        assert sim.now == 5 and sim.last_begun_cycle() == 4
        sim.run(until=5)
        assert sim.last_begun_cycle() == 4
        sim.timeout(0)
        sim.run()
        assert sim.now == 5 and sim.last_begun_cycle() == 5


class TestAtEachCycle:
    def test_runs_every_cycle_until_true(self, sim):
        cycles = []
        def body(cycle):
            cycles.append(cycle)
            return cycle >= 3
        at_each_cycle(sim, body)
        sim.run()
        assert cycles == [0, 1, 2, 3]
