"""Idle ibuffer units park instead of polling every cycle.

Pins the cost side of parking with exact counts (simulator events, body
iterations), the paper experiments' outputs against the per-cycle
polling oracle (:mod:`tests.polling_oracle`), and the contract of the
``await_data`` op itself.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.channels.channel import CounterRegisterChannel
from repro.cli import main
from repro.core.stall_monitor import StallMonitor
from repro.errors import ChannelUsageError, KernelBuildError, ProcessError
from repro.experiments import sec51, sec52
from repro.hdl.counter import GetTimeModule
from repro.pipeline import fabric as fabric_module
from repro.pipeline.engine import AutorunEngine
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, SingleTaskKernel
from repro.sim.core import PRIORITY_LATE, Simulator
from tests.polling_oracle import polling_ibuffers


def _oracle(polling):
    return polling_ibuffers() if polling else contextlib.nullcontext()


def _count_steps(sim):
    """Count the events ``sim`` processes from now on."""
    count = [0]
    step = sim.step

    def counting_step():
        count[0] += 1
        step()

    sim.step = counting_step
    return count


class TestEventCost:
    def test_idle_stall_monitor_costs_constant_events(self):
        fabric = Fabric()
        StallMonitor(fabric, sites=2)
        steps = _count_steps(fabric.sim)
        fabric.advance(10_000)
        # Per unit: the start event and the phase alignment; then both
        # park on their empty channels for good.
        assert steps[0] == 4
        assert fabric.sim.now == 10_000

    def test_polling_oracle_pays_one_event_per_cycle(self):
        fabric = Fabric()
        with polling_ibuffers():
            StallMonitor(fabric, sites=2)
        steps = _count_steps(fabric.sim)
        fabric.advance(10_000)
        assert steps[0] == 10_003

    @pytest.mark.parametrize("polling,iterations", [(False, 18_427),
                                                    (True, 59_532)])
    def test_sec51_body_iterations(self, monkeypatch, polling, iterations):
        # One timestamp read per loop iteration of the ibuffer body.
        count = [0]
        original = GetTimeModule.synthesize_behavior

        def counting(module, *args):
            if module.name == "stall_monitor_get_time":
                count[0] += 1
            return original(module, *args)

        monkeypatch.setattr(GetTimeModule, "synthesize_behavior", counting)
        with _oracle(polling):
            sec51.run()
        assert count[0] == iterations


class TestExperimentsMatchPollingOracle:
    @pytest.mark.parametrize("experiment", ["sec51", "sec52"])
    def test_trace_bundle_is_byte_identical(self, tmp_path, experiment):
        bundles = []
        for polling in (False, True):
            path = tmp_path / f"{experiment}-{polling}.ctb"
            with _oracle(polling):
                assert main(["run", experiment, "--trace-out",
                             str(path)]) == 0
            bundles.append(path.read_bytes())
        assert bundles[0] == bundles[1]

    @pytest.mark.parametrize("run", [sec51.run, sec52.run])
    def test_channel_stats_and_clock_identical(self, monkeypatch, run):
        def observe(polling):
            fabrics = []
            original = Fabric.__init__

            def recording_init(fabric, *args, **kwargs):
                original(fabric, *args, **kwargs)
                fabrics.append(fabric)

            with monkeypatch.context() as patch:
                patch.setattr(fabric_module.Fabric, "__init__",
                              recording_init)
                with _oracle(polling):
                    run()
            return [(fabric.sim.now, fabric.channels.stats_table())
                    for fabric in fabrics]

        assert observe(False) == observe(True)


class TestLatePhaseClock:
    def test_far_event_ahead_of_the_late_lane(self):
        sim = Simulator()
        seen = []

        def record(label):
            return lambda event: seen.append((label, sim.now,
                                              sim.last_late_phase()))

        sim.timeout(300).add_callback(record("far normal"))
        sim.run(until=100)
        sim.timeout(200, priority=PRIORITY_LATE).add_callback(
            record("wheel late"))
        sim.run()
        # The far event dequeues first although the wheel slot's only
        # lane is LATE: that phase has not begun while it runs.
        assert seen == [("far normal", 300, 299), ("wheel late", 300, 300)]

    def test_wake_goes_to_the_head_of_the_next_late_lane(self):
        sim = Simulator()
        order = []
        sim.timeout(1, priority=PRIORITY_LATE).add_callback(
            lambda event: order.append("tick"))
        early = sim.event()
        early.add_callback(lambda event: order.append(("early", sim.now)))
        sim.wake_at_late_phase(early)       # LATE of cycle 0 not begun
        sim.timeout(0, priority=PRIORITY_LATE).add_callback(
            lambda event: sim.wake_at_late_phase(late))
        late = sim.event()
        late.add_callback(lambda event: order.append(("late", sim.now)))
        sim.run()
        assert order == [("early", 0), ("late", 1), "tick"]


class _Echo(AutorunKernel):
    """Late-phase consumer: copies ``src`` to ``seen``, parking when idle."""

    def __init__(self, src, phase="late"):
        super().__init__(name=f"echo_{phase}", phase=phase)
        self.src = src
        self.seen = []

    def body(self, ctx):
        idle = ctx.await_data(self.src)
        while True:
            value, ok = ctx.read_channel_nb(self.src)
            if ok:
                self.seen.append((ctx.now, value))
            yield idle


class TestAwaitDataOp:
    @pytest.mark.parametrize("executor", ["fast", "reference"])
    def test_executors_agree_with_hand_polling(self, executor):
        fabric = Fabric()
        src = fabric.channels.declare("src", depth=2)
        echo = _Echo(src)
        AutorunEngine(fabric, echo, executor=executor).start()
        fabric.advance(5)
        src.write_nb(1)
        src.write_nb(2)
        src.write_nb(3)          # dropped: the channel is 2 deep
        fabric.advance(10)
        mid = src.stats.as_dict()
        fabric.advance(10)
        # Polled at cycles 0..24: two reads at 5 and 6, the rest failed.
        assert echo.seen == [(5, 1), (6, 2)]
        assert mid["read_failures"] == 15 - 2
        assert src.stats.read_failures == 25 - 2
        assert src.stats.write_failures == 1

    def test_depth0_channel_wakes_on_register_and_rendezvous(self):
        # A register write wakes the unit, which then polls the sticky
        # value every cycle; a rendezvous writer wakes it likewise.
        def observe(executor):
            fabric = Fabric()
            src = fabric.channels.declare("src", depth=0)
            echo = _Echo(src)
            AutorunEngine(fabric, echo, executor=executor).start()
            fabric.advance(4)
            middle = src.stats.as_dict()
            src.write_nb(9)
            fabric.advance(3)
            rendezvous = fabric.channels.declare("rv", depth=0)
            second = _Echo(rendezvous)
            AutorunEngine(fabric, second, executor=executor).start()
            fabric.advance(6)

            class Send(SingleTaskKernel):
                def iteration_space(self, args):
                    return [0]

                def body(self, ctx):
                    yield ctx.write_channel(rendezvous, 5)

            fabric.run_kernel(Send(name="send"))
            fabric.advance(4)
            return (echo.seen, second.seen, middle, src.stats.as_dict(),
                    rendezvous.stats.as_dict(), fabric.sim.now)

        parked = observe("fast")
        assert parked == observe("reference")
        assert parked[0][:2] == [(4, 9), (5, 9)]
        assert len(parked[1]) == 1

    def test_early_phase_kernel_cannot_park(self):
        fabric = Fabric()
        echo = _Echo(fabric.channels.declare("src"), phase="early")
        fabric.add_autorun(echo)
        with pytest.raises(ProcessError, match="late-phase autorun") as caught:
            fabric.advance(3)
        assert isinstance(caught.value.__cause__, KernelBuildError)

    def test_pipelined_kernel_cannot_park(self):
        fabric = Fabric()
        src = fabric.channels.declare("src")

        class Once(SingleTaskKernel):
            def iteration_space(self, args):
                return [0]

            def body(self, ctx):
                yield ctx.await_data(src)

        with pytest.raises(ProcessError, match="late-phase autorun"):
            fabric.run_kernel(Once(name="once"))

    def test_counter_channels_refuse_parking(self):
        fabric = Fabric()
        counter = CounterRegisterChannel(fabric.sim, "counter", start_cycle=5)
        with pytest.raises(ChannelUsageError, match="cannot park"):
            counter.park(lambda: None)

    def test_stop_settles_and_detaches(self):
        fabric = Fabric()
        src = fabric.channels.declare("src")
        echo = _Echo(src)
        fabric.add_autorun(echo)
        fabric.advance(50)
        fabric.stop_autorun()
        assert src.stats.read_failures == 50
        src.write_nb(7)          # no longer wakes anything
        fabric.advance(50)
        assert src.stats.read_failures == 50
        assert echo.seen == []

