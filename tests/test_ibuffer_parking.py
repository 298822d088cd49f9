"""Idle ibuffer units park instead of polling every cycle (from their
start, with probe data taken by their data channel's sink), READ hands
its words to the out channel instead of writing one per cycle, and the
host READ stores runs of them in closed-form transfer windows.

Pins the cost side of parking, of the sinks, of the lazy READ drain and
of the transfer windows with exact counts (simulator events, body iterations,
host store retire events), the paper experiments' outputs against the
per-cycle polling oracle (:mod:`tests.polling_oracle`), and the
contracts of the ``await_data`` and ``drain`` ops themselves.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.channels.channel import CounterRegisterChannel
from repro.cli import main
from repro.core.stall_monitor import StallMonitor
from repro.errors import ChannelUsageError, KernelBuildError, ProcessError
from repro.experiments import fig2, sec51, sec52
from repro.hdl.counter import GetTimeModule
from repro.memory.lsu import LoadStoreUnit
from repro.pipeline import fabric as fabric_module
from repro.pipeline.engine import AutorunEngine
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import (
    AutorunKernel,
    PipelineConfig,
    SingleTaskKernel,
)
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
        # Both units start parked on their empty channels, for good.
        assert steps[0] == 0
        assert fabric.sim.now == 10_000

    def test_polling_oracle_pays_one_event_per_cycle(self):
        fabric = Fabric()
        with polling_ibuffers():
            StallMonitor(fabric, sites=2)
        steps = _count_steps(fabric.sim)
        fabric.advance(10_000)
        assert steps[0] == 10_003

    @pytest.mark.parametrize("polling,iterations", [(False, 6),
                                                    (True, 59_532)])
    def test_sec51_body_iterations(self, monkeypatch, polling, iterations):
        assert _body_iterations(monkeypatch, sec51.run, "stall_monitor",
                                polling) == iterations

    @pytest.mark.parametrize("polling,iterations", [(False, 8),
                                                    (True, 17_176)])
    def test_sec52_body_iterations(self, monkeypatch, polling, iterations):
        assert _body_iterations(monkeypatch, sec52.run, "watchpoint",
                                polling) == iterations

    @pytest.mark.parametrize("depth", [16, 256])
    def test_read_schedules_no_per_word_tick(self, monkeypatch, depth):
        # A READ of `depth` entries: the unit wakes for the command, writes
        # the first word and hands over the rest, and wakes once more
        # after the last one to take READ -> STOP.
        fabric = Fabric()
        monitor = StallMonitor(fabric, sites=1, depth=depth)
        for value in range(depth):
            monitor.ibuffer.data_c[0].write_nb(value)
            fabric.advance(1)
        monitor.host.stop(0)
        sim = fabric.sim
        late = [0]
        broadcast_tick = sim.broadcast_tick
        wake_at_late_phase = sim.wake_at_late_phase

        def counting_tick(priority):
            late[0] += priority == PRIORITY_LATE
            return broadcast_tick(priority)

        def counting_wake(event):
            late[0] += 1
            wake_at_late_phase(event)

        monkeypatch.setattr(sim, "broadcast_tick", counting_tick)
        monkeypatch.setattr(sim, "wake_at_late_phase", counting_wake)
        iterations = [0]
        original = GetTimeModule.synthesize_behavior

        def counting(module, *args):
            iterations[0] += 1
            return original(module, *args)

        monkeypatch.setattr(GetTimeModule, "synthesize_behavior", counting)
        entries = monitor.host.read_trace(0)
        assert [entry["value"] for entry in entries] == list(range(depth))
        assert iterations[0] == 2
        # The two wakes; no LATE tick or wake per word.
        assert late[0] == 2


    @pytest.mark.parametrize("run,events", [(fig2.run, 16),
                                            (sec51.run, 52),
                                            (sec52.run, 143)])
    def test_default_call_scheduled_events(self, monkeypatch, run, events):
        # Exact event cost of one default experiment call: pipeline
        # iterations start detached (no completion event), ibuffer units
        # start parked and take probe data through their sinks (no
        # event per datum), and the host READ computes most words in
        # transfer windows (one commit flush per window, no retire
        # event). Each Fig. 2 launch, and the stall-monitored matmul of
        # §5.1, is replayed analytically: per launch, the launcher's
        # start and end, the completion trigger and the completion, the
        # commit flush and the drain wait (for Fig. 2, per fabric, also
        # the sequence server's start and phase alignment). §5.2's
        # watchpoint kernel still steps. Head-of-lane insertions (the
        # LATE wakes of parked units) count too: 6 in §5.1, 8 in §5.2.
        count = [0]

        def counting(original):
            def wrapper(sim, *args, **kwargs):
                count[0] += 1
                original(sim, *args, **kwargs)
            return wrapper

        for name in ("_schedule", "_schedule_front"):
            monkeypatch.setattr(Simulator, name,
                                counting(getattr(Simulator, name)))
        run()
        assert count[0] == events

    @pytest.mark.parametrize("depth", [16, 256])
    def test_read_steps_four_host_stores(self, monkeypatch, depth):
        # Of a READ's 4 * depth words the host steps the first, whose
        # read blocks until the unit takes the command and starts its
        # feed, and the last three: the read that fixes the feed's end,
        # and two more while the feed's end event is pending. Windows
        # store the rest without a retire event.
        fabric = Fabric()
        monitor = StallMonitor(fabric, sites=1, depth=depth)
        for value in range(depth):
            monitor.ibuffer.data_c[0].write_nb(value)
            fabric.advance(1)
        monitor.host.stop(0)
        retires = []
        issue = LoadStoreUnit.issue

        def counting(lsu, *args):
            retires.append(lsu.site)
            return issue(lsu, *args)

        monkeypatch.setattr(LoadStoreUnit, "issue", counting)
        entries = monitor.host.read_trace(0)
        assert [entry["value"] for entry in entries] == list(range(depth))
        assert retires == ["stall_monitor_read_host.cu0:Store@L54"] * 4


def _body_iterations(monkeypatch, run, ibuffer, polling):
    """Ibuffer body iterations in ``run()``: one timestamp read each."""
    count = [0]
    original = GetTimeModule.synthesize_behavior

    def counting(module, *args):
        if module.name == f"{ibuffer}_get_time":
            count[0] += 1
        return original(module, *args)

    monkeypatch.setattr(GetTimeModule, "synthesize_behavior", counting)
    with _oracle(polling):
        run()
    return count[0]


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



class _Feeder(AutorunKernel):
    """Late-phase producer: drains ``words`` into ``out`` with ``drain``,
    polling ``cmd``; logs ``(cycle, command, position)`` per iteration."""

    def __init__(self, out, cmd, words):
        super().__init__(name="feeder", phase="late")
        self.out = out
        self.cmd = cmd
        self.words = words
        self.log = []

    def body(self, ctx):
        position = 0
        while True:
            command, ok = ctx.read_channel_nb(self.cmd)
            if position < len(self.words) and ctx.write_channel_nb(
                    self.out, self.words[position]):
                position += 1
            self.log.append((ctx.now, command if ok else None, position))
            position = yield ctx.drain(self.out, self.words, position,
                                       [self.cmd])


class _Reader(SingleTaskKernel):
    """Reads ``src`` once per iteration after ``gaps[i]`` cycles, blocking
    or with ``read_nb``; up to ``inflight`` iterations wait at once."""

    def __init__(self, src, gaps, blocking, inflight):
        super().__init__(name="reader", pipeline=PipelineConfig(
            ii=1, max_inflight=inflight))
        self.src = src
        self.gaps = gaps
        self.blocking = blocking
        self.seen = []

    def iteration_space(self, args):
        return range(len(self.gaps))

    def body(self, ctx):
        if self.gaps[ctx.iteration]:
            yield ctx.compute(self.gaps[ctx.iteration])
        if self.blocking:
            value = yield ctx.read_channel(self.src)
        else:
            value, ok = ctx.read_channel_nb(self.src)
            value = value if ok else None
        self.seen.append((ctx.now, ctx.iteration, value))


class TestDrainOp:
    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    @pytest.mark.parametrize("reader", ["none", "paced", "nb", "burst",
                                        "twin"])
    def test_executors_agree(self, depth, reader):
        # The fast executor's feed against the reference executor's cycle
        # loop: a command lands mid-drain, readers block on the empty
        # FIFO (one at a time, or two launches issuing together, even
        # before the first word), poll it, or never come.
        def observe(executor):
            fabric = Fabric()
            out = fabric.channels.declare("out", depth=depth)
            cmd = fabric.channels.declare("cmd", depth=2)
            feeder = _Feeder(out, cmd, list(range(100, 130)))
            AutorunEngine(fabric, feeder, executor=executor).start()
            gaps = {"paced": [0, 0, 0, 3, 0, 7, 1, 0, 0, 2] * 3,
                    "nb": [1, 0, 2, 0, 0, 5, 1, 3] * 4,
                    "burst": [0] * 12, "twin": [0]}.get(reader)
            readers = []
            if gaps is not None:
                readers.append(_Reader(out, gaps, reader != "nb",
                                       8 if reader == "burst" else 1))
                for _ in range(2 if reader in ("burst", "twin") else 1):
                    fabric.launch(readers[0], {}, executor=executor)
            fabric.advance(6)
            cmd.write_nb(7)
            fabric.advance(3)
            middle = fabric.channels.stats_table()
            fabric.advance(60)
            return (feeder.log, [r.seen for r in readers], middle,
                    fabric.channels.stats_table(), fabric.sim.now)

        fast = observe("fast")
        assert fast == observe("reference")
        assert (6, 7) in [entry[:2] for entry in fast[0]]
        if fast[1] and depth:
            # A FIFO hands each word out once, in order.
            got = [value for _, _, value in fast[1][0] if value is not None]
            assert got == list(range(100, 100 + len(got)))

    def test_parked_consumer_gets_every_word(self):
        # A late-phase consumer parked on a fed channel is not stranded:
        # the feed writes at the head of the next LATE phase and wakes it.
        fabric = Fabric()
        out = fabric.channels.declare("out", depth=2)
        feeder = _Feeder(out, fabric.channels.declare("cmd"), list(range(9)))
        echo = _Echo(out)
        fabric.add_autorun(feeder)
        fabric.add_autorun(echo)
        fabric.advance(40)
        assert [value for _, value in echo.seen] == list(range(9))
        assert out.stats.writes == out.stats.reads == 9

    def test_stop_settles_the_feed(self):
        fabric = Fabric()
        out = fabric.channels.declare("out", depth=2)
        feeder = _Feeder(out, fabric.channels.declare("cmd"), list(range(9)))
        fabric.add_autorun(feeder)
        fabric.advance(10)
        fabric.stop_autorun()
        # Two words fit; the other eight cycles each failed a write.
        stats = out.stats.as_dict()
        assert (stats["writes"], stats["write_failures"]) == (2, 8)
        assert out.read_nb() == (0, True)
        fabric.advance(10)
        assert out.stats.as_dict()["writes"] == 2
        assert out.occupancy == 1


class TestStopBeforeFirstStep:
    @pytest.mark.parametrize("executor", ["fast", "reference"])
    @pytest.mark.parametrize("steps", [0, 1])
    def test_unit_torn_down_cleanly(self, executor, steps):
        # steps=0: the unit has not started; steps=1: it is waiting for
        # its phase alignment. Neither ever runs its body.
        fabric = Fabric()
        src = fabric.channels.declare("src")
        echo = _Echo(src)
        engine = AutorunEngine(fabric, echo, executor=executor)
        engine.start()
        for _ in range(steps):
            fabric.sim.step()
        engine.stop()
        src.write_nb(1)
        fabric.advance(5)
        assert not engine.running
        assert echo.seen == []
        assert src.stats.read_failures == 0

    def test_stall_monitor_stopped_at_construction(self):
        fabric = Fabric()
        StallMonitor(fabric, sites=2, depth=16)
        fabric.stop_autorun()
        fabric.advance(5)
        assert fabric.sim.now == 5
