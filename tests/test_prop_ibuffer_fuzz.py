"""Fuzz the ibuffer with random command/data interleavings.

A reference model (the Figure 3 transition function + a Python list)
predicts the ibuffer's state and recorded entries for any script of
commands and data arrivals; the hardware model must match.

Idle compute units park instead of polling every cycle, a unit in
READ hands its remaining words to its out channel instead of writing one
per cycle, and the host READ stores runs of words in closed-form
transfer windows; the per-cycle polling oracle
(:mod:`tests.polling_oracle`, whose host interface stores word by word)
must agree with them on every observable, for one raw unit, a 2-site
stall monitor and a 2-unit watchpoint (aux channel), with channel
statistics read mid-park, mid-drain and after ``stop_autorun``. The out
channels are drained by the host interface kernel and by a test consumer
that blocking-reads or ``read_nb``s with random gaps.

Example budget: ``IBUFFER_EQUIV_EXAMPLES`` (default 60) for the oracle
scripts; CI runs a deep job at 300.
"""

from __future__ import annotations

import contextlib
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import IBufferCommand, IBufferState, SamplingMode, next_state
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import RawRecorderLogic
from repro.core.stall_monitor import StallMonitor
from repro.core.watchpoint import SmartWatchpoint
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, SingleTaskKernel
from tests.polling_oracle import PollingIBuffer, polling_ibuffers

MAX_EXAMPLES = int(os.environ.get("IBUFFER_EQUIV_EXAMPLES", "60"))

#: Script steps: ("cmd", command) | ("data", value) | ("wait", cycles)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("cmd"),
                  st.sampled_from([IBufferCommand.RESET,
                                   IBufferCommand.SAMPLE,
                                   IBufferCommand.STOP])),
        st.tuples(st.just("data"), st.integers(0, 1000)),
        st.tuples(st.just("wait"), st.integers(1, 4)),
    ),
    min_size=1, max_size=30)


class _Reference:
    """Pure-Python model of one ibuffer instance (linear mode)."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.state = IBufferState.SAMPLE
        self.entries: list = []
        self.dropped_out_of_sample = 0

    def command(self, command: IBufferCommand) -> None:
        new = next_state(self.state, command)
        if new != self.state and new == IBufferState.RESET:
            self.entries = []
        self.state = new

    def data(self, value: int) -> None:
        if self.state == IBufferState.SAMPLE:
            if len(self.entries) < self.depth:
                self.entries.append(value)
        else:
            self.dropped_out_of_sample += 1


class TestIBufferFuzz:
    @given(steps=_steps, depth=st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_model(self, steps, depth):
        fabric = Fabric()
        ibuffer = IBuffer(fabric, "fuzz",
                          logic_factory=lambda cu: RawRecorderLogic(),
                          config=IBufferConfig(count=1, depth=depth,
                                               mode=SamplingMode.LINEAR))
        fabric.advance(2)  # let the unit come up in its initial state
        reference = _Reference(depth)

        for kind, payload in steps:
            if kind == "cmd":
                ibuffer.cmd_c[0].write_nb(int(payload))
                fabric.advance(3)   # one command consumed per cycle; settle
                reference.command(payload)
            elif kind == "data":
                ibuffer.data_c[0].write_nb(payload)
                fabric.advance(3)
                reference.data(payload)
            else:
                fabric.advance(payload)

        assert ibuffer.states[0] == reference.state
        recorded = [entry["value"]
                    for entry in ibuffer.trace_buffers[0].entries()]
        assert recorded == reference.entries
        assert ibuffer.samples_dropped[0] == reference.dropped_out_of_sample


# -- parked units against the per-cycle polling oracle ---------------------

_ALL_COMMANDS = [IBufferCommand.RESET, IBufferCommand.SAMPLE,
                 IBufferCommand.STOP, IBufferCommand.READ]

#: Steps addressed to one of two units: ("cmd", unit, command) |
#: ("data", unit, value) | ("aux", unit, value) | ("wait", cycles) |
#: ("stats",) — snapshot every channel's stats, mid-park or mid-drain — |
#: ("read", unit) — a host READ through the host interface kernel — |
#: ("consume", unit, pacing) — launch a test consumer of the unit's out
#: channel, running alongside the later steps (see :class:`_Consumer`).
_cmd = st.tuples(st.just("cmd"), st.integers(0, 1),
                st.sampled_from(_ALL_COMMANDS))
_data = st.tuples(st.just("data"), st.integers(0, 1), st.integers(0, 15))
_aux = st.tuples(st.just("aux"), st.integers(0, 1), st.integers(0, 7))
_stats = st.tuples(st.just("stats"))
#: Gaps of 0 drain a FIFO within one cycle, so the next read finds it empty.
_consume = st.tuples(st.just("consume"), st.integers(0, 1),
                     st.lists(st.tuples(st.booleans(),
                                        st.sampled_from([0, 0, 1, 2, 6])),
                              min_size=1, max_size=12))
_unit_steps = st.lists(
    st.one_of(_cmd, _data, _aux,
              st.tuples(st.just("wait"), st.integers(1, 40)), _stats,
              st.tuples(st.just("read"), st.integers(0, 1)), _consume),
    min_size=1, max_size=30)
#: Steps run while READs are under way: short waits, consumers weighted up.
_drain_steps = st.lists(
    st.one_of(_cmd, _data, _aux,
              st.tuples(st.just("wait"), st.integers(1, 6)), _stats,
              _consume, _consume),
    min_size=1, max_size=30)


class _Consumer(SingleTaskKernel):
    """Reads ``channel`` once per ``(blocking, gap)`` of the launch's
    ``pacing``: waits ``gap`` cycles, then a blocking read or a
    ``read_nb`` (which may find the FIFO empty)."""

    def __init__(self, channel):
        super().__init__(name=f"consume_{channel.name}")
        self.channel = channel
        self.seen = []

    def iteration_space(self, args):
        return [0]

    def body(self, ctx):
        for blocking, gap in ctx.arg("pacing"):
            if gap:
                yield ctx.compute(gap)
            if blocking:
                word = yield ctx.read_channel(self.channel)
            else:
                word, ok = ctx.read_channel_nb(self.channel)
                word = word if ok else None
            self.seen.append((ctx.now, blocking, word))


def _build(design, fabric, initial_state, ibuffer_class, out_depth=2):
    """(ibuffer, host controller or None) of one instrumented design;
    ``out_depth`` sets the raw unit's out channel depth."""
    if design == "raw":
        ibuffer = ibuffer_class(
            fabric, "fuzz", logic_factory=lambda cu: RawRecorderLogic(),
            config=IBufferConfig(count=1, depth=4,
                                 initial_state=initial_state,
                                 output_channel_depth=out_depth))
        return ibuffer, None
    if design == "stall":
        monitor = StallMonitor(fabric, sites=2, depth=4,
                               initial_state=initial_state)
        return monitor.ibuffer, monitor.host
    unit = SmartWatchpoint(fabric, units=2, depth=4, bounds=(0, 6),
                           invariance=True, initial_state=initial_state)
    return unit.ibuffer, unit.host


def _run_script(design, steps, initial_state, polling, out_depth=2):
    """Drive one design through ``steps``; return everything observable."""
    fabric = Fabric()
    with polling_ibuffers() if polling else contextlib.nullcontext():
        ibuffer, host = _build(design, fabric, initial_state,
                               PollingIBuffer if polling else IBuffer,
                               out_depth)
    fabric.advance(1)   # the units come up and take their first poll
    units = ibuffer.num_compute_units
    consumers = [_Consumer(channel) for channel in ibuffer.out_c]
    launches = []
    seen = []
    for step in steps:
        kind = step[0]
        if kind in ("cmd", "data", "aux"):
            unit = step[1] % units
            if kind == "cmd":
                ibuffer.cmd_c[unit].write_nb(int(step[2]))
            elif design == "watch":
                channel = (ibuffer.addr_c if kind == "aux" else ibuffer.data_c)
                value = step[2] if kind == "aux" else (step[2] % 8, step[2])
                channel[unit].write_nb(value)
            else:
                ibuffer.data_c[unit].write_nb(step[2])
        elif kind == "wait":
            fabric.advance(step[1])
        elif kind == "stats":
            seen.append(("stats", fabric.sim.now,
                         fabric.channels.stats_table()))
        elif kind == "consume":
            # One consumer per out channel (SPSC), one launch at a time.
            unit = step[1] % units
            consumer = consumers[unit]
            if (ibuffer.out_c[unit].consumer in (None, consumer)
                    and not any(engine.kernel is consumer
                                and not engine.completion.triggered
                                for engine in launches)):
                ibuffer.out_c[unit].bind_consumer(consumer)
                launches.append(fabric.launch(consumer, {"pacing": step[2]}))
        elif host is not None:
            unit = step[1] % units
            # READ is only legal from SAMPLE/STOP with no command queued
            # ahead of it; otherwise the drain would never finish.
            if (ibuffer.states[unit] in (IBufferState.SAMPLE,
                                         IBufferState.STOP)
                    and not ibuffer.cmd_c[unit].occupancy
                    and ibuffer.out_c[unit].consumer in (None, host.kernel)):
                seen.append(("read", fabric.sim.now, host.read_trace(unit)))
    observed = {
        "seen": seen,
        "consumed": [consumer.seen for consumer in consumers],
        "launches_done": [engine.completion.triggered
                          for engine in launches],
        "now": fabric.sim.now,
        "states": dict(ibuffer.states),
        "entries": {cu: trace.entries()
                    for cu, trace in ibuffer.trace_buffers.items()},
        "dropped": dict(ibuffer.samples_dropped),
        "stats": fabric.channels.stats_table(),
    }
    fabric.stop_autorun()
    observed["stats_at_stop"] = fabric.channels.stats_table()
    fabric.advance(7)
    observed["stats_after_stop"] = fabric.channels.stats_table()
    return observed


class TestParkedMatchesPollingOracle:
    @given(steps=_unit_steps,
           design=st.sampled_from(["raw", "stall", "watch"]),
           initial_state=st.sampled_from([IBufferState.SAMPLE,
                                          IBufferState.RESET]),
           out_depth=st.integers(1, 3))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_scripts_agree(self, steps, design, initial_state, out_depth):
        parked = _run_script(design, steps, initial_state, False, out_depth)
        polling = _run_script(design, steps, initial_state, True, out_depth)
        assert parked == polling

    @given(samples=st.integers(0, 5), steps=_drain_steps,
           design=st.sampled_from(["raw", "stall", "watch"]),
           out_depth=st.integers(1, 3))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_drain_scripts_agree(self, samples, steps, design, out_depth):
        # Every unit records `samples` entries and enters READ; the steps
        # then consume, send commands and data, and read stats mid-drain.
        script = [("data", unit, value) for unit in (0, 1)
                  for value in range(samples)]
        script += [("wait", 2), ("cmd", 0, IBufferCommand.READ),
                   ("cmd", 1, IBufferCommand.READ), ("wait", 2)]
        script += steps
        parked = _run_script(design, script, IBufferState.SAMPLE, False,
                             out_depth)
        polling = _run_script(design, script, IBufferState.SAMPLE, True,
                              out_depth)
        assert parked == polling

    @pytest.mark.parametrize("phase", ["early", "late"])
    def test_autorun_producer_agrees(self, phase):
        # A producer started after the ibuffer, writing at scattered cycles
        # in its own phase: same-cycle (early) and next-cycle (late) wakes.
        # Bursts of three writes a cycle overflow the 8-deep data channel,
        # so write failures depend on the unit polling before the producer.
        # A host command waking the unit at cycle 100 races a write of the
        # same cycle. An idle autorun between the two keeps the next
        # cycle's tick ahead of the producer's writes.
        bursts = {3: 1, 4: 1, 9: 1, 30: 3, 31: 3, 32: 3, 33: 3, 34: 3,
                  35: 3, 100: 1, 200: 1, 201: 2, 450: 1}

        def observe(cls):
            fabric = Fabric()
            ibuffer = cls(fabric, "probe",
                          logic_factory=lambda cu: RawRecorderLogic(),
                          config=IBufferConfig(count=1, depth=32))
            fabric.add_autorun(_Producer(fabric.channels.declare("idle"),
                                         {}, phase))
            fabric.add_autorun(_Producer(ibuffer.data_c[0], bursts, phase))
            fabric.advance(100)
            ibuffer.cmd_c[0].write_nb(int(IBufferCommand.SAMPLE))
            fabric.advance(20)
            middle = fabric.channels.stats_table()
            fabric.advance(400)
            return (ibuffer.trace_buffers[0].entries(), middle,
                    fabric.channels.stats_table(), fabric.sim.now)

        parked = observe(IBuffer)
        assert parked == observe(PollingIBuffer)
        stamps = [entry["timestamp"] for entry in parked[0]]
        lag = 0 if phase == "early" else 1
        assert stamps[:3] == [3 + lag, 4 + lag, 9 + lag]
        assert 100 + lag in stamps
        assert parked[2]["probe_data_in[0]"]["write_failures"] > 0


class _Producer(AutorunKernel):
    """Writes ``bursts[cycle]`` copies of the cycle number to ``channel``."""

    def __init__(self, channel, bursts, phase):
        super().__init__(name=f"producer_{channel.name}", phase=phase)
        self.channel = channel
        self.bursts = bursts

    def body(self, ctx):
        while True:
            for _ in range(self.bursts.get(ctx.now, 0)):
                ctx.write_channel_nb(self.channel, ctx.now)
            yield ctx.cycle()
