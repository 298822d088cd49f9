"""Fuzz the ibuffer with random command/data interleavings.

A reference model (the Figure 3 transition function + a Python list)
predicts the ibuffer's state and recorded entries for any script of
commands and data arrivals; the hardware model must match.

Idle compute units park instead of polling every cycle; the per-cycle
polling oracle (:mod:`tests.polling_oracle`) must agree with them on
every observable, for one raw unit, a 2-site stall monitor and a 2-unit
watchpoint (aux channel), with channel statistics read mid-park and
after ``stop_autorun``.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import IBufferCommand, IBufferState, SamplingMode, next_state
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import RawRecorderLogic
from repro.core.stall_monitor import StallMonitor
from repro.core.watchpoint import SmartWatchpoint
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel
from tests.polling_oracle import PollingIBuffer, polling_ibuffers

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
#: ("stats",) — snapshot every channel's stats, mid-park — |
#: ("read", unit) — a host READ through the host interface kernel.
_unit_steps = st.lists(
    st.one_of(
        st.tuples(st.just("cmd"), st.integers(0, 1),
                  st.sampled_from(_ALL_COMMANDS)),
        st.tuples(st.just("data"), st.integers(0, 1), st.integers(0, 15)),
        st.tuples(st.just("aux"), st.integers(0, 1), st.integers(0, 7)),
        st.tuples(st.just("wait"), st.integers(1, 40)),
        st.tuples(st.just("stats")),
        st.tuples(st.just("read"), st.integers(0, 1)),
    ),
    min_size=1, max_size=30)


def _build(design, fabric, initial_state, ibuffer_class):
    """(ibuffer, host controller or None) of one instrumented design."""
    if design == "raw":
        ibuffer = ibuffer_class(
            fabric, "fuzz", logic_factory=lambda cu: RawRecorderLogic(),
            config=IBufferConfig(count=1, depth=4,
                                 initial_state=initial_state))
        return ibuffer, None
    if design == "stall":
        monitor = StallMonitor(fabric, sites=2, depth=4,
                               initial_state=initial_state)
        return monitor.ibuffer, monitor.host
    unit = SmartWatchpoint(fabric, units=2, depth=4, bounds=(0, 6),
                           invariance=True, initial_state=initial_state)
    return unit.ibuffer, unit.host


def _run_script(design, steps, initial_state, polling):
    """Drive one design through ``steps``; return everything observable."""
    fabric = Fabric()
    with polling_ibuffers() if polling else contextlib.nullcontext():
        ibuffer, host = _build(design, fabric, initial_state,
                               PollingIBuffer if polling else IBuffer)
    fabric.advance(1)   # the units come up and take their first poll
    units = ibuffer.num_compute_units
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
        elif host is not None:
            unit = step[1] % units
            # READ is only legal from SAMPLE/STOP with no command queued
            # ahead of it; otherwise the drain would never finish.
            if (ibuffer.states[unit] in (IBufferState.SAMPLE,
                                         IBufferState.STOP)
                    and not ibuffer.cmd_c[unit].occupancy):
                seen.append(("read", fabric.sim.now, host.read_trace(unit)))
    observed = {
        "seen": seen,
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
                                          IBufferState.RESET]))
    @settings(max_examples=60, deadline=None)
    def test_scripts_agree(self, steps, design, initial_state):
        parked = _run_script(design, steps, initial_state, polling=False)
        polling = _run_script(design, steps, initial_state, polling=True)
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
