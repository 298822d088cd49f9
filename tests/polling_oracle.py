"""Per-cycle polling oracle for the parked ibuffer and the host READ.

:class:`PollingIBuffer` runs Listing 8's loop literally: every compute
unit polls its channels every cycle, and in READ it tries one
``write_nb`` of the next trace word per cycle, never parking and never
handing words to its out channel as a feed. :class:`SteppingHostInterface`
runs Listing 10's READ loop literally, one blocking read and one store op
per word, where the real kernel yields one ``transfer`` op. Tests run the
same script against the oracle and the real
:class:`~repro.core.ibuffer.IBuffer` and host interface, and require
identical observables: states, trace contents, channel statistics and
``sim.now``.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.core import host_interface, stall_monitor, watchpoint
from repro.core.commands import IBufferCommand, IBufferState, next_state
from repro.core.host_interface import HostInterfaceKernel
from repro.core.ibuffer import IBuffer
from repro.core.trace_buffer import TraceBuffer


class PollingIBuffer(IBuffer):
    """An ibuffer whose compute units step every cycle."""

    def body(self, ctx):
        cu = ctx.compute_id
        logic = self.logic[cu]
        trace = TraceBuffer(ctx.local("trace"), logic.layout,
                            self.config.depth, self.config.mode)
        self.trace_buffers[cu] = trace
        self.samples_dropped[cu] = 0
        state = self.config.initial_state
        self.states[cu] = state
        wpe = self.layout.words_per_entry
        read_slots = []
        read_pos = 0

        while True:
            now = self.timestamp.synthesize_behavior()

            if self.addr_c is not None:
                aux, has_aux = ctx.read_channel_nb(self.addr_c[cu])
                if has_aux:
                    logic.on_aux(now, aux)

            data, has_data = ctx.read_channel_nb(self.data_c[cu])
            command, has_command = ctx.read_channel_nb(self.cmd_c[cu])

            if has_command:
                new_state = next_state(state, command)
                if new_state != state:
                    previous = state
                    state = new_state
                    if state == IBufferState.RESET:
                        trace.reset()
                        logic.on_reset()
                    elif state == IBufferState.READ:
                        read_slots = trace.chronological_slots()
                        read_pos = 0
                    elif (state == IBufferState.STOP
                          and previous == IBufferState.SAMPLE):
                        for entry in logic.on_flush(now):
                            trace.write(entry)
                self.states[cu] = state

            if has_data:
                if state == IBufferState.SAMPLE:
                    for entry in logic.on_data(now, data):
                        trace.write(entry)
                else:
                    self.samples_dropped[cu] += 1

            if state == IBufferState.READ:
                if read_pos < self.words_per_readout:
                    word = trace.read_slot(read_slots[read_pos // wpe])[
                        read_pos % wpe]
                    if ctx.write_channel_nb(self.out_c[cu], word):
                        read_pos += 1
                else:
                    state = IBufferState.STOP
                    self.states[cu] = state

            yield ctx.cycle()


class SteppingHostInterface(HostInterfaceKernel):
    """A host interface kernel whose READ stores word by word."""

    def body(self, ctx):
        command = IBufferCommand(ctx.arg("cmd"))
        unit = int(ctx.arg("id"))
        yield ctx.write_channel(self.ibuffer.cmd_c[unit], int(command))
        if command == IBufferCommand.READ:
            out = ctx.arg("out")
            site = self.readout_site(ctx)
            for k in range(self.ibuffer.words_per_readout):
                word = yield ctx.read_channel(self.ibuffer.out_c[unit])
                yield ctx.store(out, k, word, site=site)


@contextlib.contextmanager
def polling_ibuffers():
    """Build every stall monitor and watchpoint with the polling oracle:
    per-cycle ibuffers, read by a word-at-a-time host interface."""
    with mock.patch.object(stall_monitor, "IBuffer", PollingIBuffer), \
            mock.patch.object(watchpoint, "IBuffer", PollingIBuffer), \
            mock.patch.object(host_interface, "HostInterfaceKernel",
                              SteppingHostInterface):
        yield
