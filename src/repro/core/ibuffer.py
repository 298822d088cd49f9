"""The ibuffer: an intelligent trace buffer as a replicated autorun kernel.

Implements the framework of §4 / Listing 8 / Figures 1 and 3:

* a **stall-free, single-cycle-launch outer loop** — every cycle the kernel
  polls its data-in, command, and (optionally) auxiliary channels, so
  producers' non-blocking writes are always drained and the design under
  test is never back-pressured. The hardware polls every cycle; the model
  skips only polls it can prove are empty: a unit whose polled channels
  are all empty parks until a value arrives, resuming in the cycle and
  phase in which a poll would first have seen it, with every skipped
  poll still counted as a channel read failure (see
  ``docs/PERFORMANCE.md``, "Parked autorun polling"). A unit starts
  parked, and while parked it hands its data channel a sink: the
  per-datum work of SAMPLE (timestamp, logic block, trace write) or of
  any other state (count a dropped sample), which the channel runs in
  each datum's LATE phase when it is next accessed, so a probe write
  schedules nothing ("Lazy SAMPLE sink"). In READ the parked unit's
  one-word-per-cycle writes are handed to its out channel, which
  settles them when the host reads ("Lazy READ drain");
* a **state machine** (RESET / SAMPLE / STOP / READ) driven by commands
  from the host interface kernel and by internal events (read drained);
* a **trace buffer in local memory** written in linear or cyclic mode;
* **logic function blocks** that process arriving data instead of merely
  recording it;
* **replication** via ``num_compute_units(N, 1)``, one instance per probe
  point, each with its own command/data/output channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.commands import IBufferState, SamplingMode, next_state
from repro.core.logic_blocks import LogicBlock
from repro.core.trace_buffer import TraceBuffer
from repro.errors import IBufferError
from repro.hdl.counter import GetTimeModule
from repro.memory.local_memory import LocalMemory
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, ResourceProfile


@dataclass(frozen=True)
class IBufferConfig:
    """Static configuration of one ibuffer family.

    ``count`` is N of ``num_compute_units(N, 1)``; ``depth`` is the DEPTH
    define of Listing 10. ``initial_state`` defaults to SAMPLE so that a
    design is being recorded from cycle zero; pass ``IBufferState.RESET``
    to exercise the full host-commanded protocol.
    """

    count: int = 1
    depth: int = 1024
    mode: SamplingMode = SamplingMode.LINEAR
    initial_state: IBufferState = IBufferState.SAMPLE
    use_aux_channel: bool = False
    data_channel_depth: int = 8
    command_channel_depth: int = 4
    output_channel_depth: int = 2
    aux_channel_depth: int = 4
    #: Data width of trace words / channels, for synthesis accounting.
    width_bits: int = 64

    def __post_init__(self) -> None:
        if self.count < 1:
            raise IBufferError(f"ibuffer count must be >= 1, got {self.count}")
        if self.depth < 1:
            raise IBufferError(f"ibuffer depth must be >= 1, got {self.depth}")


class IBuffer(AutorunKernel):
    """The replicated autorun ibuffer kernel (Listing 8).

    Constructing an ibuffer declares its channel arrays in the fabric's
    namespace and starts its compute units, as programming the device would.
    ``logic_factory(compute_id)`` builds each instance's logic block; all
    instances must share one entry layout (one compiled kernel body).
    """

    is_instrumentation = True
    starts_idle = True

    def __init__(self, fabric: Fabric, name: str,
                 logic_factory: Callable[[int], LogicBlock],
                 config: Optional[IBufferConfig] = None) -> None:
        self.config = config or IBufferConfig()
        self.fabric = fabric
        self.logic: List[LogicBlock] = [logic_factory(cu)
                                        for cu in range(self.config.count)]
        layouts = {logic.layout for logic in self.logic}
        if len(layouts) != 1:
            raise IBufferError(
                f"ibuffer {name!r}: all compute units must share one entry "
                f"layout (one compiled body); got {len(layouts)}")
        self.layout = self.logic[0].layout
        super().__init__(name=name, num_compute_units=self.config.count,
                         phase="late")
        c = self.config
        self.cmd_c = fabric.channels.declare_array(
            f"{name}_cmd_c", c.count, depth=c.command_channel_depth, width_bits=8)
        self.data_c = fabric.channels.declare_array(
            f"{name}_data_in", c.count, depth=c.data_channel_depth,
            width_bits=c.width_bits)
        self.out_c = fabric.channels.declare_array(
            f"{name}_out_c", c.count, depth=c.output_channel_depth,
            width_bits=c.width_bits)
        self.addr_c = (fabric.channels.declare_array(
            f"{name}_addr_in_c", c.count, depth=c.aux_channel_depth,
            width_bits=64) if c.use_aux_channel else None)
        #: Embedded HDL timestamp counter (Figure 4: "using the HDL-based
        #: timestamps and ibuffer framework").
        self.timestamp = GetTimeModule(fabric.sim, name=f"{name}_get_time")
        # Every unit is in its initial state from device programming on;
        # its trace buffer is made with its local memory.
        self._states: Dict[int, IBufferState] = dict.fromkeys(
            range(c.count), c.initial_state)
        self._trace_buffers: Dict[int, TraceBuffer] = {}
        self._samples_dropped: Dict[int, int] = dict.fromkeys(
            range(c.count), 0)
        fabric.add_autorun(self)

    # -- introspection (each settles the data channels' sinks first) --------

    def _settle(self) -> None:
        for channel in self.data_c:
            channel.settle_sink()

    @property
    def states(self) -> Dict[int, IBufferState]:
        """Per-CU live state."""
        self._settle()
        return self._states

    @property
    def trace_buffers(self) -> Dict[int, TraceBuffer]:
        """Per-CU trace buffer."""
        self._settle()
        return self._trace_buffers

    @property
    def samples_dropped(self) -> Dict[int, int]:
        """Per-CU count of data discarded outside SAMPLE."""
        self._settle()
        return self._samples_dropped

    # -- kernel model hooks ------------------------------------------------

    def create_locals(self, fabric: Fabric, compute_id: int) -> Dict[str, Any]:
        words = self.config.depth * self.layout.words_per_entry
        memory = LocalMemory(fabric.sim, f"{self.name}.cu{compute_id}.trace",
                             words)
        self._trace_buffers[compute_id] = TraceBuffer(
            memory, self.layout, self.config.depth, self.config.mode)
        return {"trace": memory}

    @property
    def words_per_readout(self) -> int:
        """Words the host interface must drain per READ (fixed length)."""
        return self.config.depth * self.layout.words_per_entry

    def body(self, ctx):
        cu = ctx.compute_id
        logic = self.logic[cu]
        trace = self._trace_buffers[cu]
        dropped = self._samples_dropped
        state = self.config.initial_state
        data_c = self.data_c[cu]
        polled = [data_c, self.cmd_c[cu]]
        if self.addr_c is not None:
            polled.insert(0, self.addr_c[cu])
        timestamp = self.timestamp.value_at
        write = trace.write
        on_data = logic.on_data

        # What the loop below does with a datum while nothing else
        # arrives: handed to the data channel as the parked unit's sink.
        def sample(cycle: int, value: Any) -> None:
            for entry in on_data(timestamp(cycle), value):
                write(entry)

        def drop(cycle: int, value: Any) -> None:
            dropped[cu] += 1

        sampling = ctx.await_data(*polled, sink=(data_c, sample))
        idle = ctx.await_data(*polled, sink=(data_c, drop))
        out = self.out_c[cu]
        readout: List[int] = []
        read_pos = 0  # word index within the fixed-length readout

        # Every channel is still empty: wait before the first poll.
        yield ctx.await_data(*polled, sink=(
            data_c, sample if state == IBufferState.SAMPLE else drop),
            first=True)
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
                        readout = trace.readout_words()
                        read_pos = 0
                    elif (state == IBufferState.STOP
                          and previous == IBufferState.SAMPLE):
                        # Processing blocks materialize running summaries
                        # into the trace for readout.
                        for entry in logic.on_flush(now):
                            trace.write(entry)
                self._states[cu] = state

            if has_data:
                if state == IBufferState.SAMPLE:
                    for entry in on_data(now, data):
                        write(entry)
                else:
                    # Data arriving outside SAMPLE is discarded (the channel
                    # is still drained — the caller must never stall).
                    dropped[cu] += 1

            if state == IBufferState.READ and read_pos == len(readout):
                # Event-driven transition: "The state moves to stop when
                # all the data in the trace buffer are read."
                state = IBufferState.STOP
                self._states[cu] = state

            if state == IBufferState.READ:
                if ctx.write_channel_nb(out, readout[read_pos]):
                    read_pos += 1
                # READ writes one word per cycle; the following cycles'
                # writes are handed to the out channel, and the unit
                # resumes when a polled value arrives or the cycle after
                # the final write.
                read_pos = yield ctx.drain(out, readout, read_pos, polled)
            else:
                # Nothing to do until a command or aux value arrives; data
                # is sampled or dropped by the sink meanwhile.
                yield sampling if state == IBufferState.SAMPLE else idle

    # -- synthesis accounting -------------------------------------------

    def resource_profile(self) -> ResourceProfile:
        """Per-compute-unit hardware content (replication applied by caller)."""
        base = ResourceProfile(
            channel_endpoints=3 + (1 if self.addr_c is not None else 0),
            control_states=12,
            local_memory_bits=(self.config.depth * self.layout.words_per_entry
                               * self.config.width_bits),
            extra_registers=128,
            # State machine compare/select logic plus the width-wide readout
            # mux and trace-buffer address decode.
            logic_ops=6 + self.config.width_bits // 2,
            adders=4,
        )
        base = base.merged(self.logic[0].resource_profile())
        return base.merged(self.timestamp.resource_profile())
