"""The host interface kernel (Listing 10) and its host-side driver.

"To facilitate the host to communicate with our proposed ibuffer so as to
initiate monitoring and collect the monitored results, a host interface
kernel is introduced. ... It works as an agent to forward the command from
the host to the ibuffer through the command channel. When the command is a
read, it then reads the data out channel until all the elements in the
trace buffer are read. This data is written to global memory, which can be
accessed by the host for further post processing." (§5.1)

The READ loop is one :class:`~repro.pipeline.ops.Transfer` op
(``ctx.transfer``): a blocking read and a global store per trace word, as
Listing 10 writes it. The fast executor computes windows of those words
in closed form while the parked ibuffer's feed is all the simulator has
left to do, each window's commits landing in one flush event (see
``docs/PERFORMANCE.md``, "Closed-form host READ transfer").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.commands import IBufferCommand, IBufferState
from repro.core.ibuffer import IBuffer
from repro.core.trace_buffer import decode_words
from repro.errors import IBufferError
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import ResourceProfile, SingleTaskKernel

#: Site of the readout's store LSU, as ``{kernel}.cu{id}:`` + this: the
#: name a per-word store in this body was elaborated under, kept so LSU
#: statistics and reports keep their keys.
READOUT_STORE_SITE = "Store@L54"


class HostInterfaceKernel(SingleTaskKernel):
    """``read_host(cmd, id, out)`` — enqueued by the host like any kernel.

    Arguments (set per enqueue): ``cmd`` — the :class:`IBufferCommand`;
    ``id`` — which ibuffer compute unit to address; ``out`` — name of the
    global buffer receiving the trace words when ``cmd == READ``.
    """

    is_instrumentation = True

    def __init__(self, ibuffer: IBuffer, name: Optional[str] = None) -> None:
        super().__init__(name=name or f"{ibuffer.name}_read_host")
        self.ibuffer = ibuffer

    def iteration_space(self, args: Dict) -> List[int]:
        # One logical invocation; the drain loop runs inside the body (one
        # transfer op), as in Listing 10 where the kernel is a single
        # work-item.
        return [0]

    def body(self, ctx):
        command = IBufferCommand(ctx.arg("cmd"))
        unit = int(ctx.arg("id"))
        if not 0 <= unit < self.ibuffer.num_compute_units:
            raise IBufferError(
                f"ibuffer id {unit} out of range [0, {self.ibuffer.num_compute_units})")
        yield ctx.write_channel(self.ibuffer.cmd_c[unit], int(command))
        if command == IBufferCommand.READ:
            yield ctx.transfer(self.ibuffer.out_c[unit], ctx.arg("out"),
                               self.ibuffer.words_per_readout,
                               site=self.readout_site(ctx))

    def readout_site(self, ctx) -> str:
        """The readout store's LSU site for the launch behind ``ctx``."""
        return f"{self.name}.cu{ctx.compute_id}:{READOUT_STORE_SITE}"

    def resource_profile(self) -> ResourceProfile:
        # Unrolled channel muxes across N instances (the #pragma unroll
        # loops of Listing 10) + one store LSU.
        n = self.ibuffer.num_compute_units
        return ResourceProfile(
            store_sites=1,
            channel_endpoints=2 * n,
            logic_ops=2 * n,
            control_states=6,
            extra_registers=64,
        )


class HostController:
    """Host-side convenience around the host interface kernel.

    Owns the global readout buffer and exposes the command protocol as
    method calls; every call is a real kernel enqueue on the fabric.
    """

    def __init__(self, fabric: Fabric, ibuffer: IBuffer,
                 kernel: Optional[HostInterfaceKernel] = None,
                 command_latency: int = 200) -> None:
        self.fabric = fabric
        self.ibuffer = ibuffer
        self.kernel = kernel or HostInterfaceKernel(ibuffer)
        #: Host-to-device command latency in cycles (PCIe round trip). Also
        #: gives in-flight probe data time to drain before a STOP lands.
        self.command_latency = command_latency
        self._out_name = f"{ibuffer.name}_readout"
        self._out = fabric.memory.allocate(self._out_name,
                                           ibuffer.words_per_readout)

    def command(self, command: IBufferCommand, unit: int = 0) -> None:
        """Send RESET/SAMPLE/STOP to one ibuffer instance."""
        if command == IBufferCommand.READ:
            raise IBufferError("use read_trace() for READ (it drains the data)")
        self.fabric.advance(self.command_latency)
        self.fabric.run_kernel(self.kernel, {
            "cmd": int(command), "id": unit, "out": self._out_name})
        # The ibuffer takes the command in the cycle it lands (the hardware
        # polls every cycle; the model wakes a parked unit then); give it a
        # couple of cycles to act on it before returning.
        self.fabric.advance(3)

    def reset(self, unit: int = 0) -> None:
        self.command(IBufferCommand.RESET, unit)

    def sample(self, unit: int = 0) -> None:
        self.command(IBufferCommand.SAMPLE, unit)

    def stop(self, unit: int = 0) -> None:
        self.command(IBufferCommand.STOP, unit)

    def read_trace(self, unit: int = 0) -> List[Dict[str, int]]:
        """READ one instance's trace into global memory and decode it.

        When the fabric carries a trace hub, the decoded entries are also
        published as ``ibuffer.<name>`` records — the raw-drain stream of
        the unified trace subsystem.
        """
        self.fabric.advance(self.command_latency)
        self.fabric.run_kernel(self.kernel, {
            "cmd": int(IBufferCommand.READ), "id": unit, "out": self._out_name})
        # Let the ibuffer take its event-driven READ -> STOP transition.
        self.fabric.advance(3)
        words = [int(w) for w in self._out.snapshot()]
        entries = decode_words(words, self.ibuffer.layout)
        if self.fabric.trace is not None:
            from repro.trace.capture import publish_ibuffer_entries
            publish_ibuffer_entries(self.fabric.trace, self.ibuffer, unit,
                                    entries)
        return entries

    def read_all(self) -> Dict[int, List[Dict[str, int]]]:
        """Stop and read every instance, oldest entries first."""
        traces = {}
        for unit in range(self.ibuffer.num_compute_units):
            if self.ibuffer.states.get(unit) == IBufferState.SAMPLE:
                self.stop(unit)
            traces[unit] = self.read_trace(unit)
        return traces
