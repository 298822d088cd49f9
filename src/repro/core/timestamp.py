"""Timestamp primitive patterns (§3.1, Listings 1–4).

Two implementations, as in the paper:

* :class:`PersistentTimestampService` — autorun kernels with free-running
  counters feeding depth-0 channels non-blockingly (Listing 1). One
  persistent kernel drives one channel ("we found that we have to use one
  persistent kernel to drive one channel"), so multiple read sites need
  multiple counters, which can be launched with a skew (limitation 2).
  A ``compiled_depth`` other than 0 reproduces limitation 1 (stale
  timestamps when the compiler overrides the channel depth).
* :class:`HDLTimestampService` — the preferred approach: a Verilog
  free-running counter packaged as the library function ``get_time``
  (Listing 3). The ``command`` argument creates a data dependency that
  pins the read site in the schedule (Listing 4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.channels.channel import Channel, CounterRegisterChannel
from repro.errors import KernelError
from repro.hdl.counter import GetTimeModule
from repro.hdl.library import HDLLibrary
from repro.pipeline.context import KernelContext
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, ResourceProfile
from repro.pipeline import ops


class TimerServiceKernel(AutorunKernel):
    """Listing 1: persistent autorun kernel with a free-running counter.

    Writes the counter to its depth-0 channel non-blockingly every cycle,
    so the channel "always contains the most up-to-date counter value".
    """

    is_instrumentation = True

    def __init__(self, channel: Channel, name: str = "timer_srv",
                 launch_skew: int = 0) -> None:
        super().__init__(name=name, phase="early")
        self.channel = channel
        self.launch_skew = launch_skew

    def body(self, ctx: KernelContext):
        count = 0
        while True:
            count += 1
            # Non-blocking write "will not affect the logic to increment
            # the counter each cycle" (Listing 1).
            ctx.write_channel_nb(self.channel, count)
            yield ctx.cycle()

    def resource_profile(self) -> ResourceProfile:
        return ResourceProfile(adders=1, channel_endpoints=1,
                               control_states=2, extra_registers=64)


class PersistentTimestampService:
    """N free-running-counter kernels, one per read site (Listings 1–2).

    The depth-0 register provably holds ``c - skew + 1`` once cycle ``c``
    has begun, so each counter is a :class:`~repro.channels.channel.
    CounterRegisterChannel` computing that on demand: zero events per
    cycle. A ``compiled_depth`` override instead builds the real FIFO fed
    by a stepping :class:`TimerServiceKernel`: the staleness of §3.1
    limitation 1 needs the actual per-cycle writer.
    """

    def __init__(self, fabric: Fabric, sites: int = 1,
                 name: str = "time", launch_skews: Optional[Sequence[int]] = None,
                 compiled_depth: Optional[int] = None) -> None:
        if sites < 1:
            raise KernelError(f"need at least one timestamp site, got {sites}")
        skews = list(launch_skews or [0] * sites)
        if len(skews) != sites:
            raise KernelError(
                f"{sites} sites but {len(skews)} launch skews given")
        self.fabric = fabric
        self.channels: List[Channel] = []
        self.kernels: List[TimerServiceKernel] = []
        for site in range(sites):
            if compiled_depth is None:
                channel = fabric.channels.adopt(CounterRegisterChannel(
                    fabric.sim, f"{name}_ch{site + 1}",
                    start_cycle=fabric.sim.now + skews[site], width_bits=32))
            else:
                channel = fabric.channels.declare(
                    f"{name}_ch{site + 1}", depth=0,
                    compiled_depth=compiled_depth, width_bits=32)
            kernel = TimerServiceKernel(channel, name=f"{name}_srv{site + 1}",
                                        launch_skew=skews[site])
            if compiled_depth is None:
                # The kernel still exists (it occupies fabric resources and
                # the emulator discovers it) but never runs: the channel
                # computes its effect.
                fabric.add_lazy_service(kernel, channel)
            else:
                fabric.add_autorun(kernel)
            self.channels.append(channel)
            self.kernels.append(kernel)

    def channel(self, site: int) -> Channel:
        """The channel feeding read site ``site`` (0-based)."""
        return self.channels[site]

    def read(self, ctx: KernelContext, site: int = 0) -> int:
        """Kernel-side read site: returns the current timestamp (zero-time).

        A non-blocking read of the register: 0 while it holds no value
        (before the counter starts, or a stale-depth FIFO run empty).
        :meth:`read_op` is Listing 2's blocking form.
        """
        value, valid = ctx.read_channel_nb(self.channels[site])
        return value if valid else 0

    def read_op(self, ctx: KernelContext, site: int = 0) -> ops.ReadChannel:
        """Blocking-read op form (``read_channel_altera`` of Listing 2)."""
        return ctx.read_channel(self.channels[site])


class HDLTimestampService:
    """The HDL counter timestamp (Listings 3–4): ``get_time(command)``.

    "As it does not use the channel, thereby free from the channel depth
    issue, the HDL approach is preferred to implement the timestamp
    pattern." (§3.1)
    """

    def __init__(self, fabric: Fabric, library: Optional[HDLLibrary] = None,
                 name: str = "get_time", start_offset: int = 0,
                 mode: str = "synthesis") -> None:
        self.fabric = fabric
        self.module = GetTimeModule(fabric.sim, name=name,
                                    start_offset=start_offset, mode=mode)
        if library is not None:
            library.register(self.module)

    def get_time(self, ctx: KernelContext, command: int = 0) -> ops.Call:
        """The read-site op: ``start_t = yield ts.get_time(ctx, sum)``.

        Pass a live datapath value as ``command`` to pin the read site, as
        Listing 4 passes ``sum``.
        """
        return ctx.call(self.module, command)

    def resource_profile(self) -> ResourceProfile:
        return self.module.resource_profile()
