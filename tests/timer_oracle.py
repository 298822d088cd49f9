"""Test-only oracle: the per-cycle forms of §3.1's free-running counters.

The product computes both counters from the clock: each
:class:`~repro.core.timestamp.PersistentTimestampService` site is a
:class:`~repro.channels.channel.CounterRegisterChannel` (Listing 1), and
:class:`~repro.hdl.counter.GetTimeModule` reads ``sim.now`` (Listing 3).
The forms here run them the way the paper prints them:

* :class:`EagerTimestampService` starts Listing 1's
  :class:`~repro.core.timestamp.TimerServiceKernel` as a real
  early-phase autorun kernel writing a plain depth-0 channel every
  cycle;
* :class:`EagerGetTimeModule` keeps the Verilog register in a process
  that updates it on every clock edge (:func:`at_each_cycle`).

The analytic forms must be indistinguishable from them: values,
statistics and timing, for kernel reads and for a host that reads or
stops the service between cycles.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.timestamp import PersistentTimestampService, TimerServiceKernel
from repro.hdl.counter import GetTimeModule
from repro.sim.core import PRIORITY_URGENT, Process, Simulator


def at_each_cycle(sim: Simulator, body: Callable[[int], Optional[bool]],
                  priority: int = PRIORITY_URGENT,
                  name: str = "cycle-driver") -> Process:
    """Run ``body(cycle)`` once per cycle until it returns True.

    The body runs with urgent priority, so same-cycle readers see its
    effects; it costs one event per simulated cycle.
    """

    def _driver():
        while True:
            if body(sim.now):
                return
            yield sim.tick(priority)

    return sim.process(_driver(), name=name)


class EagerTimestampService:
    """Drop-in for :class:`PersistentTimestampService` that steps one
    timer kernel per site."""

    def __init__(self, fabric, sites: int = 1, name: str = "time",
                 launch_skews=None, compiled_depth=None) -> None:
        skews = list(launch_skews or [0] * sites)
        self.fabric = fabric
        self.channels = []
        self.kernels = []
        for site in range(sites):
            channel = fabric.channels.declare(
                f"{name}_ch{site + 1}", depth=0,
                compiled_depth=compiled_depth, width_bits=32)
            kernel = TimerServiceKernel(channel, name=f"{name}_srv{site + 1}",
                                        launch_skew=skews[site])
            fabric.add_autorun(kernel)
            self.channels.append(channel)
            self.kernels.append(kernel)

    channel = PersistentTimestampService.channel
    read = PersistentTimestampService.read
    read_op = PersistentTimestampService.read_op


class EagerGetTimeModule(GetTimeModule):
    """:class:`GetTimeModule` whose register a per-cycle process writes,
    one increment per clock edge like the Verilog. :meth:`stop` ends the
    process (the end of the design)."""

    def __init__(self, sim: Simulator, **kwargs) -> None:
        super().__init__(sim, **kwargs)
        self._register = self.start_offset
        self._stopped = False

        def _edge(cycle: int) -> bool:
            self._register = self.value_at(cycle)
            return self._stopped

        at_each_cycle(sim, _edge, name=f"{self.name}.counter")

    def stop(self) -> None:
        self._stopped = True

    def synthesize_behavior(self, command=0) -> int:
        return self._register
