"""Free-running HDL counters: the preferred timestamp implementation.

The Verilog in Listing 3 increments ``counter_time`` on every clock edge;
reading it is combinational from the kernel's perspective. The simulated
counterpart returns the current cycle (plus a start offset, modelling a
counter that began counting when the design came out of reset at a
different moment).

The ``command`` argument exists solely "to create dependency so as to
avoid the compiler accidentally moving the read sites during scheduling"
(§3.1) — it is otherwise ignored by the hardware. The emulation stub
returns ``command + 1`` exactly as in Listing 3.
"""

from __future__ import annotations

from typing import Any

from repro.errors import HDLError
from repro.hdl.module import HDLModule
from repro.pipeline.kernel import ResourceProfile
from repro.sim.core import Simulator


class GetTimeModule(HDLModule):
    """``ulong get_time(ulong command)`` backed by a free-running counter."""

    def __init__(self, sim: Simulator, name: str = "get_time",
                 start_offset: int = 0, width_bits: int = 64,
                 mode: str = "synthesis") -> None:
        if width_bits < 1:
            raise HDLError(f"counter {name!r}: width must be >= 1 bit")
        super().__init__(sim, name, latency=0, mode=mode)
        self.start_offset = start_offset
        self.width_bits = width_bits

    def emulate(self, command: Any = 0) -> int:
        """Emulation definition (Listing 3): ``return command + 1``."""
        return int(command) + 1

    def synthesize_behavior(self, command: Any = 0) -> int:
        """Hardware definition: the counter value this cycle.

        Wraps at ``2**width_bits`` like the real register would. The
        value is computed from the clock, not kept by a per-cycle process
        (``tests/timer_oracle.py`` pins the two equal).
        """
        return self.value_at(self.sim.now)

    def value_at(self, cycle: int) -> int:
        """The counter value a read in ``cycle`` returns (see
        :meth:`synthesize_behavior`)."""
        return (cycle + self.start_offset) % (1 << self.width_bits)

    def resource_profile(self) -> ResourceProfile:
        # One w-bit counter: w registers + an adder + read mux.
        return ResourceProfile(hdl_modules=1, adders=1,
                               extra_registers=self.width_bits)
