"""Test-only oracle: the eager Listing 5 sequence server.

:class:`EagerSequenceService` runs the §3.2 server the way the paper
prints it — :class:`~repro.core.sequence.SequenceServerKernel` as a real
early-phase autorun kernel doing blocking writes into a plain depth-0
channel — where :class:`~repro.core.sequence.SequenceService` computes
the same rendezvous in its :class:`~repro.channels.channel.
SequenceChannel`. The analytic channel must be indistinguishable from
it: values, statistics, timing and the order of same-cycle wake-ups.
"""

from __future__ import annotations

from repro.core.sequence import SequenceServerKernel, SequenceService


class EagerSequenceService:
    """Drop-in for :class:`SequenceService` that runs the server kernel."""

    def __init__(self, fabric, name: str = "seq", start: int = 0) -> None:
        self.fabric = fabric
        self.channel = fabric.channels.declare(f"{name}_ch", depth=0,
                                               width_bits=32)
        self.kernel = SequenceServerKernel(self.channel, name=f"{name}_srv",
                                           start=start)
        fabric.add_autorun(self.kernel)

    read_op = SequenceService.read_op
