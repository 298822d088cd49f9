"""Per-cycle polling oracle for the parked ibuffer.

:class:`PollingIBuffer` runs the real ibuffer body but turns every idle
park (``ctx.await_data``) back into a plain ``ctx.cycle()``, so each
compute unit polls its channels every cycle exactly as Listing 8's loop
does. Tests run the same script against both and require identical
observables: states, trace contents, channel statistics and ``sim.now``.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.core import stall_monitor, watchpoint
from repro.core.ibuffer import IBuffer
from repro.pipeline.ops import AwaitData


class PollingIBuffer(IBuffer):
    """An ibuffer whose compute units never park: one poll per cycle."""

    def body(self, ctx):
        body = super().body(ctx)
        op = body.send(None)
        while True:
            if isinstance(op, AwaitData):
                op = ctx.cycle()
            op = body.send((yield op))


@contextlib.contextmanager
def polling_ibuffers():
    """Build every stall monitor and watchpoint with the polling oracle."""
    with mock.patch.object(stall_monitor, "IBuffer", PollingIBuffer), \
            mock.patch.object(watchpoint, "IBuffer", PollingIBuffer):
        yield
