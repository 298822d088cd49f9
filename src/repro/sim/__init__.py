"""Discrete-event simulation substrate (cycle-accurate).

Public surface:

* :class:`~repro.sim.core.Simulator` — the event loop; time in clock cycles.
* :class:`~repro.sim.core.Event`, :class:`~repro.sim.core.Timeout`,
  :class:`~repro.sim.core.Process`, :class:`~repro.sim.core.Interrupt`.
* :class:`~repro.sim.conditions.AnyOf` / :class:`~repro.sim.conditions.AllOf`.
* :class:`~repro.sim.resources.Store` / :class:`~repro.sim.resources.Resource`.
"""

from repro.sim.core import (
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.conditions import AllOf, AnyOf
from repro.sim.resources import Resource, Store

__all__ = [
    "PRIORITY_LATE",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
]
