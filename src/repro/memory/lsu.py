"""Load/store units: the per-call-site memory ports of a pipeline.

Each static load or store in an AOCL kernel synthesizes to its own LSU.
Responses at one site return **in order** — iteration *n*'s load cannot
retire before iteration *n-1*'s load from the same site — which is what
makes a long-latency access stall everything behind it in the pipeline.
The stall monitor (§5.1) observes exactly this serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.memory.global_memory import GlobalMemory
from repro.sim.core import PRIORITY_NORMAL, Event, Simulator


@dataclass
class LSUStats:
    """Per-site latency bookkeeping (available without instrumentation;
    the paper's point is that on real hardware this is *not* visible —
    here it doubles as ground truth for validating the stall monitor)."""

    issued: int = 0
    completed: int = 0
    total_latency: int = 0
    max_latency: int = 0
    ordering_stall_cycles: int = 0
    samples: List[int] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.completed if self.completed else 0.0


class LoadStoreUnit:
    """One memory port: issues accesses and retires them in order.

    Retirement is scheduled *analytically*: the memory controller reveals
    each access's latency at issue, and in-order retirement means this
    access retires at ``max(raw completion, previous retirement)`` — both
    known the moment it is issued. One directly scheduled event therefore
    replaces the raw-completion/ordering-gate callback pair the previous
    implementation threaded through the queue per access; same-cycle
    retirements still process in program order because the wheel's
    priority lanes are FIFO within a cycle and earlier accesses schedule
    their retire events first.
    """

    def __init__(self, sim: Simulator, memory: GlobalMemory, site: str,
                 kind: str, keep_samples: bool = False) -> None:
        if kind not in ("load", "store"):
            raise ValueError(f"LSU kind must be 'load' or 'store', got {kind!r}")
        self.sim = sim
        self.memory = memory
        self.site = site
        self.kind = kind
        self.stats = LSUStats()
        self._keep_samples = keep_samples
        #: Absolute cycle at which the most recently issued access retires
        #: (the in-order tail); no access may retire before it.
        self._tail_time = -1

    def issue(self, buffer_name: str, index: int, value: Any = None) -> Event:
        """Issue one access; the returned event retires in program order."""
        stats = self.stats
        stats.issued += 1
        sim = self.sim
        now = sim._now
        if self.kind == "load":
            store, latency = self.memory.load_timing(buffer_name, index)
        else:
            store = None
            latency = self.memory.store_timing(buffer_name, index, value)

        raw_time = now + latency
        tail = self._tail_time
        retire_time = raw_time if raw_time >= tail else tail
        self._tail_time = retire_time
        total_latency = retire_time - now
        stall = retire_time - raw_time

        retire = Event(sim)
        retire._value = None

        def _finalize(done, _stats=stats, _latency=total_latency,
                      _stall=stall, _store=store, _index=index,
                      _keep=self._keep_samples):
            # Runs at the retirement cycle: stats become visible (and the
            # loaded value is read) at completion time, not issue time.
            _stats.completed += 1
            _stats.total_latency += _latency
            if _latency > _stats.max_latency:
                _stats.max_latency = _latency
            _stats.ordering_stall_cycles += _stall
            if _keep:
                _stats.samples.append(_latency)
            if _store is not None:
                done._value = _store.read(_index)

        retire.callbacks.append(_finalize)
        sim._schedule(retire, delay=total_latency, priority=PRIORITY_NORMAL)
        return retire

    def issue_at(self, now: int, buffer_name: str, index: int,
                 value: Any = None) -> int:
        """Analytically issue one access at cycle ``now``; returns the
        absolute retirement cycle.

        The analytic entry point of the batch executor and of the fast
        executor's closed-form host READ transfer windows: identical
        accounting to :meth:`issue` (memory-controller bank state,
        in-order tail, LSU stats, and the store's commit event at its
        exact cycle) but with stats updated immediately and **no retire
        event scheduled** — the caller owns the timeline and resumes its
        pipeline itself at the returned cycle. Both callers use it only
        where nothing can observe the LSU before that cycle, so omitting
        the event is unobservable from outside the engine.
        """
        stats = self.stats
        stats.issued += 1
        if self.kind == "load":
            _, latency = self.memory.load_timing(buffer_name, index, now=now)
        else:
            latency = self.memory.store_timing(buffer_name, index, value,
                                               now=now)

        raw_time = now + latency
        tail = self._tail_time
        retire_time = raw_time if raw_time >= tail else tail
        self._tail_time = retire_time
        total_latency = retire_time - now

        stats.completed += 1
        stats.total_latency += total_latency
        if total_latency > stats.max_latency:
            stats.max_latency = total_latency
        stats.ordering_stall_cycles += retire_time - raw_time
        if self._keep_samples:
            stats.samples.append(total_latency)
        return retire_time
