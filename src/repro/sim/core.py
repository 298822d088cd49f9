"""Cycle-accurate discrete-event simulation core.

This module provides the minimal event-driven substrate on which the whole
AOCL (Altera OpenCL-for-FPGA) execution model is built: an event queue keyed
by (time, priority, sequence), generator-based processes, and timeouts.

The design deliberately mirrors the well-known SimPy architecture (events
with callbacks, processes as coroutines that yield events) but is
implemented from scratch because no external simulation package is part of
this project's dependency set, and because the FPGA model needs precise
two-phase cycle semantics (see :data:`PRIORITY_URGENT`).

Time is measured in **clock cycles** of the synthesized design. All
latencies elsewhere in the library are expressed in cycles.

Scheduling substrate
--------------------

The pending-event queue is a *calendar queue* specialized for integer cycle
counts (see ``docs/PERFORMANCE.md``): a circular wheel of per-cycle buckets,
each split into the three fixed priority lanes, with a binary heap fallback
for events beyond the wheel horizon (or with exotic priorities / non-integer
times). Within one ``(time, priority)`` bucket events run in scheduling
(FIFO) order, which together with the lane split reproduces the exact
``(time, priority, sequence)`` dequeue order of a plain ``heapq`` of
4-tuples — a property pinned by ``tests/test_prop_queue_order.py``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, List, Optional

from repro.errors import ProcessError, SimulationError

#: Events scheduled with this priority run before normal events at the same
#: cycle.  Used for "combinational" updates such as free-running counter
#: increments, so that a consumer reading in the same cycle observes the
#: freshly produced value, matching register-transfer semantics.
PRIORITY_URGENT = 0

#: Default priority for ordinary sequential events.
PRIORITY_NORMAL = 1

#: Events that must observe everything else in the cycle (e.g. end-of-cycle
#: bookkeeping and monitors).
PRIORITY_LATE = 2

#: Calendar-wheel geometry. The horizon comfortably covers every latency the
#: model produces on its hot paths (pipeline stepping, channel hand-offs,
#: DDR access latencies of a few tens of cycles); longer delays fall back to
#: the heap and are migrated on dequeue.
_WHEEL_SIZE = 256
_WHEEL_MASK = _WHEEL_SIZE - 1
_HORIZON = _WHEEL_SIZE - 1
_FULL_MASK = (1 << _WHEEL_SIZE) - 1

#: Upper bound on the recycled-tick free list (see :meth:`Simulator.tick`).
_TICK_POOL_LIMIT = 4096


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* once given a value (or an
    exception) and scheduled, and is *processed* after its callbacks ran.
    Processes waiting on the event are resumed through those callbacks.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    _PENDING = object()

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok = True
        #: Set when a failure's exception was delivered somewhere; lets the
        #: simulator loudly report unhandled process crashes.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is Event._PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current cycle."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay=0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay=0, priority=priority)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately,
        which keeps late waiters correct.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` cycles in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None,
                 priority: int = PRIORITY_NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        self.delay = delay
        sim._schedule(self, delay=delay, priority=priority)


class _TickTimeout(Timeout):
    """A pooled one-cycle timeout (see :meth:`Simulator.tick`).

    Instances are recycled by the event loop immediately after their
    callbacks ran, so they must be yielded directly by exactly one process
    and never stored, re-waited, or combined into conditions.
    """

    __slots__ = ()


class _BroadcastTick(Timeout):
    """A shared one-cycle timeout (see :meth:`Simulator.broadcast_tick`).

    Carries its priority lane so the event loop can keep the cohort
    *preemptible*: waiters resume in yield order, but if resuming one of
    them schedules an event at the current cycle in an earlier lane, the
    remaining waiters are parked back at the front of their own lane and
    the earlier-lane event runs first — exactly the dequeue order each
    waiter would have seen with a private per-process tick.
    """

    __slots__ = ("priority",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None,
                 priority: int = PRIORITY_NORMAL) -> None:
        super().__init__(sim, delay, value, priority)
        self.priority = priority


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Process(Event):
    """A simulation coroutine.

    Wraps a generator that yields :class:`Event` objects. Each yield
    suspends the process until the yielded event is processed; the event's
    value is sent back into the generator (or its exception thrown in). The
    process itself is an event that triggers when the generator returns,
    with the generator's return value; it fails if the generator raises.
    """

    __slots__ = ("_generator", "name", "_target", "_stale", "_detached")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "",
                 inline: bool = False, detached: bool = False) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(f"process body must be a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        #: Wait targets this process was detached from by interrupt(); their
        #: wake-ups are dropped without an O(n) callbacks.remove() scan.
        self._stale: Optional[List[Event]] = None
        #: Nobody waits on a detached process: finishing schedules no
        #: completion event (a crash is still reported by ``run()``).
        self._detached = detached
        # Kick off the process at the current time. ``inline`` starts the
        # generator immediately (same cycle, no delay-0 init event through
        # the queue) — used by the pipeline engine's per-iteration
        # processes, where the init round-trip dominated event pressure.
        init = Event(sim)
        init._ok = True
        init._value = None
        if inline:
            init.callbacks = None
            self._resume(init)
        else:
            sim._schedule(init, delay=0, priority=PRIORITY_NORMAL)
            init.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current cycle."""
        if self.triggered:
            raise ProcessError(f"cannot interrupt finished process {self.name!r}")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        self.sim._schedule(interrupt_event, delay=0, priority=PRIORITY_URGENT)
        # Detach from the current target: the interrupt, not the target,
        # resumes the process. Rather than linearly scanning the target's
        # callback list (O(waiters) — painful for wide AnyOf waits), mark
        # the target stale; its wake-up is discarded in _resume().
        if self._target is not None and self._target.callbacks is not None:
            if self._stale is None:
                self._stale = [self._target]
            else:
                self._stale.append(self._target)
        interrupt_event.callbacks.append(self._resume)

    def _finish(self) -> None:
        """Deliver the result: schedule the completion event, or for a
        detached process mark it processed (queueing a crash directly)."""
        if not self._detached:
            self.sim._schedule(self, delay=0, priority=PRIORITY_NORMAL)
            return
        self.callbacks = None
        if not self._ok:
            self.sim._crashed.append(self)

    def _resume(self, event: Event) -> None:
        stale = self._stale
        if stale is not None and event in stale:
            # A wake-up from a target this process was detached from by
            # interrupt(): drop it (the marker too, so a later re-wait on
            # the same event object is delivered normally).
            stale.remove(event)
            if not stale:
                self._stale = None
            return
        outer = self.sim._active_process
        self.sim._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        next_event = self._generator.send(event._value)
                    else:
                        event._defused = True
                        next_event = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    self._finish()
                    break
                except Exception as exc:
                    # KeyboardInterrupt and SystemExit are no crash of the
                    # model: they reach the caller of run() as themselves.
                    self._ok = False
                    self._value = exc
                    self._defused = False
                    self._finish()
                    break

                if not isinstance(next_event, Event):
                    raise ProcessError(
                        f"process {self.name!r} yielded non-event {next_event!r}")
                self._target = next_event
                if next_event.callbacks is not None:
                    next_event.callbacks.append(self._resume)
                    break
                # Event already processed: loop and deliver immediately.
                event = next_event
        finally:
            # Restore rather than clear: an inline-started process resumes
            # nested inside its creator's own _resume frame.
            self.sim._active_process = outer


class Simulator:
    """The event loop: owns simulated time and the pending-event queue.

    Near-future events (delay within the wheel horizon, the three standard
    priorities, integer cycle times) live in per-cycle wheel buckets split
    by priority lane; everything else lives in a heap (``_far``). The heap
    is consulted on dequeue so the merged order is exactly the
    ``(time, priority, sequence)`` order of the original single-heap design.
    """

    def __init__(self) -> None:
        self._now = 0
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Failed processes whose exception nobody consumed; surfaced by run().
        self._crashed: List[Process] = []
        #: Circular per-cycle buckets: slot = [time, urgent, normal, late]
        #: (lanes are deques in scheduling order). A slot is *live* only if
        #: some lane is non-empty and slot[0] matches the cycle; drained
        #: slots are reused in place for later cycles.
        self._wheel: List[Optional[list]] = [None] * _WHEEL_SIZE
        #: Number of events currently stored in the wheel.
        self._wheel_count = 0
        #: Bit i set iff wheel slot i holds pending events; lets the next
        #: live cycle be found with O(1) integer bit tricks instead of a
        #: slot scan (matters when the schedule is sparse).
        self._occupied = 0
        #: Far-future / exotic events: heap of (time, priority, seq, event).
        self._far: List = []
        #: Recycled one-cycle timeouts (see tick()).
        self._tick_pool: List[_TickTimeout] = []
        #: Shared one-cycle ticks, one per priority lane: (created_at, event).
        self._broadcast_ticks: dict = {}
        #: Equals ``now`` once the current cycle has begun (see
        #: :meth:`last_begun_cycle`).
        self._begun_at = -1
        #: Equals ``now`` once the current cycle's LATE phase is under way
        #: (see :meth:`last_late_phase`).
        self._late_phase_at = -1
        #: Stop cycle of the ``run(until=cycle)`` under way (see
        #: :attr:`stop_cycle`).
        self._stop_cycle: Optional[int] = None

    @property
    def now(self) -> int:
        """Current simulation time in clock cycles."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None,
                priority: int = PRIORITY_NORMAL) -> Timeout:
        """Create an event that fires ``delay`` cycles from now."""
        return Timeout(self, delay, value, priority)

    def tick(self, priority: int = PRIORITY_NORMAL) -> Timeout:
        """A pooled one-cycle timeout for pipeline stepping hot paths.

        Behaves exactly like ``timeout(1, priority=priority)`` but recycles
        the event object once its callbacks ran, avoiding an allocation per
        simulated cycle per pipeline. The returned event MUST be yielded
        directly by a single process (never stored, re-yielded, or wrapped
        in a condition) — the engine's cycle-boundary stepping satisfies
        this by construction.
        """
        pool = self._tick_pool
        if pool:
            tick = pool.pop()
            tick._value = None
            tick._ok = True
            tick._defused = False
            self._schedule(tick, delay=1, priority=priority)
            return tick
        return _TickTimeout(self, 1, None, priority)

    def broadcast_tick(self, priority: int = PRIORITY_NORMAL) -> Timeout:
        """A *shared* one-cycle timeout for coalesced pipeline stepping.

        All callers at the same ``(cycle, priority)`` receive the same
        event object and are resumed together (in yield order) when it
        fires — N compute units stepping in lockstep cost one scheduled
        event per cycle instead of N. Unlike :meth:`tick`, the returned
        event is a non-recycled :class:`Timeout`, so any number of
        processes may wait on it, and a waiter interrupted while parked is
        detached safely through the stale-target mechanism. Coalescing is
        a pure optimisation: an event scheduled into an earlier priority
        lane while the cohort resumes preempts the remaining waiters (see
        :class:`_BroadcastTick`), so dequeue order is indistinguishable
        from every waiter holding its own per-process tick.
        """
        entry = self._broadcast_ticks.get(priority)
        if entry is not None and entry[0] == self._now:
            return entry[1]
        event = _BroadcastTick(self, 1, None, priority)
        self._broadcast_ticks[priority] = (self._now, event)
        return event

    def last_begun_cycle(self) -> int:
        """The latest cycle that has begun.

        ``now`` once an event of the current cycle has been dequeued, or
        while a launch replay times it (:mod:`repro.pipeline.replay`
        moves the clock itself), else ``now - 1``: after
        ``run(until=now)`` the host observes the model between cycles,
        with no event of ``now`` run yet.
        """
        now = self._now
        return now if self._begun_at == now else now - 1

    def last_late_phase(self) -> int:
        """The latest cycle whose LATE phase has begun.

        ``now`` once a LATE-lane event of the current cycle has been
        dequeued, else ``now - 1``. A parked late-phase poller (see
        :meth:`wake_at_late_phase`) polls first in every LATE phase, so
        this is also the last cycle whose skipped poll it has missed.
        """
        now = self._now
        return now if self._late_phase_at == now else now - 1

    def wake_at_late_phase(self, event: Event) -> None:
        """Trigger ``event`` at the head of the next LATE phase to begin.

        That is the LATE phase of the current cycle if it has not begun,
        else that of the next cycle. The event goes to the *head* of the
        lane, so a woken poller runs before every other LATE event of its
        cycle: the position a per-cycle poller holds relative to the
        late-phase producers started after it.
        """
        event._ok = True
        event._value = None
        time = self.last_late_phase() + 1
        if type(time) is int:
            self._schedule_front(event, time, PRIORITY_LATE)
        else:
            self._schedule(event, time - self._now, PRIORITY_LATE)

    def process(self, generator: Generator, name: str = "",
                inline: bool = False, detached: bool = False) -> Process:
        """Start a new process from ``generator``.

        ``inline=True`` runs the generator's first segment immediately
        instead of via a delay-0 init event (see :class:`Process`).
        ``detached=True`` is for a process nobody waits on: it schedules
        no completion event when it finishes.
        """
        return Process(self, generator, name=name, inline=inline,
                       detached=detached)

    # -- scheduling & execution ------------------------------------------

    def _schedule(self, event: Event, delay: int, priority: int) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay {delay})")
        time = self._now + delay
        if (type(time) is int and delay <= _HORIZON
                and type(priority) is int and 0 <= priority <= 2):
            index = time & _WHEEL_MASK
            slot = self._wheel[index]
            if slot is None:
                slot = [time, deque(), deque(), deque()]
                self._wheel[index] = slot
            elif slot[0] != time:
                # Reuse a drained slot for a new cycle.
                slot[0] = time
            slot[priority + 1].append(event)
            self._wheel_count += 1
            self._occupied |= 1 << index
        else:
            self._eid += 1
            heapq.heappush(self._far, (time, priority, self._eid, event))

    def _schedule_front(self, event: Event, time: int, priority: int) -> None:
        """Put ``event`` at the head of its wheel lane at integer ``time``
        (which must lie within the horizon)."""
        index = time & _WHEEL_MASK
        slot = self._wheel[index]
        if slot is None:
            slot = [time, deque(), deque(), deque()]
            self._wheel[index] = slot
        elif slot[0] != time:
            slot[0] = time
        slot[priority + 1].appendleft(event)
        self._wheel_count += 1
        self._occupied |= 1 << index

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        far = self._far
        next_time: Optional[int] = None
        if self._wheel_count:
            now = self._now
            if type(now) is int:
                slot = self._wheel[now & _WHEEL_MASK]
                if slot is not None and slot[0] == now and (
                        slot[1] or slot[2] or slot[3]):
                    next_time = now
            if next_time is None:
                next_time = self._next_wheel_time()
        if far and (next_time is None or far[0][0] < next_time):
            next_time = far[0][0]
        return next_time

    def _next_wheel_time(self) -> Optional[int]:
        """Earliest live wheel cycle strictly after ``now`` (None if none)."""
        occupied = self._occupied
        if not occupied:
            return None
        now = self._now
        if type(now) is int:
            # All wheel times lie in [now, now + HORIZON] and map to
            # distinct slots, so the first occupied slot in circular order
            # from now+1 is the earliest. Rotate the occupancy bitmap and
            # take the lowest set bit — O(1) big-int arithmetic.
            shift = (now + 1) & _WHEEL_MASK
            rotated = ((occupied >> shift)
                       | (occupied << (_WHEEL_SIZE - shift))) & _FULL_MASK
            # After rotation, bit 255 is the slot of `now` itself (the only
            # time that can map there); exclude it — we want strictly later.
            rotated &= _FULL_MASK >> 1
            if not rotated:
                return None
            offset = (rotated & -rotated).bit_length() - 1
            return self._wheel[(shift + offset) & _WHEEL_MASK][0]
        # Non-integer `now` (reached via a far event at a float time): fall
        # back to inspecting occupied slots directly.
        best: Optional[int] = None
        wheel = self._wheel
        while occupied:
            low = occupied & -occupied
            slot = wheel[low.bit_length() - 1]
            if slot[0] > now and (best is None or slot[0] < best):
                best = slot[0]
            occupied ^= low
        return best

    def _pop_next(self) -> Event:
        """Remove and return the next event, advancing ``_now`` to it."""
        far = self._far
        wheel = self._wheel
        while True:
            now = self._now
            if self._wheel_count and type(now) is int:
                index = now & _WHEEL_MASK
                slot = wheel[index]
                if slot is not None and slot[0] == now:
                    if slot[1]:
                        lane_priority, lane = 0, slot[1]
                    elif slot[2]:
                        lane_priority, lane = 1, slot[2]
                    elif slot[3]:
                        lane_priority, lane = 2, slot[3]
                        self._late_phase_at = now
                    else:
                        lane = None
                    if lane is not None:
                        if far:
                            head = far[0]
                            # A far event at the same cycle with a <= lane
                            # priority always precedes the lane head: far
                            # entries at (time, priority) were necessarily
                            # scheduled earlier (lower sequence number).
                            if head[0] == now and head[1] <= lane_priority:
                                heapq.heappop(far)
                                if head[1] < PRIORITY_LATE:
                                    # An earlier lane of this cycle is still
                                    # running: the LATE phase has not begun.
                                    self._late_phase_at = -1
                                return head[3]
                        self._wheel_count -= 1
                        event = lane.popleft()
                        if not (slot[1] or slot[2] or slot[3]):
                            self._occupied &= ~(1 << index)
                        return event
            if far and far[0][0] == now:
                entry = heapq.heappop(far)
                if entry[1] >= PRIORITY_LATE:
                    self._late_phase_at = now
                return entry[3]
            # Nothing left at the current time: advance to the next one.
            next_time = self._next_wheel_time() if self._wheel_count else None
            if far:
                far_time = far[0][0]
                if next_time is None or far_time < next_time:
                    next_time = far_time
            if next_time is None:
                raise SimulationError("step() on an empty event queue")
            if type(next_time) is float and next_time.is_integer():
                next_time = int(next_time)
            self._now = next_time

    def _has_events(self) -> bool:
        return bool(self._wheel_count or self._far)

    @property
    def stop_cycle(self) -> Optional[int]:
        """The cycle the ``run(until=cycle)`` under way stops at, else None.

        The caller observes the model there, with no event of that cycle
        or later processed; work computed ahead of the clock must stay
        before it.
        """
        return self._stop_cycle

    def exclusive_reason(self) -> Optional[str]:
        """Why work computed ahead of the clock could be observed before
        it ends, or None when nothing can observe it.

        An analytic launch replay computes the whole launch at its first
        cycle, so no other event may be scheduled (no stepping autorun,
        concurrent launch or posted store still in flight: every pending
        commit is a scheduled event), and no ``run(until=...)`` may pause
        the clock mid-launch.
        """
        if self._has_events():
            return "concurrent simulator activity"
        if self._stop_cycle is not None:
            return "run(until=...) under way"
        return None

    @property
    def pending_events(self) -> int:
        """Number of scheduled events not yet processed."""
        return self._wheel_count + len(self._far)

    def step(self) -> None:
        """Process exactly one event."""
        event = self._pop_next()
        self._begun_at = self._now
        callbacks, event.callbacks = event.callbacks, None
        if (type(event) is _BroadcastTick and len(callbacks) > 1
                and type(self._now) is int):
            self._step_broadcast(event, callbacks)
            return
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            if isinstance(event, Process):
                self._crashed.append(event)
        elif type(event) is _TickTimeout and len(self._tick_pool) < _TICK_POOL_LIMIT:
            # Recycle the consumed tick: its (sole) waiter already ran.
            callbacks.clear()
            event.callbacks = callbacks
            self._tick_pool.append(event)

    def _step_broadcast(self, event: "_BroadcastTick", callbacks: list) -> None:
        """Resume a broadcast-tick cohort, preserving single-tick order.

        Each waiter is resumed in yield order, but between waiters the
        queue is re-checked: an event now pending at the current cycle in
        an earlier priority lane (or an equal-or-earlier far entry — far
        entries at the same ``(time, priority)`` carry lower sequence
        numbers) would, with private per-process ticks, dequeue before the
        remaining waiters. When that happens the remainder of the cohort
        is parked back at the *front* of the tick's own lane, keeping the
        FIFO position the un-resumed waiters already held.
        """
        pri = event.priority
        wheel = self._wheel
        far = self._far
        callbacks[0](event)
        for i in range(1, len(callbacks)):
            now = self._now
            index = now & _WHEEL_MASK
            slot = wheel[index]
            if slot is not None and slot[0] == now:
                earlier_lane = (slot[1] or slot[2] if pri == 2
                                else slot[1] if pri == 1 else None)
            else:
                earlier_lane = None
            if not earlier_lane and not (
                    far and far[0][0] == now and far[0][1] <= pri):
                callbacks[i](event)
                continue
            event.callbacks = callbacks[i:]
            self._schedule_front(event, now, pri)
            return

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * an ``int`` — run until that cycle (exclusive of later events);
        * an :class:`Event` — run until that event is processed, returning
          its value (re-raising its exception on failure). If the event
          never triggers — the queue drained first, or the loop stopped
          with the event still pending — a :class:`SimulationError` is
          raised; "not done" is never silently returned as a result.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[int] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = int(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})")

        if stop_time is not None:
            outer_stop, self._stop_cycle = self._stop_cycle, stop_time
            try:
                while True:
                    next_time = self.peek()
                    if next_time is None or next_time >= stop_time:
                        self._now = stop_time
                        return None
                    self.step()
                    self._raise_crashed()
            finally:
                self._stop_cycle = outer_stop

        while self._wheel_count or self._far:
            if stop_event is not None and stop_event.processed:
                break
            self.step()
            self._raise_crashed()

        if stop_event is not None:
            if not stop_event.triggered:
                if self._wheel_count or self._far:
                    raise SimulationError(
                        "run() stopped with events still pending but the "
                        "awaited event never triggered")
                raise SimulationError(
                    "run() ran out of events before the awaited event triggered")
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value
        return None

    def _raise_crashed(self) -> None:
        if self._crashed:
            process = self._crashed.pop(0)
            process._defused = True
            raise ProcessError(
                f"process {process.name!r} crashed: {process._value!r}"
            ) from process._value

    def run_all(self, max_cycles: int = 10_000_000) -> None:
        """Run until the queue drains, guarding against runaway models."""
        while self._wheel_count or self._far:
            if self._now > max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles; "
                    "likely a livelocked autorun kernel without a stop condition")
            self.step()
            self._raise_crashed()

