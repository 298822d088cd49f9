"""Altera AOCL channel / OpenCL pipe model.

Channels are the probing mechanism the paper builds everything on: "We
leverage Altera AOCL channels or OpenCL pipes to probe into the synthesized
pipelines" (§1). This module models their semantics at cycle granularity:

* **depth >= 1** — a FIFO of that capacity. Blocking reads/writes stall the
  calling pipeline; non-blocking variants return a success flag.
* **depth == 0** — two behaviours, both used by the paper:

  - *register semantics* for **non-blocking writes** (Listing 1): the channel
    "always contains the most up-to-date counter value"; a non-blocking
    write overwrites the register and never stalls the producer, and reads
    observe the latest value (non-destructively).
  - *rendezvous semantics* for **blocking writes** (Listing 5): the write
    does not complete until a consumer reads the value — this is what makes
    the sequence counter increment exactly once per consumer read.

* **single producer / single consumer** — the paper notes "each channel can
  only support one producer and one consumer"; endpoint bindings are
  enforced and violations raise :class:`~repro.errors.ChannelUsageError`.

* **compiled depth** — §3.1 limitation 1: "the OpenCL compiler may try to
  optimize the channel depth although it is explicitly set to zero, which
  may result in stale timestamps". Passing ``compiled_depth`` models the
  compiler overriding the requested depth; tests and an ablation bench
  demonstrate the resulting staleness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Tuple

from repro.errors import ChannelDepthError, ChannelUsageError
from repro.sim.core import Event, Simulator
from repro.sim.resources import Store


@dataclass
class ChannelStats:
    """Dynamic statistics, mirroring what the Altera profiler reports."""

    writes: int = 0
    write_failures: int = 0
    reads: int = 0
    read_failures: int = 0
    write_stall_cycles: int = 0
    read_stall_cycles: int = 0
    max_occupancy: int = 0

    def as_dict(self) -> dict:
        return {
            "writes": self.writes,
            "write_failures": self.write_failures,
            "reads": self.reads,
            "read_failures": self.read_failures,
            "write_stall_cycles": self.write_stall_cycles,
            "read_stall_cycles": self.read_stall_cycles,
            "max_occupancy": self.max_occupancy,
        }


class Channel:
    """One AOCL channel endpoint pair.

    Blocking operations are generator methods intended to be yielded from
    inside simulation processes, e.g. ``value = yield from channel.read()``.
    Non-blocking operations are plain methods usable at any instant.
    """

    _UNSET = object()

    def __init__(self, sim: Simulator, name: str, depth: int = 1,
                 compiled_depth: Optional[int] = None, width_bits: int = 32) -> None:
        if depth < 0:
            raise ChannelDepthError(f"channel {name!r}: depth must be >= 0, got {depth}")
        if compiled_depth is not None and compiled_depth < 0:
            raise ChannelDepthError(
                f"channel {name!r}: compiled_depth must be >= 0, got {compiled_depth}")
        self.sim = sim
        self.name = name
        #: Depth requested in source (the ``__attribute__((depth(N)))``).
        self.requested_depth = depth
        #: Depth the "compiler" actually implemented (§3.1 limitation 1).
        self.depth = depth if compiled_depth is None else compiled_depth
        self.width_bits = width_bits
        self._stats = ChannelStats()
        #: Wake-up of the consumer parked on this channel (see :meth:`park`),
        #: fired by the next value to arrive.
        self._arrival: Optional[Callable[[], None]] = None
        #: Last cycle whose poll by the parked consumer is already counted.
        self._parked_through: Optional[int] = None
        self._producer: Any = None
        self._consumer: Any = None
        if self.depth > 0:
            self._fifo: Optional[Store] = Store(sim, capacity=self.depth)
        else:
            self._fifo = None
            self._register: Any = Channel._UNSET
            self._pending_writers: list = []   # (event, value) rendezvous writers
            self._pending_readers: list = []   # events of blocked readers

    # -- endpoint discipline ----------------------------------------------

    def bind_producer(self, owner: Any) -> None:
        """Register ``owner`` as the single allowed producer."""
        if self._producer is not None and self._producer is not owner:
            raise ChannelUsageError(
                f"channel {self.name!r} already has producer {self._producer!r}; "
                f"cannot also bind {owner!r} (channels are single-producer)")
        self._producer = owner

    def bind_consumer(self, owner: Any) -> None:
        """Register ``owner`` as the single allowed consumer."""
        if self._consumer is not None and self._consumer is not owner:
            raise ChannelUsageError(
                f"channel {self.name!r} already has consumer {self._consumer!r}; "
                f"cannot also bind {owner!r} (channels are single-consumer)")
        self._consumer = owner

    @property
    def producer(self) -> Any:
        return self._producer

    @property
    def consumer(self) -> Any:
        return self._consumer

    # -- occupancy ---------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of values currently buffered."""
        if self._fifo is not None:
            return len(self._fifo)
        return 0 if self._register is Channel._UNSET else 1

    @property
    def has_data(self) -> bool:
        if self._fifo is not None:
            return len(self._fifo) > 0
        return self._register is not Channel._UNSET or bool(self._pending_writers)

    def _note_occupancy(self) -> None:
        occ = self.occupancy
        if occ > self._stats.max_occupancy:
            self._stats.max_occupancy = occ

    # -- statistics and parked consumers -------------------------------------

    @property
    def stats(self) -> ChannelStats:
        """Dynamic statistics, including a parked consumer's skipped polls."""
        if self._parked_through is not None:
            self._credit_parked_polls()
        return self._stats

    def park(self, on_arrival: Callable[[], None]) -> None:
        """Park the consumer that polled this (empty) channel this cycle.

        A late-phase autorun that would otherwise fail a non-blocking read
        here every cycle parks instead: the model stops polling, and
        ``on_arrival`` fires on the next successful write. Each skipped
        poll still counts as a read failure, credited lazily — when the
        stats are read, and at :meth:`unpark`.
        """
        self._arrival = on_arrival
        self._parked_through = self.sim.now

    def unpark(self) -> None:
        """Credit the parked consumer's skipped polls and detach it."""
        self._credit_parked_polls()
        self._arrival = None
        self._parked_through = None

    def _credit_parked_polls(self) -> None:
        # Every late phase begun since the park held one failed poll.
        through = self.sim.last_late_phase()
        if through > self._parked_through:
            self._stats.read_failures += through - self._parked_through
            self._parked_through = through

    # -- non-blocking API (write_channel_nb_altera / read_channel_nb_altera)

    def write_nb(self, value: Any) -> bool:
        """Non-blocking write. Returns True on success.

        On a depth-0 channel this always succeeds by overwriting the current
        register value (the free-running-counter usage in Listing 1).
        """
        if self._fifo is not None:
            ok = self._fifo.try_put(value)
            self._stats.writes += 1 if ok else 0
            self._stats.write_failures += 0 if ok else 1
            self._note_occupancy()
            if ok and self._arrival is not None:
                self._arrival()
            return ok
        # depth 0: serve a blocked reader directly, else update the register.
        if self._pending_readers:
            reader = self._pending_readers.pop(0)
            reader.succeed(value)
        else:
            self._register = value
        self._stats.writes += 1
        self._note_occupancy()
        if self._arrival is not None:
            self._arrival()
        return True

    def read_nb(self) -> Tuple[Any, bool]:
        """Non-blocking read. Returns ``(value, valid)``."""
        if self._fifo is not None:
            value, ok = self._fifo.try_get()
            self._stats.reads += 1 if ok else 0
            self._stats.read_failures += 0 if ok else 1
            return value, ok
        # depth 0: prefer a waiting rendezvous writer, else the register.
        if self._pending_writers:
            event, value = self._pending_writers.pop(0)
            event.succeed()
            self._stats.reads += 1
            return value, True
        if self._register is not Channel._UNSET:
            self._stats.reads += 1
            return self._register, True
        self._stats.read_failures += 1
        return None, False

    # -- blocking API (write_channel_altera / read_channel_altera) ---------

    def write(self, value: Any) -> Generator:
        """Blocking write; yield from inside a process.

        Depth-0 blocking writes rendezvous with a reader (Listing 5's
        sequencing counter relies on this to advance once per read).

        Fast path: when the write can complete *this cycle* — FIFO space
        available, or a parked reader to rendezvous with — the value is
        handed over synchronously and the producer continues without a
        schedule/wake-up round trip through the event queue (a parked
        reader is still woken through its own pending event, preserving
        wake-up order). Only a genuinely full channel parks the producer
        on a :class:`~repro.sim.resources.StorePut` event. Timing is
        unchanged — completion was same-cycle either way — and FIFO
        value order is pinned by the channel property tests.
        """
        start = self.sim.now
        fifo = self._fifo
        if fifo is not None:
            # Invariant (capacity > 0): readers park only on an empty FIFO,
            # writers only on a full one — so at most one side ever waits.
            if fifo._getters and not fifo.items:
                fifo._getters.popleft().succeed(value)
            elif len(fifo.items) < fifo.capacity and not fifo._putters:
                fifo.items.append(value)
                if self._arrival is not None:
                    self._arrival()
            else:
                # Full: the consumer is polling, not parked.
                yield fifo.put(value)
        else:
            if self._pending_readers:
                reader = self._pending_readers.pop(0)
                reader.succeed(value)
            else:
                event = Event(self.sim)
                self._pending_writers.append((event, value))
                if self._arrival is not None:
                    self._arrival()
                yield event
        stats = self._stats
        stats.writes += 1
        stats.write_stall_cycles += self.sim.now - start
        occ = len(fifo.items) if fifo is not None else (
            0 if self._register is Channel._UNSET else 1)
        if occ > stats.max_occupancy:
            stats.max_occupancy = occ

    def read(self) -> Generator:
        """Blocking read; yields the value when available.

        Fast path (mirror of :meth:`write`): a buffered value — or a
        parked rendezvous writer's value — is taken synchronously, so
        the consumer continues without an event-queue round trip; only
        an empty channel parks the reader.
        """
        start = self.sim.now
        fifo = self._fifo
        if fifo is not None:
            if fifo.items:
                value = fifo.items.popleft()
                if fifo._putters:
                    # Promote one parked writer into the freed slot (woken
                    # through its pending StorePut, as the slow path would).
                    putter = fifo._putters.popleft()
                    fifo.items.append(putter.item)
                    putter.succeed()
            else:
                value = yield fifo.get()
        else:
            if self._pending_writers:
                event, value = self._pending_writers.pop(0)
                event.succeed()
            elif self._register is not Channel._UNSET:
                value = self._register
            else:
                event = Event(self.sim)
                self._pending_readers.append(event)
                value = yield event
        stats = self._stats
        stats.reads += 1
        stats.read_stall_cycles += self.sim.now - start
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Channel {self.name!r} depth={self.depth} "
                f"(requested {self.requested_depth}) occ={self.occupancy}>")


class CounterRegisterChannel(Channel):
    """A depth-0 channel driven by an *analytic* free-running counter.

    Listing 1's timer service writes ``count`` non-blockingly every cycle,
    so the register provably holds ``now - start_cycle + 1`` whenever the
    counter has started. Modelling that with a real per-cycle process costs
    one urgent event per simulated cycle forever; this channel instead
    computes the value on demand, making the counter free. Behaviour is
    identical for every consumer that reads at normal/late priority (all
    pipeline read sites) — pinned by the lazy-vs-eager regression tests.

    Only valid for the healthy depth-0 case: a compiled-depth override
    (§3.1 limitation 1) builds a real FIFO whose staleness depends on the
    actual write process, so :class:`~repro.core.timestamp.
    PersistentTimestampService` falls back to the eager kernel there.

    The channel is read-only from kernels — the producer is the (virtual)
    counter. ``freeze()`` models tearing the service down: the register
    keeps its last value from that cycle on.
    """

    def __init__(self, sim: Simulator, name: str, start_cycle: int = 0,
                 width_bits: int = 32) -> None:
        super().__init__(sim, name, depth=0, compiled_depth=None,
                         width_bits=width_bits)
        if start_cycle < 0:
            raise ChannelUsageError(
                f"counter channel {name!r}: start cycle must be >= 0")
        self.start_cycle = start_cycle
        self._frozen_at: Optional[int] = None

    # -- the analytic register --------------------------------------------

    def _elapsed(self) -> int:
        """Number of counter increments so far (0 = not started)."""
        now = self.sim.now
        if self._frozen_at is not None and self._frozen_at < now:
            now = self._frozen_at
        return max(0, now - self.start_cycle + 1)

    def freeze(self) -> None:
        """Stop the counter (service teardown); the last value persists."""
        if self._frozen_at is None:
            self._frozen_at = self.sim.now

    @property
    def occupancy(self) -> int:
        return 1 if self._elapsed() else 0

    @property
    def has_data(self) -> bool:
        return self._elapsed() > 0

    @property
    def stats(self) -> ChannelStats:
        """Per-channel statistics, with the counter's writes synthesized.

        The eager kernel performs one non-blocking write per running cycle;
        report the same so the vendor-style profiler view is independent of
        the lazy/eager mode.
        """
        elapsed = self._elapsed()
        self._stats.writes = elapsed
        self._stats.max_occupancy = 1 if elapsed else 0
        return self._stats

    def park(self, on_arrival: Callable[[], None]) -> None:
        raise ChannelUsageError(
            f"channel {self.name!r} is driven by a free-running counter; "
            "its values arrive without writes, so a consumer cannot park on it")

    # -- channel API --------------------------------------------------------

    def write_nb(self, value: Any) -> bool:
        raise ChannelUsageError(
            f"channel {self.name!r} is driven by a free-running counter; "
            "kernels cannot write it")

    def write(self, value: Any) -> Generator:
        raise ChannelUsageError(
            f"channel {self.name!r} is driven by a free-running counter; "
            "kernels cannot write it")

    def read_nb(self) -> Tuple[Any, bool]:
        elapsed = self._elapsed()
        if elapsed:
            self._stats.reads += 1
            return elapsed, True
        self._stats.read_failures += 1
        return None, False

    def read(self) -> Generator:
        start = self.sim.now
        if not self._elapsed():
            # Exactly like a blocked reader on the empty register: woken at
            # the cycle of the counter's first write, observing value 1.
            yield self.sim.timeout(self.start_cycle - self.sim.now)
        self._stats.reads += 1
        self._stats.read_stall_cycles += self.sim.now - start
        return self._elapsed()
