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

* **lazy endpoints** — a consumer parked on the channel (:meth:`Channel.
  park`), its sink (:meth:`Channel.sink`) and a parked producer's feed
  (:meth:`Channel.feed`) stand for per-cycle polls and writes that
  schedule nothing. :meth:`Channel.settle` is their one entry point: it
  applies their work through a LATE phase from one cursor, the feed's
  writes before the consumer's polls, and every accessor calls it first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence, Tuple

from repro.errors import ChannelDepthError, ChannelUsageError
from repro.sim.core import PRIORITY_LATE, PRIORITY_URGENT, Event, Simulator
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


class Feed:
    """The writes a parked producer handed to its channel (see
    :meth:`Channel.feed`)."""

    __slots__ = ("words", "position", "on_end", "end_fixed",
                 "write_requested")

    def __init__(self, words: Sequence[Any], position: int,
                 on_end: Callable[[], None]) -> None:
        self.words = words
        #: Index of the next word to write.
        self.position = position
        self.on_end = on_end
        self.end_fixed = False
        self.write_requested = False


class Sink:
    """The per-datum work a parked consumer handed to its channel (see
    :meth:`Channel.sink`)."""

    __slots__ = ("action", "arrivals", "last")

    def __init__(self, action: Callable[[int, Any], None], last: int) -> None:
        self.action = action
        #: LATE phase from which each buffered value is visible, in FIFO
        #: order.
        self.arrivals: deque = deque()
        #: Last LATE phase in which the consumer took a value.
        self.last = last


def schedule_call(sim: Simulator, call: Callable[[], None],
                  next_cycle: bool = False) -> None:
    """Run ``call`` one hop later (a NORMAL event this cycle), or with
    ``next_cycle`` where an early-phase autorun resumes after a cycle
    boundary: on the next cycle's URGENT broadcast tick."""
    if next_cycle:
        sim.broadcast_tick(PRIORITY_URGENT).callbacks.append(
            lambda _event: call())
        return
    event = Event(sim)
    event.callbacks.append(lambda _event: call())
    event.succeed()


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
        #: The parked producer's pending writes (see :meth:`feed`).
        self._feed: Optional[Feed] = None
        #: The parked consumer's per-datum work (see :meth:`sink`).
        self._sink: Optional[Sink] = None
        #: Last LATE phase the lazy endpoints are settled through (see
        #: :meth:`settle`); None while none is attached.
        self._through: Optional[int] = None
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
        if self._through is not None:
            self.settle()
        if self._fifo is not None:
            return len(self._fifo)
        return 0 if self._register is Channel._UNSET else 1

    @property
    def has_data(self) -> bool:
        if self._through is not None:
            self.settle()
        if self._fifo is not None:
            return len(self._fifo) > 0
        return self._register is not Channel._UNSET or bool(self._pending_writers)

    def note_read(self, stall: int = 0) -> None:
        """Count one completed blocking read that waited ``stall`` cycles.

        For callers that complete a read on their own timeline (the
        analytic launch replay, see :mod:`repro.pipeline.replay`).
        """
        stats = self._stats
        stats.reads += 1
        stats.read_stall_cycles += stall

    @property
    def stats(self) -> ChannelStats:
        """Dynamic statistics, including what the lazy endpoints did (see
        :meth:`settle`)."""
        if self._through is not None:
            self.settle()
        return self._stats

    # -- lazy endpoints -------------------------------------------------------

    def settle(self, through: Optional[int] = None) -> None:
        """Apply what the lazy endpoints did through LATE phase ``through``
        (default: the last one begun).

        In every phase since the last settle, first the feed writes (see
        :meth:`feed`), then the parked consumer polls (see :meth:`park`):
        a sunk read where its sink has a visible value (see :meth:`sink`),
        else a failed read. Both endpoints share one cursor, the last
        phase settled. A no-op without a lazy endpoint, and for phases
        already settled.
        """
        cursor = self._through
        if cursor is None:
            return
        if through is None:
            through = self.sim.last_late_phase()
        phases = through - cursor
        if phases <= 0:
            return
        self._through = through
        stats = self._stats
        written = 0
        feed = self._feed
        if feed is not None and feed.position < len(feed.words):
            # Nothing drains the FIFO between two settles, so the writes
            # are closed-form: min(phases, room, words left), and one
            # failed write for every other phase while words remain.
            words = feed.words
            position = feed.position
            left = len(words) - position
            fifo = self._fifo
            # A blocked reader takes the first word straight off the
            # write, without using room.
            handed = 1 if fifo._getters and not fifo.items else 0
            if handed:
                fifo._getters.popleft().succeed(words[position])
            written = min(phases, fifo.capacity - len(fifo.items) + handed,
                          left)
            fifo.items.extend(words[position + handed:position + written])
            if len(fifo.items) > stats.max_occupancy:
                stats.max_occupancy = len(fifo.items)
            feed.position = position + written
            stats.writes += written
            if written < left:
                # The FIFO filled up: every later phase failed its write.
                stats.write_failures += phases - written
            if handed:
                self._fix_feed_end()
        if self._arrival is None:
            return
        sink = self._sink
        taken = 0
        if sink is not None:
            arrivals = sink.arrivals
            items = self._fifo.items
            action = sink.action
            cycle = sink.last
            while arrivals:
                cycle += 1
                if arrivals[0] > cycle:
                    cycle = arrivals[0]
                if cycle > through:
                    break
                arrivals.popleft()
                taken += 1
                sink.last = cycle
                action(cycle, items.popleft())
            stats.reads += taken
        stats.read_failures += phases - taken
        if written:
            self._arrival()

    def _attach(self) -> None:
        """Settle before an endpoint attaches: it starts at the shared
        cursor, the last LATE phase begun."""
        if self._through is None:
            self._through = self.sim.last_late_phase()
        else:
            self.settle()

    # -- parked consumers ----------------------------------------------------

    def park(self, on_arrival: Callable[[], None]) -> None:
        """Park the consumer that polled this (empty) channel this cycle.

        A late-phase autorun that would otherwise fail a non-blocking read
        here every cycle parks instead: the model stops polling, and
        ``on_arrival`` fires on the next successful write. Each skipped
        poll still counts as a read failure, applied by :meth:`settle`.
        The consumer has polled through the last LATE phase begun: this
        cycle's, or the previous one for a unit parked before its first
        poll.
        """
        self._attach()
        self._arrival = on_arrival
        if self._feed is not None:
            self._request_write()

    def unpark(self) -> None:
        """Settle, then detach the parked consumer (and its sink)."""
        self.settle()
        self._arrival = None
        self._sink = None
        if self._feed is None:
            self._through = None

    def sink(self, action: Callable[[int, Any], None]) -> None:
        """Hand the parked consumer's per-datum work to this channel.

        The sink stands for the consumer running ``read_nb`` at the head
        of every LATE phase and, on success, ``action(cycle, value)``.
        A write then schedules nothing and does not wake the consumer: a
        value that becomes visible in LATE phase ``a`` is taken in phase
        ``c = max(a, previous c + 1)`` by :meth:`settle` (``write_nb``
        settles before it succeeds or drops on the true occupancy), so
        reads, read failures and ``max_occupancy`` come out as per-cycle
        polling leaves them. A blocking write wakes the consumer instead
        (it may have to wait for room). Detached by :meth:`unpark`. Only
        for a parked consumer of an empty FIFO channel with no feed.
        """
        if (self._arrival is None or self._fifo is None
                or self._fifo.items or self._feed is not None):
            raise ChannelUsageError(
                f"channel {self.name!r}: a sink needs a parked consumer "
                "of an empty FIFO")
        self.settle()
        self._sink = Sink(action, self._through)

    @property
    def has_sink(self) -> bool:
        """True while a parked consumer's sink is attached."""
        return self._sink is not None

    # -- parked producers ---------------------------------------------------

    def feed(self, words: Sequence[Any], start: int,
             on_end: Callable[[], None]) -> Feed:
        """Hand ``words[start:]`` over as a parked producer's writes.

        The feed stands for the producer running ``write_nb(words[i])`` at
        the head of every LATE phase after the current one, advancing
        ``i`` on success, until the words run out. Nothing is scheduled
        per word: :meth:`settle` applies the writes of the phases begun
        since the last settle. Only a consumer that blocks on (or parks
        on) the empty FIFO costs an event: one write at the head of the
        next LATE phase.

        ``on_end`` is called in the LATE phase of the final write; the
        returned :class:`Feed` holds the position reached. Detach with
        :meth:`unfeed`. FIFO channels only (depth >= 1).
        """
        if self._fifo is None:
            raise ChannelUsageError(
                f"channel {self.name!r} has no FIFO (depth 0) to feed")
        self._attach()
        feed = Feed(words, start, on_end)
        self._feed = feed
        self._fix_feed_end()
        if self._arrival is not None or self._fifo._getters:
            self._request_write()
        return feed

    def unfeed(self) -> None:
        """Settle, then detach the feed."""
        self.settle()
        self._feed = None
        if self._arrival is None:
            self._through = None

    def can_take_fed(self) -> bool:
        """True when :meth:`take_fed` may serve reads: a feed is attached
        whose end is not fixed, and no consumer is parked on the channel
        and no reader or writer blocked on it."""
        feed = self._feed
        # A fed channel always has a FIFO (see feed()).
        return (feed is not None and not feed.end_fixed
                and self._arrival is None and not self._fifo._getters
                and not self._fifo._putters)

    def take_fed(self, through: int) -> Tuple[Any, bool]:
        """A blocking read computed ahead of the clock: returns
        ``(value, valid)``.

        It stands for a :meth:`read` at a cycle whose last begun LATE
        phase is ``through``, with nothing else touching the channel
        since the clock's present: :meth:`settle` through that phase,
        then take the head word. It takes nothing (``valid`` False) when
        the FIFO is empty (the reader would block) or when taking the
        word would fix the feed's end; :meth:`read` must do those reads
        at their real cycle. Only valid while :meth:`can_take_fed` holds,
        so the settle applies the feed alone.
        """
        self.settle(through)
        feed = self._feed
        items = self._fifo.items
        if not items or (self._fifo.capacity - len(items) + 1
                         >= len(feed.words) - feed.position):
            return None, False
        self._stats.reads += 1
        return items.popleft(), True

    def _fix_feed_end(self) -> None:
        """Schedule ``on_end`` once the free room covers the words left.

        Called whenever room grows against the words left (a read, or a
        write taken straight by a blocked reader), right after a settle.
        From then on every LATE phase writes one word, so the final
        write's phase is known.
        """
        feed = self._feed
        if feed.end_fixed:
            return
        fifo = self._fifo
        left = len(feed.words) - feed.position
        if fifo.capacity - len(fifo.items) < left:
            return
        feed.end_fixed = True
        last = self._through + left

        def end(_event: Event) -> None:
            if self._feed is feed:
                feed.on_end()

        self.sim.timeout(last - self.sim.now,
                         priority=PRIORITY_LATE).add_callback(end)

    def _request_write(self) -> None:
        """Settle the feed at the head of the next LATE phase, for a
        consumer waiting on the empty FIFO."""
        feed = self._feed
        if feed.write_requested or feed.position == len(feed.words):
            return
        feed.write_requested = True
        event = Event(self.sim)

        def write(_event: Event) -> None:
            feed.write_requested = False
            if self._feed is feed:
                self.settle()
                if self._fifo._getters:
                    self._request_write()

        event.callbacks.append(write)
        self.sim.wake_at_late_phase(event)

    # -- non-blocking API (write_channel_nb_altera / read_channel_nb_altera)

    def write_nb(self, value: Any) -> bool:
        """Non-blocking write. Returns True on success.

        On a depth-0 channel this always succeeds by overwriting the current
        register value (the free-running-counter usage in Listing 1).
        """
        stats = self._stats
        fifo = self._fifo
        if fifo is not None:
            if self._through is not None:
                self.settle()
            if not fifo.try_put(value):
                stats.write_failures += 1
                return False
            stats.writes += 1
            if len(fifo.items) > stats.max_occupancy:
                stats.max_occupancy = len(fifo.items)
            if self._arrival is not None:
                if self._sink is None:
                    self._arrival()
                else:
                    # Taken by a later settle, from the first LATE phase
                    # that has not begun.
                    self._sink.arrivals.append(self._through + 1)
            return True
        # depth 0: serve a blocked reader directly, else update the register.
        if self._pending_readers:
            reader = self._pending_readers.pop(0)
            reader.succeed(value)
        else:
            self._register = value
            stats.max_occupancy = 1
        stats.writes += 1
        if self._arrival is not None:
            self._arrival()
        return True

    def read_nb(self) -> Tuple[Any, bool]:
        """Non-blocking read. Returns ``(value, valid)``."""
        if self._fifo is not None:
            if self._through is not None:
                self.settle()
            value, ok = self._fifo.try_get()
            self._stats.reads += 1 if ok else 0
            self._stats.read_failures += 0 if ok else 1
            if ok and self._feed is not None:
                self._fix_feed_end()
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
            if self._sink is not None:
                # Wake the sunk consumer: a full FIFO needs its reads.
                self._arrival()
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
            if self._through is not None:
                self.settle()
            feed = self._feed
            if fifo.items:
                value = fifo.items.popleft()
                if fifo._putters:
                    # Promote one parked writer into the freed slot (woken
                    # through its pending StorePut, as the slow path would).
                    putter = fifo._putters.popleft()
                    fifo.items.append(putter.item)
                    putter.succeed()
                if feed is not None:
                    self._fix_feed_end()
            else:
                if feed is not None:
                    self._request_write()
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


class ServiceChannel(Channel):
    """A depth-0 channel whose values come from an *analytic* service
    model (:attr:`driver`) instead of a producer kernel's writes.

    Kernels can only read it, and no consumer can park on it: its values
    arrive without writes. A replayed launch reads it without events
    (see :mod:`repro.pipeline.replay`).
    """

    #: What drives the channel, named in the refusals below.
    driver = "an analytic service"

    def __init__(self, sim: Simulator, name: str,
                 width_bits: int = 32) -> None:
        super().__init__(sim, name, depth=0, compiled_depth=None,
                         width_bits=width_bits)

    def park(self, on_arrival: Callable[[], None]) -> None:
        raise ChannelUsageError(
            f"channel {self.name!r} is driven by {self.driver}; its values "
            "arrive without writes, so a consumer cannot park on it")

    def write_nb(self, value: Any) -> bool:
        raise ChannelUsageError(
            f"channel {self.name!r} is driven by {self.driver}; "
            "kernels cannot write it")

    write = write_nb


class CounterRegisterChannel(ServiceChannel):
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

    driver = "a free-running counter"

    def __init__(self, sim: Simulator, name: str, start_cycle: int = 0,
                 width_bits: int = 32) -> None:
        super().__init__(sim, name, width_bits)
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

    def value(self) -> int:
        """The register's value now: ``now - start_cycle + 1`` (0 before
        the counter starts, frozen after teardown)."""
        return self._elapsed()

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

    # -- channel API --------------------------------------------------------

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
        self.note_read(self.sim.now - start)
        return self._elapsed()


class SequenceChannel(ServiceChannel):
    """A depth-0 channel fed by an *analytic* Listing 5 sequence server.

    The server writes ``count`` with a blocking write, increments, and
    writes again, so it advances exactly once per consumer read. This
    channel holds that state itself — the value on offer, the cycle the
    offer was made, and the readers waiting for the next one — instead of
    a server generator's locals, and reproduces the server's event order:

    * :meth:`start` starts the server like an early-phase autorun: its
      first offer is made after a process start event and a
      phase-alignment event at that cycle;
    * a read that takes the offer resumes at once; the server's blocking
      write completes one hop later (a NORMAL event at the read cycle);
    * what follows depends on the server's loop (``per_cycle``):

      - the Python-IR server (:class:`~repro.core.sequence.
        SequenceServerKernel`) loops with no cycle boundary, so it
        re-offers at that hop — a second reader in the same cycle that
        comes before the hop waits for it — and a re-offer hands the
        value straight to every waiting reader in turn (each resumes one
        hop later) before it parks the next offer;
      - a compiled Listing 5 kernel (``per_cycle=True``) ends each trip
        of its ``while (1)`` loop on a cycle boundary, so it re-offers
        at the head of the next cycle (the early-phase autorun tick); a
        waiting reader takes that offer at once, and the next offer
        comes one cycle later again: at most one hand-over per cycle.

    Statistics match the eager server's: one write per completed
    hand-over, with the cycles the offer waited as write stall cycles.
    :meth:`take` and :meth:`wait` are the two halves of a blocking read
    for callers that own the timeline (the analytic launch replay, see
    :mod:`repro.pipeline.replay`): they pass their own ``hop`` and reader
    objects instead of scheduling events. ``freeze()`` models tearing
    the service down: the offer in place stays readable once, and no
    write completes after it.
    """

    driver = "a sequence server"

    def __init__(self, sim: Simulator, name: str, start: int = 0,
                 width_bits: int = 32, per_cycle: bool = False) -> None:
        super().__init__(sim, name, width_bits)
        #: The value on offer (or the next one to offer).
        self._count = start + 1
        self._offered = False
        #: Cycle the current offer was made (its write's start).
        self._offer_cycle = 0
        self._stopped = False
        self._per_cycle = per_cycle

    def start(self) -> None:
        """Start the server at this cycle, as installing its autorun
        kernel would: a process start event, then phase alignment."""
        started = Event(self.sim)
        started.callbacks.append(self._started)
        started.succeed()

    def _started(self, _event: Event) -> None:
        if self._stopped:
            return
        aligned = Event(self.sim)
        aligned.callbacks.append(lambda _aligned: self._offer(self._hop))
        aligned.succeed(priority=PRIORITY_URGENT)

    def freeze(self) -> None:
        """Stop the server (service teardown)."""
        self._stopped = True

    # -- the analytic server -------------------------------------------------

    def _offer(self, hop: Callable[..., None]) -> None:
        """The server's blocking write of the next value, at ``now``."""
        if self._stopped:
            return
        readers = self._pending_readers
        while readers:
            # A waiting reader takes the write at once (no stall).
            readers.pop(0).succeed(self._count)
            self._stats.writes += 1
            self._count += 1
            if self._per_cycle:
                hop(lambda: self._offer(hop), True)
                return
        self._offered = True
        self._offer_cycle = self.sim.now

    def _write_done(self, hop: Callable[..., None]) -> None:
        """The hop after a taken offer: the server's write completes and
        it re-offers (unless the service was torn down meanwhile)."""
        if self._stopped:
            return
        stats = self._stats
        stats.writes += 1
        stats.write_stall_cycles += self.sim.now - self._offer_cycle
        self._count += 1
        if self._per_cycle:
            hop(lambda: self._offer(hop), True)
        else:
            self._offer(hop)

    def _hop(self, call: Callable[[], None], next_cycle: bool = False) -> None:
        schedule_call(self.sim, call, next_cycle)

    def take(self, hop: Callable[..., None]) -> Any:
        """Take the value on offer (``has_data`` must hold).

        ``hop(call, next_cycle=False)`` runs ``call`` one hop later, or
        with ``next_cycle`` at the head of the next cycle's early phase;
        the server's write completion and re-offers go through it.
        """
        self._offered = False
        if not self._stopped:
            hop(lambda: self._write_done(hop))
        return self._count

    def wait(self, reader: Any) -> None:
        """Queue ``reader`` for the next offer: its ``succeed(value)`` is
        called when the server writes."""
        self._pending_readers.append(reader)

    # -- channel API --------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return 0

    @property
    def has_data(self) -> bool:
        return self._offered

    def read_nb(self) -> Tuple[Any, bool]:
        if self._offered:
            self._stats.reads += 1
            return self.take(self._hop), True
        self._stats.read_failures += 1
        return None, False

    def read(self) -> Generator:
        start = self.sim.now
        if self._offered:
            value = self.take(self._hop)
        else:
            event = Event(self.sim)
            self.wait(event)
            value = yield event
        self.note_read(self.sim.now - start)
        return value
