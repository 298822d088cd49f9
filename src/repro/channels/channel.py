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
from typing import Any, Callable, Generator, Optional, Sequence, Tuple

from repro.errors import ChannelDepthError, ChannelUsageError
from repro.sim.core import PRIORITY_LATE, Event, Simulator
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

    __slots__ = ("words", "position", "through", "on_end", "end_fixed",
                 "write_requested")

    def __init__(self, words: Sequence[Any], position: int, through: int,
                 on_end: Callable[[], None]) -> None:
        self.words = words
        #: Index of the next word to write.
        self.position = position
        #: Last LATE phase whose write (or failed write) is settled.
        self.through = through
        self.on_end = on_end
        self.end_fixed = False
        self.write_requested = False


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
        #: The parked producer's pending writes (see :meth:`feed`).
        self._feed: Optional[Feed] = None
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
            if self._feed is not None:
                self._settle_feed()
            return len(self._fifo)
        return 0 if self._register is Channel._UNSET else 1

    @property
    def has_data(self) -> bool:
        if self._fifo is not None:
            if self._feed is not None:
                self._settle_feed()
            return len(self._fifo) > 0
        return self._register is not Channel._UNSET or bool(self._pending_writers)

    def _note_occupancy(self) -> None:
        occ = self.occupancy
        if occ > self._stats.max_occupancy:
            self._stats.max_occupancy = occ

    # -- statistics and parked consumers -------------------------------------

    @property
    def stats(self) -> ChannelStats:
        """Dynamic statistics, including a parked consumer's skipped polls
        and a parked producer's fed writes."""
        if self._parked_through is not None:
            self._credit_parked_polls()
        if self._feed is not None:
            self._settle_feed()
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
        if self._feed is not None:
            self._request_write()

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

    # -- parked producers ---------------------------------------------------

    def feed(self, words: Sequence[Any], start: int,
             on_end: Callable[[], None]) -> Feed:
        """Hand ``words[start:]`` over as a parked producer's writes.

        The feed stands for the producer running ``write_nb(words[i])`` at
        the head of every LATE phase after the current one, advancing
        ``i`` on success, until the words run out. Nothing is scheduled
        per word: every consumer-side access (``read``, ``read_nb``,
        ``has_data``, ``occupancy``, ``stats``) first settles the phases
        begun since the last access. Nothing drains the FIFO between two
        accesses, so a settle is closed-form: ``min(phases, room, left)``
        writes, and one write failure for every other phase while words
        remain. Only a consumer that blocks on (or parks on) the empty
        FIFO costs an event: one write at the head of the next LATE phase.

        ``on_end`` is called in the LATE phase of the final write; the
        returned :class:`Feed` holds the position reached. Detach with
        :meth:`unfeed`. FIFO channels only (depth >= 1).
        """
        if self._fifo is None:
            raise ChannelUsageError(
                f"channel {self.name!r} has no FIFO (depth 0) to feed")
        feed = Feed(words, start, self.sim.last_late_phase(), on_end)
        self._feed = feed
        self._fix_feed_end()
        if self._arrival is not None or self._fifo._getters:
            self._request_write()
        return feed

    def unfeed(self) -> None:
        """Settle the feed through the last LATE phase begun and detach it."""
        self._settle_feed()
        self._feed = None

    def _settle_feed(self, through: Optional[int] = None) -> None:
        """Apply the feed's writes of the LATE phases begun since the last
        settle (see :meth:`feed`), or through LATE phase ``through``."""
        feed = self._feed
        if through is None:
            through = self.sim.last_late_phase()
        phases = through - feed.through
        if phases <= 0:
            return
        feed.through = through
        words = feed.words
        position = feed.position
        left = len(words) - position
        if not left:
            return
        fifo = self._fifo
        stats = self._stats
        # A blocked reader takes the first word straight off the write,
        # without using room.
        handed = 1 if fifo._getters and not fifo.items else 0
        if handed:
            fifo._getters.popleft().succeed(words[position])
        written = handed
        count = min(phases, fifo.capacity - len(fifo.items) + handed, left)
        if count > written:
            fifo.items.extend(words[position + written:position + count])
            written = count
            if len(fifo.items) > stats.max_occupancy:
                stats.max_occupancy = len(fifo.items)
        feed.position = position + written
        stats.writes += written
        if written < left:
            # The FIFO filled up: every later phase failed its write.
            stats.write_failures += phases - written
        if written and self._arrival is not None:
            self._arrival()
        if handed:
            self._fix_feed_end()

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
        since the clock's present: settle the feed through that phase,
        then take the head word. It takes nothing (``valid`` False) when
        the FIFO is empty (the reader would block) or when taking the
        word would fix the feed's end; :meth:`read` must do those reads
        at their real cycle. Only valid while :meth:`can_take_fed` holds.
        """
        self._settle_feed(through)
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
        write taken straight by a blocked reader). From then on every
        LATE phase writes one word, so the final write's phase is known.
        """
        feed = self._feed
        if feed.end_fixed:
            return
        fifo = self._fifo
        left = len(feed.words) - feed.position
        if fifo.capacity - len(fifo.items) < left:
            return
        feed.end_fixed = True
        last = feed.through + left

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
                self._settle_feed()
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
            feed = self._feed
            if feed is not None:
                self._settle_feed()
            value, ok = self._fifo.try_get()
            self._stats.reads += 1 if ok else 0
            self._stats.read_failures += 0 if ok else 1
            if ok and feed is not None:
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
            feed = self._feed
            if feed is not None:
                self._settle_feed()
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
