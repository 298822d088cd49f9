"""Operation IR yielded by kernel bodies.

A kernel body is a Python generator; every *timed* hardware operation is
expressed by yielding one of these op objects to the pipeline engine, which
executes it with the right latency/ordering and sends the result back into
the generator. Non-blocking channel operations are zero-time and are
provided directly on the kernel context instead.

Each op carries a ``site`` label identifying the static program location
(the synthesized hardware unit). If the kernel author does not name a site,
the engine derives one from the generator's suspended source line, so that
the same textual ``yield`` in different iterations maps to the same LSU —
matching how one static load in OpenCL becomes one load unit in hardware.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple


class Op:
    """Base class for all kernel operations."""

    __slots__ = ("site",)

    def __init__(self, site: Optional[str] = None) -> None:
        self.site = site


class Load(Op):
    """Global-memory load: yields the loaded value."""

    __slots__ = ("buffer", "index")

    def __init__(self, buffer: str, index: int, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.buffer = buffer
        self.index = int(index)


class Store(Op):
    """Global-memory store (posted): yields once the pipeline may proceed."""

    __slots__ = ("buffer", "index", "value")

    def __init__(self, buffer: str, index: int, value: Any,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.buffer = buffer
        self.index = int(index)
        self.value = value


class LoadLocal(Op):
    """Local-memory load: yields the value after the scratchpad latency."""

    __slots__ = ("memory", "index")

    def __init__(self, memory: Any, index: int, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.memory = memory
        self.index = int(index)


class StoreLocal(Op):
    """Local-memory store."""

    __slots__ = ("memory", "index", "value")

    def __init__(self, memory: Any, index: int, value: Any,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.memory = memory
        self.index = int(index)
        self.value = value


class ReadChannel(Op):
    """Blocking channel read (``read_channel_altera``): yields the value."""

    __slots__ = ("channel",)

    def __init__(self, channel: Any, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.channel = channel


class WriteChannel(Op):
    """Blocking channel write (``write_channel_altera``)."""

    __slots__ = ("channel", "value")

    def __init__(self, channel: Any, value: Any, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.channel = channel
        self.value = value


class Call(Op):
    """Invocation of an HDL-library function (Listing 3's ``get_time``).

    Yields the module's return value after its pipeline latency.
    """

    __slots__ = ("module", "args")

    def __init__(self, module: Any, args: Tuple[Any, ...] = (),
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.module = module
        self.args = tuple(args)


class Compute(Op):
    """Generic datapath latency (ALU/FPU chains): yields ``value``."""

    __slots__ = ("cycles", "value")

    def __init__(self, cycles: int, value: Any = None,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        if cycles < 0:
            raise ValueError(f"compute latency must be >= 0, got {cycles}")
        self.cycles = int(cycles)
        self.value = value


class CollectReduction(Op):
    """Wait for a loop-carried reduction to receive all contributions.

    Yields the reduced value once ``expected`` contributions were added to
    ``accumulator`` under ``key`` (see :mod:`repro.pipeline.accumulator`).
    """

    __slots__ = ("accumulator", "key", "expected")

    def __init__(self, accumulator: Any, key: Any, expected: int,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.accumulator = accumulator
        self.key = key
        self.expected = int(expected)


class MemFence(Op):
    """``mem_fence(CLK_CHANNEL_MEM_FENCE)`` — ordering marker, zero-time.

    Listing 9 issues one after the non-blocking snapshot write; the model's
    zero-time in-order execution already provides the guarantee, so this op
    exists for source fidelity and costs nothing.
    """

    __slots__ = ("flags",)

    def __init__(self, flags: str = "channel", site: Optional[str] = None) -> None:
        super().__init__(site)
        self.flags = flags


class Barrier(Op):
    """OpenCL work-group barrier: all work-items of the group must arrive
    before any proceeds. Only meaningful in NDRange kernels; the group is
    derived from the work-item id and the kernel's ``local_size``."""

    __slots__ = ()


class CycleBoundary(Op):
    """Advance one clock cycle (autorun kernels' outer-loop heartbeat)."""

    __slots__ = ()


class AwaitData(Op):
    """Skip a late-phase autorun's idle polls until one of ``channels`` fills.

    Yielded right after the body polled every one of ``channels`` with a
    non-blocking read this cycle. It stands for ``cycle()`` repeated, with
    one failed non-blocking read of each channel per skipped cycle, up to
    the first cycle in which a poll would find data; the body resumes in
    that cycle's LATE phase and polls for real. The skipped polls cost no
    events: the unit parks on the channels' arrival hook, and their read
    failures are credited lazily (see :meth:`repro.channels.channel.
    Channel.park`).

    ``sink`` is ``(channel, action)``, ``channel`` one of ``channels``:
    a value arriving there does not resume the body, which would only
    take it and run ``action(cycle, value)`` before waiting again. The
    fast executor hands the action to the channel (see
    :meth:`repro.channels.channel.Channel.sink`); the body resumes for a
    value on any other channel. The reference executor, a per-cycle
    polling test oracle (``tests/executor_oracle.py``), ignores it.

    ``first`` marks the wait a unit yields before its first poll: a
    no-op once the unit has been stepped to its LATE phase, while the
    fast executor starts a unit parked there, before that phase begins.
    """

    __slots__ = ("channels", "sink", "first")

    def __init__(self, channels: Sequence[Any],
                 sink: Optional[Tuple[Any, Callable[[int, Any], None]]] = None,
                 first: bool = False, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.channels = tuple(channels)
        self.sink = sink
        self.first = first


class Drain(Op):
    """Write ``words[start:]`` to ``channel``, one word a cycle, while
    nothing arrives on ``polled``.

    Yielded by a late-phase autorun right after it polled every one of
    ``polled`` and wrote (or tried to write) ``channel`` this cycle. It
    stands for ``cycle()`` repeated, with one failed non-blocking read of
    each polled channel and one ``write_nb(words[i])`` per cycle,
    advancing ``i`` on success. The body resumes in the LATE phase of the
    first cycle in which a poll would find data, or of the cycle after
    the final write, and receives the next ``i``. The fast executor hands
    the words to the channel as a feed (see :meth:`repro.channels.
    channel.Channel.feed`) and parks the unit, so the skipped cycles cost
    no events.
    """

    __slots__ = ("channel", "words", "start", "polled")

    def __init__(self, channel: Any, words: Sequence[Any], start: int,
                 polled: Sequence[Any], site: Optional[str] = None) -> None:
        super().__init__(site)
        self.channel = channel
        self.words = words
        self.start = int(start)
        self.polled = tuple(polled)


class Transfer(Op):
    """Blocking-read ``count`` words from ``channel`` into global
    ``buffer[0:count]``.

    It stands for ``for k in range(count): word = read_channel(channel);
    store(buffer, k, word)`` — Listing 10's READ loop — with every store
    through the one store LSU at ``site``. The fast executor computes
    runs of those words in closed form while nothing else can happen in
    the simulator (see ``docs/PERFORMANCE.md``, "Closed-form host READ
    transfer").
    """

    __slots__ = ("channel", "buffer", "count")

    def __init__(self, channel: Any, buffer: str, count: int,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.channel = channel
        self.buffer = buffer
        self.count = int(count)


#: Every concrete op class a kernel body may yield. The batch table's
#: plan compiler must either lower or statically reject each of these;
#: ``tests/test_batch_divergence.py`` holds an exhaustiveness guard over
#: this tuple so a new op cannot silently miss batch handling.
ALL_OPS = (Load, Store, LoadLocal, StoreLocal, ReadChannel, WriteChannel,
           Call, Compute, CollectReduction, MemFence, Barrier, CycleBoundary,
           AwaitData, Drain, Transfer)
