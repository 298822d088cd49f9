"""Analytic launch replay: a whole launch timed on a private heap.

When a launch owns the simulator — nothing else is scheduled and no
posted store is still in flight — nothing outside it can observe the
model until it ends. Its timeline can then be computed instead of
stepped: :class:`LaunchReplay` re-enacts the launcher/LSU event
choreography of :class:`~repro.pipeline.engine.PipelineEngine` on a
private heap ordered ``(time, seq)``, with one monotone ``seq`` assigned
at push. Pushes happen in the same chronological order as the real event
loop's scheduling calls, and every launch event is PRIORITY_NORMAL, so
pops replicate the wheel's FIFO-per-cycle merged order exactly.

Three feeders drive one issue loop (:meth:`LaunchReplay._run`):

* **planned accesses** (:meth:`LaunchReplay.run_planned`): the batch
  tier's Phase A has already computed every work-item's memory accesses
  and values (see :mod:`repro.pipeline.batch`) as flat columns, each
  row's run of entries ended by a marker; the replay only times them,
  and a row is just the position of its next entry. A store carries its
  position among the launch's stores, resolved to an element and value
  after the loop;
* **body generators** (:meth:`LaunchReplay.run_bodies`): a Python-IR
  kernel that declares :attr:`~repro.pipeline.kernel.Kernel.replayable`
  has each iteration's body generator fed op by op. Loads read their
  value at the retire cycle (seeing in-launch commits that land first);
  a timed ``Compute`` resumes ``cycles`` later; a collect resumes one
  hop after its last add; a blocking read of a lazy timestamp channel
  returns ``cycle - start + 1``; a sequence read is the
  :class:`~repro.channels.channel.SequenceChannel` rendezvous, with the
  server's write completion one hop after the read (and a compiled
  server's re-offer at the head of the next cycle: an URGENT entry,
  ordered before every other entry of its cycle). While a body runs,
  the simulator clock reads the replay cycle, marked begun, so
  ``ctx.now`` and channel values are those of stepping. A non-blocking write to a channel
  whose parked consumer has a sink (the stall monitor's snapshots, see
  :meth:`~repro.channels.channel.Channel.sink`) schedules nothing
  either. Any other op raises :class:`~repro.errors.KernelBuildError`;
* **a host READ transfer** (:meth:`LaunchReplay.run_transfer`): one row
  that issues a ``transfer`` op's next fed word, window by window.

The loop pops an entry, runs the launcher's turn inline or takes the
row's next access from its feeder, and issues that access itself: the
memory-controller bank model (exactly
:meth:`GlobalMemory._service_latency`'s arithmetic and call order) and
the LSU's in-order retire exist once, inline, with no call per op.
Summable statistics accumulate launch-wide and flush once at the end;
posted-store commits land in one flush event at the last commit cycle;
completion fires through one real event at the finish cycle, so
``Fabric.run`` steps the clock there exactly as it would stepping.

**The timeline memo.** A planned launch's timeline is a pure function
of its *timing key* (:func:`_timing_key`): Phase A's access records
without their values (each record's LSU site and kind, load or store,
buffer base address and item size, active rows and elements), the row
count, the start state relative to the start cycle (each bank's
``max(0, ready - start)`` and open row, each LSU's ``max(0, tail -
start)``), the memory config, ``ii``/``max_inflight`` and
``keep_lsu_samples``. Values are left out because the loop never reads
one: the same stream over other data times the same. A process-wide,
byte-bounded LRU maps the key's blake2b digest to what the loop
changed (a :class:`_Timeline`); a hit skips the flat columns and the
loop, applies the recorded timeline shifted to its start cycle, and
resolves the commits from its own records, so its events, statistics
and buffers are those of a miss. :func:`timeline_cache_info` and
:func:`timeline_cache_clear` serve tests and capacity tuning.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.channels.channel import (CounterRegisterChannel, SequenceChannel,
                                    schedule_call)
from repro.errors import KernelBuildError, KernelError, MemoryError_
from repro.memory.global_memory import BufferTraffic, CommitColumns
from repro.pipeline import ops
from repro.pipeline.context import KernelContext
from repro.sim.core import PRIORITY_NORMAL, PRIORITY_URGENT, Event

#: Heap entry kinds, in the slot after ``(time, seq, ...)``: resume a row
#: (with a value), a launcher turn, a load's retirement (value read
#: then), a channel callback (a sequence server's write completion), a
#: waker's resumption, and a read blocked until a counter starts.
_EV_ROW, _EV_LAUNCH, _EV_LOAD, _EV_CALL, _EV_WAKE, _EV_COUNTER = range(6)

#: The three feeders of :meth:`LaunchReplay._run`.
_PLANNED, _BODIES, _TRANSFER = range(3)

#: The items are exhausted / a body has ended.
_DONE = object()
#: The launcher has not fetched its next item yet.
_PENDING = object()

#: A horizon no commit reaches.
_NO_HORIZON = 1 << 62

#: First sequence number of URGENT heap entries: below every NORMAL one,
#: so such an entry pops before the NORMAL entries of its cycle.
_URGENT_SEQ = -(1 << 62)

_Load = ops.Load
_Store = ops.Store
_Compute = ops.Compute
_ReadChannel = ops.ReadChannel
_MemFence = ops.MemFence
_Collect = ops.CollectReduction


class _Timeline:
    """What a planned launch's issue loop changes, cycles relative to
    its start: per LSU box (in :attr:`LaunchReplay.boxes` order, None
    when the box never issued) ``(tail, count, total, in-launch peak,
    stall, samples)``; per touched bank ``(bank, ready, open row)``; the
    row hits, misses and load latency; the engine's issued, retired and
    stall deltas; the iteration trace rows ``(row, issue, retire)``; the
    commit order as positions among the stores; the last commit and
    finish cycles; the boxes in first-issue order. ``nbytes`` is None
    when the timeline must not be memoized."""

    __slots__ = ("boxes", "banks", "latency", "stats", "trace", "order",
                 "last_commit", "finish", "first_issue", "nbytes")

    def size(self) -> int:
        """Bytes the memo charges for this timeline."""
        arrays = [self.order] + ([] if self.trace is None else [self.trace])
        arrays += [effect[5] for effect in self.boxes
                   if effect is not None and effect[5] is not None]
        return (_ENTRY_BYTES + 64 * (len(self.boxes) + len(self.banks))
                + sum(array.nbytes for array in arrays))


#: The timeline memo's byte budget, and what each entry costs beyond
#: its arrays (key, tuples, bookkeeping).
_TIMELINE_BUDGET = 32 << 20
_ENTRY_BYTES = 1024

#: Process-wide LRU of planned-launch timelines by timing key (see
#: :func:`_timing_key`), modelled on the program cache
#: (:func:`repro.frontend.compiler.program_cache_info`). Guarded by
#: ``_TIMELINE_LOCK``: the server's sessions launch from several
#: threads. The loop itself runs outside the lock, so two threads
#: timing one new stream may both miss; the second insert is dropped.
_TIMELINES: "OrderedDict[bytes, _Timeline]" = OrderedDict()
_TIMELINE_LOCK = threading.Lock()
_timeline_bytes = 0
_timeline_hits = 0
_timeline_misses = 0
_timeline_evictions = 0


def _timing_key(replay: "LaunchReplay", records: List[tuple],
                rows: int) -> bytes:
    """The blake2b-256 digest a planned launch's timeline is a function
    of: Phase A's access records (each one's LSU ``(site, kind)``, load
    or store, backing store ``base_address``/``itemsize``, active rows
    and elements) and the row count; the start state relative to the
    start cycle (each bank's ``max(0, ready - start)`` and open row,
    each LSU box's ``max(0, tail - start)``); the memory config, the
    pipeline's ``ii``/``max_inflight`` and ``keep_lsu_samples``. No
    value is part of it: the loop never reads one."""
    # Imported here: hashlib loads OpenSSL's libcrypto (~3.5 MB of RSS
    # and start-up time), which a process with no table launch never
    # needs.
    import hashlib

    start = replay.sim._now
    memory = replay.memory
    pipeline = replay.engine.config
    number = {id(box): index
              for index, box in enumerate(replay.boxes.values())}
    head = [memory.config, pipeline.ii, pipeline.max_inflight,
            replay.keep_samples, rows,
            [max(0, ready - start) for ready in memory._bank_ready],
            memory._bank_open_row,
            [(site, kind, max(0, box[0] - start))
             for (site, kind), box in replay.boxes.items()]]
    for box, target, active, elements, _, store in records:
        head.append((number[id(box)], target is not None, store.base_address,
                     store.itemsize, None if active is None else len(active),
                     len(elements)))
    digest = hashlib.blake2b(repr(head).encode(), digest_size=32)
    for _, _, active, elements, _, _ in records:
        if active is not None:
            digest.update(np.ascontiguousarray(active, dtype=np.int64))
        digest.update(np.ascontiguousarray(elements, dtype=np.int64))
    return digest.digest()


def _timeline_get(key: bytes) -> Optional[_Timeline]:
    global _timeline_hits, _timeline_misses
    with _TIMELINE_LOCK:
        timeline = _TIMELINES.get(key)
        if timeline is None:
            _timeline_misses += 1
        else:
            _timeline_hits += 1
            _TIMELINES.move_to_end(key)
        return timeline


def _timeline_put(key: bytes, timeline: _Timeline) -> None:
    global _timeline_bytes, _timeline_evictions
    size = timeline.nbytes
    with _TIMELINE_LOCK:
        if size is None or size > _TIMELINE_BUDGET or key in _TIMELINES:
            return
        _TIMELINES[key] = timeline
        _timeline_bytes += size
        while _timeline_bytes > _TIMELINE_BUDGET:
            _, evicted = _TIMELINES.popitem(last=False)
            _timeline_bytes -= evicted.nbytes
            _timeline_evictions += 1


def timeline_cache_info() -> Dict[str, int]:
    """Timeline memo statistics (for tests and capacity tuning).

    ``hits``/``misses``/``evictions`` are monotonic counters (reset only
    by :func:`timeline_cache_clear`); ``bytes`` is what the entries
    charge against ``maxbytes``. The snapshot is taken under the memo
    lock."""
    with _TIMELINE_LOCK:
        return {"hits": _timeline_hits, "misses": _timeline_misses,
                "evictions": _timeline_evictions, "size": len(_TIMELINES),
                "bytes": _timeline_bytes, "maxbytes": _TIMELINE_BUDGET}


def timeline_cache_clear() -> None:
    """Drop every memoized timeline and reset the counters."""
    global _timeline_bytes, _timeline_hits, _timeline_misses, \
        _timeline_evictions
    with _TIMELINE_LOCK:
        _TIMELINES.clear()
        _timeline_bytes = 0
        _timeline_hits = 0
        _timeline_misses = 0
        _timeline_evictions = 0


class Row:
    """One iteration's body generator, or a host READ transfer, whose
    next word index is :attr:`next_op`."""

    __slots__ = ("tag", "ctx", "next_op", "issued_at", "body")

    def __init__(self, tag: Any, ctx: KernelContext) -> None:
        self.tag = tag
        self.ctx = ctx
        self.next_op = 0
        self.issued_at = 0
        self.body: Any = None


class _Wake:
    """What a body waits on in the replay: ``succeed(value)`` resumes it
    one hop later, as an :class:`Event` succeeding at the current cycle
    would. ``channel`` (when set) counts the completed blocking read."""

    __slots__ = ("replay", "row", "channel", "since", "triggered")

    def __init__(self, replay: "LaunchReplay", row: Row,
                 channel: Any = None) -> None:
        self.replay = replay
        self.row = row
        self.channel = channel
        self.since = replay.sim._now
        self.triggered = False

    def succeed(self, value: Any = None) -> None:
        self.triggered = True
        replay = self.replay
        heapq.heappush(replay.heap, (replay.sim._now, next(replay.counter),
                                     _EV_WAKE, self, value))


class LaunchReplay:
    """The analytic timeline of one launch of ``engine``.

    Construct it, let a feeder fill :attr:`boxes`, :attr:`counts` and
    :attr:`traffic` as needed (batch Phase A does), then call
    :meth:`run_planned`, :meth:`run_bodies` or :meth:`run_transfer` once.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.memory = engine.fabric.memory
        self.keep_samples = engine.fabric.keep_lsu_samples
        self.heap: List[tuple] = []
        self.counter = itertools.count(1)
        self._urgent = itertools.count(_URGENT_SEQ)
        #: Set once the launch's effects are flushed: channel callbacks
        #: still holding :meth:`hop` then schedule real events.
        self._closed = False
        #: Per-(site, kind) LSU state ``[tail, count, total, max, stall,
        #: samples, lsu]``, seeded from and flushed into the real LSU.
        self.boxes: Dict[tuple, list] = {}
        #: Launch-wide loads, stores, bytes read, bytes written.
        self.counts = [0, 0, 0, 0]
        #: Per-buffer ``[loads, stores, bytes read, bytes written]``.
        self.traffic: Dict[str, list] = {}
        #: Row hits, row misses, summed load latency.
        self.latency = [0, 0, 0]
        #: Posted-store commits ``(store, index, value)`` in commit order.
        self.commits: List[tuple] = []
        #: Each commit's own cycle, when recorded (transfer windows).
        self.commit_cycles: Optional[List[int]] = None
        #: Commits ``(store, index, value, cycle)`` at or past the issue
        #: horizon (see :meth:`_run`), in issue order.
        self.late_commits: List[tuple] = []
        self.last_commit = 0
        #: The launch's finish cycle (None while rows still wait).
        self._finish: Optional[int] = None

    def site_box(self, site: str, kind: str) -> list:
        """The state box of one LSU, created on first use."""
        key = (site, kind)
        box = self.boxes.get(key)
        if box is None:
            lsu = self.engine.lsu(site, kind)
            stats = lsu.stats
            box = self.boxes[key] = [
                lsu._tail_time, 0, 0, stats.max_latency, 0,
                stats.samples if self.keep_samples else None, lsu]
        return box

    # -- feeders -------------------------------------------------------------

    def run_planned(self, phase: Any, tags: Sequence[Any]) -> List[Any]:
        """Time the accesses batch Phase A recorded (``phase``, a
        :class:`~repro.pipeline.batch.PhaseA` that ran) for the rows of
        ``tags``.

        A launch whose timing key (see :func:`_timing_key`) is in the
        timeline memo takes the recorded timeline instead of running the
        issue loop; any other runs the loop over ``phase.issue_order()``
        and records its timeline. Either way the commits are resolved
        from this launch's records and flushed as one batch.

        Returns their LSUs in the order the sites first issue, which is
        the order stepping registers them in.
        """
        if self.keep_samples and type(tags) is not list:
            # The iteration trace indexes the tags once per row.
            tags = list(tags)
        key = _timing_key(self, phase.records, len(tags))
        timeline = _timeline_get(key)
        if timeline is None:
            timeline, first_issue = self._time_planned(phase, tags)
            _timeline_put(key, timeline)
        else:
            first_issue = self._take_timeline(timeline, tags)
        self.commits = CommitColumns(phase.commit_parts(), timeline.order)
        self._flush()
        return first_issue

    def _time_planned(self, phase: Any, tags: Sequence[Any]) -> tuple:
        """Run the issue loop over ``phase``'s accesses; returns
        ``(timeline, LSUs in first-issue order)``. The timeline's
        ``nbytes`` is None (not to be memoized) when anything is left on
        the heap or a row never retires."""
        start = self.sim._now
        boxes = list(self.boxes.values())
        peaks = [box[3] for box in boxes]
        sampled = [0 if box[5] is None else len(box[5]) for box in boxes]
        for box in boxes:
            box[3] = 0                              # the in-launch peak
        stats = self.engine.stats
        before = (stats.iterations_issued, stats.iterations_retired,
                  stats.issue_stall_cycles)
        trace = stats.iteration_trace
        if self.keep_samples:
            # The loop traces row numbers; the tags are put in below.
            stats.iteration_trace = []
        accesses, starts = phase.issue_order()
        first_issue: List[Any] = []
        try:
            self._run(_PLANNED, starts,
                      (accesses, range(len(tags)), first_issue))
        finally:
            rows = stats.iteration_trace
            stats.iteration_trace = trace
        timeline = _Timeline()
        timeline.boxes = tuple(
            (box[0] - start, box[1], box[2], box[3], box[4],
             None if box[5] is None
             else np.array(box[5][count:], dtype=np.int64))
            if box[1] else None
            for box, count in zip(boxes, sampled))
        for box, peak in zip(boxes, peaks):
            if peak > box[3]:
                box[3] = peak
        memory = self.memory
        config = memory.config
        touched = set()
        for record in phase.records:
            store = record[5]
            touched.update(np.unique(
                (store.base_address + record[3] * store.itemsize)
                // config.row_bytes % config.banks).tolist())
        timeline.banks = tuple(
            (bank, memory._bank_ready[bank] - start,
             memory._bank_open_row[bank]) for bank in sorted(touched))
        timeline.latency = tuple(self.latency)
        timeline.stats = (stats.iterations_issued - before[0],
                          stats.iterations_retired - before[1],
                          stats.issue_stall_cycles - before[2])
        timeline.trace = None
        if self.keep_samples:
            timeline.trace = np.fromiter(
                itertools.chain.from_iterable(rows), dtype=np.int64,
                count=3 * len(rows)).reshape(-1, 3) - (0, start, start)
            trace.extend([(tags[row], issue, retire)
                          for row, issue, retire in rows])
        timeline.order = np.fromiter(
            (commit[1] for commit in self.commits), dtype=np.int64,
            count=len(self.commits))
        timeline.last_commit = self.last_commit - start
        timeline.finish = (None if self._finish is None
                           else self._finish - start)
        number = {id(box[6]): index for index, box in enumerate(boxes)}
        timeline.first_issue = tuple(number[id(lsu)] for lsu in first_issue)
        timeline.nbytes = (None if self.heap or self._finish is None
                           else timeline.size())
        return timeline, first_issue

    def _take_timeline(self, timeline: "_Timeline",
                       tags: Sequence[Any]) -> List[Any]:
        """Apply what a planned launch's issue loop changes, ``timeline``
        shifted to this launch's start cycle; returns the LSUs in first
        issue order."""
        start = self.sim._now
        boxes = list(self.boxes.values())
        for box, effect in zip(boxes, timeline.boxes):
            if effect is not None:
                tail, box[1], box[2], peak, box[4], samples = effect
                box[0] = start + tail
                if peak > box[3]:
                    box[3] = peak
                if samples is not None:
                    box[5].extend(samples.tolist())
        memory = self.memory
        for bank, ready, open_row in timeline.banks:
            memory._bank_ready[bank] = start + ready
            memory._bank_open_row[bank] = open_row
        self.latency = list(timeline.latency)
        stats = self.engine.stats
        issued, retired, stalled = timeline.stats
        stats.iterations_issued += issued
        stats.iterations_retired += retired
        stats.issue_stall_cycles += stalled
        if timeline.trace is not None:
            rows, issue, retire = (timeline.trace + (0, start, start)).T
            stats.iteration_trace.extend(zip(
                map(tags.__getitem__, rows.tolist()), issue.tolist(),
                retire.tolist()))
        self.last_commit = start + timeline.last_commit
        self._finish = (None if timeline.finish is None
                        else start + timeline.finish)
        return [boxes[number][6] for number in timeline.first_issue]

    def run_bodies(self, tags: Iterable[Any]) -> None:
        """Run each tag's body generator, fed op by op on the replay."""
        engine = self.engine
        kernel = engine.kernel
        compute_id = engine.instance.compute_id
        derive_site = engine._derive_site
        buffer_of = self.memory.buffer
        heap = self.heap
        counter = self.counter
        heappush = heapq.heappush
        site_box = self.site_box
        counts = self.counts
        traffic = self.traffic
        self._overlay = {}
        # Per-site boxes and per-name buffers, resolved once per launch.
        load_boxes: Dict[str, list] = {}
        store_boxes: Dict[str, list] = {}
        stores: Dict[str, Any] = {}

        hop = self.hop

        def step(row: Row, now: int, value: Any) -> Any:
            """Send ``value`` into ``row``'s body and run it to its next
            access: ``(box, address, store, element, value, payload)``,
            with ``store`` None and ``payload`` the ``(buffer, index)``
            read at retirement for a load. ``_DONE`` when the body has
            ended, None when it waits on an entry it pushed or a waker."""
            body = row.body
            send = body.send
            throw: Optional[Exception] = None
            while True:
                try:
                    if throw is None:
                        op = send(value)
                    else:
                        op, throw = body.throw(throw), None
                except StopIteration:
                    return _DONE
                except Exception as exc:
                    # An unhandled body exception fails the launch, as in
                    # PipelineEngine._iteration.
                    if engine._failure is None:
                        engine._failure = exc
                    return _DONE
                cls = op.__class__
                if cls is _Load or cls is _Store:
                    load = cls is _Load
                    site = op.site
                    if site is None:
                        site = derive_site(body, op, compute_id)
                    boxes = load_boxes if load else store_boxes
                    box = boxes.get(site)
                    if box is None:
                        box = boxes[site] = site_box(
                            site, "load" if load else "store")
                    name = op.buffer
                    index = op.index
                    store = stores.get(name)
                    try:
                        if store is None:
                            store = stores[name] = buffer_of(name)
                        if not 0 <= index < store.size:
                            store.check_index(index)
                    except MemoryError_ as exc:
                        # LoadStoreUnit.issue counts the access before the
                        # controller rejects it; the body sees the error.
                        box[6].stats.issued += 1
                        throw, value = exc, None
                        continue
                    itemsize = store.itemsize
                    entry = traffic.get(name)
                    if entry is None:
                        entry = traffic[name] = [0, 0, 0, 0]
                    address = store.base_address + index * itemsize
                    if load:
                        counts[0] += 1
                        counts[2] += itemsize
                        entry[0] += 1
                        entry[2] += itemsize
                        return box, address, None, index, None, (store, index)
                    counts[1] += 1
                    counts[3] += itemsize
                    entry[1] += 1
                    entry[3] += itemsize
                    return box, address, store, index, op.value, None
                if cls is _Compute:
                    cycles = op.cycles
                    if not cycles:
                        value = op.value
                        continue
                    heappush(heap, (now + cycles, next(counter), _EV_ROW, row,
                                    op.value))
                    return None
                if cls is _ReadChannel:
                    channel = op.channel
                    if type(channel) is SequenceChannel:
                        if channel.has_data:
                            value = channel.take(hop)
                            channel.note_read(0)
                            continue
                        channel.wait(_Wake(self, row, channel))
                        return None
                    if type(channel) is CounterRegisterChannel:
                        if channel.has_data:
                            value = channel.value()
                            channel.note_read(0)
                            continue
                        heappush(heap, (channel.start_cycle, next(counter),
                                        _EV_COUNTER, row, (channel, now)))
                        return None
                elif cls is _MemFence:
                    value = None
                    continue
                elif cls is _Collect:
                    try:
                        op.accumulator.wait(op.key, op.expected,
                                            _Wake(self, row))
                    except KernelError as exc:
                        throw, value = exc, None
                        continue
                    return None
                raise KernelBuildError(
                    f"kernel {kernel.name!r} declares a replayable body but "
                    f"yielded {op!r}; the analytic replay runs only "
                    "Load/Store/Compute/MemFence/CollectReduction and "
                    "blocking reads of lazy timestamp or sequence channels")

        self._run(_BODIES, tags, step)
        if self.sim.pending_events:
            raise KernelBuildError(
                f"kernel {kernel.name!r} declares a replayable body but "
                "scheduled simulator events while it was replayed")
        self._flush()

    def run_transfer(self, channel: Any, store: Any, site: str, k: int,
                     limit: int) -> tuple:
        """Compute host READ words ``k, k + 1, ...`` below ``limit`` of a
        ``transfer`` op through this replay's LSU box.

        Each word is a blocking read at cycle ``r`` served by the
        channel's feed (:meth:`~repro.channels.channel.Channel.
        take_fed`, settled through the LATE phase before ``r``) and a
        posted store issued at ``r``; the next read happens at that
        store's retire cycle. Stops when the feed cannot serve a read,
        or before a store that could retire at or after the stop cycle
        ``S`` of a ``run(until=...)`` under way. The stores' effects are
        flushed: their commits in one timed batch, except those landing
        at or after ``S``, which stay pending there with one event each,
        as stepping leaves them. Returns ``(next k, last retire cycle)``.
        """
        sim = self.sim
        stop = sim.stop_cycle
        # Reads at cycle r retire by r + posted (the LSU's tail is the
        # previous read's cycle), so every store retires before `end`.
        end = (_NO_HORIZON if stop is None
               else stop - self.memory.config.posted_write_latency)
        # One row, with its next word index in `next_op`.
        row = Row(None, None)
        row.next_op = k
        self.commit_cycles = []
        retire = self._run(
            _TRANSFER, (),
            (row, channel, store, self.site_box(site, "store"), limit, end,
             sim.last_late_phase()),
            _NO_HORIZON if stop is None else stop)
        stored = row.next_op - k
        if stored:
            itemsize = store.itemsize
            counts = self.counts
            counts[1] += stored
            counts[3] += stored * itemsize
            self.traffic[store.name] = [0, stored, 0, stored * itemsize]
            self.flush_effects()
        return row.next_op, retire

    # -- the shared core ------------------------------------------------------

    def hop(self, call: Callable[[], None], next_cycle: bool = False) -> None:
        """A channel callback on the replay's timeline: ``call`` runs one
        hop later, or with ``next_cycle`` at the head of the next cycle
        (see :meth:`~repro.channels.channel.SequenceChannel.take`)."""
        if self._closed:
            schedule_call(self.sim, call, next_cycle)
        elif next_cycle:
            heapq.heappush(self.heap, (self.sim._now + 1, next(self._urgent),
                                       _EV_CALL, call, PRIORITY_URGENT))
        else:
            heapq.heappush(self.heap, (self.sim._now, next(self.counter),
                                       _EV_CALL, call, PRIORITY_NORMAL))

    _overlay: Optional[dict] = None
    _contents: Optional[dict] = None

    def _loaded(self, when: int, seq: int, store: Any, element: int) -> Any:
        """The value a load retiring at ``(when, seq)`` reads: the last
        in-launch commit to land before it, else the backing store's
        contents (unchanged until the commit flush)."""
        landed = self._overlay.get((store, element))
        if landed:
            for commit, commit_seq, value in reversed(landed):
                if commit < when or (commit == when and commit_seq < seq):
                    return value
        contents = self._contents
        if contents is None:
            contents = self._contents = {}
        values = contents.get(store)
        if values is None:
            # A plain list indexes far faster than ndarray.item() calls.
            values = contents[store] = store.data.tolist()
        return values[element]

    def _run(self, mode: int, items: Iterable[Any], feeder: Any,
             horizon: int = _NO_HORIZON) -> int:
        """The issue loop of every feeder; returns the last cycle.

        It pops entries in ``(time, seq)`` order and runs the launcher's
        turns inline: issue until a gap, a full pipeline, or no items
        left. A row begun or resumed yields its next access: the next
        planned op, the access the body step returns, or the transfer's
        next fed word (a transfer is one row, and has no launcher). The
        loop issues the access with the memory controller's bank model
        and the LSU's in-order retire inlined, with exactly
        :meth:`GlobalMemory.load_timing` / :meth:`~GlobalMemory.
        store_timing` and :meth:`LoadStoreUnit.issue`'s arithmetic and
        call order, and pushes the row's resumption at the retire cycle.
        A store's commit is recorded at the full latency, while the row
        resumes after the posted latency only; a commit that lands at or
        after ``horizon`` is recorded in :attr:`late_commits` instead,
        with its cycle.

        ``feeder`` is, per mode: the planned ``(accesses, tags, list the
        LSUs join at their site's first issue)``; the body step (see
        :meth:`run_bodies`); the transfer's ``(row, channel, store, box,
        limit, end, through)`` (see :meth:`run_transfer`).
        """
        sim = self.sim
        start = now = sim._now
        begun = sim._begun_at
        heap = self.heap
        push = heapq.heappush
        pop = heapq.heappop
        counter = self.counter
        loaded = self._loaded
        # The bank model and the commit record.
        memory = self.memory
        config = memory.config
        row_bytes = config.row_bytes
        banks = config.banks
        busy = config.bank_busy_cycles
        hit_cycles = config.row_hit_cycles
        miss_cycles = config.row_miss_cycles
        pipe = config.pipe_latency
        posted = config.posted_write_latency
        bank_ready = memory._bank_ready
        bank_open_row = memory._bank_open_row
        hits, misses, load_latency = self.latency
        last_commit = self.last_commit
        commits = self.commits
        cycles = self.commit_cycles
        overlay = self._overlay
        late = self.late_commits
        # The launcher.
        engine = self.engine
        stats = engine.stats
        ii = engine.config.ii
        max_inflight = engine.config.max_inflight
        trace = stats.iteration_trace if self.keep_samples else None
        items = iter(items)
        pending = _PENDING
        inflight = 0
        launch_done = slot_armed = False
        stall_start = finish = None
        # The first cycle the next item may issue at (II after the last).
        next_issue = start
        launching = mode != _TRANSFER
        planned = mode == _PLANNED
        bodies = mode == _BODIES
        # What an access resumes its row with: planned rows and the
        # transfer always resume as a row, a body load reads its value.
        resume, payload = _EV_ROW, None
        if planned:
            (boxes, addresses, targets, elements), tags, first_issue = feeder
            # Each planned row's issue cycle, for the iteration trace.
            issued: List[int] = []
        elif bodies:
            step = feeder
            kernel = engine.kernel
            instance = engine.instance
        else:
            row, channel, to, to_box, limit, end, through = feeder
            take_fed = channel.take_fed
            to_base = to.base_address
            itemsize = to.itemsize
            push(heap, (start, next(counter), _EV_ROW, row, None))
        try:
            while True:
                if launching:
                    if pending is _PENDING:
                        pending = next(items, _DONE)
                    if pending is _DONE:
                        launching = False
                        launch_done = True
                        if inflight == 0:
                            finish = now
                        continue
                    if next_issue > now:
                        push(heap, (next_issue, next(counter), _EV_LAUNCH,
                                    None, None))
                        launching = False
                        continue
                    if inflight >= max_inflight:
                        slot_armed = True
                        stall_start = now
                        launching = False
                        continue
                    inflight += 1
                    stats.iterations_issued += 1
                    next_issue = now + ii
                    # Inline start: the first op issues at the issue cycle
                    # itself, and op-free rows retire synchronously (as
                    # `inline=True` iteration processes do).
                    if planned:
                        # A planned row is the position of its next access.
                        row = pending
                        if trace is not None:
                            issued.append(now)
                    else:
                        ctx = KernelContext(instance, iteration=pending)
                        row = Row(pending, ctx)
                        row.body = kernel.body(ctx)
                        row.issued_at = now
                    pending = _PENDING
                    value = None
                else:
                    if finish is not None or not heap:
                        break
                    when, seq, kind, row, value = pop(heap)
                    # The clock moves to the cycle this entry times, and
                    # that cycle has begun.
                    sim._now = sim._begun_at = now = when
                    if kind:                        # not a plain resume
                        if kind == _EV_LOAD:
                            value = loaded(when, seq, *value)
                        elif kind == _EV_LAUNCH:
                            if stall_start is not None:
                                stats.issue_stall_cycles += now - stall_start
                                stall_start = None
                            launching = True
                            continue
                        elif kind == _EV_WAKE:
                            if row.channel is not None:
                                row.channel.note_read(now - row.since)
                            row = row.row
                        elif kind == _EV_CALL:
                            row()
                            continue
                        else:                               # _EV_COUNTER
                            counter_channel, since = value
                            counter_channel.note_read(now - since)
                            value = counter_channel.value()
                # The row's next access; box None when the row retires.
                if planned:
                    box = boxes[row]
                    if box is None:                 # the row's end marker
                        element = addresses[row]
                    else:
                        address = addresses[row]
                        store = targets[row]
                        if store is not None:
                            # Its position among the stores: the loop
                            # never reads a value.
                            element = elements[row]
                        row += 1
                        if not box[1]:          # the site's first access
                            first_issue.append(box[6])
                elif bodies:
                    access = step(row, now, value)
                    if access is None:
                        continue
                    if access is _DONE:
                        box = None
                    else:
                        box, address, store, element, value, payload = access
                        resume = _EV_ROW if payload is None else _EV_LOAD
                else:                                       # _TRANSFER
                    element = row.next_op
                    if element >= limit or now >= end:
                        continue
                    value, ok = take_fed(through if now == start else now - 1)
                    if not ok:
                        continue
                    row.next_op = element + 1
                    box = to_box
                    address = to_base + element * itemsize
                    store = to
                if box is None:
                    if trace is not None:
                        if planned:
                            trace.append((tags[element], issued[element],
                                          now))
                        else:
                            trace.append((row.tag, row.issued_at, now))
                    inflight -= 1
                    stats.iterations_retired += 1
                    if slot_armed:
                        # The real retire succeeds the launcher's slot
                        # event (delay 0): the launcher resumes this cycle,
                        # after already-queued events.
                        slot_armed = False
                        push(heap, (now, next(counter), _EV_LAUNCH, None,
                                    None))
                    if launch_done and inflight == 0:
                        finish = now
                    continue
                # The access: the bank model, then the LSU's in-order retire.
                dram_row = address // row_bytes
                bank = dram_row % banks
                begins = bank_ready[bank]
                if now > begins:
                    begins = now
                if bank_open_row[bank] == dram_row:
                    done = begins + hit_cycles + busy
                    hits += 1
                else:
                    done = begins + miss_cycles + busy
                    misses += 1
                    bank_open_row[bank] = dram_row
                bank_ready[bank] = done
                latency = done - now + pipe
                if store is None:
                    load_latency += latency
                elif now + latency >= horizon:
                    late.append((store, element, value, now + latency))
                    if latency > posted:
                        latency = posted
                else:
                    commit = now + latency
                    commits.append((store, element, value))
                    if cycles is not None:
                        cycles.append(commit)
                    if commit > last_commit:
                        last_commit = commit
                    if overlay is not None:
                        # The commit event is scheduled before the store's
                        # retirement, so it takes the earlier sequence
                        # number.
                        key = (store, element)
                        landed = overlay.get(key)
                        if landed is None:
                            landed = overlay[key] = []
                        landed.append((commit, next(counter), value))
                    if latency > posted:
                        latency = posted
                raw_retire = now + latency
                retire = box[0]
                if raw_retire > retire:
                    retire = raw_retire
                box[0] = retire
                total = retire - now
                box[1] += 1
                box[2] += total
                if total > box[3]:
                    box[3] = total
                box[4] += retire - raw_retire
                samples = box[5]
                if samples is not None:
                    samples.append(total)
                push(heap, (retire, next(counter), resume, row, payload))
        finally:
            sim._now = start
            sim._begun_at = begun
            self.latency = [hits, misses, load_latency]
            self.last_commit = last_commit
        self._finish = finish
        return now

    def flush_effects(self) -> None:
        """Hand the accumulated statistics, traffic and LSU state to the
        shared objects, and post the commits as one flush event at the
        last commit cycle."""
        now = self.sim._now
        memory = self.memory
        if self.commits:
            # Same-address commits are same-bank, and bank finish times
            # are monotone in issue order, so append order is commit
            # order; one event applies them all at the last commit cycle.
            memory.post_commit_batch(self.commits, self.last_commit - now,
                                     self.commit_cycles)
        for store, index, value, cycle in self.late_commits:
            memory.post_commit_at(store, index, value, now, cycle - now)
        loads, stores, bytes_read, bytes_written = self.counts
        mstats = memory.stats
        mstats.loads += loads
        mstats.stores += stores
        mstats.bytes_read += bytes_read
        mstats.bytes_written += bytes_written
        hits, misses, load_latency = self.latency
        mstats.row_hits += hits
        mstats.row_misses += misses
        mstats.total_load_latency += load_latency
        for name, (tl, ts, tbr, tbw) in self.traffic.items():
            traffic = memory.traffic.get(name)
            if traffic is None:
                traffic = memory.traffic[name] = BufferTraffic()
            traffic.loads += tl
            traffic.stores += ts
            traffic.bytes_read += tbr
            traffic.bytes_written += tbw
        for tail, count, total, peak, stall, _, lsu in self.boxes.values():
            lsu._tail_time = tail
            stats = lsu.stats
            stats.issued += count
            stats.completed += count
            stats.total_latency += total
            stats.max_latency = peak
            stats.ordering_stall_cycles += stall

    def _flush(self) -> None:
        """Hand the launch's effects to the shared objects and schedule
        the commit flush and the completion."""
        sim = self.sim
        start = sim._now
        engine = self.engine
        self.flush_effects()
        self._closed = True
        if self._finish is None:
            # Rows still wait (a collect or read nothing will satisfy):
            # the launch never completes, as when stepping it deadlocks.
            return
        # Completion fires through a real (Timeout-style, pre-triggered)
        # event so `Fabric.run` steps the clock to the finish cycle
        # exactly as it would draining the stepped event population.
        trigger = Event(sim)
        trigger._value = None

        def _complete(done: Event) -> None:
            engine._launch_done = True
            engine._inflight = 0
            engine._maybe_complete()

        trigger.callbacks.append(_complete)
        sim._schedule(trigger, delay=self._finish - start,
                      priority=PRIORITY_NORMAL)
        # What the launch scheduled but stepping would run only after its
        # completion (a sequence server's write completing in the finish
        # cycle, or its re-offer in the next) becomes real events, in
        # order, behind the trigger.
        heap = self.heap
        while heap:
            when, _, _, call, priority = heapq.heappop(heap)
            event = Event(sim)
            event._value = None
            event.callbacks.append(lambda _event, _call=call: _call())
            sim._schedule(event, delay=when - start, priority=priority)
