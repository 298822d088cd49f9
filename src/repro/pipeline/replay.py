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

Two feeders drive the same core:

* **planned rows** (:meth:`LaunchReplay.run_planned`): the batch tier's
  Phase A has already computed every work-item's memory ops and values
  (see :mod:`repro.pipeline.batch`); the replay only times them;
* **body generators** (:meth:`LaunchReplay.run_bodies`): a Python-IR
  kernel that declares :attr:`~repro.pipeline.kernel.Kernel.replayable`
  has each iteration's body generator fed op by op. Loads read their
  value at the retire cycle (seeing in-launch commits that land first);
  a timed ``Compute`` resumes ``cycles`` later; a collect resumes one
  hop after its last add; a blocking read of a lazy timestamp channel
  returns ``cycle - start + 1``; a sequence read is the
  :class:`~repro.channels.channel.SequenceChannel` rendezvous, with the
  server's write completion one hop after the read. While a body runs,
  the simulator clock reads the replay cycle, so ``ctx.now`` and channel
  values are those of stepping. A non-blocking write to a channel
  whose parked consumer has a sink (the stall monitor's snapshots, see
  :meth:`~repro.channels.channel.Channel.sink`) schedules nothing
  either. Any other op raises :class:`~repro.errors.KernelBuildError`.

The same LSU and bank arithmetic times a host READ ``transfer`` op's
windows of words (:meth:`LaunchReplay.run_transfer`).

The memory-controller bank model runs inlined with exactly
:meth:`GlobalMemory._service_latency`'s arithmetic and call order.
Summable statistics accumulate launch-wide and flush once at the end;
posted-store commits land in one flush event at the last commit cycle;
completion fires through one real event at the finish cycle, so
``Fabric.run`` steps the clock there exactly as it would stepping.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.channels.channel import CounterRegisterChannel, SequenceChannel
from repro.errors import KernelBuildError, KernelError, MemoryError_
from repro.memory.global_memory import BufferTraffic
from repro.pipeline import ops
from repro.pipeline.context import KernelContext
from repro.sim.core import PRIORITY_NORMAL, Event

#: Heap entry kinds, in the slot after ``(time, seq, ...)``: resume a row
#: (with a value), a launcher turn, a load's retirement (value read
#: then), a channel callback (a sequence server's write completion), a
#: waker's resumption, and a read blocked until a counter starts.
_EV_ROW, _EV_LAUNCH, _EV_LOAD, _EV_CALL, _EV_WAKE, _EV_COUNTER = range(6)

_DONE = object()

#: A horizon no commit reaches.
_NO_HORIZON = 1 << 62

_Load = ops.Load
_Store = ops.Store
_Compute = ops.Compute
_ReadChannel = ops.ReadChannel
_MemFence = ops.MemFence
_Collect = ops.CollectReduction


class Row:
    """One iteration: a planned op list (batch) or a body generator."""

    __slots__ = ("tag", "ctx", "frame", "ops", "next_op", "issued_at",
                 "body")

    def __init__(self, tag: Any, ctx: KernelContext,
                 frame: Optional[list] = None) -> None:
        self.tag = tag
        self.ctx = ctx
        self.frame = frame
        #: Planned issue tuples ``(box, address, store, element, value)``
        #: in body order (``store`` is None for loads).
        self.ops: List[tuple] = []
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
        replay._push(replay.sim._now, _EV_WAKE, self, value)


class LaunchReplay:
    """The analytic timeline of one launch of ``engine``.

    Construct it, let a feeder fill :attr:`boxes`, :attr:`counts` and
    :attr:`traffic` as needed (batch Phase A does), then call
    :meth:`run_planned` or :meth:`run_bodies` once.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.memory = engine.fabric.memory
        self.keep_samples = engine.fabric.keep_lsu_samples
        self.heap: List[tuple] = []
        self.counter = itertools.count(1)
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
        #: horizon (see :meth:`_make_issue`), in issue order.
        self.late_commits: List[tuple] = []
        self.last_commit = 0
        # Launcher state machine.
        self._inflight = 0
        self._finish: Optional[int] = None
        self._launch_done = False
        self._slot_armed = False
        self._stall_start: Optional[int] = None
        self._last_issue: Optional[int] = None

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

    def run_planned(self, rows: List[Row]) -> None:
        """Time rows whose op lists batch Phase A computed."""
        heap = self.heap
        counter = self.counter
        heappush = heapq.heappush
        issue = self._make_issue()
        retire = self._retire

        def step(row: Row, now: int, _value: Any) -> None:
            ops_ = row.ops
            position = row.next_op
            if position >= len(ops_):
                retire(row, now)
                return
            row.next_op = position + 1
            box, address, store, element, value = ops_[position]
            heappush(heap, (issue(now, box, address, store, element, value),
                            next(counter), _EV_ROW, row, None))

        def begin(row: Row, now: int) -> None:
            row.issued_at = now
            step(row, now, None)

        self._run(rows, begin, step)
        self._flush()

    def run_bodies(self, tags: Iterable[Any]) -> None:
        """Run each tag's body generator, fed op by op on the replay."""
        engine = self.engine
        kernel = engine.kernel
        instance = engine.instance
        compute_id = instance.compute_id
        derive_site = engine._derive_site
        buffer_of = self.memory.buffer
        sim = self.sim
        heap = self.heap
        counter = self.counter
        heappush = heapq.heappush
        site_box = self.site_box
        counts = self.counts
        traffic = self.traffic
        retire = self._retire
        self._overlay = {}
        issue = self._make_issue()
        # Per-site boxes and per-name buffers, resolved once per launch.
        load_boxes: Dict[str, list] = {}
        store_boxes: Dict[str, list] = {}
        stores: Dict[str, Any] = {}

        def hop(write_done: Callable[[], None]) -> None:
            heappush(heap, (sim._now, next(counter), _EV_CALL, write_done,
                            None))

        def step(row: Row, now: int, value: Any) -> None:
            body = row.body
            send = body.send
            throw: Optional[BaseException] = None
            while True:
                try:
                    if throw is None:
                        op = send(value)
                    else:
                        op, throw = body.throw(throw), None
                except StopIteration:
                    retire(row, now)
                    return
                except Exception as exc:
                    # An unhandled body exception fails the launch, as in
                    # PipelineEngine._iteration.
                    if engine._failure is None:
                        engine._failure = exc
                    retire(row, now)
                    return
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
                        retire_at = issue(now, box, address, None, index,
                                          None)
                        heappush(heap, (retire_at, next(counter), _EV_LOAD,
                                        row, (store, index)))
                    else:
                        counts[1] += 1
                        counts[3] += itemsize
                        entry[1] += 1
                        entry[3] += itemsize
                        retire_at = issue(now, box, address, store, index,
                                          op.value)
                        heappush(heap, (retire_at, next(counter), _EV_ROW,
                                        row, None))
                    return
                if cls is _Compute:
                    cycles = op.cycles
                    if not cycles:
                        value = op.value
                        continue
                    heappush(heap, (now + cycles, next(counter), _EV_ROW, row,
                                    op.value))
                    return
                if cls is _ReadChannel:
                    channel = op.channel
                    if type(channel) is SequenceChannel:
                        if channel.has_data:
                            value = channel.take(hop)
                            channel.note_read(0)
                            continue
                        channel.wait(_Wake(self, row, channel))
                        return
                    if type(channel) is CounterRegisterChannel:
                        if channel.has_data:
                            value = channel.value()
                            channel.note_read(0)
                            continue
                        heappush(heap, (channel.start_cycle, next(counter),
                                        _EV_COUNTER, row, (channel, now)))
                        return
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
                    return
                raise KernelBuildError(
                    f"kernel {kernel.name!r} declares a replayable body but "
                    f"yielded {op!r}; the analytic replay runs only "
                    "Load/Store/Compute/MemFence/CollectReduction and "
                    "blocking reads of lazy timestamp or sequence channels")

        def begin(tag: Any, now: int) -> None:
            ctx = KernelContext(instance, iteration=tag)
            row = Row(tag, ctx)
            row.body = kernel.body(ctx)
            row.issued_at = now
            step(row, now, None)

        self._run(tags, begin, step)
        if sim._wheel_count or sim._far:
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
        start = retire = sim._now
        stop = sim.stop_cycle
        # Reads at cycle r retire by r + posted (the LSU's tail is the
        # previous read's cycle), so every store retires before `end`.
        end = (_NO_HORIZON if stop is None
               else stop - self.memory.config.posted_write_latency)
        through = sim.last_late_phase()
        box = self.site_box(site, "store")
        self.commit_cycles = []
        issue = self._make_issue(stop)
        base = store.base_address
        itemsize = store.itemsize
        first = k
        while k < limit and retire < end:
            word, ok = channel.take_fed(through)
            if not ok:
                break
            retire = issue(retire, box, base + k * itemsize, store, k, word)
            k += 1
            if retire != start:
                through = retire - 1
        stored = k - first
        if stored:
            counts = self.counts
            counts[1] += stored
            counts[3] += stored * itemsize
            self.traffic[store.name] = [0, stored, 0, stored * itemsize]
            self.flush_effects()
        return k, retire

    # -- the shared core ------------------------------------------------------

    def _push(self, when: int, kind: int, row: Any, value: Any) -> None:
        heapq.heappush(self.heap, (when, next(self.counter), kind, row,
                                   value))

    def _make_issue(self, horizon: Optional[int] = None
                    ) -> Callable[..., int]:
        """Build ``issue(now, box, address, store, element, value)``: issue
        one access at cycle ``now`` and return its retire cycle.

        The memory controller's bank model and the LSU's in-order retire,
        inlined: same arithmetic and call order as
        :meth:`GlobalMemory.load_timing` / :meth:`~GlobalMemory.
        store_timing` and :meth:`LoadStoreUnit.issue`. ``store`` is None
        for a load; for a store the commit is recorded at the full
        latency, while the pipeline resumes after the posted latency
        only. A commit that lands at or after ``horizon`` is recorded in
        :attr:`late_commits` instead, with its cycle.
        """
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
        latency_acc = self.latency
        commits = self.commits
        cycles = self.commit_cycles
        overlay = self._overlay
        counter = self.counter
        late = self.late_commits
        if horizon is None:
            horizon = _NO_HORIZON

        def issue(now: int, box: list, address: int, store: Any,
                  element: int, value: Any) -> int:
            dram_row = address // row_bytes
            bank = dram_row % banks
            start = bank_ready[bank]
            if now > start:
                start = now
            if bank_open_row[bank] == dram_row:
                access = hit_cycles
                latency_acc[0] += 1
            else:
                access = miss_cycles
                latency_acc[1] += 1
                bank_open_row[bank] = dram_row
            finish = start + access + busy
            bank_ready[bank] = finish
            latency = finish - now + pipe
            if store is None:
                latency_acc[2] += latency
            elif now + latency >= horizon:
                late.append((store, element, value, now + latency))
                if latency > posted:
                    latency = posted
            else:
                commit = now + latency
                commits.append((store, element, value))
                if cycles is not None:
                    cycles.append(commit)
                if commit > self.last_commit:
                    self.last_commit = commit
                if overlay is not None:
                    # The commit event is scheduled before the store's
                    # retirement, so it takes the earlier sequence number.
                    key = (store, element)
                    landed = overlay.get(key)
                    if landed is None:
                        landed = overlay[key] = []
                    landed.append((commit, next(counter), value))
                if latency > posted:
                    latency = posted
            raw_retire = now + latency
            tail = box[0]
            retire = raw_retire if raw_retire >= tail else tail
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
            return retire

        return issue

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

    def _run(self, items: Iterable[Any], begin: Callable[[Any, int], None],
             step: Callable[[Row, int, Any], None]) -> None:
        sim = self.sim
        start = sim._now
        self._items = iter(items)
        self._next = next(self._items, _DONE)
        self._begin = begin
        heap = self.heap
        pop = heapq.heappop
        try:
            self._launch_turn(start)
            while heap and self._finish is None:
                when, seq, kind, row, value = pop(heap)
                sim._now = when
                if kind == _EV_ROW:
                    step(row, when, value)
                elif kind == _EV_LOAD:
                    step(row, when, self._loaded(when, seq, *value))
                elif kind == _EV_LAUNCH:
                    if self._stall_start is not None:
                        self.engine.stats.issue_stall_cycles += (
                            when - self._stall_start)
                        self._stall_start = None
                    self._launch_turn(when)
                elif kind == _EV_WAKE:
                    if row.channel is not None:
                        row.channel.note_read(when - row.since)
                    step(row.row, when, value)
                elif kind == _EV_CALL:
                    row()
                else:                                       # _EV_COUNTER
                    channel, since = value
                    channel.note_read(when - since)
                    step(row, when, channel.value())
        finally:
            sim._now = start

    def _launch_turn(self, now: int) -> None:
        """One launcher wake: issue until a gap, a full pipeline, or done."""
        engine = self.engine
        config = engine.config
        stats = engine.stats
        while True:
            item = self._next
            if item is _DONE:
                self._launch_done = True
                if self._inflight == 0 and self._finish is None:
                    self._finish = now
                return
            if self._last_issue is not None:
                gap = self._last_issue + config.ii - now
                if gap > 0:
                    self._push(now + gap, _EV_LAUNCH, None, None)
                    return
            if self._inflight >= config.max_inflight:
                self._slot_armed = True
                self._stall_start = now
                return
            self._inflight += 1
            stats.iterations_issued += 1
            # Inline start: the first op issues at the issue cycle itself,
            # and op-free rows retire synchronously (as `inline=True`
            # iteration processes do).
            self._begin(item, now)
            self._last_issue = now
            self._next = next(self._items, _DONE)

    def _retire(self, row: Row, now: int) -> None:
        stats = self.engine.stats
        if self.keep_samples:
            stats.iteration_trace.append((row.tag, row.issued_at, now))
        self._inflight -= 1
        stats.iterations_retired += 1
        if self._slot_armed:
            # The real retire succeeds the launcher's slot event (delay 0):
            # the launcher resumes this cycle, after already-queued events.
            self._slot_armed = False
            self._push(now, _EV_LAUNCH, None, None)
        if self._launch_done and self._inflight == 0:
            self._finish = now

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
        # cycle) becomes real events, in order, behind the trigger.
        heap = self.heap
        while heap:
            when, _, _, call, _ = heapq.heappop(heap)
            event = Event(sim)
            event._value = None
            event.callbacks.append(lambda _event, _call=call: _call())
            sim._schedule(event, delay=when - start,
                          priority=PRIORITY_NORMAL)
