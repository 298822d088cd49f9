"""The pipeline engine: executes kernels the way AOCL hardware does.

A compiled kernel is a pipeline fed by a stream of iteration instances
(loop iterations for single-task kernels, work-items for NDRange kernels).
The engine models the dynamic behaviour that the paper's instrumentation
observes:

* iterations are **issued in schedule order**, one per initiation interval,
  with a bounded number in flight (pipeline depth) — issue stalls when the
  pipeline is full;
* each static memory site retires accesses **in order** (one LSU per static
  load/store), so a slow access stalls everything behind it — this is the
  stall the §5.1 monitor measures;
* channel operations follow AOCL semantics, including blocking reads that
  stall the pipeline and non-blocking writes that never do;
* autorun kernels run forever, phase-aligned within the clock cycle
  ("early" producers update before "late" consumers poll).

Site identity is derived from the generator's suspended source line when
not given explicitly, so one textual ``yield`` maps to one hardware unit
across all iterations — mirroring static elaboration. Compiled kernels
attach precomputed sites to every op instead (see
:func:`repro.frontend.compiler.build_site_table`), which keeps frame
inspection entirely off the compiled-listings path.

Op execution uses a type-keyed dispatch table (:data:`OP_DISPATCH`)
with the dominant ops inlined straight into the drive loop, zero-latency
compute runs fused into one scheduler visit, autorun ``CycleBoundary``
steps parked on one shared broadcast tick per ``(cycle, phase)``, and
idle ``AwaitData`` units parked on their channels' arrival hook with no
per-cycle event at all (a ``Drain`` unit also hands its remaining words
to its output channel as a feed). See ``docs/PERFORMANCE.md``, "Op
dispatch and cycle fusion". The original one-generator-per-op loop it
replaced is kept as a test oracle (``tests/executor_oracle.py``).

A launch that owns the simulator need not step at all. Each launch is
timed on the cheapest exact tier, decided once in
:meth:`PipelineEngine._launch_space`: the batch table
(:mod:`repro.pipeline.batch`), the analytic replay of its bodies
(:mod:`repro.pipeline.replay`), or stepping.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import KernelBuildError, KernelError
from repro.memory.lsu import LoadStoreUnit
from repro.pipeline import ops
from repro.pipeline.accumulator import Accumulator
from repro.pipeline.batch import BatchAbort, BatchStats, PhaseA
from repro.pipeline.context import KernelContext
from repro.pipeline.kernel import NO_PLAN_COMPILER, AutorunKernel, Kernel
from repro.pipeline.replay import LaunchReplay
from repro.pipeline.schedule import WorkItems

#: Why a one-iteration launch of a planned kernel skips the batch table.
ONE_ITERATION = "one iteration"
from repro.sim.core import (
    PRIORITY_LATE,
    PRIORITY_URGENT,
    Event,
    Interrupt,
    Process,
)


# Hot-op aliases: `op.__class__ is _X` beats isinstance() and keeps the
# fast drive loop free of attribute lookups.
_Compute = ops.Compute
_CycleBoundary = ops.CycleBoundary
_Load = ops.Load
_Store = ops.Store
_LoadLocal = ops.LoadLocal
_StoreLocal = ops.StoreLocal
_MemFence = ops.MemFence
_AwaitData = ops.AwaitData

#: The ops :meth:`_OpExecutor._drive` runs inline; every other concrete
#: op goes through :data:`OP_DISPATCH`.
INLINED_OPS = (_Compute, _CycleBoundary, _Load, _Store, _LoadLocal,
               _StoreLocal, _MemFence, _AwaitData)


class _NonOpYield(Exception):
    """Internal: a kernel body yielded something that is not an Op."""


class KernelInstance:
    """One compute unit of a kernel: private locals, accumulators, endpoints."""

    def __init__(self, fabric: Any, kernel: Kernel, args: Dict[str, Any],
                 compute_id: int = 0) -> None:
        self.fabric = fabric
        self.kernel = kernel
        self.args = dict(args or {})
        self.compute_id = compute_id
        self._locals = kernel.create_locals(fabric, compute_id)
        self._accumulators: Dict[str, Accumulator] = {}

    @property
    def endpoint_owner(self) -> Kernel:
        """The identity channels bind endpoints against (SPSC enforcement).

        Binding is at *kernel* granularity: replicated compute units of one
        kernel and repeated launches of one host-interface kernel are the
        same static endpoint in the compiled image.
        """
        return self.kernel

    def local(self, name: str):
        try:
            return self._locals[name]
        except KeyError:
            raise KernelError(
                f"kernel {self.kernel.name!r} (cu{self.compute_id}) declares no "
                f"local memory named {name!r}") from None

    def accumulator(self, name: str) -> Accumulator:
        if name not in self._accumulators:
            self._accumulators[name] = Accumulator(
                self.fabric.sim, f"{self.kernel.name}.{name}")
        return self._accumulators[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelInstance {self.kernel.name!r} cu{self.compute_id}>"


@dataclass
class EngineStats:
    """Dynamic execution statistics of one kernel launch."""

    iterations_issued: int = 0
    iterations_retired: int = 0
    start_cycle: Optional[int] = None
    finish_cycle: Optional[int] = None
    issue_stall_cycles: int = 0
    #: Per-iteration lifetimes: (tag, issue_cycle, retire_cycle), retained
    #: when the fabric keeps samples. Ground truth for pipeline views.
    iteration_trace: List[Tuple[Any, int, int]] = field(default_factory=list)

    @property
    def total_cycles(self) -> Optional[int]:
        if self.start_cycle is None or self.finish_cycle is None:
            return None
        return self.finish_cycle - self.start_cycle


class _OpExecutor:
    """Shared op-execution machinery for pipelined and autorun engines."""

    def __init__(self, fabric: Any, kernel: Kernel) -> None:
        self.fabric = fabric
        self.kernel = kernel
        self.sim = fabric.sim
        self._lsus: Dict[Tuple[str, str], LoadStoreUnit] = {}
        #: Site-name cache keyed by the static identity of a yield: the
        #: body's code object, suspended line, op class, and compute unit.
        self._site_cache: Dict[Tuple[Any, int, type, int], str] = {}
        #: Intra-cycle lane of this kernel's cycle boundaries, resolved once
        #: ("early" producers run urgent, everything else late).
        self._tick_priority = (PRIORITY_URGENT
                               if getattr(kernel, "phase", "late") == "early"
                               else PRIORITY_LATE)
        #: Only late-phase autorun units may park (see :meth:`_park`).
        self._can_park = (isinstance(kernel, AutorunKernel)
                          and self._tick_priority == PRIORITY_LATE)
        #: Parked units: compute id -> detach (settles and unhooks the unit).
        self._parked: Dict[int, Callable[[], None]] = {}

    def lsu(self, site: str, kind: str) -> LoadStoreUnit:
        """Get-or-create the LSU backing one static memory site."""
        key = (site, kind)
        if key not in self._lsus:
            self._lsus[key] = LoadStoreUnit(
                self.sim, self.fabric.memory, site, kind,
                keep_samples=self.fabric.keep_lsu_samples)
        return self._lsus[key]

    @property
    def lsus(self) -> Dict[Tuple[str, str], LoadStoreUnit]:
        return dict(self._lsus)

    def _derive_site(self, generator: Generator, op: ops.Op,
                     compute_id: int) -> str:
        frame = getattr(generator, "gi_frame", None)
        if frame is None:
            return f"{self.kernel.name}.cu{compute_id}:{type(op).__name__}@L0"
        # One textual yield is one hardware unit, so the formatted name is a
        # pure function of the (code object, line, op class, compute unit)
        # tuple — cache it and keep f-string formatting off the per-op path.
        key = (frame.f_code, frame.f_lineno, type(op), compute_id)
        site = self._site_cache.get(key)
        if site is None:
            site = (f"{self.kernel.name}.cu{compute_id}:"
                    f"{type(op).__name__}@L{frame.f_lineno}")
            self._site_cache[key] = site
        return site

    def _cycle_priority(self) -> int:
        return self._tick_priority

    def _check_can_park(self) -> None:
        if not self._can_park:
            raise KernelBuildError(
                f"kernel {self.kernel.name!r}: await_data() and drain() are "
                "only valid in a late-phase autorun kernel")

    def _park(self, channels: Tuple[Any, ...], compute_id: int,
              drain: Optional[ops.Drain] = None,
              sink: Optional[Tuple[Any, Callable[[int, Any], None]]] = None,
              first: bool = False) -> Tuple[Optional[Event], Any]:
        """The event an idle unit waits on for an ``AwaitData`` op (None
        when it need not wait), and for a ``Drain`` op its feed (None
        when it does not park).

        With a value already buffered this is the next LATE phase's tick,
        as for ``cycle()``. Otherwise the unit parks on the channels'
        arrival hook and schedules nothing: the first write wakes it at
        the head of the first LATE phase that has not begun — the phase
        in which a per-cycle poll would first have seen the value. A
        ``sink`` channel takes its values without waking the unit (see
        :meth:`~repro.channels.channel.Channel.sink`). A draining unit
        also feeds its words to the drain channel; the feed's final write
        wakes it the same way, one LATE phase later. A ``first`` wait
        parks only a unit whose LATE phase has not begun.
        """
        self._check_can_park()
        sim = self.sim
        stepped = sim.last_late_phase() == sim.now
        if first and stepped:
            return None, None
        for channel in channels:
            if channel.has_data:
                if stepped:
                    return sim.broadcast_tick(PRIORITY_LATE), None
                wake = Event(sim)
                sim.wake_at_late_phase(wake)
                return wake, None
        wake = Event(sim)
        parked = self._parked
        out = drain.channel if drain is not None else None

        def detach() -> None:
            del parked[compute_id]
            for channel in channels:
                channel.unpark()
            if out is not None:
                out.unfeed()

        def arrived() -> None:
            detach()
            sim.wake_at_late_phase(wake)

        for channel in channels:
            channel.park(arrived)
        if sink is not None and sink[0].depth:
            sink[0].sink(sink[1])
        feed = (out.feed(drain.words, drain.start, arrived)
                if out is not None else None)
        parked[compute_id] = detach
        return wake, feed

    def _drive(self, generator: Generator, compute_id: int,
               ctx: Optional[KernelContext] = None) -> Generator:
        """Run one body generator to completion, executing yielded ops.

        Dominant ops execute inline (no per-op handler generator);
        anything else goes through :data:`OP_DISPATCH`. Runs of
        *zero-latency* ``Compute`` ops are fused: they are purely
        combinational, so the body is resumed immediately with the op's
        value and no event ever reaches the scheduler. Timed computes
        yield their delay inline (one pooled tick or timeout, no per-op
        generator) so ``ctx.now`` observed by the body after the yield
        advances exactly as under one generator per op.
        """
        sim = self.sim
        lsus = self._lsus
        send = generator.send
        send_value: Any = None
        throw_exc: Optional[Exception] = None
        while True:
            try:
                if throw_exc is not None:
                    op = generator.throw(throw_exc)
                    throw_exc = None
                else:
                    op = send(send_value)
            except StopIteration:
                return
            cls = op.__class__
            if cls is _Compute and not op.cycles:
                send_value = op.value
                continue
            try:
                if cls is _Compute:
                    cycles = op.cycles
                    yield sim.tick() if cycles == 1 else sim.timeout(cycles)
                    send_value = op.value
                elif cls is _Load:
                    site = op.site
                    if site is None:
                        site = self._derive_site(generator, op, compute_id)
                    lsu = lsus.get((site, "load"))
                    if lsu is None:
                        lsu = self.lsu(site, "load")
                    send_value = yield lsu.issue(op.buffer, op.index)
                elif cls is _Store:
                    site = op.site
                    if site is None:
                        site = self._derive_site(generator, op, compute_id)
                    lsu = lsus.get((site, "store"))
                    if lsu is None:
                        lsu = self.lsu(site, "store")
                    yield lsu.issue(op.buffer, op.index, op.value)
                    send_value = None
                elif cls is _CycleBoundary:
                    yield sim.broadcast_tick(self._tick_priority)
                    send_value = None
                elif cls is _AwaitData:
                    wake = self._park(op.channels, compute_id, None, op.sink,
                                      op.first)[0]
                    if wake is not None:
                        yield wake
                    send_value = None
                elif cls is _LoadLocal:
                    send_value = yield op.memory.load(op.index)
                elif cls is _StoreLocal:
                    yield op.memory.store(op.index, op.value)
                    send_value = None
                elif cls is _MemFence:
                    send_value = None
                else:
                    handler = OP_DISPATCH.get(cls)
                    if handler is None:
                        if isinstance(op, ops.Op):
                            raise KernelBuildError(
                                f"unknown op {op!r} from kernel "
                                f"{self.kernel.name!r}")
                        raise _NonOpYield(op)
                    send_value = yield from handler(self, generator, op,
                                                    compute_id, ctx)
            except Interrupt:
                generator.close()
                raise
            except _NonOpYield as bad:
                generator.close()
                raise KernelBuildError(
                    f"kernel {self.kernel.name!r} yielded {bad.args[0]!r}; "
                    "kernel bodies must yield Op objects built via the "
                    "KernelContext") from None
            except Exception as exc:
                send_value = None
                throw_exc = exc

    # -- dispatch-table handlers (one per op type the drive loop does not
    # -- inline) --------------------------------------------------------

    def _op_barrier(self, generator: Generator, op: ops.Op, compute_id: int,
                    ctx: Optional[KernelContext]) -> Generator:
        site = op.site or self._derive_site(generator, op, compute_id)
        yield self._barrier_arrive(site, ctx)
        return None

    def _op_read_channel(self, generator: Generator, op: ops.Op,
                         compute_id: int,
                         ctx: Optional[KernelContext]) -> Generator:
        value = yield from op.channel.read()
        return value

    def _op_write_channel(self, generator: Generator, op: ops.Op,
                          compute_id: int,
                          ctx: Optional[KernelContext]) -> Generator:
        yield from op.channel.write(op.value)
        return None

    def _op_call(self, generator: Generator, op: ops.Op, compute_id: int,
                 ctx: Optional[KernelContext]) -> Generator:
        value = yield from op.module.invoke(op.args)
        return value

    def _op_collect(self, generator: Generator, op: ops.Op, compute_id: int,
                    ctx: Optional[KernelContext]) -> Generator:
        value = yield op.accumulator.collect(op.key, op.expected)
        return value

    def _op_drain(self, generator: Generator, op: ops.Op, compute_id: int,
                  ctx: Optional[KernelContext]) -> Generator:
        if op.start == len(op.words) or not op.channel.depth:
            # Nothing left to feed, or a depth-0 register (no FIFO whose
            # writes could be settled later): step the cycles.
            return (yield from self._drain_per_cycle(op))
        wake, feed = self._park(op.polled, compute_id, op)
        yield wake
        return op.start if feed is None else feed.position

    def _drain_per_cycle(self, op: ops.Drain) -> Generator:
        """The cycle loop a ``Drain`` op stands for, run when there is
        nothing to feed."""
        self._check_can_park()
        words = op.words
        position = op.start
        while True:
            yield self.sim.tick(self._cycle_priority())
            if position == len(words) or any(
                    channel.has_data for channel in op.polled):
                return position
            for channel in op.polled:
                channel.read_nb()
            if op.channel.write_nb(words[position]):
                position += 1

    def _op_transfer(self, generator: Generator, op: ops.Op,
                     compute_id: int,
                     ctx: Optional[KernelContext]) -> Generator:
        """Listing 10's READ loop, with runs of words in closed form.

        Each word is a blocking read and a posted store, except while
        the simulator provably has nothing else to do: the channel is fed
        by a parked producer whose end is not fixed, nobody else waits on
        it, and every pending event is a posted-store commit. Then a
        window computes the next words without events
        (:meth:`~repro.pipeline.replay.LaunchReplay.run_transfer`): their
        reads, the bank model and LSU accounting, and their commits as
        one flush event at the last commit cycle.
        A window stops when the FIFO is empty or a read would fix the
        feed's end (both read for real), or before a store that could
        retire at or after the stop cycle of a ``run(until=...)`` under
        way, where the caller observes the model; the op then waits to
        the last retire cycle and checks again. When it ends (or fails),
        the window commits due by then land, as their own events would
        have.
        """
        site = op.site or self._derive_site(generator, op, compute_id)
        lsu = self.lsu(site, "store")
        channel = op.channel
        buffer = op.buffer
        count = op.count
        sim = self.sim
        memory = self.fabric.memory
        # Words a window may store: an invalid index must fail at its
        # real cycle, through a stepped store.
        if buffer in memory.address_map:
            store = memory.buffer(buffer)
            limit = min(count, store.size)
        else:
            limit = 0
        k = 0
        try:
            while k < count:
                if (k < limit and channel.can_take_fed()
                        and sim.pending_events == memory.commit_events):
                    start = sim.now
                    first = k
                    k, retire = LaunchReplay(self).run_transfer(
                        channel, store, site, k, limit)
                    if k > first:
                        yield sim.timeout(retire - start)
                        continue
                word = yield from channel.read()
                yield lsu.issue(buffer, k, word)
                k += 1
        finally:
            memory.land_commits(sim.now)
        return None

    def _barrier_arrive(self, site: str, ctx: Optional[KernelContext]) -> Event:
        raise KernelBuildError(
            f"kernel {self.kernel.name!r}: barrier() is only valid inside "
            "an NDRange kernel launch")


#: Type-keyed op dispatch: every concrete :class:`~repro.pipeline.ops.Op`
#: the drive loop does not inline (:data:`INLINED_OPS`) maps to its
#: handler; the exhaustiveness test (tests/test_op_dispatch.py) asserts a
#: newly added op can never silently fall through. Handlers are generator
#: methods with the uniform signature ``(self, generator, op, compute_id,
#: ctx)`` returning the op's result.
OP_DISPATCH: Dict[type, Any] = {
    ops.Barrier: _OpExecutor._op_barrier,
    ops.ReadChannel: _OpExecutor._op_read_channel,
    ops.WriteChannel: _OpExecutor._op_write_channel,
    ops.Call: _OpExecutor._op_call,
    ops.CollectReduction: _OpExecutor._op_collect,
    ops.Drain: _OpExecutor._op_drain,
    ops.Transfer: _OpExecutor._op_transfer,
}


class PipelineEngine(_OpExecutor):
    """Executes a single-task or NDRange kernel as a pipelined launch."""

    def __init__(self, fabric: Any, kernel: Kernel, args: Optional[Dict[str, Any]] = None,
                 compute_id: int = 0,
                 space: Optional[Any] = None) -> None:
        if isinstance(kernel, AutorunKernel):
            raise KernelBuildError(
                f"autorun kernel {kernel.name!r} cannot be enqueued; "
                "it starts with the device (use AutorunEngine)")
        super().__init__(fabric, kernel)
        self.instance = KernelInstance(fabric, kernel, args or {}, compute_id)
        #: Optional iteration-space override (multi-compute-unit launches
        #: give each unit its share of the space).
        self._space = space
        self.config = kernel.pipeline
        #: Why the launch was stepped instead of replayed analytically
        #: (None when it was not stepped).
        self.stepped_reason: Optional[str] = None
        #: The launch's batch-table attempt (see :meth:`_launch_space`).
        self.batch = BatchStats()
        # Bound trace writers per schema (rebuilt if the fabric hub swaps).
        self._writers: Dict[str, Any] = {}
        self.stats = EngineStats()
        self.completion: Event = self.sim.event()
        self._inflight = 0
        self._launch_done = False
        self._slot_event: Optional[Event] = None
        self._started = False
        self._failure: Optional[Exception] = None
        #: Barrier rendezvous state: (site, group) -> {"arrived", "event"}.
        self._barriers: Dict[Tuple[str, int], Dict[str, Any]] = {}

    def start(self) -> Event:
        """Begin the launch; returns the completion event."""
        if self._started:
            raise KernelError(f"kernel {self.kernel.name!r} launch already started")
        self._started = True
        self.sim.process(self._launcher(), name=f"{self.kernel.name}.launcher")
        return self.completion

    # -- internals -----------------------------------------------------------

    def _launcher(self) -> Generator:
        self.stats.start_cycle = self.sim.now
        yield from self._launch_space(self._iteration_tags())

    def _launch_space(self, space: Any) -> Generator:
        """Walk ``space`` on the cheapest exact tier, decided once:

        1. the batch table (:mod:`repro.pipeline.batch`), when the kernel
           has a plan, the launch owns the simulator, the kernel's replay
           gate passes, the launch has more than one iteration and Phase
           A completes (:attr:`batch` says which, or why not);
        2. else the analytic replay of the bodies, when the kernel is
           replayable, the launch owns the simulator and the kernel's
           replay gate passes;
        3. else stepping (:attr:`stepped_reason` says why).
        """
        kernel = self.kernel
        exclusive = self.sim.exclusive_reason()
        plan, reason = kernel.batch_plan()
        rows = ops_count = divergence = 0
        if plan is not None:
            ops_count = plan.op_count
            reason = exclusive or kernel.replay_gate()
            if reason is None:
                if type(space) is not WorkItems:
                    space = list(space)
                if len(space) == 1:
                    # Phase A pays numpy's per-call cost at every access,
                    # so the bodies replay times one iteration faster.
                    reason = ONE_ITERATION
            if reason is None:
                replay = LaunchReplay(self)
                phase = PhaseA(self, replay)
                try:
                    phase.run(plan, space)
                except BatchAbort as abort:
                    # Phase A is side-effect-free, so the materialized tag
                    # list can go to the next tier verbatim. Its LSUs go
                    # too: stepping registers each at its first issue.
                    self._lsus = {}
                    reason = abort.reason
                    rows = len(space)
                    divergence = 1
                    self._emit("batch.divergence", reason, rows)
                else:
                    self.batch = BatchStats("table", "", len(space),
                                            ops_count)
                    self._emit("batch.launch", "", 1, len(space), ops_count)
                    # Phase A registered the LSUs in plan order; rows that
                    # disagree at a branch or loop test may first issue
                    # them in another order.
                    self._lsus = {
                        (lsu.site, lsu.kind): lsu
                        for lsu in replay.run_planned(phase, space)}
                    return
        self.batch = BatchStats("fallback", reason, rows, ops_count,
                                divergence)
        if reason != NO_PLAN_COMPILER:
            self._emit("batch.launch", reason, 0, rows, ops_count)
        if not kernel.replayable:
            self.stepped_reason = kernel.replay_blocker
        else:
            self.stepped_reason = exclusive or kernel.replay_gate()
        if self.stepped_reason is None:
            LaunchReplay(self).run_bodies(space)
            return
        yield from self._launch_tags(space)

    def _emit(self, schema: str, site: str = "", *values: int) -> None:
        # Values are positional in schema field order (batch.launch:
        # mode/rows/ops; batch.divergence: rows), via a bound writer per
        # schema so a launch skips record construction.
        hub = self.fabric.trace
        if hub is None:
            return
        writer = self._writers.get(schema)
        if writer is None or writer.hub is not hub:
            writer = hub.writer(schema, kernel=self.kernel.name,
                                cu=self.instance.compute_id)
            self._writers[schema] = writer
        writer.write_to(site, self.sim.now, *values)

    def _iteration_tags(self) -> Any:
        """The iteration space this launch walks (honouring any CU share)."""
        return (self._space if self._space is not None
                else self.kernel.iteration_space(self.instance.args))

    def _launch_tags(self, space: Any) -> Generator:
        last_issue: Optional[int] = None
        for tag in space:
            if last_issue is not None:
                gap = last_issue + self.config.ii - self.sim.now
                if gap > 0:
                    yield self.sim.timeout(gap)
            while self._inflight >= self.config.max_inflight:
                stall_start = self.sim.now
                self._slot_event = self.sim.event()
                yield self._slot_event
                self.stats.issue_stall_cycles += self.sim.now - stall_start
            self._issue(tag)
            last_issue = self.sim.now
        self._launch_done = True
        # Inline-started iterations can retire synchronously inside
        # _issue(), i.e. before _launch_done was set — re-check here
        # rather than only when no iteration was issued at all.
        self._maybe_complete()

    def _issue(self, tag: Any) -> None:
        self._inflight += 1
        self.stats.iterations_issued += 1
        ctx = KernelContext(self.instance, iteration=tag)
        body = self.kernel.body(ctx)
        # Nothing waits on an iteration (it retires through _retire), so it
        # runs detached: no completion event, and no per-tag name.
        self.sim.process(self._iteration(body, ctx, tag, self.sim.now),
                         name=self.kernel.name, inline=True, detached=True)

    def _iteration(self, body: Generator, ctx: Optional[KernelContext],
                   tag: Any, issued_at: int) -> Generator:
        closed = False
        try:
            yield from self._drive(body, self.instance.compute_id, ctx)
        except Interrupt:
            raise
        except GeneratorExit:
            # Garbage collection closed an abandoned launch: its simulator
            # is gone, so the iteration neither fails nor retires.
            closed = True
            raise
        except Exception as exc:
            # An unhandled kernel exception fails the whole launch; the
            # failure reaches the host at the completion event, like an
            # aborted command on a real runtime. KeyboardInterrupt and
            # SystemExit are no kernel failure: they propagate.
            if self._failure is None:
                self._failure = exc
        finally:
            if not closed:
                if self.fabric.keep_lsu_samples:
                    self.stats.iteration_trace.append((tag, issued_at,
                                                       self.sim.now))
                self._retire()

    def _barrier_arrive(self, site: str, ctx: Optional[KernelContext]) -> Event:
        """Work-group barrier: the returned event fires when the whole
        group has arrived at this site."""
        kernel = self.kernel
        if kernel.kind != "ndrange" or ctx is None:
            return super()._barrier_arrive(site, ctx)
        if self._space is not None:
            raise KernelBuildError(
                f"kernel {kernel.name!r}: barrier() is not supported in "
                "multi-compute-unit launches (a group must live in one unit)")
        global_size = kernel.global_size(self.instance.args)
        local_size = getattr(kernel, "local_size", None) or global_size
        gid = ctx.global_id
        group = gid // local_size
        expected = min(local_size, global_size - group * local_size)
        if expected > self.config.max_inflight:
            raise KernelBuildError(
                f"kernel {kernel.name!r}: work-group of {expected} cannot "
                f"rendezvous with max_inflight={self.config.max_inflight}; "
                "raise the pipeline depth or shrink local_size")
        key = (site, group)
        state = self._barriers.setdefault(
            key, {"arrived": 0, "event": self.sim.event()})
        state["arrived"] += 1
        event = state["event"]
        if state["arrived"] >= expected:
            # Last arrival releases the group; barrier crossing costs a cycle.
            del self._barriers[key]
            self.sim.timeout(1).add_callback(
                lambda done, _event=event: _event.succeed())
        return event

    def _retire(self) -> None:
        self._inflight -= 1
        self.stats.iterations_retired += 1
        if self._slot_event is not None and not self._slot_event.triggered:
            self._slot_event.succeed()
            self._slot_event = None
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        if self._launch_done and self._inflight == 0 and not self.completion.triggered:
            self.stats.finish_cycle = self.sim.now
            if self._failure is not None:
                failure = KernelError(
                    f"kernel {self.kernel.name!r} failed: {self._failure}")
                failure.__cause__ = self._failure
                self.completion.fail(failure)
            else:
                self.completion.succeed(self.stats)


class AutorunEngine(_OpExecutor):
    """Runs the compute units of an autorun kernel forever (until stopped)."""

    def __init__(self, fabric: Any, kernel: AutorunKernel,
                 args: Optional[Dict[str, Any]] = None) -> None:
        if not isinstance(kernel, AutorunKernel):
            raise KernelBuildError(
                f"kernel {kernel.name!r} is not autorun; use PipelineEngine")
        super().__init__(fabric, kernel)
        self.instances: List[KernelInstance] = [
            KernelInstance(fabric, kernel, args or {}, compute_id)
            for compute_id in range(kernel.num_compute_units)
        ]
        #: (process, unit generator) per compute unit.
        self._processes: List[Tuple[Process, Generator]] = []
        self._started = False

    def start(self) -> None:
        """Launch all compute units (normally done at device programming).

        Units may start parked (see :meth:`_starts_parked`).
        """
        if self._started:
            raise KernelError(f"autorun kernel {self.kernel.name!r} already started")
        self._started = True
        sim = self.sim
        parked = self._starts_parked()
        for instance in self.instances:
            unit = self._unit(instance, align=not parked)
            self._processes.append((sim.process(
                unit, name=f"{self.kernel.name}.cu{instance.compute_id}",
                inline=parked), unit))

    def _starts_parked(self) -> bool:
        """Whether the units start parked, with no start or phase-alignment
        event: for a kernel that :attr:`~repro.pipeline.kernel.AutorunKernel.
        starts_idle`, when nothing else is scheduled this cycle. Then no
        event can come before the unit's first poll in this cycle's LATE
        phase, which the parked unit takes at its head."""
        sim = self.sim
        return (self._can_park and self.kernel.starts_idle
                and not getattr(self.kernel, "launch_skew", 0)
                and sim.last_late_phase() < sim.now
                and sim.peek() != sim.now)

    def _unit(self, instance: KernelInstance, align: bool = True) -> Generator:
        try:
            if align:
                skew = getattr(self.kernel, "launch_skew", 0)
                if skew:
                    yield self.sim.timeout(skew)
                # Align the unit to its intra-cycle phase from the very
                # first cycle.
                yield self.sim.timeout(0, priority=self._tick_priority)
            ctx = KernelContext(instance, iteration=None)
            body = self.kernel.body(ctx)
            yield from self._drive(body, instance.compute_id)
        except Interrupt:
            return

    def stop(self) -> None:
        """Interrupt all compute units (tears the persistent kernels down).

        Parked units are settled first: their skipped polls and fed writes
        are credited up to now, and later writes no longer wake them. A
        unit that has not taken its first step yet just never runs.
        """
        for detach in list(self._parked.values()):
            detach()
        for process, unit in self._processes:
            if not process.is_alive:
                continue
            if inspect.getgeneratorstate(unit) == inspect.GEN_CREATED:
                # An interrupt would be thrown in before its first line,
                # outside the handler; closed, it returns at its start.
                unit.close()
            else:
                process.interrupt("autorun stop")
        self._processes = []

    @property
    def running(self) -> bool:
        return any(process.is_alive for process, _ in self._processes)
