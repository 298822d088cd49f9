"""Batch work-item execution: columnar lockstep over a whole launch.

``executor="batch"`` runs the straight-line regions of a compiled kernel
body once per *plan node* across every work-item of the compute unit,
instead of once per work-item per op through the event loop. The engine
splits a launch into two phases:

* **Phase A (values)** — every work-item gets one frame row; plan nodes
  execute columnar-style (node-major, rows inner). Pure segments touch
  only per-row state; memory ops read the backing stores directly and
  record ``(site, index)`` issue tuples per row. This phase has **zero
  shared side effects**, so any divergence (non-uniform control flow
  across rows, an intra-launch read/write hazard, or any exception) can
  abort it and transparently re-run the launch through the ordinary
  per-iteration stepping path — reproducing exact oracle semantics,
  including the original failure mode.

* **Phase B (timing)** — the analytic launch replay of
  :mod:`repro.pipeline.replay` times the recorded ops: the launcher/LSU
  event choreography on a private heap, in the same ``(cycle,
  scheduling-order)`` sequence the real event loop would produce, with
  the posted-store commits landing in one real flush event. The same
  core replays declared-replayable Python-IR kernels from their body
  generators, which is how this engine's fallback runs them.

The phases only run when the launch owns the simulator (see
:meth:`~repro.pipeline.engine.PipelineEngine._exclusive_reason`: an
empty event queue — a posted store still in flight is a scheduled
commit event — and no ``run(until=...)`` under way) and the kernel
lowered to a
:class:`~repro.frontend.codegen.BatchPlan`. Anything else falls back to
the fast executor — which replays a replayable Python-IR kernel and
steps everything else — so ``executor="batch"`` is *always* safe to
request.

Equality with the reference op executor (``tests/executor_oracle.py``:
buffers, ``sim.now``, engine and LSU stats, iteration traces) is
enforced by ``tests/test_prop_batch_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.pipeline.context import KernelContext
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.kernel import Kernel
from repro.pipeline.replay import LaunchReplay, Row

#: Phase A control codes 1..3 mirror the closure backend's
#: ``_BRK/_CNT/_RET``; ``_EXIT`` is the loop-condition-failed code a
#: ``BTest`` returns (it never escapes the enclosing ``BLoop``).
_BRK, _CNT, _RET, _EXIT = 1, 2, 3, 4


class _BatchAbort(Exception):
    """Phase A divergence/hazard: abort the table attempt, re-run fallback."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class BatchStats:
    """Outcome of one batch launch (``engine.batch``)."""

    #: "table" when the launch ran columnar, "fallback" otherwise.
    mode: str = ""
    #: Why the launch fell back ("" in table mode).
    reason: str = ""
    #: Work-item rows of the table attempt (0 when never materialized).
    rows: int = 0
    #: Static memory ops in the plan (0 without a plan).
    ops: int = 0
    #: Table attempts aborted at run time (divergence or hazard).
    divergence: int = 0


class BatchPipelineEngine(PipelineEngine):
    """A :class:`PipelineEngine` whose launcher batches eligible launches.

    The fallback path *is* the fast executor — the base class, reused
    unchanged.
    """

    def __init__(self, fabric: Any, kernel: Kernel,
                 args: Optional[Dict[str, Any]] = None,
                 compute_id: int = 0, space: Optional[Any] = None) -> None:
        super().__init__(fabric, kernel, args, compute_id=compute_id,
                         space=space)
        self.batch = BatchStats()
        # Phase A intra-launch hazard sets: buffer name -> element indices.
        self._b_read: Dict[str, set] = {}
        self._b_written: Dict[str, set] = {}
        # Plan-time buffer snapshots: name -> (values-as-list, size). Loads
        # never observe this launch's own stores (RAW aborts), so reading
        # the plan-time contents is exact — and a plain list indexes far
        # faster than per-element ``ndarray.item()`` calls.
        self._b_data: Dict[str, tuple] = {}
        #: Phase B's timeline; Phase A fills its LSU boxes and counters.
        self._replay: Optional[LaunchReplay] = None
        # Bound trace writers per schema (rebuilt if the fabric hub swaps).
        self._writers: Dict[str, Any] = {}

    # -- launcher ----------------------------------------------------------

    def _launcher(self) -> Generator:
        self.stats.start_cycle = self.sim.now
        plan, reason = self.kernel.batch_plan()
        if plan is None:
            yield from self._fallback(reason, self._iteration_tags())
            return
        # Exclusivity gate: Phase A reads backing stores at plan time and
        # Phase B owns the timeline, so the launch must be alone on the
        # simulator with memory quiesced.
        reason = self._exclusive_reason()
        if reason is not None:
            yield from self._fallback(reason, self._iteration_tags(),
                                      ops=plan.op_count)
            return
        tags = list(self._iteration_tags())
        self._replay = LaunchReplay(self)
        try:
            rows = self._plan_rows(plan, tags)
        except _BatchAbort as abort:
            # Phase A is side-effect-free, so the materialized tag list can
            # be replayed through the ordinary stepping path verbatim.
            self.batch.divergence += 1
            self._emit("batch.divergence", abort.reason, len(tags))
            yield from self._fallback(abort.reason, tags, rows=len(tags),
                                      ops=plan.op_count)
            return
        self.batch.mode = "table"
        self.batch.rows = len(tags)
        self.batch.ops = plan.op_count
        self._emit("batch.launch", "", 1, len(tags), plan.op_count)
        self._replay.run_planned(rows)
        return
        yield  # pragma: no cover - makes _launcher a generator either way

    def _fallback(self, reason: str, space: Any, rows: int = 0,
                  ops: int = 0) -> Generator:
        self.batch.mode = "fallback"
        self.batch.reason = reason
        self.batch.rows = rows
        self.batch.ops = ops
        self._emit("batch.launch", reason, 0, rows, ops)
        yield from self._launch_space(space)

    def _emit(self, schema: str, site: str = "", *values: int) -> None:
        # Values are positional in schema field order (batch.launch:
        # mode/rows/ops; batch.divergence: rows), via a bound writer per
        # schema so the hot fallback path skips record construction.
        hub = self.fabric.trace
        if hub is None:
            return
        writer = self._writers.get(schema)
        if writer is None or writer.hub is not hub:
            writer = hub.writer(schema, kernel=self.kernel.name,
                                cu=self.instance.compute_id)
            self._writers[schema] = writer
        writer.write_to(site, self.sim.now, *values)

    # -- Phase A: columnar value execution (no shared side effects) --------

    def _plan_rows(self, plan: Any, tags: List[Any]) -> List[Row]:
        try:
            rows = []
            template = None
            for tag in tags:
                ctx = KernelContext(self.instance, iteration=tag)
                if template is None:
                    # Bindings depend only on launch args/defines/channels,
                    # not the iteration tag: build one frame and copy it.
                    template = plan.make_frame(self.kernel._bindings(ctx))
                rows.append(Row(tag, ctx, template[:]))
            if rows:
                ctl = self._exec_nodes(plan.nodes, rows)
                if ctl is not None and ctl != _RET:
                    raise _BatchAbort("stray control code at body top level")
            return rows
        except _BatchAbort:
            raise
        except BaseException as exc:
            # Any body exception (bad index, missing buffer, arithmetic
            # error, ...) aborts the attempt; the fallback re-run raises
            # the same error with the oracle's exact failure semantics.
            raise _BatchAbort(f"body raised {type(exc).__name__}") from exc

    def _exec_nodes(self, nodes: tuple, rows: List[Row],
                    start: int = 0) -> Optional[int]:
        memory = self.fabric.memory
        replay = self._replay
        read, written = self._b_read, self._b_written
        index = start
        count = len(nodes)
        while index < count:
            node = nodes[index]
            index += 1
            kind = node.kind
            if kind == 0:                                   # BPure
                fn = node.fn
                first = rows[0]
                ctl = fn(first.frame, first.ctx)
                for row in rows[1:]:
                    if fn(row.frame, row.ctx) != ctl:
                        raise _BatchAbort("control-flow divergence")
                if ctl is not None:
                    return ctl
            elif kind == 1:                                 # BLoad
                index_fn = node.index_fn
                base, dst = node.base_slot, node.dst_slot
                box = replay.site_box(node.site, "load")
                counts = replay.counts
                name = None
                for row in rows:
                    frame = row.frame
                    buffer_name = frame[base]
                    if buffer_name is not name:
                        name = buffer_name
                        store = memory.buffer(name)
                        itemsize = store.itemsize
                        base_address = store.base_address
                        values, size = self._buffer_values(name, store)
                        traffic = replay.traffic.setdefault(
                            name, [0, 0, 0, 0])
                        read_set = read.setdefault(name, set())
                        written_set = written.get(name)
                    element = index_fn(frame, row.ctx)
                    if type(element) is not int:
                        element = int(element)
                    if element < 0 or element >= size:
                        raise _BatchAbort("index out of range")
                    if written_set is not None and element in written_set:
                        raise _BatchAbort("read-after-write hazard")
                    read_set.add(element)
                    frame[dst] = values[element]
                    counts[0] += 1
                    counts[2] += itemsize
                    traffic[0] += 1
                    traffic[2] += itemsize
                    row.ops.append(
                        (box, base_address + element * itemsize, None, 0,
                         None))
            elif kind == 2:                                 # BStore
                index_fn, value_fn = node.index_fn, node.value_fn
                base = node.base_slot
                box = replay.site_box(node.site, "store")
                counts = replay.counts
                name = None
                for row in rows:
                    frame = row.frame
                    buffer_name = frame[base]
                    if buffer_name is not name:
                        name = buffer_name
                        store = memory.buffer(name)
                        itemsize = store.itemsize
                        base_address = store.base_address
                        size = store.size
                        traffic = replay.traffic.setdefault(
                            name, [0, 0, 0, 0])
                        written_set = written.setdefault(name, set())
                        read_set = read.get(name)
                    element = index_fn(frame, row.ctx)
                    if type(element) is not int:
                        element = int(element)
                    value = value_fn(frame, row.ctx)
                    if element < 0 or element >= size:
                        raise _BatchAbort("index out of range")
                    if read_set is not None and element in read_set:
                        # The earlier load's in-flight completion could
                        # land after this store's commit: value unsafe.
                        raise _BatchAbort("write-after-read hazard")
                    written_set.add(element)
                    counts[1] += 1
                    counts[3] += itemsize
                    traffic[1] += 1
                    traffic[3] += itemsize
                    row.ops.append(
                        (box, base_address + element * itemsize, store,
                         element, value))
            elif kind == 3:                                 # BIf
                cond_fn = node.cond_fn
                first = rows[0]
                taken = bool(cond_fn(first.frame, first.ctx))
                for row in rows[1:]:
                    if bool(cond_fn(row.frame, row.ctx)) != taken:
                        raise _BatchAbort("control-flow divergence")
                ctl = self._exec_nodes(
                    node.then_nodes if taken else node.else_nodes, rows)
                if ctl is not None:
                    return ctl
            elif kind == 4:                                 # BLoop
                body = node.nodes
                continue_index = node.continue_index
                while True:
                    ctl = self._exec_nodes(body, rows)
                    if ctl == _CNT:
                        ctl = self._exec_nodes(body, rows,
                                               start=continue_index)
                    if ctl is None:
                        continue
                    if ctl == _BRK or ctl == _EXIT:
                        break
                    return ctl                              # _RET propagates
            else:                                           # BTest (kind 5)
                cond_fn = node.cond_fn
                first = rows[0]
                live = bool(cond_fn(first.frame, first.ctx))
                for row in rows[1:]:
                    if bool(cond_fn(row.frame, row.ctx)) != live:
                        raise _BatchAbort("control-flow divergence")
                if not live:
                    return _EXIT
        return None

    def _buffer_values(self, name: str, store: Any) -> tuple:
        """Plan-time contents of ``name`` as ``(plain-list, size)``."""
        info = self._b_data.get(name)
        if info is None:
            info = self._b_data[name] = (store.data.tolist(), store.size)
        return info
