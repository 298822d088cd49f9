"""The batch table: columnar lockstep over a whole launch.

The table is the first tier every
:class:`~repro.pipeline.engine.PipelineEngine` launch tries. It runs the
straight-line regions of a compiled kernel body once per *plan node*
across every work-item of the compute unit, instead of once per
work-item per op through the event loop. A table launch has two phases:

* **Phase A (values)** — every work-item gets one frame row; plan nodes
  execute columnar-style (node-major, rows inner). Pure segments touch
  only per-row state; memory ops read the backing stores directly and
  record ``(site, index)`` issue tuples per row. Rows that disagree at
  an ``if`` are split, and each arm runs over its own rows; a loop runs
  over a copy of its rows, from which the loop test drops each row
  whose condition fails. This stays exact:

  - a row's values depend only on its own frame and on plan-time
    memory, because a load of an element this launch wrote aborts
    (read-after-write) and a store to an element it read aborts
    (write-after-read);
  - so any read/write overlap on one element between two rows aborts,
    whichever arm Phase A runs first;
  - the order of stores to one element is set by Phase B's issue
    order, not by Phase A.

  This phase has **zero shared side effects**, so a ``break``,
  ``continue`` or ``return`` taken by only some rows, a hazard, or any
  exception can abort it and transparently hand the launch to the
  engine's next tier — reproducing exact oracle semantics, including
  the original failure mode.

* **Phase B (timing)** — the analytic launch replay of
  :mod:`repro.pipeline.replay` times the recorded ops: the launcher/LSU
  event choreography on a private heap, in the same ``(cycle,
  scheduling-order)`` sequence the real event loop would produce, with
  the posted-store commits landing in one real flush event. The same
  core replays replayable kernels from their body generators when
  the table does not apply.

The phases only run when the kernel lowered to a
:class:`~repro.frontend.codegen.BatchPlan` and the launch owns the
simulator (see :meth:`~repro.sim.core.Simulator.exclusive_reason`: an
empty event queue — a posted store still in flight is a scheduled
commit event — and no ``run(until=...)`` under way). Otherwise the
engine's next tier times the launch: the analytic replay of a
replayable kernel's bodies, or stepping. Python-IR kernels have no plan
compiler, so their launches never try the table and write no
``batch.*`` trace rows.

Equality with the reference op executor (``tests/executor_oracle.py``:
buffers, ``sim.now``, engine and LSU stats, LSU registration order,
iteration traces) is enforced by ``tests/test_prop_batch_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.pipeline.context import KernelContext
from repro.pipeline.replay import LaunchReplay, Row

#: Phase A control codes 1..3 mirror the closure backend's
#: ``_BRK/_CNT/_RET``; ``_EXIT`` is the loop-condition-failed code a
#: ``BTest`` returns (it never escapes the enclosing ``BLoop``).
_BRK, _CNT, _RET, _EXIT = 1, 2, 3, 4


class BatchAbort(Exception):
    """Phase A divergence/hazard: abort the table attempt; the engine's
    next tier times the launch."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class BatchStats:
    """Outcome of one launch's table attempt (``engine.batch``)."""

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


class PhaseA:
    """Phase A of one table launch: every work-item's memory ops and
    values, columnar, with no shared side effects.

    :meth:`rows` fills ``replay``'s LSU boxes and counters and returns
    the rows :meth:`~repro.pipeline.replay.LaunchReplay.run_planned`
    times, or raises :class:`BatchAbort`.
    """

    def __init__(self, engine: Any, replay: LaunchReplay) -> None:
        self.engine = engine
        self.replay = replay
        # Intra-launch hazard sets: buffer name -> element indices.
        self._read: Dict[str, set] = {}
        self._written: Dict[str, set] = {}
        # Plan-time buffer snapshots: name -> (values-as-list, size). Loads
        # never observe this launch's own stores (RAW aborts), so reading
        # the plan-time contents is exact — and a plain list indexes far
        # faster than per-element ``ndarray.item()`` calls.
        self._data: Dict[str, tuple] = {}

    def rows(self, plan: Any, tags: List[Any]) -> List[Row]:
        try:
            rows = []
            template = None
            instance = self.engine.instance
            for tag in tags:
                ctx = KernelContext(instance, iteration=tag)
                if template is None:
                    # Bindings depend only on launch args/defines/channels,
                    # not the iteration tag: build one frame and copy it.
                    template = plan.make_frame(
                        self.engine.kernel._bindings(ctx))
                rows.append(Row(tag, ctx, template[:]))
            if rows:
                ctl = self._exec_nodes(plan.nodes, rows)
                if ctl is not None and ctl != _RET:
                    raise BatchAbort("stray control code at body top level")
            return rows
        except BatchAbort:
            raise
        except Exception as exc:
            # Any body exception (bad index, missing buffer, arithmetic
            # error, ...) aborts the attempt; the stepped re-run raises
            # the same error with the oracle's exact failure semantics.
            # KeyboardInterrupt and SystemExit propagate: no re-run.
            raise BatchAbort(f"body raised {type(exc).__name__}") from exc

    def _exec_nodes(self, nodes: tuple, rows: List[Row],
                    start: int = 0) -> Optional[int]:
        memory = self.engine.fabric.memory
        replay = self.replay
        read, written = self._read, self._written
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
                        raise BatchAbort("control-flow divergence")
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
                        raise BatchAbort("index out of range")
                    if written_set is not None and element in written_set:
                        raise BatchAbort("read-after-write hazard")
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
                        raise BatchAbort("index out of range")
                    if read_set is not None and element in read_set:
                        # The earlier load's in-flight completion could
                        # land after this store's commit: value unsafe.
                        raise BatchAbort("write-after-read hazard")
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
                then_rows: List[Row] = []
                else_rows: List[Row] = []
                for row in rows:
                    if cond_fn(row.frame, row.ctx):
                        then_rows.append(row)
                    else:
                        else_rows.append(row)
                if not else_rows:
                    ctl = self._exec_nodes(node.then_nodes, rows)
                elif not then_rows:
                    ctl = self._exec_nodes(node.else_nodes, rows)
                else:
                    # Rows disagree: each arm runs over its own rows.
                    ctl = self._exec_nodes(node.then_nodes, then_rows)
                    if self._exec_nodes(node.else_nodes, else_rows) != ctl:
                        # break/continue/return taken by only some rows.
                        raise BatchAbort("control-flow divergence")
                if ctl is not None:
                    return ctl
            elif kind == 4:                                 # BLoop
                body = node.nodes
                continue_index = node.continue_index
                # The body's BTest narrows this copy to the rows still
                # looping; the nodes after the loop see all of ``rows``.
                active = list(rows)
                while True:
                    ctl = self._exec_nodes(body, active)
                    if ctl == _CNT:
                        ctl = self._exec_nodes(body, active,
                                               start=continue_index)
                    if ctl is None:
                        continue
                    if ctl == _BRK or ctl == _EXIT:
                        break
                    if len(active) != len(rows):
                        # Rows that left the loop earlier do not return.
                        raise BatchAbort("control-flow divergence")
                    return ctl                              # _RET propagates
            else:                                           # BTest (kind 5)
                # ``rows`` is the enclosing BLoop's ``active`` list: drop
                # the rows whose condition fails, in place.
                cond_fn = node.cond_fn
                live = [row for row in rows if cond_fn(row.frame, row.ctx)]
                if not live:
                    return _EXIT
                if len(live) != len(rows):
                    rows[:] = live
        return None

    def _buffer_values(self, name: str, store: Any) -> tuple:
        """Plan-time contents of ``name`` as ``(plain-list, size)``."""
        info = self._data.get(name)
        if info is None:
            info = self._data[name] = (store.data.tolist(), store.size)
        return info
