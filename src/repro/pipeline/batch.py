"""The batch table: columnar lockstep over a whole launch.

The table is the first tier every
:class:`~repro.pipeline.engine.PipelineEngine` launch tries. It runs a
compiled kernel body once per *plan node* across every work-item of the
compute unit, instead of once per work-item per op through the event
loop. A table launch has two phases:

* **Phase A (values)** — a column executor. Each frame slot holds one
  value for every work-item: a uniform Python value, or a numpy column
  with one entry per row (:mod:`repro.pipeline.columns`). The *active
  rows* are a row-index set (every row at the top of the body); each
  plan node runs once over them:

  - a :class:`~repro.frontend.codegen.BPure` is a vector expression
    over the active rows' columns;
  - a ``BLoad`` gathers its elements from the plan-time buffer contents
    (widened at once to ``int64``/``float64``), a ``BStore`` records
    the elements and values it scatters; both record each row's access
    for Phase B;
  - a ``BIf`` splits the active rows by its condition and runs each arm
    over its own rows; a ``BLoop`` runs its body while rows remain, and
    its ``BTest`` drops the rows whose condition fails;
  - a ``return`` clears the rows taking it from the rest of the body, a
    ``break`` from the rest of its loop, a ``continue`` from the rest
    of the loop's body (they rejoin at the loop's step).

  Every column operation is exact-or-abort: for every active row it
  yields what the closure backend's scalar operation yields, or it
  raises :class:`BatchAbort` naming why (an ``int64`` overflow, a shift
  count outside 0-63, a zero divisor, a value outside ``int64``, a
  column mixing ints and floats). This stays exact:

  - a row's values depend only on its own slots and on plan-time
    memory, because a load of an element this launch wrote aborts
    (read-after-write) and a store to an element it read aborts
    (write-after-read);
  - so any read/write overlap on one element between two rows aborts,
    whichever arm Phase A runs first;
  - the order of stores to one element is set by Phase B's issue
    order, not by Phase A.

  This phase has **zero shared side effects**, so a hazard, an inexact
  column or any exception can abort it and transparently hand the
  launch to the engine's next tier — reproducing exact oracle
  semantics, including the original failure mode.

* **Phase B (timing)** — the analytic launch replay of
  :mod:`repro.pipeline.replay` times the recorded accesses: the
  launcher/LSU event choreography on a private heap, in the same
  ``(cycle, scheduling-order)`` sequence the real event loop would
  produce, with the posted-store commits landing in one real flush
  event. Phase A hands it its access records; on a miss of the
  timeline memo they become every row's accesses in body order as flat
  columns, sorted by row once with numpy. The memo's timing key holds
  the records' sites, kinds, buffers, rows and elements but no value
  (the loop never reads one), so a launch of an access stream already
  timed from the same relative start state skips the issue loop and
  still commits its own values. The same core replays replayable
  kernels from their body generators when the table does not apply.

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
iteration traces) is enforced by ``tests/test_prop_batch_equivalence.py``
and ``tests/test_prop_batch_columns.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.columns import (EMPTY, BatchAbort, Columns, fresh,
                                    index_of, operand, split, whole, widen)
from repro.pipeline.context import KernelContext
from repro.pipeline.replay import LaunchReplay

#: ``BExit`` codes, the closure backend's ``_BRK/_CNT/_RET``.
_BRK, _CNT, _RET = 1, 2, 3


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
    """Phase A of one table launch: every work-item's memory accesses
    and values, a column at a time, with no shared side effects.

    :meth:`run` fills ``replay``'s LSU boxes and counters and
    :attr:`records`, the accesses
    :meth:`~repro.pipeline.replay.LaunchReplay.run_planned` times, or
    raises :class:`BatchAbort`.
    """

    def __init__(self, engine: Any, replay: LaunchReplay) -> None:
        self.engine = engine
        self.replay = replay
        self.frame: Optional[Columns] = None
        # Per buffer name: (store, read flags, written flags, traffic).
        # The flags mark the elements this launch read/wrote so far.
        self._buffers: Dict[str, tuple] = {}
        #: Accesses in execution order: (box, store or None for a load,
        #: rows (None: every row), elements, stored values (None for a
        #: load), backing store).
        self.records: List[tuple] = []
        # Rows leaving the innermost loop by break (or its test) and by
        # continue; None outside every loop.
        self._brk: Optional[list] = None
        self._cnt: Optional[list] = None

    def run(self, plan: Any, tags: Sequence[Any]) -> None:
        """Run ``plan`` over the rows of ``tags``, filling :attr:`records`
        (every access, in execution order) and the replay's counters."""
        try:
            if not tags:
                return
            engine = self.engine
            instance = engine.instance
            # Bindings depend only on launch args/defines/channels, not
            # the iteration tag.
            bindings = engine.kernel._bindings(
                KernelContext(instance, iteration=tags[0]))
            self.frame = Columns(plan.make_frame(bindings), len(tags), tags,
                                 engine.fabric.memory, instance.compute_id)
            with np.errstate(all="ignore"):
                self._exec(plan.nodes, None)
        except BatchAbort:
            raise
        except Exception as exc:
            # Any body exception (bad index, missing buffer, arithmetic
            # error, ...) aborts the attempt; the stepped re-run raises
            # the same error with the oracle's exact failure semantics.
            # KeyboardInterrupt and SystemExit propagate: no re-run.
            raise BatchAbort(f"body raised {type(exc).__name__}") from exc

    # -- control flow --------------------------------------------------------

    def _exec(self, nodes: tuple, rows: Any) -> Any:
        """Run ``nodes`` over the active ``rows`` (None: every row);
        returns the rows that reach the end (:data:`EMPTY` if none)."""
        frame = self.frame
        for node in nodes:
            kind = node.kind
            if kind == 0:                                   # BPure
                node.fn(frame, rows)
            elif kind == 1:                                 # BLoad
                self._load(node, rows)
            elif kind == 2:                                 # BStore
                self._store(node, rows)
            elif kind == 3:                                 # BIf
                taken, other = split(node.cond_fn(frame, rows), rows,
                                     frame.all_rows)
                if taken is not EMPTY:
                    taken = self._exec(node.then_nodes, taken)
                if other is not EMPTY:
                    other = self._exec(node.else_nodes, other)
                rows = self._join([taken, other])
            elif kind == 4:                                 # BLoop
                rows = self._loop(node, rows)
            elif kind == 5:                                 # BTest
                rows, failed = split(node.cond_fn(frame, rows), rows,
                                     frame.all_rows)
                if failed is not EMPTY:
                    self._brk.append(failed)
            else:                                           # BExit
                code = node.code
                if code != _RET:
                    exits = self._brk if code == _BRK else self._cnt
                    if exits is None:
                        raise BatchAbort("break or continue outside a loop")
                    exits.append(rows)
                return EMPTY
            if rows is EMPTY:
                return EMPTY
        return rows

    def _loop(self, node: Any, rows: Any) -> Any:
        """Run a ``BLoop`` until no row is left in it; returns the rows
        that left by its test or a ``break``."""
        saved = self._brk, self._cnt
        self._brk = left = []
        head = node.nodes[:node.continue_index]
        step = node.nodes[node.continue_index:]
        while rows is not EMPTY:
            self._cnt = continued = []
            rows = self._exec(head, rows)
            if continued:
                rows = self._join([rows] + continued)
            if rows is not EMPTY and step:
                rows = self._exec(step, rows)
        self._brk, self._cnt = saved
        return self._join(left)

    def _join(self, parts: list) -> Any:
        """The union of disjoint row sets."""
        parts = [part for part in parts if part is not EMPTY]
        if not parts:
            return EMPTY
        if len(parts) == 1:
            return parts[0]
        if any(part is None for part in parts):
            return None
        rows = np.concatenate(parts)
        return None if len(rows) == self.frame.n else rows

    # -- memory --------------------------------------------------------------

    def _buffer(self, name: Any) -> tuple:
        entry = self._buffers.get(name)
        if entry is None:
            store = self.engine.fabric.memory.buffer(name)
            entry = self._buffers[name] = (
                store, np.zeros(store.size, dtype=bool),
                np.zeros(store.size, dtype=bool),
                self.replay.traffic.setdefault(name, [0, 0, 0, 0]))
        return entry

    def _elements(self, index: Any, rows: Any, store: Any) -> np.ndarray:
        """The active rows' element indices, bounds-checked."""
        index = index_of(whole(index), store.size)
        if type(index) is np.ndarray:
            return index
        return np.full(self.frame.n if rows is None else len(rows), index,
                       dtype=np.int64)

    def _load(self, node: Any, rows: Any) -> None:
        frame = self.frame
        store, read, written, traffic = self._buffer(frame[node.base_slot])
        elements = self._elements(node.index_fn(frame, rows), rows, store)
        if written[elements].any():
            raise BatchAbort("read-after-write hazard")
        read[elements] = True
        # The destination is a fresh temporary: only these rows read it.
        frame[node.dst_slot] = fresh(rows, widen(store.data[elements]),
                                     frame.n)
        self._record(node.site, "load", store, traffic, rows, elements, None)

    def _store(self, node: Any, rows: Any) -> None:
        frame = self.frame
        store, read, written, traffic = self._buffer(frame[node.base_slot])
        elements = self._elements(node.index_fn(frame, rows), rows, store)
        value = operand(node.value_fn(frame, rows))
        if read[elements].any():
            # The earlier load's in-flight completion could land after
            # this store's commit: value unsafe.
            raise BatchAbort("write-after-read hazard")
        written[elements] = True
        self._record(node.site, "store", store, traffic, rows, elements,
                     value)

    def _record(self, site: str, kind: str, store: Any, traffic: list,
                rows: Any, elements: np.ndarray, values: Any) -> None:
        replay = self.replay
        count = len(elements)
        size = count * store.itemsize
        counts = replay.counts
        if kind == "load":
            counts[0] += count
            counts[2] += size
            traffic[0] += count
            traffic[2] += size
        else:
            counts[1] += count
            counts[3] += size
            traffic[1] += count
            traffic[3] += size
        self.records.append((replay.site_box(site, kind),
                              None if kind == "load" else store, rows,
                              elements, values, store))

    # -- Phase B's view ------------------------------------------------------

    def commit_parts(self) -> list:
        """The stores' ``(backing store, elements, values)``, in record
        order: a store's position among their elements is its commit's
        (see :class:`~repro.memory.global_memory.CommitColumns`)."""
        return [(rec[5], rec[3], rec[4]) for rec in self.records
                if rec[1] is not None]

    def issue_order(self) -> Tuple[tuple, list]:
        """``(accesses, starts)``: the columns ``(boxes, addresses,
        stores, elements)`` of every row's accesses in body order, each
        row's followed by its end marker (box None, the row's index as
        its address), and the position of each row's first entry. A
        store's element entry is its position in :meth:`commit_parts`;
        a load's is unused."""
        frame = self.frame
        records = self.records
        if frame is None:
            return ([], [], [], []), []
        every = frame.all_rows()
        n = frame.n
        width = len(records) + 1
        stored = 0
        if all(rec[2] is None for rec in records):
            # Every row ran every access: a row's accesses are its row of
            # an (n, width) grid.
            addresses = np.empty((n, width), dtype=np.int64)
            elements = np.zeros((n, width), dtype=np.int64)
            for position, (_, target, _, index, _, store) in \
                    enumerate(records):
                addresses[:, position] = \
                    store.base_address + index * store.itemsize
                if target is not None:
                    elements[:, position] = every + stored
                    stored += n
            addresses[:, -1] = every
            return ((([rec[0] for rec in records] + [None]) * n,
                     addresses.ravel().tolist(),
                     ([rec[1] for rec in records] + [None]) * n,
                     elements.ravel().tolist()),
                    list(range(0, n * width, width)))
        # Phase A ran each row's accesses in its body order, so a stable
        # sort of all records by row gives each row's sequence.
        keys = [every if rec[2] is None else rec[2] for rec in records]
        keys.append(every)
        sizes = [len(key) for key in keys]
        boxes = np.empty(width, dtype=object)
        targets = np.empty(width, dtype=object)
        addresses = []
        positions = []
        for position, (box, target, _, index, _, store) in \
                enumerate(records):
            boxes[position] = box
            targets[position] = target
            addresses.append(store.base_address + index * store.itemsize)
            if target is None:
                positions.append(index)
            else:
                positions.append(np.arange(stored,
                                           stored + sizes[position]))
                stored += sizes[position]
        addresses.append(every)
        positions.append(every)
        rows = np.concatenate(keys)
        order = np.argsort(rows, kind="stable")
        record_of = np.repeat(np.arange(width), sizes)[order]
        per_row = np.bincount(rows, minlength=n)
        starts = np.concatenate(([0], np.cumsum(per_row)[:-1])).tolist()
        return (boxes[record_of].tolist(),
                np.concatenate(addresses)[order].tolist(),
                targets[record_of].tolist(),
                np.concatenate(positions)[order].tolist()), starts
