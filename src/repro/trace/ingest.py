"""Batched columnar trace ingest: the hub's hot write path.

A one-record-at-a-time ingest pays one
:class:`~repro.trace.schema.TraceRecord` object, one ``schema.pack``
dict walk, and one per-sink dispatch call per event, then re-walks every
record again when a :class:`~repro.trace.columnar.ColumnarSink` seals a
flush. Here producer streams append *directly* into per-column
``array('q')`` builders — no record object, no dict pack — and a hub
flush hands each batch-aware sink a finished in-memory
:class:`~repro.trace.columnar.Segment` whose serialization is a few
``memoryview``-sized copies.

Two classes implement it:

* :class:`ColumnBuilder` — one per schema per hub: the growing column
  arrays plus the segment string dictionary, interned in exact record
  arrival order so a sealed segment is byte-identical to what
  ``Segment.from_records`` would have produced from the same stream.
* :class:`TraceWriter` — the bound-writer handle returned by
  ``hub.writer(schema, kernel=, cu=, site=)``: caches the interned
  kernel/site dictionary ids between seals (builders bump an ``epoch``
  when sealed) so the per-event cost is a handful of array appends.

Equivalence with per-record ingest — byte-identical ``.ctb`` output,
identical ``hub.counts``, identical query rows — is pinned by
``tests/test_prop_trace_ingest.py`` against the per-record sink oracle
in ``tests/trace_oracle.py``.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import TraceSchemaError
from repro.trace.schema import TraceRecord, TraceSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hub -> ingest)
    from repro.trace.hub import TraceHub


class ColumnBuilder:
    """Growing column arrays for one schema's records on one hub.

    Appends go straight into ``array('q')`` columns in on-disk order
    (``ts, kernel, cu, site, <payload fields>``); ``kernel``/``site``
    hold ids into the builder's string dictionary, interned at first
    occurrence in record order — the exact dictionary
    ``Segment.from_records`` builds, which is what keeps batched
    ``.ctb`` files byte-identical to per-record ones. Timestamp
    stats (min/max/monotone) are tracked incrementally so sealing is
    O(columns), not O(rows).
    """

    __slots__ = ("schema", "name", "fields", "arrays", "strings",
                 "_string_ids", "rows", "epoch", "_window",
                 "_min_ts", "_max_ts", "_prev_ts", "_monotone")

    def __init__(self, schema: TraceSchema, window: List["ColumnBuilder"]):
        self.schema = schema
        self.name = schema.name
        self.fields = schema.fields
        #: Shared hub list of builders with pending rows (appearance
        #: order = segment order of the next seal). The list object is
        #: stable for the hub's lifetime; seals empty it in place.
        self._window = window
        #: Bumped on every seal; writers re-intern their cached ids
        #: when their snapshot goes stale.
        self.epoch = 0
        self._reset()

    def _reset(self) -> None:
        self.arrays = [array("q") for _ in range(4 + len(self.fields))]
        self.strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        self.rows = 0
        self._min_ts = 0
        self._max_ts = 0
        self._prev_ts = 0
        self._monotone = True

    def intern(self, text: str) -> int:
        """Dictionary id for ``text`` (assigned at first occurrence)."""
        index = self._string_ids.get(text)
        if index is None:
            index = self._string_ids[text] = len(self.strings)
            self.strings.append(text)
        return index

    def append(self, ts, kernel_id: int, cu, site_id: int,
               values: Sequence) -> None:
        """Append one row (kernel/site already interned).

        The fast path hands values straight to ``array('q')`` (which
        accepts any exact integer); non-int inputs (floats, bools with
        odd subclasses) drop to a slow retry that applies the record
        path's ``int()`` coercion, and int64 overflow raises the same
        :class:`~repro.errors.TraceStoreError` ``Segment.from_records``
        would.
        """
        arrays = self.arrays
        rows = self.rows
        try:
            arrays[0].append(ts)
            arrays[1].append(kernel_id)
            arrays[2].append(cu)
            arrays[3].append(site_id)
            index = 4
            for value in values:
                arrays[index].append(value)
                index += 1
        except (OverflowError, TypeError):
            ts = self._append_coerced(rows, ts, kernel_id, cu, site_id,
                                      values)
        else:
            if type(ts) is not int:
                # array('q') normalized it; keep stats as plain ints so
                # the footer JSON never sees a foreign integer type.
                ts = arrays[0][rows]
        if rows:
            if ts < self._prev_ts:
                self._monotone = False
            if ts < self._min_ts:
                self._min_ts = ts
            elif ts > self._max_ts:
                self._max_ts = ts
            self._prev_ts = ts
        else:
            self._window.append(self)
            self._min_ts = self._max_ts = self._prev_ts = ts
        self.rows = rows + 1

    def _append_coerced(self, rows: int, ts, kernel_id: int, cu,
                        site_id: int, values: Sequence) -> int:
        """Slow retry: undo the partial row, coerce via ``int()``, raise
        the record path's error for values outside int64."""
        from repro.trace.columnar import _check_int64

        for column in self.arrays:
            del column[rows:]
        # Validate the full row before touching the arrays again, so a
        # failing row leaves the builder exactly as it was.
        ts = _check_int64(int(ts), "ts")
        cu = _check_int64(int(cu), "cu")
        coerced = [_check_int64(int(value), name)
                   for name, value in zip(self.fields, values)]
        arrays = self.arrays
        arrays[0].append(ts)
        arrays[1].append(kernel_id)
        arrays[2].append(cu)
        arrays[3].append(site_id)
        index = 4
        for value in coerced:
            arrays[index].append(value)
            index += 1
        return ts

    def seal(self):
        """Freeze pending rows into a Segment; reset for the next window.

        The builder must hold at least one row (the hub only seals
        builders registered in the current window).
        """
        from repro.trace.columnar import Segment

        columns = {"ts": self.arrays[0], "kernel": self.arrays[1],
                   "cu": self.arrays[2], "site": self.arrays[3]}
        for index, name in enumerate(self.fields):
            columns[name] = self.arrays[4 + index]
        segment = Segment(self.name, self.fields, self.strings, columns,
                          min_ts=self._min_ts, max_ts=self._max_ts,
                          ts_monotone=self._monotone)
        self.epoch += 1
        self._reset()
        return segment


class TraceWriter:
    """A bound producer stream: ``hub.writer(schema, kernel=, cu=, site=)``.

    ``write(ts, *values)`` publishes one record with the bound
    kernel/cu/site; ``values`` are positional in schema field order.
    With only batch-aware sinks attached this is the zero-object fast
    path (a handful of array appends); when per-record sinks are
    attached (``hub.records``, third-party sinks) the record is
    additionally materialized and delivered synchronously.

    :meth:`write_to` is the varying-site sibling for producers whose
    site changes per record (vendor counters) but whose kernel is fixed.
    """

    __slots__ = ("_hub", "_schema", "_name", "_kernel", "_cu", "_site",
                 "_nfields", "_builder", "_epoch", "_kid", "_sid",
                 "_to_epoch", "_to_kid", "_batch_sinks", "_record_sinks",
                 "_counts")

    def __init__(self, hub: "TraceHub", schema: TraceSchema, kernel: str,
                 cu: int, site: str) -> None:
        self._hub = hub
        self._schema = schema
        self._name = schema.name
        self._kernel = str(kernel)
        self._cu = int(cu)
        self._site = str(site)
        self._nfields = len(schema.fields)
        self._builder = hub._builder_for(schema)
        # Stable hub structures (mutated in place, never reassigned):
        # binding them here saves one indirection per write.
        self._batch_sinks = hub._batch_sinks
        self._record_sinks = hub._record_sinks
        self._counts = hub.counts
        self._epoch = -1
        self._kid = 0
        self._sid = 0
        # write_to keeps its own kernel-id cache so mixing write() and
        # write_to() on one writer never reuses a stale site id.
        self._to_epoch = -1
        self._to_kid = 0

    @property
    def schema(self) -> TraceSchema:
        """The schema this writer publishes."""
        return self._schema

    @property
    def hub(self) -> "TraceHub":
        """The hub this writer publishes into."""
        return self._hub

    def write(self, ts, *values) -> Optional[TraceRecord]:
        """Publish one record; returns it only when one was materialized.

        On the batch fast path no :class:`TraceRecord` exists, so the
        return value is ``None``; per-record consumers should attach a
        record sink (or use ``hub.emit``) instead of relying on it.
        """
        hub = self._hub
        if hub._closed:
            raise TraceSchemaError("cannot emit on a closed TraceHub")
        if len(values) != self._nfields:
            raise TraceSchemaError(
                f"schema {self._name!r} expects {self._nfields} values, "
                f"got {len(values)}")
        if self._batch_sinks:
            builder = self._builder
            if builder.epoch != self._epoch:
                self._kid = builder.intern(self._kernel)
                self._sid = builder.intern(self._site)
                self._epoch = builder.epoch
            builder.append(ts, self._kid, self._cu, self._sid, values)
        record = None
        if self._record_sinks:
            record = TraceRecord(
                schema=self._name, ts=int(ts), kernel=self._kernel,
                cu=self._cu, site=self._site,
                values=tuple(int(value) for value in values))
            for sink in self._record_sinks:
                sink.on_record(self._schema, record)
        counts = self._counts
        try:
            counts[self._name] += 1
        except KeyError:
            counts[self._name] = 1
        hub._pending_rows += 1
        if hub._flush_rows and hub._pending_rows >= hub._flush_rows:
            hub.flush()
        return record

    def write_to(self, site: str, ts, *values) -> Optional[TraceRecord]:
        """Publish one record at an explicit ``site`` (kernel/cu bound).

        The site string is interned per call — still far cheaper than
        the record path, for producers like the vendor profiler whose
        site varies row to row.
        """
        hub = self._hub
        if hub._closed:
            raise TraceSchemaError("cannot emit on a closed TraceHub")
        if len(values) != self._nfields:
            raise TraceSchemaError(
                f"schema {self._name!r} expects {self._nfields} values, "
                f"got {len(values)}")
        site = str(site)
        if self._batch_sinks:
            builder = self._builder
            if builder.epoch != self._to_epoch:
                self._to_kid = builder.intern(self._kernel)
                self._to_epoch = builder.epoch
            builder.append(ts, self._to_kid, self._cu,
                           builder.intern(site), values)
        record = None
        if self._record_sinks:
            record = TraceRecord(
                schema=self._name, ts=int(ts), kernel=self._kernel,
                cu=self._cu, site=site,
                values=tuple(int(value) for value in values))
            for sink in self._record_sinks:
                sink.on_record(self._schema, record)
        counts = self._counts
        try:
            counts[self._name] += 1
        except KeyError:
            counts[self._name] = 1
        hub._pending_rows += 1
        if hub._flush_rows and hub._pending_rows >= hub._flush_rows:
            hub.flush()
        return record
