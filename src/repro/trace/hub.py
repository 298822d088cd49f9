"""The streaming trace hub: sources publish, sinks consume.

A :class:`TraceHub` is the single funnel every instrumentation source
emits typed records into. Sinks attached to the hub observe every record
as it is published — an in-memory sink is always present (``hub.records``),
and :class:`repro.trace.columnar.ColumnarSink` persists to disk. The hub
owns a :class:`~repro.trace.schema.SchemaRegistry` and validates each
emission against it, so a store never receives a malformed record.

Ingest data plane
-----------------

Producer streams append into per-schema column builders
(:mod:`repro.trace.ingest`); batch-aware sinks (``sink.accepts_batches``)
receive whole :class:`~repro.trace.columnar.Segment` batches at flush
time, while per-record sinks (:class:`MemorySink`, third-party sinks)
observe every record synchronously at emit time. ``hub.writer(...)``
returns a bound writer that skips record construction entirely when
only batch-aware sinks are attached.

``flush_rows=N`` seals and flushes every N published rows (0 = only at
close). A :class:`~repro.trace.columnar.ColumnarSink` fed record by
record (``accepts_batches = False``, the oracle in
``tests/trace_oracle.py``) writes the same ``.ctb`` bytes as one fed
sealed batches; ``tests/test_prop_trace_ingest.py`` pins that.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TraceSchemaError
from repro.trace.schema import SchemaRegistry, TraceRecord, TraceSchema


class TraceSink:
    """Consumer interface: override :meth:`on_record`; ``close`` optional.

    Sinks must never raise from ``on_record`` for well-formed records —
    tracing must not take down the run it observes.

    Sinks that can consume whole column batches set
    :attr:`accepts_batches` and override :meth:`on_batch`; the hub then
    hands them sealed
    :class:`~repro.trace.columnar.Segment` objects at flush time instead
    of per-record callbacks. The default :meth:`on_batch` shim replays a
    batch through :meth:`on_record`, so a sink may advertise
    ``accepts_batches`` and still observe identical records.
    """

    #: True for sinks that consume column batches via :meth:`on_batch`.
    accepts_batches = False

    def on_record(self, schema: TraceSchema, record: TraceRecord) -> None:
        """Observe one validated record (schema resolved by the hub)."""
        raise NotImplementedError

    def on_batch(self, schema: TraceSchema, segment) -> None:
        """Observe one sealed same-schema batch (a Segment).

        Fallback shim: replays the batch record by record through
        :meth:`on_record` so legacy sink logic sees identical records.
        """
        for index in range(segment.rows):
            self.on_record(schema, segment.record(index))

    def flush(self) -> None:
        """Persist buffered data, if any; called by :meth:`TraceHub.flush`."""

    def close(self) -> None:
        """Flush and release resources; called by :meth:`TraceHub.close`."""


class MemorySink(TraceSink):
    """Accumulates records in arrival order (the default hub sink)."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def on_record(self, schema: TraceSchema, record: TraceRecord) -> None:
        """Append the record to :attr:`records`."""
        self.records.append(record)


class TraceHub:
    """Publish/subscribe funnel for trace records.

    ``keep_records=True`` (default) attaches a :class:`MemorySink` so
    ``hub.records`` holds everything published; pass ``False`` for
    fire-and-forget streaming into explicit sinks only (and the fastest
    ingest path: with no per-record sink attached, bound writers never
    materialize record objects at all).
    """

    def __init__(self, registry: Optional[SchemaRegistry] = None,
                 keep_records: bool = True, *, flush_rows: int = 0) -> None:
        self.registry = registry if registry is not None else SchemaRegistry()
        #: Seal + flush every N published rows; 0 = only at close/flush().
        self.flush_rows = int(flush_rows)
        self._flush_rows = self.flush_rows
        self._pending_rows = 0
        self._sinks: List[TraceSink] = []
        #: Batch-aware sinks (receive Segments on seal).
        self._batch_sinks: List[TraceSink] = []
        #: Per-record sinks (synchronous on_record delivery).
        self._record_sinks: List[TraceSink] = []
        #: Column builders per schema name.
        self._builders: Dict[str, object] = {}
        #: Builders holding pending rows, in first-append order — the
        #: segment order of the next seal. The list object is shared
        #: with every builder and emptied in place on seal.
        self._window: List[object] = []
        self._memory: Optional[MemorySink] = None
        if keep_records:
            self._memory = MemorySink()
            self.attach(self._memory)
        #: Emission counts per schema name (cheap observability).
        self.counts: Dict[str, int] = {}
        self._closed = False

    # -- schema management ------------------------------------------------

    def register(self, schema: TraceSchema) -> TraceSchema:
        """Register a schema on the hub's registry (conflicts raise)."""
        return self.registry.register(schema)

    def ensure_schema(self, name: str, fields, doc: str = "") -> TraceSchema:
        """Register-if-absent (dynamic sources such as ibuffer layouts)."""
        return self.registry.ensure(name, fields, doc=doc)

    # -- sinks -------------------------------------------------------------

    def attach(self, sink: TraceSink) -> TraceSink:
        """Attach a sink; it observes all records published afterwards.

        Attaching a batch-aware sink first seals any pending window so
        the new sink only ever sees rows published after the attach
        (matching per-record attach semantics).
        """
        if getattr(sink, "accepts_batches", False):
            self._seal_pending()
            self._batch_sinks.append(sink)
        else:
            self._record_sinks.append(sink)
        self._sinks.append(sink)
        return sink

    def detach(self, sink: TraceSink) -> None:
        """Remove a previously attached sink (no-op if absent).

        A batch-aware sink receives rows published while it was attached:
        the pending window is sealed (and delivered) before removal.
        """
        if sink not in self._sinks:
            return
        if sink in self._batch_sinks:
            self._seal_pending()
            self._batch_sinks.remove(sink)
        else:
            self._record_sinks.remove(sink)
        self._sinks.remove(sink)

    # -- publishing --------------------------------------------------------

    def emit(self, schema_name: str, ts: int, *, kernel: str = "",
             cu: int = 0, site: str = "", **fields: int) -> TraceRecord:
        """Validate and publish one record; returns it.

        ``fields`` must exactly match the schema's payload fields. This
        is the validating convenience path; hot producers should hold a
        bound writer from :meth:`writer` instead.
        """
        if self._closed:
            raise TraceSchemaError("cannot emit on a closed TraceHub")
        schema = self.registry.get(schema_name)
        record = TraceRecord(schema=schema_name, ts=int(ts),
                             kernel=str(kernel), cu=int(cu), site=str(site),
                             values=schema.pack(fields))
        self._dispatch(schema, record)
        return record

    def emit_record(self, record: TraceRecord) -> TraceRecord:
        """Publish an already-built record (re-publishing between hubs)."""
        if self._closed:
            raise TraceSchemaError("cannot emit on a closed TraceHub")
        schema = self.registry.get(record.schema)
        if len(record.values) != len(schema.fields):
            raise TraceSchemaError(
                f"record has {len(record.values)} values; schema "
                f"{schema.name!r} declares {len(schema.fields)} fields")
        self._dispatch(schema, record)
        return record

    def writer(self, schema_name: str, *, kernel: str = "", cu: int = 0,
               site: str = ""):
        """A bound :class:`~repro.trace.ingest.TraceWriter` for one stream.

        ``writer.write(ts, *values)`` publishes with the bound
        kernel/cu/site; values are positional in schema field order.
        With only batch-aware sinks attached this skips record
        construction entirely (the hot path); per-record sinks still
        receive a materialized record per write.
        """
        if self._closed:
            raise TraceSchemaError(
                "cannot create a writer on a closed TraceHub")
        schema = self.registry.get(schema_name)
        from repro.trace.ingest import TraceWriter
        return TraceWriter(self, schema, kernel, cu, site)

    def _builder_for(self, schema: TraceSchema):
        builder = self._builders.get(schema.name)
        if builder is None:
            from repro.trace.ingest import ColumnBuilder
            builder = ColumnBuilder(schema, self._window)
            self._builders[schema.name] = builder
        return builder

    def _dispatch(self, schema: TraceSchema, record: TraceRecord) -> None:
        if self._batch_sinks:
            builder = self._builder_for(schema)
            builder.append(record.ts, builder.intern(record.kernel),
                           record.cu, builder.intern(record.site),
                           record.values)
        for sink in self._record_sinks:
            sink.on_record(schema, record)
        self.counts[schema.name] = self.counts.get(schema.name, 0) + 1
        self._pending_rows += 1
        if self._flush_rows and self._pending_rows >= self._flush_rows:
            self.flush()

    # -- flushing ----------------------------------------------------------

    def _seal_pending(self) -> None:
        """Seal every builder with pending rows into batch-sink Segments."""
        window = self._window
        if not window:
            return
        builders = window[:]
        del window[:]
        sinks = self._batch_sinks
        for builder in builders:
            segment = builder.seal()
            for sink in sinks:
                sink.on_batch(builder.schema, segment)

    def flush(self) -> None:
        """Seal pending column batches and flush every attached sink.

        Called automatically every ``flush_rows`` published rows (when
        configured) and harmless to call at any time; a closed hub
        ignores it (close already flushed).
        """
        if self._closed:
            return
        self._seal_pending()
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()
        self._pending_rows = 0

    # -- inspection --------------------------------------------------------

    @property
    def records(self) -> List[TraceRecord]:
        """Everything published so far (requires ``keep_records=True``)."""
        if self._memory is None:
            raise TraceSchemaError(
                "hub was created with keep_records=False; attach a sink")
        return self._memory.records

    def count(self, schema_name: Optional[str] = None) -> int:
        """Records published, total or for one schema."""
        if schema_name is None:
            return sum(self.counts.values())
        return self.counts.get(schema_name, 0)

    def close(self) -> None:
        """Seal pending batches and close every attached sink.

        Closing flushes columnar sinks to disk; the hub rejects further
        emissions afterwards. Idempotent.
        """
        if self._closed:
            return
        self._seal_pending()
        self._closed = True
        for sink in self._sinks:
            sink.close()
