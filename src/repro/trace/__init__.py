"""repro.trace — unified trace capture, columnar storage, and queries.

The observability substrate over every instrumentation source in the
reproduction:

* :mod:`repro.trace.schema` — typed record schemas + registry;
* :mod:`repro.trace.hub` — the streaming :class:`TraceHub` sources
  publish into, with attachable sinks;
* :mod:`repro.trace.columnar` — the zero-dependency ``.ctb`` columnar
  store (append-only segments, dictionary-encoded strings, footer index);
* :mod:`repro.trace.query` — :class:`TraceQuery` filters/aggregations and
  the bridges feeding the legacy :mod:`repro.analysis` paths;
* :mod:`repro.trace.engine` — the vectorized columnar execution engine
  every :class:`TraceQuery` runs on;
* :mod:`repro.trace.export` — Chrome trace-event (Perfetto) JSON plus
  CSV/JSON adapters;
* :mod:`repro.trace.capture` — per-source publish helpers.

Quickstart::

    from repro.trace import TraceHub, ColumnarSink, ColumnarStore, TraceQuery

    hub = TraceHub()
    hub.attach(ColumnarSink("run.ctb", hub.registry))
    result = sec51.run(trace=hub)       # sources publish during the run
    hub.close()                         # seals segments to disk

    store = ColumnarStore.load("run.ctb")
    per_site = (TraceQuery(store).schema("latency.sample")
                .aggregate("latency", by="site"))
"""

from repro.trace.columnar import (
    ColumnarSink,
    ColumnarStore,
    Segment,
    SegmentCollector,
)
from repro.trace.hub import MemorySink, TraceHub, TraceSink
from repro.trace.query import (
    Aggregate,
    TraceQuery,
    latency_samples,
    stored_order_records,
)
from repro.trace.schema import (
    BUILTIN_SCHEMAS,
    SchemaRegistry,
    TraceRecord,
    TraceSchema,
)

__all__ = [
    "Aggregate",
    "BUILTIN_SCHEMAS",
    "ColumnarSink",
    "ColumnarStore",
    "MemorySink",
    "SchemaRegistry",
    "Segment",
    "SegmentCollector",
    "TraceHub",
    "TraceQuery",
    "TraceRecord",
    "TraceSchema",
    "TraceSink",
    "latency_samples",
    "stored_order_records",
]
