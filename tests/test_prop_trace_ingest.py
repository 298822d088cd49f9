"""Property tests: batch columnar ingest is equivalent to per-record ingest.

The equivalence contract: for any event stream — mixed/dynamic schemas,
arbitrary labels and int64 payloads, mid-segment flushes — a
:class:`ColumnarSink` fed sealed batches by the hub must write a
byte-identical ``.ctb`` bundle, with identical ``hub.counts``/
``hub.records`` and identical :class:`TraceQuery` rows, to the
per-record oracle (:class:`~tests.trace_oracle.RecordColumnarSink`,
which the same hub feeds one record at a time). The binary segment
frames used by the server IPC must carry exactly the segment's column
bytes. The acceptance floor (>= 5x ingest throughput) is gated at the
end.

Example budget: ``TRACE_INGEST_EXAMPLES`` (default 60); CI runs a
deep sweep at 300.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.trace import (
    ColumnarStore,
    SchemaRegistry,
    TraceQuery,
    TraceRecord,
    TraceSchema,
)
from repro.trace.columnar import ColumnarSink, Segment
from repro.trace.hub import TraceHub, TraceSink
from tests.trace_oracle import RecordColumnarSink

MAX_EXAMPLES = int(os.environ.get("TRACE_INGEST_EXAMPLES", "60"))

_INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_TS = st.integers(min_value=0, max_value=2 ** 48)
# A small pool forces dictionary-interning collisions; the text draw
# covers arbitrary labels.
_LABEL = st.one_of(
    st.sampled_from(("", "matvec", "spmv", "lsu0", "ch:out")),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=6))

#: (name, fields); the last entry is registered lazily via
#: ``ensure_schema`` mid-stream — the dynamic (ibuffer-layout) path.
_SCHEMA_POOL = (
    ("prop.one", ("a",)),
    ("prop.three", ("a", "b", "c")),
    ("prop.dyn", ("alpha", "beta")),
)
_FLUSH_ROWS = st.sampled_from((0, 1, 3, 7))


@st.composite
def _event_stream(draw):
    """A mixed-schema stream of (name, fields, ts, kernel, cu, site, values)."""
    count = draw(st.integers(min_value=0, max_value=40))
    events = []
    for _ in range(count):
        name, fields = draw(st.sampled_from(_SCHEMA_POOL))
        events.append((name, fields, draw(_TS), draw(_LABEL),
                       draw(st.integers(min_value=0, max_value=7)),
                       draw(_LABEL),
                       tuple(draw(_INT64) for _ in fields)))
    return events


def _replay(events, sink_class, flush_rows, path):
    """Run one stream through a hub+sink; returns (bytes, counts, records)."""
    hub = TraceHub(SchemaRegistry(builtins=False), flush_rows=flush_rows)
    for name, fields in _SCHEMA_POOL[:2]:
        hub.register(TraceSchema(name, fields))
    hub.attach(sink_class(path, hub.registry))
    for name, fields, ts, kernel, cu, site, values in events:
        if name == "prop.dyn":
            hub.ensure_schema(name, fields)
        hub.emit(name, ts, kernel=kernel, cu=cu, site=site,
                 **dict(zip(fields, values)))
    records = list(hub.records)
    counts = dict(hub.counts)
    hub.close()
    if os.path.exists(path):
        with open(path, "rb") as handle:
            return handle.read(), counts, records
    return b"", counts, records


class TestIngestEquivalence:
    @given(_event_stream(), _FLUSH_ROWS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_modes_byte_identical(self, events, flush_rows):
        """Batch and per-record ingest write the same bundle, rows, counts."""
        with tempfile.TemporaryDirectory() as tmp:
            batch = _replay(events, ColumnarSink, flush_rows,
                            os.path.join(tmp, "batch.ctb"))
            reference = _replay(events, RecordColumnarSink, flush_rows,
                                os.path.join(tmp, "reference.ctb"))
        assert batch[0] == reference[0]
        assert batch[1] == reference[1]
        assert batch[2] == reference[2]

    @given(_event_stream(), _FLUSH_ROWS)
    @settings(max_examples=max(4, MAX_EXAMPLES // 2), deadline=None)
    def test_query_rows_match_reference(self, events, flush_rows):
        """Loaded bundles answer queries identically across ingest paths."""
        with tempfile.TemporaryDirectory() as tmp:
            batch_path = os.path.join(tmp, "batch.ctb")
            reference_path = os.path.join(tmp, "reference.ctb")
            _replay(events, ColumnarSink, flush_rows, batch_path)
            _replay(events, RecordColumnarSink, flush_rows, reference_path)
            if not events:
                assert not os.path.exists(batch_path)
                assert not os.path.exists(reference_path)
                return
            batch_rows = TraceQuery(ColumnarStore.load(batch_path)).records()
            reference_rows = TraceQuery(
                ColumnarStore.load(reference_path)).records()
        assert batch_rows == reference_rows
        assert len(batch_rows) == len(events)

    @given(st.lists(st.tuples(_TS, _LABEL, _INT64, _INT64, _INT64),
                    max_size=30),
           _FLUSH_ROWS)
    @settings(max_examples=max(4, 2 * MAX_EXAMPLES // 3), deadline=None)
    def test_writer_api_matches_reference_emit(self, rows, flush_rows):
        """Bound writers (write/write_to) produce the per-record bundle."""
        def replay(sink_class, path):
            hub = TraceHub(SchemaRegistry(builtins=False),
                           keep_records=False, flush_rows=flush_rows)
            hub.register(TraceSchema("prop.three", ("a", "b", "c")))
            hub.attach(sink_class(path, hub.registry))
            bound = hub.writer("prop.three", kernel="k", cu=1, site="s0")
            roving = hub.writer("prop.three", kernel="k2", cu=2)
            for index, (ts, site, a, b, c) in enumerate(rows):
                if index % 2:
                    bound.write(ts, a, b, c)
                else:
                    roving.write_to(site, ts, a, b, c)
            hub.close()
            if not os.path.exists(path):
                return b""
            with open(path, "rb") as handle:
                return handle.read()

        with tempfile.TemporaryDirectory() as tmp:
            assert replay(ColumnarSink, os.path.join(tmp, "batch.ctb")) == \
                replay(RecordColumnarSink,
                       os.path.join(tmp, "reference.ctb"))

    @given(_event_stream())
    @settings(max_examples=max(4, MAX_EXAMPLES // 2), deadline=None)
    def test_legacy_sink_sees_identical_records_on_batch_hub(self, events):
        """The on_batch shim replays exactly the per-record stream."""
        class Replayed(TraceSink):
            accepts_batches = True     # but only on_record is overridden

            def __init__(self):
                self.records = []

            def on_record(self, schema, record):
                self.records.append(record)

        shim = Replayed()
        hub = TraceHub(SchemaRegistry(builtins=False))
        for name, fields in _SCHEMA_POOL[:2]:
            hub.register(TraceSchema(name, fields))
        hub.attach(shim)
        for name, fields, ts, kernel, cu, site, values in events:
            if name == "prop.dyn":
                hub.ensure_schema(name, fields)
            hub.emit(name, ts, kernel=kernel, cu=cu, site=site,
                     **dict(zip(fields, values)))
        expected = list(hub.records)
        hub.close()
        # Shim delivery is batch-at-seal: schema-grouped per window
        # (first-appearance order), stream order kept within a schema.
        assert len(shim.records) == len(expected)
        for name, _ in _SCHEMA_POOL:
            assert [r for r in shim.records if r.schema == name] == \
                [r for r in expected if r.schema == name]


class TestBinaryFrameEncoding:
    @given(st.lists(st.tuples(_TS, _LABEL, st.integers(0, 7), _LABEL,
                              _INT64, _INT64),
                    max_size=20))
    @settings(max_examples=max(4, 2 * MAX_EXAMPLES // 3), deadline=None)
    def test_binary_wire_form_carries_segment_bytes(self, rows):
        registry = SchemaRegistry(builtins=False)
        schema = registry.ensure("prop.wire", ("alpha", "beta"))
        records = [TraceRecord("prop.wire", ts=ts, kernel=kernel, cu=cu,
                               site=site, values=(alpha, beta))
                   for ts, kernel, cu, site, alpha, beta in rows]
        segment = Segment.from_records(schema, records)
        payload = segment.payload_bytes()

        header = protocol.segment_header(segment, len(payload))
        json.loads(json.dumps(header))           # stays a pure JSON header
        assert header["length"] == len(payload)
        from_binary = protocol.segment_from_header(header, payload)

        assert from_binary.payload_bytes() == payload
        assert [from_binary.record(i) for i in range(from_binary.rows)] == \
            records


def _publish_ingest_batch(hub, rows: int) -> None:
    """The batch-path producer loop: one bound writer, positional values."""
    writer = hub.writer("latency.sample", kernel="matvec", cu=0, site="lsu0")
    write = writer.write
    for index in range(rows):
        write(index, index, index + 7, 7, index & 255, (index + 7) & 255)


def _publish_ingest_reference(hub, rows: int) -> None:
    """The per-record producer loop: ``hub.emit`` with keyword fields."""
    emit = hub.emit
    for index in range(rows):
        emit("latency.sample", index, kernel="matvec", cu=0, site="lsu0",
             start_cycle=index, end_cycle=index + 7, latency=7,
             start_value=index & 255, end_value=(index + 7) & 255)


def _ingest_seconds(oracle: bool, rows: int, path: str) -> float:
    """Publish ``rows`` through a capture-only hub into a ``.ctb`` at
    ``path``, timing the whole pipeline including the flush to disk.

    ``oracle`` runs the per-record path: ``hub.emit`` into a
    :class:`RecordColumnarSink`; otherwise a bound writer feeds the
    column builders of a :class:`ColumnarSink`.
    """
    hub = TraceHub(keep_records=False)
    sink_class = RecordColumnarSink if oracle else ColumnarSink
    hub.attach(sink_class(path, hub.registry))
    publish = _publish_ingest_reference if oracle else _publish_ingest_batch
    start = time.perf_counter()
    publish(hub, rows)
    hub.close()
    return time.perf_counter() - start


class TestTraceIngestGate:
    def test_batch_ingest_speedup_floor(self, tmp_path):
        """The acceptance floor: >= 5x ingest throughput over the
        per-record oracle on ~1M synthetic rows, with a byte-identical
        ``.ctb``.

        The batch leg runs a bound writer into a :class:`ColumnarSink`
        (the configuration sweep workers and server jobs run); the
        reference leg runs ``hub.emit`` (one TraceRecord and one
        ``schema.pack`` dict walk per row) into the per-record
        :class:`RecordColumnarSink` over a smaller, rate-normalized
        sample. The legs alternate, three runs each over distinct output
        files (the sink appends to an existing bundle), and each side
        takes its best: scheduler stalls only ever inflate a run, and
        alternating spreads a slow spell of a shared machine over both
        sides.
        """
        batch_rows = 1 << 20
        reference_rows = 1 << 17
        batch_s = reference_s = float("inf")
        for attempt in range(3):
            batch_s = min(batch_s, _ingest_seconds(
                False, batch_rows, str(tmp_path / f"batch.{attempt}")))
            reference_s = min(reference_s, _ingest_seconds(
                True, reference_rows, str(tmp_path / f"reference.{attempt}")))
        _ingest_seconds(False, reference_rows, str(tmp_path / "identity"))
        assert (tmp_path / "identity").read_bytes() == \
            (tmp_path / "reference.0").read_bytes(), \
            "batch-ingest .ctb is not byte-identical to the reference path"

        batch_rate = batch_rows / batch_s
        reference_rate = reference_rows / reference_s
        assert batch_rows >= 1_000_000
        assert batch_rate / reference_rate >= 5.0, (
            f"batch ingest speedup {batch_rate / reference_rate:.2f}x "
            f"< 5x (batch {batch_rate:,.0f} vs reference "
            f"{reference_rate:,.0f} records/s)")
