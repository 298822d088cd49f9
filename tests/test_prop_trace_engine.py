"""Property tests: the vectorized trace query engine equals the oracle.

:class:`TraceQuery` runs on segment pruning, match-index column sweeps,
and batch materialization; these tests pin it to the row-at-a-time
:class:`~tests.trace_oracle.ReferenceQuery` over random stores — mixed
schemas, empty segments, non-monotone ``ts``, ``where`` on payload and
standard columns, ``limit`` crossing segment boundaries — for every
execution method, including raised errors, and byte-equality of every
exporter against the row-dict oracle exporters. The in-memory and the
saved/loaded (zero-copy lazy decode) stores are both exercised.

Example budget: ``TRACE_ENGINE_EXAMPLES`` (default 60); CI runs a
dedicated step with a larger budget.
"""

from __future__ import annotations

import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.trace import ColumnarStore, SchemaRegistry, TraceRecord, TraceSchema
from repro.trace.columnar import Segment
from repro.trace.export import store_to_csv, store_to_json, to_chrome_json
from repro.trace.query import TraceQuery
from tests import trace_oracle
from tests.trace_oracle import ReferenceQuery

MAX_EXAMPLES = int(os.environ.get("TRACE_ENGINE_EXAMPLES", "60"))

_SCHEMA_NAMES = ("prop.alpha", "prop.beta", "prop.gamma")
_KERNELS = ("matvec", "stall_mon", "")
_SITES = ("site_a", "site_b", "")

_FIELD_NAMES = st.lists(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=6).filter(
        lambda s: s not in ("ts", "kernel", "cu", "site", "schema")),
    min_size=1, max_size=3, unique=True)

#: Small values so filters and ``where`` equalities actually match.
_VALUE = st.integers(min_value=-3, max_value=3)
_TS = st.integers(min_value=0, max_value=40)


@st.composite
def _stores(draw):
    """Random multi-segment store + its schemas, as (schemas, segments)."""
    schemas = [TraceSchema(name, tuple(draw(_FIELD_NAMES)))
               for name in _SCHEMA_NAMES[:draw(st.integers(1, 3))]]
    segments = []
    for _ in range(draw(st.integers(1, 5))):
        schema = draw(st.sampled_from(schemas))
        count = draw(st.integers(0, 8))
        ts_values = [draw(_TS) for _ in range(count)]
        if draw(st.booleans()):
            ts_values.sort()        # monotone segments hit the bisect path
        records = [
            TraceRecord(schema.name, ts=ts_values[i],
                        kernel=draw(st.sampled_from(_KERNELS)),
                        cu=draw(st.integers(0, 3)),
                        site=draw(st.sampled_from(_SITES)),
                        values=tuple(draw(_VALUE) for _ in schema.fields))
            for i in range(count)]
        segments.append(Segment.from_records(schema, records))
    return schemas, ColumnarStore(segments)


@st.composite
def _query_specs(draw, schemas):
    """One filter spec, applied once to the engine and once to the oracle."""
    field_pool = sorted({name for schema in schemas
                         for name in schema.fields})
    spec = {}
    if draw(st.booleans()):
        spec["schemas"] = draw(st.lists(
            st.sampled_from(_SCHEMA_NAMES + ("absent.schema",)),
            min_size=1, max_size=2))
    if draw(st.booleans()):
        spec["kernels"] = draw(st.lists(
            st.sampled_from(_KERNELS + ("absent_kernel",)),
            min_size=1, max_size=2))
    if draw(st.booleans()):
        spec["sites"] = draw(st.lists(
            st.sampled_from(_SITES + ("absent_site",)),
            min_size=1, max_size=2))
    if draw(st.booleans()):
        spec["cus"] = draw(st.lists(st.integers(0, 4),
                                    min_size=1, max_size=2))
    if draw(st.booleans()):
        spec["between"] = (draw(st.none() | _TS), draw(st.none() | _TS))
    if draw(st.booleans()):
        # ``where`` over payload fields and the standard columns alike
        # (kernel/site compare raw dictionary IDs in engine and oracle).
        names = draw(st.lists(
            st.sampled_from(field_pool + ["ts", "kernel", "cu", "site"]),
            min_size=1, max_size=2, unique=True))
        spec["where"] = {name: draw(_VALUE) for name in names}
    if draw(st.booleans()):
        # Includes the oracle's quirk: limit(0)/negative emits one row.
        spec["limit"] = draw(st.integers(-1, 12))
    return spec


def _build_query(store, spec, query_class):
    query = query_class(store)
    if "schemas" in spec:
        query.schema(*spec["schemas"])
    if "kernels" in spec:
        query.kernel(*spec["kernels"])
    if "sites" in spec:
        query.site(*spec["sites"])
    if "cus" in spec:
        query.cu(*spec["cus"])
    if "between" in spec:
        query.between(*spec["between"])
    if "where" in spec:
        query.where(**spec["where"])
    if "limit" in spec:
        query.limit(spec["limit"])
    return query


def _outcome(store, spec, query_class, run):
    """(tag, result) of one execution — errors compare like results."""
    try:
        return ("ok", run(_build_query(store, spec, query_class)))
    except (ReproError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _loaded_copy(store):
    """The store after a save/load round trip (zero-copy lazy decode)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prop.ctb")
        store.save(path)
        return ColumnarStore.load(path)


class TestEngineEquivalence:
    @given(_stores(), st.data())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_rows_records_count(self, bundle, data):
        schemas, store = bundle
        spec = data.draw(_query_specs(schemas))
        for candidate in (store, _loaded_copy(store)):
            for run in (lambda q: q.rows(), lambda q: q.records(),
                        lambda q: q.count()):
                assert _outcome(candidate, spec, TraceQuery, run) == \
                    _outcome(candidate, spec, ReferenceQuery, run)

    @given(_stores(), st.data())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_select(self, bundle, data):
        schemas, store = bundle
        spec = data.draw(_query_specs(schemas))
        field_pool = sorted({name for schema in schemas
                             for name in schema.fields})
        columns = data.draw(st.lists(
            st.sampled_from(field_pool
                            + ["schema", "ts", "kernel", "cu", "site",
                               "no_such_column"]),
            max_size=3))
        run = lambda q: q.select(*columns)   # noqa: E731
        loaded = _loaded_copy(store)
        assert _outcome(loaded, spec, TraceQuery, run) == \
            _outcome(loaded, spec, ReferenceQuery, run)

    @given(_stores(), st.data())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_aggregate(self, bundle, data):
        schemas, store = bundle
        spec = data.draw(_query_specs(schemas))
        field_pool = sorted({name for schema in schemas
                             for name in schema.fields})
        pool = field_pool + ["ts", "cu", "kernel", "site", "schema",
                             "no_such_column"]
        field = data.draw(st.sampled_from(pool))
        by = data.draw(st.none() | st.sampled_from(pool))
        run = lambda q: q.aggregate(field, by=by)   # noqa: E731
        loaded = _loaded_copy(store)
        assert _outcome(loaded, spec, TraceQuery, run) == \
            _outcome(loaded, spec, ReferenceQuery, run)

    @given(_stores())
    @settings(max_examples=max(4, MAX_EXAMPLES // 4), deadline=None)
    def test_limit_crossing_segments(self, bundle):
        _, store = bundle
        total = store.total_rows()
        for limit in (-1, 0, 1, 2, total // 2, total, total + 3):
            spec = {"limit": limit}
            for run in (lambda q: q.rows(), lambda q: q.count()):
                assert _outcome(store, spec, TraceQuery, run) == \
                    _outcome(store, spec, ReferenceQuery, run)


class TestExportByteEquality:
    @given(_stores())
    @settings(max_examples=max(8, MAX_EXAMPLES // 2), deadline=None)
    def test_all_exporters(self, bundle):
        _, store = bundle
        loaded = _loaded_copy(store)
        assert to_chrome_json(loaded) == trace_oracle.to_chrome_json(loaded)
        assert store_to_json(loaded) == trace_oracle.store_to_json(loaded)
        for schema in loaded.schemas():
            assert store_to_csv(loaded, schema) == \
                trace_oracle.store_to_csv(loaded, schema)
            assert store_to_json(loaded, schema=schema) == \
                trace_oracle.store_to_json(loaded, schema=schema)

    def test_special_schema_chrome_export(self):
        """The non-generic trace-event branches (spans, instants,
        counters) are byte-identical to the oracle exporter too."""
        registry = SchemaRegistry()
        records = [
            TraceRecord("latency.sample", 5, "matvec", 0, "lsu",
                        (5, 9, 4, 100, 200)),
            TraceRecord("run.span", 0, "matvec", 1, "", (0, 40)),
            TraceRecord("host.command", 2, "matvec", 0, "q0", (1, 2, 30)),
            TraceRecord("watch.event", 7, "matvec", 2, "w0", (64, 3, 0)),
            TraceRecord("watch.event", 8, "matvec", 2, "w0", (64, 3, 9)),
            TraceRecord("counter.lsu", 9, "vecadd", 0, "lsu", (10, 80, 20)),
            TraceRecord("counter.channel", 9, "vecadd", 0, "c0",
                        (4, 4, 1, 0, 2)),
        ]
        store = _loaded_copy(ColumnarStore.from_records(records, registry))
        assert to_chrome_json(store) == trace_oracle.to_chrome_json(store)


def _build_trace_query_bundle(path: str) -> None:
    """Write the synthetic ~1M-row multi-schema ``.ctb`` bundle.

    12 ``latency.sample`` segments x 65536 rows (one kernel per segment,
    8 rotating sites, monotone ``ts`` spanning the same window in every
    segment so footer stats alone cannot prune them), plus 4
    ``watch.event`` x 32768 and 4 ``counter.lsu`` x 16384 segments —
    983040 rows total. All values are deterministic arithmetic.
    """
    kernels = ("matvec", "stall_monitor", "matmul", "vecadd")
    lat_rows, watch_rows, counter_rows = 65536, 32768, 16384

    ts = list(range(lat_rows))
    site_ids = [1 + (i % 8) for i in range(lat_rows)]
    latency = [i % 997 for i in range(lat_rows)]
    end_cycle = [t + v for t, v in zip(ts, latency)]
    zeros = [0] * lat_rows

    segments = []
    lat_fields = ("start_cycle", "end_cycle", "latency",
                  "start_value", "end_value")
    for index in range(12):
        strings = [kernels[index % 4]] + [f"site_{i}" for i in range(8)]
        segments.append(Segment(
            "latency.sample", lat_fields, strings,
            {"ts": ts, "kernel": [0] * lat_rows,
             "cu": [index % 4] * lat_rows, "site": site_ids,
             "start_cycle": ts, "end_cycle": end_cycle,
             "latency": latency, "start_value": zeros,
             "end_value": latency}))
    for index in range(4):
        strings = [kernels[index], "watch_site"]
        segments.append(Segment(
            "watch.event", ("kind", "address", "tag"), strings,
            {"ts": list(range(watch_rows)),
             "kernel": [0] * watch_rows, "cu": [index] * watch_rows,
             "site": [1] * watch_rows,
             "kind": [i % 3 for i in range(watch_rows)],
             "address": [i * 8 for i in range(watch_rows)],
             "tag": [index] * watch_rows}))
    for index in range(4):
        strings = [kernels[index], "lsu0"]
        segments.append(Segment(
            "counter.lsu", ("reads", "writes", "stalls"), strings,
            {"ts": list(range(counter_rows)),
             "kernel": [0] * counter_rows, "cu": [index] * counter_rows,
             "site": [1] * counter_rows,
             "reads": [i % 64 for i in range(counter_rows)],
             "writes": [i % 32 for i in range(counter_rows)],
             "stalls": [i % 7 for i in range(counter_rows)]}))
    ColumnarStore(segments).save(path)


class TestTraceQueryScanGate:
    def test_filtered_aggregate_speedup_floor(self, tmp_path):
        """The acceptance floor: >= 5x filtered-aggregate throughput over
        the row-at-a-time oracle on the ~1M-row synthetic bundle (loaded
        with zero-copy lazy decode), with identical results. The query
        is the headline one: one kernel, a mid-range time window,
        latency grouped by site."""
        path = str(tmp_path / "scan.ctb")
        _build_trace_query_bundle(path)
        store = ColumnarStore.load(path)
        total = store.total_rows()
        lo, hi = 65536 // 4, (3 * 65536) // 4

        def run_query(query_class):
            return (query_class(store)
                    .schema("latency.sample").kernel("matvec")
                    .between(lo, hi).aggregate("latency", by="site"))

        vector_result = run_query(TraceQuery)   # warm the lazy column cache
        passes = 5
        start = time.perf_counter()
        for _ in range(passes):
            vector_result = run_query(TraceQuery)
        vector_s = time.perf_counter() - start
        start = time.perf_counter()
        reference_result = run_query(ReferenceQuery)
        reference_s = time.perf_counter() - start

        assert vector_result == reference_result, \
            "vector engine and row-at-a-time oracle disagree on the aggregate"
        assert total >= 900_000
        vector_rate = passes * total / vector_s
        reference_rate = total / reference_s
        assert vector_rate / reference_rate >= 5.0, (
            f"vector speedup {vector_rate / reference_rate:.2f}x < 5x "
            f"(vector {vector_rate:,.0f} vs reference "
            f"{reference_rate:,.0f} rows/s)")
