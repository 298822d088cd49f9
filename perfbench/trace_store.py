"""``trace_store``: capture, append, load, query and export ``.ctb`` bundles.

Real traced paper runs emit only a few thousand rows, so this is the one
workload where ingest, storage and query do most of the work. An item
is one whole bundle: capture a seeded stream through ``hub.writer`` into
a new ``ColumnarSink`` bundle, ``append_segments`` a second capture,
``ColumnarStore.load`` it, run six ``TraceQuery`` reads, and export it
as CSV and as Chrome events. Writes and reads sit side by side in every
item, so a gain on one side that costs the other shows. Every answer is
checked against values the generator computed from the stream itself.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Tuple

from repro.trace.hub import TraceSink

from perfbench.common import FIRST_ROUND_ORDER, NullTracer, p50_ms

#: Payload fields per schema; the ``ibuffer.*`` ones are dynamic.
SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "ibuffer.stall_monitor": ("value", "slot"),
    "latency.sample": ("start_cycle", "end_cycle", "latency", "start_value",
                       "end_value"),
    "order.record": ("seq", "outer", "inner"),
    "ibuffer.watchpoint": ("address", "tag", "kind"),
    "watch.event": ("address", "tag", "kind"),
    "run.span": ("start", "end"),
}
DYNAMIC = ("ibuffer.stall_monitor", "ibuffer.watchpoint")

#: Rows per (schema, kernel, cu, site) in one traced run each of Fig. 2,
#: §5.1 and §5.2 at the paper's defaults, 4174 rows in all, as counted
#: in the bundle ``repro-fpga run fig2|sec51|sec52 --trace-out paper.ctb``
#: writes. A bundle's streams scale these counts and change nothing
#: else: the schema shares, kernels, sites and compute units are the
#: measured ones.
PAPER_MIX: Tuple[Tuple[str, str, int, str, int], ...] = (
    ("ibuffer.stall_monitor", "stall_monitor", 0, "stall_monitor[0]", 1024),
    ("ibuffer.stall_monitor", "stall_monitor", 1, "stall_monitor[1]", 1024),
    ("latency.sample", "stall_monitor", 0, "stall_monitor:site0->site1",
     1024),
    ("order.record", "single-task", 0, "single-task:probe", 500),
    ("order.record", "ndrange", 0, "ndrange:probe", 500),
    ("ibuffer.watchpoint", "watchpoint", 0, "watchpoint[0]", 4),
    ("ibuffer.watchpoint", "watchpoint", 1, "watchpoint[1]", 45),
    ("watch.event", "watchpoint", 0, "watchpoint[0]", 4),
    ("watch.event", "watchpoint", 1, "watchpoint[1]", 45),
    ("run.span", "single-task", 0, "single-task", 1),
    ("run.span", "ndrange", 0, "ndrange", 1),
    ("run.span", "matmul", 0, "matmul", 1),
    ("run.span", "faulty_stencil", 0, "faulty_stencil", 1),
)
WRITERS = tuple(entry[:4] for entry in PAPER_MIX)
KERNELS = tuple(dict.fromkeys(writer[1] for writer in WRITERS))

#: Copies of the paper mix in a bundle's first capture and in the
#: capture appended to it.
BASE_SCALE, DELTA_SCALE = 2, 1
#: Bundles, each with its own seeded streams, in one round.
BUNDLES = 3
TINY_BUNDLES = 1

#: An item's six queries; the seed draws kernels, compute units and
#: window positions.
QUERIES = ("count", "window_agg", "rows", "cu_where", "kernel_agg",
           "window_rows")
ROW_LIMIT = 500


class _SegmentSink(TraceSink):
    """Batch sink that keeps sealed segments in memory (for appends)."""

    accepts_batches = True

    def __init__(self) -> None:
        self.segments: List[Any] = []

    def on_batch(self, schema, segment) -> None:
        self.segments.append(segment)


def _stream(rng: random.Random, scale: int, ts: int):
    """Seeded rows (writer index, ts, values) in the paper's proportions.

    Every writer gets exactly ``scale`` times its measured row count, in
    a seeded order; ts never decreases.
    """
    picks = [index for index, entry in enumerate(PAPER_MIX)
             for _ in range(entry[4] * scale)]
    rng.shuffle(picks)
    out = []
    for index in picks:
        ts += rng.randrange(4)
        schema = WRITERS[index][0]
        if schema == "latency.sample":
            latency = rng.randrange(66, 634)
            values = (ts, ts + latency, latency, rng.randrange(16),
                      rng.randrange(16))
        elif schema == "ibuffer.stall_monitor":
            values = (rng.randrange(16), rng.randrange(2))
        elif schema == "order.record":
            values = (rng.randrange(1, 501), rng.randrange(50),
                      rng.randrange(10))
        elif schema == "run.span":
            values = (0, rng.randrange(250, 80_000))
        else:
            values = (14528 + rng.randrange(25), rng.randrange(24),
                      rng.randrange(1, 4))
        out.append((index, ts, values))
    return out, ts


def _storage_order(stream):
    """Rows as a capture stores them: one segment per schema, in the
    order schemas first appear in the stream."""
    order: Dict[str, List[Any]] = {}
    for row in stream:
        order.setdefault(WRITERS[row[0]][0], []).append(row)
    return [row for rows in order.values() for row in rows]


def _aggregate(groups: Dict[Any, List[int]]) -> Dict[Any, Tuple]:
    return {key: (len(v), min(v), max(v), sum(v)) for key, v in groups.items()}


class _Bundle:
    """One item's inputs and the answers the generator expects."""

    def __init__(self, rng: random.Random) -> None:
        self.base, ts = _stream(rng, BASE_SCALE, 0)
        self.delta, ts = _stream(rng, DELTA_SCALE, ts)
        self.max_ts = ts
        self.stored = _storage_order(self.base) + _storage_order(self.delta)
        self.queries = [self._make_query(rng, kind) for kind in QUERIES]
        self.expected = self._expected()

    def _rows_where(self, schema, kernel=None, cu=None, since=None,
                    until=None):
        for index, ts, values in self.stored:
            w_schema, w_kernel, w_cu, _ = WRITERS[index]
            if (w_schema == schema
                    and (kernel is None or w_kernel == kernel)
                    and (cu is None or w_cu == cu)
                    and (since is None or ts >= since)
                    and (until is None or ts < until)):
                yield index, ts, values

    def _make_query(self, rng: random.Random, kind: str) -> Dict[str, Any]:
        """One query with the answer the generator expects for it."""
        lo = rng.randrange(self.max_ts // 2)
        hi = lo + self.max_ts // 8
        if kind == "count":
            kernel = rng.choice(("single-task", "ndrange"))
            expected = sum(1 for _ in self._rows_where("order.record",
                                                       kernel))
            return {"kind": kind, "schema": "order.record", "kernel": kernel,
                    "expected": expected}
        if kind == "window_agg":
            groups: Dict[str, List[int]] = {}
            for index, _, values in self._rows_where(
                    "ibuffer.stall_monitor", since=lo, until=hi):
                groups.setdefault(WRITERS[index][3], []).append(values[0])
            return {"kind": kind, "since": lo, "until": hi,
                    "expected": _aggregate(groups)}
        if kind in ("rows", "window_rows"):
            schema, kernel = (("order.record",
                               rng.choice(("single-task", "ndrange")))
                              if kind == "rows" else
                              ("latency.sample", "stall_monitor"))
            since, until = (lo, hi) if kind == "window_rows" else (None, None)
            rows = list(self._rows_where(schema, kernel, since=since,
                                         until=until))[:ROW_LIMIT]
            expected = (len(rows), sum(ts for _, ts, _ in rows),
                        sum(values[0] for _, _, values in rows))
            return {"kind": kind, "schema": schema, "kernel": kernel,
                    "since": since, "until": until,
                    "field": SCHEMAS[schema][0], "expected": expected}
        if kind == "cu_where":
            cu, watch_kind = rng.randrange(2), rng.randrange(1, 4)
            expected = sum(1 for _, _, values in self._rows_where(
                "watch.event", cu=cu) if values[2] == watch_kind)
            return {"kind": kind, "cu": cu, "watch_kind": watch_kind,
                    "expected": expected}
        groups = {}
        for index, _, values in self._rows_where("order.record"):
            groups.setdefault(WRITERS[index][1], []).append(values[0])
        return {"kind": kind, "expected": _aggregate(groups)}

    def _expected(self) -> Dict[str, Any]:
        per_schema: Dict[str, int] = {}
        for index, _, _ in self.stored:
            schema = WRITERS[index][0]
            per_schema[schema] = per_schema.get(schema, 0) + 1
        latency = [row for row in self.stored
                   if WRITERS[row[0]][0] == "latency.sample"]
        index, ts, values = latency[0]
        first = ",".join(map(str, (ts, WRITERS[index][2]) + values))
        return {"captured": len(self.base), "appended": len(self.delta),
                "per_schema": per_schema,
                "answers": [query["expected"] for query in self.queries],
                "csv": (len(latency), first),
                "chrome_events": len(self.stored) + len(KERNELS)}


class Workload:
    name = "trace_store"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        rng = random.Random(seed)
        self.bundles = [_Bundle(rng)
                        for _ in range(TINY_BUNDLES if tiny else BUNDLES)]
        self.order_rng = random.Random(rng.getrandbits(63))
        self.path = os.path.join(workdir, "item.ctb")
        self.extra_pids: List[int] = []
        self.samples: Dict[str, List[Tuple[float, int]]] = {}

    def round_items(self, round_index: int) -> List[int]:
        """Every bundle once, in a seeded order."""
        items = list(range(len(self.bundles)))
        (self.order_rng if round_index else
         random.Random(FIRST_ROUND_ORDER)).shuffle(items)
        return items

    def setup(self) -> None:
        from repro.trace.columnar import ColumnarSink, ColumnarStore
        from repro.trace.export import (chrome_trace_events, store_to_csv,
                                        validate_chrome_events)
        from repro.trace.hub import TraceHub
        from repro.trace.query import TraceQuery

        self.TraceHub = TraceHub
        self.ColumnarSink = ColumnarSink
        self.ColumnarStore = ColumnarStore
        self.TraceQuery = TraceQuery
        self.chrome_trace_events = chrome_trace_events
        self.store_to_csv = store_to_csv
        self.validate_chrome_events = validate_chrome_events
        # Warm-up: every bundle once, checked.
        for item in range(len(self.bundles)):
            if not self.check(item, self.run_item(item, NullTracer(), {})):
                raise RuntimeError(f"warm-up bundle {item} is wrong")
        self.samples = {}

    def prepare_expected(self) -> None:
        """Expected answers were computed with the inputs."""

    def _capture(self, hub, stream) -> None:
        for name in DYNAMIC:
            hub.ensure_schema(name, SCHEMAS[name])
        writers = [hub.writer(schema, kernel=kernel, cu=cu, site=site).write
                   for schema, kernel, cu, site in WRITERS]
        for index, ts, values in stream:
            writers[index](ts, *values)
        hub.close()

    def _sample(self, tracer, key: str, rows: int) -> None:
        if tracer.enabled:
            _, start, end, _, _ = tracer.spans[-1]
            self.samples.setdefault(key, []).append((end - start, rows))

    def run_item(self, item, tracer, counts: Dict[str, Any]) -> Any:
        bundle = self.bundles[item]
        if os.path.exists(self.path):
            os.remove(self.path)
        with tracer.span("trace.capture"):
            hub = self.TraceHub(keep_records=False)
            sink = hub.attach(self.ColumnarSink(self.path, hub.registry))
            self._capture(hub, bundle.base)
        self._sample(tracer, "ingest", len(bundle.base))
        with tracer.span("trace.capture"):
            hub = self.TraceHub(keep_records=False)
            delta = hub.attach(_SegmentSink())
            self._capture(hub, bundle.delta)
        self._sample(tracer, "ingest", len(bundle.delta))
        with tracer.span("trace.append_segments"):
            appended = self.ColumnarStore.append_segments(self.path,
                                                          delta.segments)
        self._sample(tracer, "append", appended)
        with tracer.span("trace.load"):
            store = self.ColumnarStore.load(self.path)
        self._sample(tracer, "load", 0)
        rows = store.total_rows()
        answers = []
        for query in bundle.queries:
            with tracer.span("trace.query"):
                answers.append(self._query(store, query))
            self._sample(tracer, "query", rows)
        with tracer.span("trace.export"):
            text = self.store_to_csv(store, "latency.sample")
        csv_rows = text.count("\n") - 1
        self._sample(tracer, "export", csv_rows)
        with tracer.span("trace.export"):
            events = self.chrome_trace_events(store)
        self._sample(tracer, "export", rows)
        counts["trace.ctb_bytes"] = counts.get(
            "trace.ctb_bytes", 0) + os.path.getsize(self.path)
        counts["trace.rows"] = counts.get("trace.rows", 0) + rows
        per_schema: Dict[str, int] = {}
        for segment in store.segments:
            per_schema[segment.schema] = (per_schema.get(segment.schema, 0)
                                          + segment.rows)
        return {"captured": sink.rows_written, "appended": appended,
                "per_schema": per_schema, "answers": answers,
                "csv": (csv_rows, text.split("\n", 2)[1]),
                "chrome": events}

    def _query(self, store, spec: Dict[str, Any]) -> Any:
        query = self.TraceQuery(store)
        kind = spec["kind"]
        if kind == "count":
            return query.schema(spec["schema"]).kernel(spec["kernel"]).count()
        if kind in ("window_agg", "kernel_agg"):
            if kind == "window_agg":
                query.schema("ibuffer.stall_monitor").between(
                    spec["since"], spec["until"])
                result = query.aggregate("value", by="site")
            else:
                result = query.schema("order.record").aggregate(
                    "seq", by="kernel")
            return {key: (agg.count, agg.minimum, agg.maximum, agg.total)
                    for key, agg in result.items()}
        if kind in ("rows", "window_rows"):
            query.schema(spec["schema"]).kernel(spec["kernel"]).limit(
                ROW_LIMIT)
            if spec["since"] is not None:
                query.between(spec["since"], spec["until"])
            rows = query.rows()
            return (len(rows), sum(row["ts"] for row in rows),
                    sum(row[spec["field"]] for row in rows))
        return query.schema("watch.event").cu(spec["cu"]).where(
            kind=spec["watch_kind"]).count()

    def check(self, item, output: Dict[str, Any]) -> bool:
        expected = self.bundles[item].expected
        events = output["chrome"]
        return ({key: value for key, value in output.items()
                 if key != "chrome"}
                == {key: value for key, value in expected.items()
                    if key != "chrome_events"}
                and len(events) == expected["chrome_events"]
                and not self.validate_chrome_events(events))

    def layer_metrics(self, tracer, counts: Dict[str, Any],
                      tally: Dict[str, Any]) -> Dict[str, Any]:
        def rate(key: str) -> float:
            samples = self.samples.get(key, [])
            seconds = sum(s for s, _ in samples)
            return sum(r for _, r in samples) / seconds if seconds else 0.0

        def p50(key: str) -> float:
            return p50_ms([s for s, _ in self.samples.get(key, [])])

        rows = counts.get("trace.rows", 0)
        return {
            "trace.ingest_rows_per_s": (rate("ingest"), "rows/s"),
            "trace.append_ms": (p50("append"), "ms"),
            "trace.ctb_bytes_per_row": (
                counts.get("trace.ctb_bytes", 0) / rows if rows else 0.0,
                "B/row"),
            "trace.load_ms": (p50("load"), "ms"),
            "trace.query_rows_per_s": (rate("query"), "rows/s"),
            "trace.export_rows_per_s": (rate("export"), "rows/s"),
        }

    def close(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)
