"""Row-at-a-time oracles for the trace ingest, query and export paths.

The product trace layer has one path per stage: batched columnar ingest
(:mod:`repro.trace.ingest`), the vectorized query engine
(:mod:`repro.trace.engine`) and the column-streaming exporters
(:mod:`repro.trace.export`). This module keeps the original
one-record-at-a-time implementations they replaced, for tests to compare
against:

* :class:`RecordColumnarSink` — a :class:`~repro.trace.columnar.ColumnarSink`
  the hub feeds one record at a time (``on_record``); it seals its
  buffered records with ``Segment.from_records`` at flush, never through
  the hub's column builders.
* :class:`ReferenceQuery` — :class:`~repro.trace.query.TraceQuery` run by
  a Python ``if``-chain per row, one ``(segment, index)`` pair per match.
* :func:`chrome_trace_events`, :func:`to_chrome_json`,
  :func:`store_to_entries`, :func:`store_to_csv`, :func:`store_to_json`
  — the row-dict exporters built on :class:`ReferenceQuery`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TraceSchemaError
from repro.trace.columnar import ColumnarSink, ColumnarStore
from repro.trace.export import (
    _COUNTER,
    _INSTANT,
    _METADATA,
    _SPAN,
    _check_schema,
    _watch_kind_name,
)
from repro.trace.query import Aggregate, TraceQuery
from repro.trace.schema import TraceRecord


class RecordColumnarSink(ColumnarSink):
    """Per-record ingest: the hub hands this sink every record as it is
    published, and the sink seals them itself at flush."""

    accepts_batches = False


class ReferenceQuery(TraceQuery):
    """:class:`TraceQuery` executed by the row-at-a-time scan."""

    def _scan(self):
        emitted = 0
        for segment in self._store.segments:
            if not self._segment_matches(segment):
                continue
            ts_col = segment.columns["ts"]
            kernel_col = segment.columns["kernel"]
            cu_col = segment.columns["cu"]
            site_col = segment.columns["site"]
            strings = segment.strings
            field_checks = []
            skip_segment = False
            for name, value in self._field_equals.items():
                column = segment.columns.get(name)
                if column is None:
                    skip_segment = True   # schema lacks the field: no match
                    break
                field_checks.append((column, value))
            if skip_segment:
                continue
            for index in range(segment.rows):
                ts = ts_col[index]
                if self._since is not None and ts < self._since:
                    continue
                if self._until is not None and ts >= self._until:
                    continue
                if (self._kernels is not None
                        and strings[kernel_col[index]] not in self._kernels):
                    continue
                if self._cus is not None and cu_col[index] not in self._cus:
                    continue
                if (self._sites is not None
                        and strings[site_col[index]] not in self._sites):
                    continue
                if any(column[index] != value
                       for column, value in field_checks):
                    continue
                yield segment, index
                emitted += 1
                if self._limit is not None and emitted >= self._limit:
                    return

    def rows(self) -> List[Dict[str, object]]:
        return [segment.row(index) for segment, index in self._scan()]

    def records(self) -> List[TraceRecord]:
        return [segment.record(index) for segment, index in self._scan()]

    def select(self, *columns: str) -> List[Tuple]:
        out = []
        for segment, index in self._scan():
            row = segment.row(index)
            try:
                out.append(tuple(row[name] for name in columns))
            except KeyError as exc:
                raise TraceSchemaError(
                    f"schema {segment.schema!r} has no column {exc.args[0]!r};"
                    f" columns: {sorted(row)}") from None
        return out

    def count(self) -> int:
        return sum(1 for _ in self._scan())

    def aggregate(self, field: str, by: Optional[str] = None
                  ) -> Union[Aggregate, Dict[object, Aggregate]]:
        groups: Dict[object, List[int]] = {}
        for segment, index in self._scan():
            row = segment.row(index)
            if field not in row:
                raise TraceSchemaError(
                    f"schema {segment.schema!r} has no column {field!r}")
            key = None
            if by is not None:
                if by not in row:
                    raise TraceSchemaError(
                        f"schema {segment.schema!r} has no column {by!r}")
                key = row[by]
            groups.setdefault(key, []).append(int(row[field]))
        if by is None:
            values = groups.get(None, [])
            return _aggregate(values)
        return {key: _aggregate(values) for key, values in groups.items()}


def _aggregate(values: Sequence[int]) -> Aggregate:
    if not values:
        return Aggregate(count=0, minimum=0, maximum=0, total=0)
    return Aggregate(count=len(values), minimum=min(values),
                     maximum=max(values), total=sum(values))


# -- exporters ----------------------------------------------------------------

def chrome_trace_events(store: ColumnarStore) -> List[Dict[str, object]]:
    """The row-dict Chrome trace-event exporter."""
    rows = ReferenceQuery(store).rows()
    kernels = sorted({str(row["kernel"]) for row in rows})
    pids = {kernel: index + 1 for index, kernel in enumerate(kernels)}

    events: List[Dict[str, object]] = []
    for kernel in kernels:
        events.append({"ph": _METADATA, "name": "process_name",
                       "pid": pids[kernel], "tid": 0,
                       "args": {"name": kernel or "(unattributed)"}})

    for row in rows:
        schema = str(row["schema"])
        pid = pids[str(row["kernel"])]
        tid = int(row["cu"])
        base = {"pid": pid, "tid": tid, "cat": schema}
        site = str(row["site"])
        if schema == "latency.sample":
            events.append({**base, "ph": _SPAN, "name": site or "latency",
                           "ts": row["start_cycle"], "dur": row["latency"],
                           "args": {"start_value": row["start_value"],
                                    "end_value": row["end_value"]}})
        elif schema == "run.span":
            events.append({**base, "ph": _SPAN, "name": site or "run",
                           "ts": row["start"],
                           "dur": int(row["end"]) - int(row["start"]),
                           "args": {}})
        elif schema == "host.command":
            events.append({**base, "ph": _SPAN, "name": site or "command",
                           "ts": row["start"],
                           "dur": int(row["end"]) - int(row["start"]),
                           "args": {"queued": row["queued"]}})
        elif schema == "watch.event":
            events.append({**base, "ph": _INSTANT,
                           "name": _watch_kind_name(int(row["kind"])),
                           "ts": row["ts"], "s": "t",
                           "args": {"address": row["address"],
                                    "tag": row["tag"]}})
        elif schema in ("counter.lsu", "counter.channel"):
            args = {name: row[name] for name in store.fields_of(schema)}
            events.append({**base, "ph": _COUNTER, "name": site or schema,
                           "ts": row["ts"], "args": args})
        else:
            # Generic instants: raw ibuffer drains, order records, emu runs.
            args = {name: value for name, value in row.items()
                    if name not in ("schema", "ts", "kernel", "cu", "site")}
            events.append({**base, "ph": _INSTANT, "name": site or schema,
                           "ts": row["ts"], "s": "t", "args": args})
    return events


def to_chrome_json(store: ColumnarStore, pretty: bool = True) -> str:
    """The Chrome/Perfetto document around :func:`chrome_trace_events`."""
    document = {
        "traceEvents": chrome_trace_events(store),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro-fpga", "time_unit": "cycles"},
    }
    return json.dumps(document, indent=2 if pretty else None, sort_keys=True)


def store_to_entries(store: ColumnarStore,
                     schema: str) -> List[Dict[str, int]]:
    """One schema's rows as integer-only entry dicts, row by row."""
    _check_schema(store, schema)
    entries = []
    for row in ReferenceQuery(store).schema(schema).rows():
        entry = {"ts": int(row["ts"]), "cu": int(row["cu"])}
        for name in store.fields_of(schema):
            entry[name] = int(row[name])
        entries.append(entry)
    return entries


def store_to_csv(store: ColumnarStore, schema: str) -> str:
    """One schema's rows as CSV through :mod:`repro.analysis.export`."""
    from repro.analysis.export import entries_to_csv

    fields = ("ts", "cu") + store.fields_of(schema)
    entries = store_to_entries(store, schema)
    return entries_to_csv(entries, allow_empty=True, fields=fields)


def store_to_json(store: ColumnarStore, schema: Optional[str] = None) -> str:
    """Rows (all schemas or one) as a JSON array, row by row."""
    query = ReferenceQuery(store)
    if schema is not None:
        query.schema(schema)
    return json.dumps(query.rows(), indent=2, sort_keys=True)
