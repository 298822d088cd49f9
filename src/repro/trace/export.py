"""Exporters for stored traces: Chrome trace-event JSON, CSV, JSON.

The Chrome exporter produces the `trace-event format`_ consumed by
Perfetto / ``chrome://tracing``: one *process* per kernel (``pid``), one
*thread* per compute unit (``tid``); stall-monitor latency pairs and
kernel launches become complete-event spans (``ph: "X"``), watchpoint
hits and raw ibuffer drains become instants (``ph: "i"``), and
vendor-profiler counters become counter events (``ph: "C"``). Timestamps
are simulation cycles used as microseconds.

The exporters stream straight off the decoded columns: distinct kernel
names come from the segment string dictionaries, CSV lines zip column
batches, and no per-row dicts are built along the way. The row-dict
exporters they replaced live on as test oracles
(``tests/trace_oracle.py``); ``tests/test_prop_trace_engine.py`` pins
every document byte for byte against them.

.. _trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.errors import TraceStoreError
from repro.trace import engine as _vector
from repro.trace.columnar import ColumnarStore, Segment
from repro.trace.query import TraceQuery

#: Event phases the exporter emits (the subset of the spec we use).
_SPAN, _INSTANT, _COUNTER, _METADATA = "X", "i", "C", "M"


def _watch_kind_name(kind: int) -> str:
    from repro.core.logic_blocks import (
        KIND_BOUND_VIOLATION,
        KIND_INVARIANCE_VIOLATION,
        KIND_MATCH,
    )
    names = {KIND_MATCH: "watch-hit",
             KIND_BOUND_VIOLATION: "bound-violation",
             KIND_INVARIANCE_VIOLATION: "invariance-violation"}
    return names.get(kind, f"watch-kind-{kind}")


def chrome_trace_events(store: ColumnarStore) -> List[Dict[str, object]]:
    """Stored trace -> list of Chrome trace-event dicts.

    Deterministic: pids are assigned to kernels in sorted order, events
    appear in storage order per category.
    """
    kernels = _vector.distinct_kernels(store)
    pids = {kernel: index + 1 for index, kernel in enumerate(kernels)}

    events: List[Dict[str, object]] = []
    for kernel in kernels:
        events.append({"ph": _METADATA, "name": "process_name",
                       "pid": pids[kernel], "tid": 0,
                       "args": {"name": kernel or "(unattributed)"}})
    for segment in store.segments:
        if segment.rows:
            _segment_events(segment, pids, store, events)
    return events


def _segment_events(segment: Segment, pids: Dict[str, int],
                    store: ColumnarStore,
                    events: List[Dict[str, object]]) -> None:
    """Append one segment's trace events, straight off its columns."""
    schema = segment.schema
    strings = segment.strings
    kernel = segment.column("kernel")
    cu = segment.column("cu")
    site = segment.column("site")
    indices = range(segment.rows)
    if schema == "latency.sample":
        starts = segment.column("start_cycle")
        durations = segment.column("latency")
        start_values = segment.column("start_value")
        end_values = segment.column("end_value")
        for i in indices:
            events.append({
                "pid": pids[strings[kernel[i]]], "tid": cu[i],
                "cat": schema, "ph": _SPAN,
                "name": strings[site[i]] or "latency",
                "ts": starts[i], "dur": durations[i],
                "args": {"start_value": start_values[i],
                         "end_value": end_values[i]}})
    elif schema == "run.span":
        starts = segment.column("start")
        ends = segment.column("end")
        for i in indices:
            events.append({
                "pid": pids[strings[kernel[i]]], "tid": cu[i],
                "cat": schema, "ph": _SPAN,
                "name": strings[site[i]] or "run",
                "ts": starts[i], "dur": ends[i] - starts[i], "args": {}})
    elif schema == "host.command":
        starts = segment.column("start")
        ends = segment.column("end")
        queued = segment.column("queued")
        for i in indices:
            events.append({
                "pid": pids[strings[kernel[i]]], "tid": cu[i],
                "cat": schema, "ph": _SPAN,
                "name": strings[site[i]] or "command",
                "ts": starts[i], "dur": ends[i] - starts[i],
                "args": {"queued": queued[i]}})
    elif schema == "watch.event":
        ts = segment.column("ts")
        kinds = segment.column("kind")
        addresses = segment.column("address")
        tags = segment.column("tag")
        for i in indices:
            events.append({
                "pid": pids[strings[kernel[i]]], "tid": cu[i],
                "cat": schema, "ph": _INSTANT,
                "name": _watch_kind_name(kinds[i]),
                "ts": ts[i], "s": "t",
                "args": {"address": addresses[i], "tag": tags[i]}})
    elif schema in ("counter.lsu", "counter.channel"):
        ts = segment.column("ts")
        fields = [(name, segment.column(name))
                  for name in store.fields_of(schema)]
        for i in indices:
            events.append({
                "pid": pids[strings[kernel[i]]], "tid": cu[i],
                "cat": schema, "ph": _COUNTER,
                "name": strings[site[i]] or schema,
                "ts": ts[i],
                "args": {name: column[i] for name, column in fields}})
    else:
        # Generic instants: raw ibuffer drains, order records, emu runs.
        ts = segment.column("ts")
        fields = [(name, segment.column(name)) for name in segment.fields]
        for i in indices:
            events.append({
                "pid": pids[strings[kernel[i]]], "tid": cu[i],
                "cat": schema, "ph": _INSTANT,
                "name": strings[site[i]] or schema,
                "ts": ts[i], "s": "t",
                "args": {name: column[i] for name, column in fields}})


def to_chrome_json(store: ColumnarStore, pretty: bool = True) -> str:
    """Stored trace -> Chrome/Perfetto-loadable JSON document."""
    document = {
        "traceEvents": chrome_trace_events(store),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro-fpga", "time_unit": "cycles"},
    }
    return json.dumps(document, indent=2 if pretty else None, sort_keys=True)


def validate_chrome_events(events: Sequence[Dict[str, object]]) -> List[str]:
    """Check events against the trace-event schema; returns problems.

    Used by the test suite and the CLI exporter to guarantee the artifact
    loads in Perfetto: every event needs a known phase, integer ``pid``/
    ``tid``, a non-negative numeric ``ts`` (except metadata), a ``dur``
    for complete events, and a scope for instants.
    """
    problems: List[str] = []
    for index, event in enumerate(events):
        where = f"event[{index}]"
        phase = event.get("ph")
        if phase not in (_SPAN, _INSTANT, _COUNTER, _METADATA):
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing/empty name")
        for key in ("pid", "tid"):
            if key in event and not isinstance(event[key], int):
                problems.append(f"{where}: {key} must be an int")
        if phase == _METADATA:
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: metadata event needs args")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if phase == _SPAN:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
        if phase == _INSTANT and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant needs scope s in t/p/g")
    return problems


# -- flat-file adapters -------------------------------------------------------

def _check_schema(store: ColumnarStore, schema: str) -> None:
    if schema not in store.schemas():
        raise TraceStoreError(
            f"store holds no records of schema {schema!r}; "
            f"present: {', '.join(store.schemas()) or '(empty)'}")


def store_to_entries(store: ColumnarStore,
                     schema: str) -> List[Dict[str, int]]:
    """One schema's rows as integer-only entry dicts (``ts``, ``cu`` and
    the payload fields; string columns are dropped — use JSON for those).
    """
    _check_schema(store, schema)
    fields = store.fields_of(schema)
    entries = []
    for segment in store.segments:
        if segment.schema != schema or not segment.rows:
            continue
        ts = segment.column("ts")
        cu = segment.column("cu")
        columns = [(name, segment.column(name)) for name in fields]
        for i in range(segment.rows):
            entry = {"ts": ts[i], "cu": cu[i]}
            for name, column in columns:
                entry[name] = column[i]
            entries.append(entry)
    return entries


def store_to_csv(store: ColumnarStore, schema: str) -> str:
    """One schema's rows as CSV (header always present, even when empty)."""
    fields = ("ts", "cu") + store.fields_of(schema)
    _check_schema(store, schema)
    lines = [",".join(fields)]
    for segment in store.segments:
        if segment.schema != schema or not segment.rows:
            continue
        columns = [segment.column("ts"), segment.column("cu")]
        columns += [segment.column(name) for name in store.fields_of(schema)]
        for values in zip(*columns):
            lines.append(",".join(map(str, values)))
    return "\n".join(lines) + "\n"


def store_to_json(store: ColumnarStore, schema: Optional[str] = None) -> str:
    """Rows (all schemas or one) as a JSON array with string columns kept.

    ``TraceQuery.rows()`` already materializes straight off the columns.
    """
    query = TraceQuery(store)
    if schema is not None:
        query.schema(schema)
    return json.dumps(query.rows(), indent=2, sort_keys=True)
