"""Columnar trace storage: the ``.ctb`` (columnar trace bundle) format.

Zero-dependency on-disk layout, designed for append-only accumulation
across runs (multi-run sweeps write into one file) and cheap scans:

::

    +--------+----------------+----------------+-----+--------+-----+-------+
    | "CTB1" | segment 0 data | segment 1 data | ... | footer | len | "CTB1"|
    +--------+----------------+----------------+-----+--------+-----+-------+

* **Segment data** is one little-endian ``int64`` array per column,
  concatenated in column order ``ts, kernel, cu, site, <payload fields>``.
  ``kernel`` and ``site`` hold indices into the segment's string
  dictionary; everything else is a plain integer.
* The **footer** is a UTF-8 JSON document indexing every segment: schema
  name, payload fields, row count, byte offset/length, the string
  dictionary, the segment's ``min_ts``/``max_ts`` (used to prune whole
  segments during time-window queries), and a ``ts_monotone`` flag set
  at write time when the ``ts`` column is non-decreasing (the query
  engine bisects such segments instead of sweeping them).
* The trailer is the footer's byte length (``uint64`` LE) plus the magic
  again, so appending = truncate trailer, add segments, rewrite footer.

Loading is **zero-copy and lazy**: :meth:`ColumnarStore.load` reads the
file once and hands each segment a ``memoryview`` slice of its payload;
a column is decoded (a ``memoryview`` cast to int64 on little-endian
hosts, an ``array('q')`` byteswap elsewhere) only the first time a query
touches it. ``min_ts``/``max_ts``/``ts_monotone`` come straight from the
footer — trusted for pruning, validated once against the column data the
first time the ``ts`` column is actually decoded.

:class:`ColumnarSink` is how a :class:`~repro.trace.hub.TraceHub` stream
reaches disk: each hub flush hands it sealed column batches, and the
sink appends their payload bytes to the bundle. :class:`SegmentCollector`
is how a stream leaves a sweep point or a server job: the same sealed
batches, kept as ``(header, payload)`` pairs for the trip to the parent.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from array import array
from itertools import islice
from operator import le
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TraceStoreError
from repro.trace.hub import TraceHub, TraceSink
from repro.trace.schema import (
    STANDARD_COLUMNS,
    SchemaRegistry,
    TraceRecord,
    TraceSchema,
)

MAGIC = b"CTB1"
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
FORMAT_VERSION = 1

#: On little-endian hosts a column decodes as a zero-copy memoryview cast;
#: big-endian hosts fall back to an ``array('q')`` byteswap copy.
_NATIVE_LITTLE = sys.byteorder == "little"


def _check_int64(value: int, column: str) -> int:
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise TraceStoreError(
            f"column {column!r}: value {value} does not fit in int64")
    return value


def _is_monotone(column) -> bool:
    """True when the column is non-decreasing (empty/singleton: True)."""
    return all(map(le, column, islice(column, 1, None)))


class _ColumnsView(Mapping):
    """Dict-like view over a segment's columns, decoding on access.

    Kept for the row-at-a-time oracle scan (``tests/trace_oracle.py``)
    and any external callers that predate lazy decode; the query engine
    uses :meth:`Segment.column` directly.
    """

    __slots__ = ("_segment",)

    def __init__(self, segment: "Segment") -> None:
        self._segment = segment

    def __getitem__(self, name: str):
        try:
            return self._segment.column(name)
        except TraceStoreError:
            raise KeyError(name) from None

    def __contains__(self, name: object) -> bool:
        return name in self._segment.column_order

    def __iter__(self):
        return iter(self._segment.column_order)

    def __len__(self) -> int:
        return len(self._segment.column_order)


class Segment:
    """One immutable run of same-schema records, stored column-wise.

    A segment holds its data either as decoded columns (built in memory
    via :meth:`from_records`) or as raw payload bytes (loaded from disk
    via :meth:`from_payload`) with columns decoded lazily on first
    touch. ``min_ts``/``max_ts``/``ts_monotone`` are cached at
    construction — computed once for in-memory segments, taken from the
    footer for loaded ones (and validated against the column the first
    time ``ts`` is decoded).
    """

    __slots__ = ("schema", "fields", "strings", "_columns", "_payload",
                 "_rows", "_min_ts", "_max_ts", "_ts_monotone",
                 "_ts_verified")

    def __init__(self, schema: str, fields: Tuple[str, ...],
                 strings: List[str],
                 columns: Optional[Dict[str, List[int]]] = None, *,
                 payload=None, rows: Optional[int] = None,
                 min_ts: Optional[int] = None,
                 max_ts: Optional[int] = None,
                 ts_monotone: Optional[bool] = None) -> None:
        self.schema = schema
        self.fields = fields
        self.strings = strings
        if columns is None and payload is None:
            raise TraceStoreError(
                f"segment {schema!r} needs columns or a payload")
        self._columns = dict(columns) if columns is not None else {}
        self._payload = memoryview(payload) if payload is not None else None
        if rows is None:
            rows = len(self._columns["ts"])
        self._rows = int(rows)
        self._min_ts = min_ts
        self._max_ts = max_ts
        self._ts_monotone = ts_monotone
        # Footer claims are validated once, at first decode of ``ts``;
        # in-memory segments (no payload) have nothing to validate.
        self._ts_verified = self._payload is None or (
            min_ts is None and max_ts is None and ts_monotone is None)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_records(cls, schema: TraceSchema,
                     records: Sequence[TraceRecord]) -> "Segment":
        """Build a segment from same-schema records (order preserved)."""
        strings: List[str] = []
        string_ids: Dict[str, int] = {}

        def intern(text: str) -> int:
            if text not in string_ids:
                string_ids[text] = len(strings)
                strings.append(text)
            return string_ids[text]

        columns: Dict[str, List[int]] = {name: [] for name in schema.columns}
        for record in records:
            if record.schema != schema.name:
                raise TraceStoreError(
                    f"record of schema {record.schema!r} in segment "
                    f"{schema.name!r}")
            if len(record.values) != len(schema.fields):
                raise TraceStoreError(
                    f"record has {len(record.values)} values; schema "
                    f"{schema.name!r} declares {len(schema.fields)}")
            columns["ts"].append(_check_int64(int(record.ts), "ts"))
            columns["kernel"].append(intern(record.kernel))
            columns["cu"].append(_check_int64(int(record.cu), "cu"))
            columns["site"].append(intern(record.site))
            for name, value in zip(schema.fields, record.values):
                columns[name].append(_check_int64(int(value), name))
        ts = columns["ts"]
        if ts:
            min_ts, max_ts = min(ts), max(ts)
            monotone = _is_monotone(ts)
        else:
            min_ts = max_ts = 0
            monotone = True
        return cls(schema.name, schema.fields, strings, columns,
                   min_ts=min_ts, max_ts=max_ts, ts_monotone=monotone)

    # -- shape -------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Number of records stored in this segment."""
        return self._rows

    @property
    def min_ts(self) -> int:
        """Smallest timestamp in the segment (0 when empty)."""
        if self._min_ts is None:
            ts = self.column("ts")
            self._min_ts = min(ts) if self._rows else 0
        return self._min_ts

    @property
    def max_ts(self) -> int:
        """Largest timestamp in the segment (0 when empty)."""
        if self._max_ts is None:
            ts = self.column("ts")
            self._max_ts = max(ts) if self._rows else 0
        return self._max_ts

    @property
    def ts_monotone(self) -> bool:
        """True when ``ts`` is non-decreasing (time windows can bisect).

        Cached at construction (write path) or taken from the footer
        (load path); computed on demand for bundles written before the
        flag existed.
        """
        if self._ts_monotone is None:
            self._ts_monotone = (_is_monotone(self.column("ts"))
                                 if self._rows else True)
        return self._ts_monotone

    @property
    def column_order(self) -> Tuple[str, ...]:
        """On-disk column order: standard columns then payload fields."""
        return STANDARD_COLUMNS + self.fields

    # -- column access -----------------------------------------------------

    @property
    def columns(self) -> Mapping:
        """Mapping view of every column (decodes lazily on access)."""
        return _ColumnsView(self)

    def has_column(self, name: str) -> bool:
        """True when the segment stores a column of that name."""
        return name in self._columns or name in self.column_order

    def column(self, name: str):
        """One column as an int64 sequence, decoding it on first touch.

        In-memory segments return their list columns; loaded segments
        return a zero-copy ``memoryview`` cast over the payload (or an
        ``array('q')`` on big-endian hosts). Unknown names raise
        :class:`TraceStoreError`.
        """
        column = self._columns.get(name)
        if column is not None:
            return column
        return self._decode(name)

    def _decode(self, name: str):
        try:
            index = self.column_order.index(name)
        except ValueError:
            raise TraceStoreError(
                f"segment {self.schema!r} has no column {name!r}; "
                f"columns: {', '.join(self.column_order)}") from None
        if self._payload is None:
            raise TraceStoreError(
                f"segment {self.schema!r}: column {name!r} missing from "
                "in-memory segment")
        start = index * self._rows * 8
        view = self._payload[start:start + self._rows * 8]
        if _NATIVE_LITTLE:
            column = view.cast("q")
        else:  # pragma: no cover - big-endian hosts
            swapped = array("q")
            swapped.frombytes(view)
            swapped.byteswap()
            column = swapped
        self._columns[name] = column
        if name == "ts" and not self._ts_verified:
            self._verify_ts_claims(column)
        return column

    def _verify_ts_claims(self, ts) -> None:
        """Validate footer ``min_ts``/``max_ts``/``ts_monotone`` once."""
        self._ts_verified = True
        actual_min = min(ts) if self._rows else 0
        actual_max = max(ts) if self._rows else 0
        if self._min_ts is not None and self._min_ts != actual_min:
            raise TraceStoreError(
                f"segment {self.schema!r}: footer min_ts {self._min_ts} "
                f"disagrees with column minimum {actual_min} "
                "(corrupt footer)")
        if self._max_ts is not None and self._max_ts != actual_max:
            raise TraceStoreError(
                f"segment {self.schema!r}: footer max_ts {self._max_ts} "
                f"disagrees with column maximum {actual_max} "
                "(corrupt footer)")
        if self._ts_monotone and not _is_monotone(ts):
            raise TraceStoreError(
                f"segment {self.schema!r}: footer claims a monotone ts "
                "column but the data is not non-decreasing "
                "(corrupt footer)")

    # -- row access --------------------------------------------------------

    def record(self, index: int) -> TraceRecord:
        """Materialize row ``index`` back into a :class:`TraceRecord`."""
        return TraceRecord(
            schema=self.schema,
            ts=self.column("ts")[index],
            kernel=self.strings[self.column("kernel")[index]],
            cu=self.column("cu")[index],
            site=self.strings[self.column("site")[index]],
            values=tuple(self.column(name)[index] for name in self.fields))

    def row(self, index: int) -> Dict[str, object]:
        """Row ``index`` as a flat dict (strings decoded)."""
        out: Dict[str, object] = {
            "schema": self.schema,
            "ts": self.column("ts")[index],
            "kernel": self.strings[self.column("kernel")[index]],
            "cu": self.column("cu")[index],
            "site": self.strings[self.column("site")[index]],
        }
        for name in self.fields:
            out[name] = self.column(name)[index]
        return out

    # -- (de)serialization -------------------------------------------------

    def payload_bytes(self) -> bytes:
        """The segment's column data as on-disk bytes.

        Loaded segments return their payload slice directly (no
        re-encode); in-memory segments pack their columns.
        """
        if self._payload is not None:
            return self._payload.tobytes()
        parts = []
        for name in self.column_order:
            values = self._columns[name]
            if isinstance(values, array) and values.typecode == "q":
                # Batch-ingest builders hand us array('q') columns: on
                # little-endian hosts their buffer IS the on-disk form.
                if _NATIVE_LITTLE:
                    parts.append(values.tobytes())
                else:  # pragma: no cover - big-endian hosts
                    swapped = array("q", values)
                    swapped.byteswap()
                    parts.append(swapped.tobytes())
            else:
                parts.append(struct.pack(f"<{len(values)}q", *values))
        return b"".join(parts)

    def write_payload(self, handle) -> int:
        """Stream the segment's on-disk bytes into ``handle``.

        Byte-for-byte what :meth:`payload_bytes` would produce, without
        materializing one joined buffer: loaded segments copy their
        payload view straight through, ``array('q')`` columns stream
        their buffers with ``tofile``, list columns pack per column.
        Returns the number of bytes written.
        """
        if self._payload is not None:
            handle.write(self._payload)
            return self._payload.nbytes
        total = 0
        for name in self.column_order:
            values = self._columns[name]
            if isinstance(values, array) and values.typecode == "q":
                if _NATIVE_LITTLE:
                    values.tofile(handle)
                else:  # pragma: no cover - big-endian hosts
                    swapped = array("q", values)
                    swapped.byteswap()
                    swapped.tofile(handle)
                total += len(values) * 8
            else:
                data = struct.pack(f"<{len(values)}q", *values)
                handle.write(data)
                total += len(data)
        return total

    def header(self) -> Dict[str, object]:
        """Extent-free segment metadata (wire/IPC form).

        Everything :meth:`from_payload` needs to rebuild the segment
        around raw column bytes: schema layout, row count, string
        dictionary, and the cached timestamp stats.
        """
        return {
            "schema": self.schema,
            "fields": list(self.fields),
            "rows": self.rows,
            "strings": list(self.strings),
            "min_ts": self.min_ts,
            "max_ts": self.max_ts,
            "ts_monotone": self.ts_monotone,
        }

    def meta(self, offset: int, length: int) -> Dict[str, object]:
        """Footer-index entry for this segment at the given extent."""
        meta = self.header()
        meta["offset"] = offset
        meta["length"] = length
        return meta

    @classmethod
    def from_payload(cls, meta: Dict[str, object], data) -> "Segment":
        """Wrap one segment around its footer entry + raw column bytes.

        Columns stay undecoded until touched; ``data`` may be ``bytes``
        or a ``memoryview`` into a larger buffer (zero-copy load path).
        Footers written before ``ts_monotone``/stats existed load fine —
        missing values are recomputed on demand.
        """
        fields = tuple(meta["fields"])
        rows = int(meta["rows"])
        order = STANDARD_COLUMNS + fields
        expected = rows * 8 * len(order)
        if len(data) != expected:
            raise TraceStoreError(
                f"segment {meta['schema']!r}: expected {expected} payload "
                f"bytes, got {len(data)}")
        min_ts = meta.get("min_ts")
        max_ts = meta.get("max_ts")
        monotone = meta.get("ts_monotone")
        return cls(str(meta["schema"]), fields, list(meta["strings"]),
                   payload=data, rows=rows,
                   min_ts=None if min_ts is None else int(min_ts),
                   max_ts=None if max_ts is None else int(max_ts),
                   ts_monotone=None if monotone is None else bool(monotone))

    def tail(self, start: int) -> "Segment":
        """A new segment holding rows ``start:`` (strings re-interned)."""
        return _rebuild(self.schema, self.fields, [(self, start)])


class ColumnarStore:
    """An ordered collection of segments, loadable/savable as one file."""

    def __init__(self, segments: Optional[List[Segment]] = None) -> None:
        self.segments: List[Segment] = list(segments or [])

    # -- construction -----------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord],
                     registry: SchemaRegistry) -> "ColumnarStore":
        """Group records by schema into segments: schemas in
        first-appearance order, records in arrival order."""
        grouped: Dict[str, List[TraceRecord]] = {}
        for record in records:
            grouped.setdefault(record.schema, []).append(record)
        return cls([Segment.from_records(registry.get(name), group)
                    for name, group in grouped.items()])

    # -- shape -------------------------------------------------------------

    def schemas(self) -> List[str]:
        """Schema names present, sorted."""
        return sorted({segment.schema for segment in self.segments})

    def fields_of(self, schema: str) -> Tuple[str, ...]:
        """Payload fields of a stored schema (first matching segment)."""
        for segment in self.segments:
            if segment.schema == schema:
                return segment.fields
        raise TraceStoreError(f"store holds no segment of schema {schema!r}")

    def total_rows(self) -> int:
        """Total records across all segments."""
        return sum(segment.rows for segment in self.segments)

    def __len__(self) -> int:
        return self.total_rows()

    def records(self) -> List[TraceRecord]:
        """Every stored record, in (segment, row) order."""
        out: List[TraceRecord] = []
        for segment in self.segments:
            for index in range(segment.rows):
                out.append(segment.record(index))
        return out

    # -- disk format -------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the whole store to ``path`` (overwrites)."""
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            offset = len(MAGIC)
            metas: List[Dict[str, object]] = []
            for segment in self.segments:
                length = segment.write_payload(handle)
                metas.append(segment.meta(offset, length))
                offset += length
            _write_trailer(handle, metas)

    @classmethod
    def load(cls, path: str) -> "ColumnarStore":
        """Read a ``.ctb`` file back, decoding columns lazily.

        The file is read once; every segment holds a zero-copy
        ``memoryview`` slice of its payload and decodes a column only
        when a query first touches it.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise TraceStoreError(f"cannot read trace store: {exc}") from exc
        metas = _parse_trailer(data)
        view = memoryview(data)
        segments = []
        for meta in metas:
            start = int(meta["offset"])
            end = start + int(meta["length"])
            if end > len(data):
                raise TraceStoreError(
                    f"segment extent {start}:{end} beyond file size "
                    f"{len(data)}")
            segments.append(Segment.from_payload(meta, view[start:end]))
        return cls(segments)

    @staticmethod
    def append_to(path: str, records: Iterable[TraceRecord],
                  registry: SchemaRegistry) -> int:
        """Create ``path`` or append segments to it; returns rows added.

        Existing segment bytes are untouched: the trailer is truncated,
        new segments appended, and a combined footer rewritten — this is
        how multi-run sweeps accumulate into one bundle.
        """
        delta = ColumnarStore.from_records(records, registry)
        if not os.path.exists(path):
            delta.save(path)
            return delta.total_rows()
        ColumnarStore.append_segments(path, delta.segments)
        return delta.total_rows()

    @staticmethod
    def append_segments(path: str, segments: Sequence[Segment]) -> int:
        """Append already-sealed segments to ``path``; returns rows added.

        The segment-level sibling of :meth:`append_to` — the batch
        ingest and binary IPC paths land here with finished segments
        (or wire payloads wrapped by :meth:`Segment.from_payload`), so
        an append is raw byte copies plus a footer rewrite; no record
        objects exist at any point. Creates the file when absent.
        """
        segments = list(segments)
        if not os.path.exists(path):
            store = ColumnarStore(segments)
            store.save(path)
            return store.total_rows()
        if not segments:
            return 0
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(0)
            head = handle.read(len(MAGIC))
            if head != MAGIC:
                raise TraceStoreError(f"{path!r} is not a CTB file")
            handle.seek(size - 12)
            footer_len = struct.unpack("<Q", handle.read(8))[0]
            if handle.read(4) != MAGIC:
                raise TraceStoreError(f"{path!r}: trailing magic missing")
            footer_start = size - 12 - footer_len
            if footer_start < len(MAGIC):
                raise TraceStoreError(f"{path!r}: footer length corrupt")
            handle.seek(footer_start)
            try:
                footer = json.loads(handle.read(footer_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TraceStoreError(
                    f"{path!r}: footer is not valid JSON") from exc
            metas = list(footer.get("segments", []))
            handle.seek(footer_start)
            handle.truncate()
            offset = footer_start
            for segment in segments:
                length = segment.write_payload(handle)
                metas.append(segment.meta(offset, length))
                offset += length
            _write_trailer(handle, metas)
        return sum(segment.rows for segment in segments)


def _write_trailer(handle, metas: List[Dict[str, object]]) -> None:
    footer = json.dumps({"version": FORMAT_VERSION, "segments": metas},
                        sort_keys=True).encode("utf-8")
    handle.write(footer)
    handle.write(struct.pack("<Q", len(footer)))
    handle.write(MAGIC)


def _parse_trailer(data: bytes) -> List[Dict[str, object]]:
    if len(data) < len(MAGIC) + 12 or not data.startswith(MAGIC):
        raise TraceStoreError("not a CTB file (bad or missing magic)")
    if data[-4:] != MAGIC:
        raise TraceStoreError("truncated CTB file (trailing magic missing)")
    footer_len = struct.unpack("<Q", data[-12:-4])[0]
    footer_start = len(data) - 12 - footer_len
    if footer_start < len(MAGIC):
        raise TraceStoreError("corrupt CTB footer length")
    try:
        footer = json.loads(data[footer_start:-12].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceStoreError("CTB footer is not valid JSON") from exc
    version = footer.get("version")
    if version != FORMAT_VERSION:
        raise TraceStoreError(f"unsupported CTB version {version!r}")
    return list(footer.get("segments", []))


def merge_segments(segments: Sequence[Segment]) -> List[Segment]:
    """Merge a segment stream into one segment per schema.

    Grouping is schema first-appearance order; within a group, rows keep
    stream order and the merged string dictionary is rebuilt by
    interning kernel-then-site per row — exactly the segment
    :meth:`Segment.from_records` would build from the same record
    stream, without materializing a single record. Single-segment
    groups pass through untouched (pure zero-copy), which is why
    :meth:`repro.server.client.Client.save_trace` can stitch streamed
    wire segments into a bundle byte-identical to a local capture.
    """
    groups: Dict[str, List[Segment]] = {}
    for segment in segments:
        groups.setdefault(segment.schema, []).append(segment)
    merged: List[Segment] = []
    for name, group in groups.items():
        if len(group) == 1:
            merged.append(group[0])
            continue
        fields = group[0].fields
        for segment in group[1:]:
            if segment.fields != fields:
                raise TraceStoreError(
                    f"cannot merge segments of schema {name!r}: field "
                    f"layouts differ ({segment.fields} vs {fields})")
        merged.append(_rebuild(name, fields,
                               [(segment, 0) for segment in group]))
    return merged


def _rebuild(name: str, fields: Tuple[str, ...],
             pieces: Sequence[Tuple[Segment, int]]) -> Segment:
    """One segment from ``(segment, start)`` pieces, rows ``start:`` each,
    its strings interned kernel-then-site per row as
    :meth:`Segment.from_records` interns them."""
    string_ids: Dict[str, int] = {}
    columns: Dict[str, array] = {column: array("q")
                                 for column in STANDARD_COLUMNS + fields}
    kernel_out = columns["kernel"]
    site_out = columns["site"]
    for segment, start in pieces:
        names = segment.strings
        for kernel_id, site_id in zip(segment.column("kernel")[start:],
                                      segment.column("site")[start:]):
            text = names[kernel_id]
            kernel_out.append(string_ids.setdefault(text, len(string_ids)))
            text = names[site_id]
            site_out.append(string_ids.setdefault(text, len(string_ids)))
        for column in ("ts", "cu") + fields:
            columns[column].extend(segment.column(column)[start:])
    ts = columns["ts"]
    return Segment(name, fields, list(string_ids), columns,
                   min_ts=min(ts, default=0), max_ts=max(ts, default=0),
                   ts_monotone=_is_monotone(ts))


class ColumnarSink(TraceSink):
    """Hub sink that persists every record to a ``.ctb`` file on close.

    The hub hands the sink sealed column batches (:meth:`on_batch`): a
    flush appends their raw payload bytes to the file — a few buffer
    copies, no per-record encode. Records delivered one at a time
    (:meth:`on_record`, when the sink is driven directly or with
    ``accepts_batches`` switched off) are buffered and sealed at flush;
    both routes write byte-identical ``.ctb`` files.
    """

    accepts_batches = True

    def __init__(self, path: str, registry: SchemaRegistry) -> None:
        self.path = path
        self.registry = registry
        self._pending: List[TraceRecord] = []
        self._segments: List[Segment] = []
        #: Total rows written to disk over this sink's lifetime.
        self.rows_written = 0

    def on_record(self, schema: TraceSchema, record: TraceRecord) -> None:
        """Buffer the record for the next flush."""
        self._pending.append(record)

    def on_batch(self, schema: TraceSchema, segment: Segment) -> None:
        """Buffer one sealed column batch for the next flush."""
        self._segments.append(segment)

    def flush(self) -> int:
        """Append buffered records/batches to the file; returns rows."""
        if not self._pending and not self._segments:
            return 0
        segments: List[Segment] = []
        if self._pending:
            segments.extend(ColumnarStore.from_records(
                self._pending, self.registry).segments)
            self._pending = []
        segments.extend(self._segments)
        self._segments = []
        added = ColumnarStore.append_segments(self.path, segments)
        self.rows_written += added
        return added

    def close(self) -> None:
        """Flush any buffered data (called by ``TraceHub.close``)."""
        self.flush()


class SegmentCollector(TraceSink):
    """Capture sink keeping each sealed batch as a ``(header, payload)`` pair.

    The pair is how captured rows leave a sweep point or a server job:
    encoded once, where they are published, and rebuilt zero-copy by
    :meth:`decode` on the other side — never materialized as records.
    """

    accepts_batches = True

    def __init__(self) -> None:
        self.segments: List[Tuple[Dict[str, object], bytes]] = []

    @classmethod
    def capture(cls, flush_rows: int = 0
                ) -> Tuple[TraceHub, "SegmentCollector"]:
        """A capture-only hub sealing every ``flush_rows`` rows (0: at
        close) and the collector it feeds; close the hub before reading
        :attr:`segments`."""
        hub = TraceHub(keep_records=False, flush_rows=flush_rows)
        return hub, hub.attach(cls())

    @staticmethod
    def decode(pairs: Iterable[Tuple[Dict[str, object], bytes]]
               ) -> List[Segment]:
        """Rebuild shipped ``(header, payload)`` pairs into segments."""
        return [Segment.from_payload(header, payload)
                for header, payload in pairs]

    def on_batch(self, schema: TraceSchema, segment: Segment) -> None:
        """Keep one sealed batch in its transport form."""
        self.segments.append((segment.header(), segment.payload_bytes()))
