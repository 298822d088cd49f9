"""Typed record schemas for the unified trace subsystem.

Every instrumentation source (ibuffer READ drains, stall-monitor latency
pairs, watchpoint hits, vendor-profiler counters, host-queue events)
publishes :class:`TraceRecord` instances shaped by a :class:`TraceSchema`.
A schema names the *payload* integer fields of a record; four standard
columns are carried by every record regardless of schema:

* ``ts``     — the record's cycle timestamp (emulation records use steps);
* ``kernel`` — name of the kernel / instrumentation family that produced it;
* ``cu``     — compute-unit / unit index within that family;
* ``site``   — free-form source-site label (dictionary-encoded on disk).

Schemas live in a :class:`SchemaRegistry`; the built-in schemas cover the
paper's instrumentation sources, and new ones (e.g. one per ibuffer entry
layout) may be registered at publish time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import TraceSchemaError

#: Column names every record carries implicitly; payload fields must not
#: shadow them.
STANDARD_COLUMNS: Tuple[str, ...] = ("ts", "kernel", "cu", "site")


@dataclass(frozen=True)
class TraceSchema:
    """Shape of one record family: its name and payload field names."""

    name: str
    fields: Tuple[str, ...]
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise TraceSchemaError("schema name must be non-empty")
        if len(set(self.fields)) != len(self.fields):
            raise TraceSchemaError(
                f"schema {self.name!r}: duplicate fields {self.fields}")
        clash = set(self.fields) & set(STANDARD_COLUMNS) | (
            {"schema"} & set(self.fields))
        if clash:
            raise TraceSchemaError(
                f"schema {self.name!r}: fields {sorted(clash)} shadow "
                f"standard columns {STANDARD_COLUMNS + ('schema',)}")

    @property
    def columns(self) -> Tuple[str, ...]:
        """All column names, standard first then payload (storage order)."""
        return STANDARD_COLUMNS + self.fields

    def pack(self, values: Dict[str, int]) -> Tuple[int, ...]:
        """Payload dict -> value tuple in field order (strict: no missing
        or extra fields)."""
        missing = set(self.fields) - set(values)
        extra = set(values) - set(self.fields)
        if missing or extra:
            raise TraceSchemaError(
                f"schema {self.name!r}: missing fields {sorted(missing)}, "
                f"unexpected fields {sorted(extra)}")
        return tuple(int(values[name]) for name in self.fields)


@dataclass(frozen=True)
class TraceRecord:
    """One published trace record (immutable, plain integers + strings)."""

    schema: str
    ts: int
    kernel: str
    cu: int
    site: str
    values: Tuple[int, ...]

    def payload(self, schema: TraceSchema) -> Dict[str, int]:
        """Payload values as a field-name dict (needs the schema)."""
        if schema.name != self.schema or len(schema.fields) != len(self.values):
            raise TraceSchemaError(
                f"record of schema {self.schema!r} with {len(self.values)} "
                f"values does not match schema {schema.name!r}")
        return dict(zip(schema.fields, self.values))

    def as_dict(self, schema: TraceSchema) -> Dict[str, object]:
        """Full row dict: standard columns + payload fields."""
        row: Dict[str, object] = {"schema": self.schema, "ts": self.ts,
                                  "kernel": self.kernel, "cu": self.cu,
                                  "site": self.site}
        row.update(self.payload(schema))
        return row


#: Derived per-operation latency pairs from the §5.1 stall monitor.
LATENCY_SAMPLE = TraceSchema(
    "latency.sample",
    ("start_cycle", "end_cycle", "latency", "start_value", "end_value"),
    doc="Paired snapshot-site measurements (StallMonitor.latencies).")

#: Figure 2 execution-order records decoded from the info buffers.
ORDER_RECORD = TraceSchema(
    "order.record", ("seq", "outer", "inner"),
    doc="Dynamic issue-order probes (sequence slot, outer k, inner i).")

#: Watchpoint events (§5.2): match / bound / invariance, typed.
WATCH_EVENT = TraceSchema(
    "watch.event", ("address", "tag", "kind"),
    doc="Smart-watchpoint hits and violations.")

#: Aggregate per-LSU counters from the vendor-profiler baseline.
COUNTER_LSU = TraceSchema(
    "counter.lsu", ("accesses", "total_latency", "max_latency"),
    doc="Vendor-profiler per-memory-site accumulated counters.")

#: Aggregate per-channel counters from the vendor-profiler baseline.
COUNTER_CHANNEL = TraceSchema(
    "counter.channel",
    ("writes", "reads", "write_stalls", "read_stalls", "max_occupancy"),
    doc="Vendor-profiler per-channel accumulated counters.")

#: One host command-queue entry's lifecycle (clGetEventProfilingInfo).
HOST_COMMAND = TraceSchema(
    "host.command", ("queued", "start", "end"),
    doc="Host command-queue event: queued/start/end cycles.")

#: One kernel launch's wall extent in cycles (a span for timelines).
RUN_SPAN = TraceSchema(
    "run.span", ("start", "end"),
    doc="Kernel launch span: first to last cycle of the engine.")

#: Functional-emulation run summary (steps, not cycles).
EMU_KERNEL = TraceSchema(
    "emu.kernel",
    ("iterations", "loads", "stores", "channel_reads", "channel_writes"),
    doc="Emulator per-kernel operation counts (timestamps are steps).")

#: One record per batch-engine launch; ``mode`` is 1 when the launch ran
#: columnar (table mode), 0 when it fell back to per-iteration stepping.
#: ``site`` carries the human-readable fallback reason ("" in table mode).
BATCH_LAUNCH = TraceSchema(
    "batch.launch", ("mode", "rows", "ops"),
    doc="Batch-executor launch outcome: mode, work-item rows, memory ops.")

#: Emitted when a table-mode attempt aborts at run time (control-flow
#: divergence across rows, or an intra-launch memory hazard); ``site``
#: carries the abort reason. The launch then re-runs via fallback.
BATCH_DIVERGENCE = TraceSchema(
    "batch.divergence", ("rows",),
    doc="Batch-executor run-time divergence/hazard abort (pre-fallback).")

#: All schemas registered by default in every registry.
BUILTIN_SCHEMAS: Tuple[TraceSchema, ...] = (
    LATENCY_SAMPLE, ORDER_RECORD, WATCH_EVENT, COUNTER_LSU, COUNTER_CHANNEL,
    HOST_COMMAND, RUN_SPAN, EMU_KERNEL, BATCH_LAUNCH, BATCH_DIVERGENCE,
)


class SchemaRegistry:
    """Name -> :class:`TraceSchema` map with conflict detection.

    Registration is idempotent for identical definitions; re-registering a
    name with different fields raises — silently changing a schema would
    corrupt columnar segments already written under the old shape.
    """

    def __init__(self, builtins: bool = True) -> None:
        self._schemas: Dict[str, TraceSchema] = {}
        if builtins:
            for schema in BUILTIN_SCHEMAS:
                self.register(schema)

    def register(self, schema: TraceSchema) -> TraceSchema:
        """Add a schema; idempotent if identical, error on conflict."""
        existing = self._schemas.get(schema.name)
        if existing is not None:
            if existing.fields != schema.fields:
                raise TraceSchemaError(
                    f"schema {schema.name!r} already registered with fields "
                    f"{existing.fields}, conflicting with {schema.fields}")
            return existing
        self._schemas[schema.name] = schema
        return schema

    def ensure(self, name: str, fields: Iterable[str],
               doc: str = "") -> TraceSchema:
        """Register-if-absent by name/fields (dynamic ibuffer layouts)."""
        return self.register(TraceSchema(name, tuple(fields), doc=doc))

    def get(self, name: str) -> TraceSchema:
        """Look up a schema; unknown names raise :class:`TraceSchemaError`."""
        try:
            return self._schemas[name]
        except KeyError:
            raise TraceSchemaError(
                f"unknown trace schema {name!r}; registered: "
                f"{', '.join(sorted(self._schemas)) or '(none)'}") from None

    def names(self) -> List[str]:
        """All registered schema names, sorted."""
        return sorted(self._schemas)

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def __len__(self) -> int:
        return len(self._schemas)
