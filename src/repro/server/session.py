"""Per-client session state: namespaced buffers, private trace hub, quotas.

A :class:`Session` is the server-side object behind ``session.open`` —
the cf4ocl-style *context* of this runtime. Each session owns

* a **program namespace** (compiled source handles; the underlying
  program images live in the process-wide cache, shared across sessions),
* **named buffers** (host-visible int arrays that persist across runs and
  can seed/collect kernel launches), bounded by an element quota,
* a **private trace hub** accumulating every record its jobs produced,
  with subscriptions that stream new records out as ``.ctb`` segments,
* job bookkeeping (queue depth for backpressure, completed counters,
  total simulated cycles).

Sessions are isolated: nothing one session does is observable from
another except through the shared (read-only from their view) program
cache — which is the point of the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.server import protocol
from repro.server.protocol import ServerError
from repro.trace.schema import SchemaRegistry, TraceRecord


@dataclass
class SessionQuota:
    """Resource bounds enforced per session."""

    #: Maximum jobs admitted (queued + running) at once: the per-session
    #: backpressure bound. Overflow returns a structured ``busy`` error.
    queue_limit: int = 8
    #: Total elements across all named session buffers.
    max_buffer_elems: int = 1 << 20
    #: Retained trace records; older records are dropped (and counted)
    #: once exceeded — subscribers already received them.
    max_trace_records: int = 1 << 20
    #: Streamed-segment granularity: split each subscriber batch into
    #: segments of at most this many rows (0, the default, keeps one
    #: segment per schema per batch — matching a local
    #: ``ColumnarSink`` flush at hub close).
    trace_flush_rows: int = 0


@dataclass
class Subscription:
    """One ``trace.subscribe`` registration."""

    subscription_id: str
    schemas: Optional[set] = None        # None = all schemas
    batches_sent: int = 0
    rows_sent: int = 0

    def wants(self, schema_name: str) -> bool:
        return self.schemas is None or schema_name in self.schemas


@dataclass
class SessionStats:
    """Monotonic per-session counters surfaced by ``server.stats``."""

    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_rejected: int = 0
    cycles_total: int = 0
    trace_rows: int = 0
    trace_rows_dropped: int = 0


class Session:
    """Server-side state for one client session."""

    def __init__(self, session_id: str,
                 quota: Optional[SessionQuota] = None) -> None:
        self.session_id = session_id
        self.quota = quota or SessionQuota()
        self.stats = SessionStats()
        #: program handle -> compile payload (source + options).
        self.programs: Dict[str, Dict[str, Any]] = {}
        #: named session buffers (plain int lists; fabric-independent).
        self.buffers: Dict[str, List[int]] = {}
        #: accumulated trace records across this session's jobs.
        self.records: List[TraceRecord] = []
        self.registry = SchemaRegistry()
        self.subscriptions: Dict[str, Subscription] = {}
        #: async job results by job id (kernel.enqueue / job.wait).
        self.job_results: Dict[str, Dict[str, Any]] = {}
        #: jobs admitted but not yet finished (backpressure gauge).
        self.active_jobs = 0
        self.closed = False
        self._seq = 0

    # -- ids ---------------------------------------------------------------

    def next_id(self, prefix: str) -> str:
        self._seq += 1
        return f"{prefix}{self._seq}"

    # -- buffers -----------------------------------------------------------

    def buffer_elems(self) -> int:
        return sum(len(values) for values in self.buffers.values())

    def create_buffer(self, name: str, size: int,
                      fill: Optional[List[int]] = None) -> None:
        if not name or not isinstance(name, str):
            raise ServerError(protocol.E_BAD_REQUEST, "buffer needs a name")
        if size < 0:
            raise ServerError(protocol.E_BAD_REQUEST,
                              f"buffer {name!r}: negative size {size}")
        existing = len(self.buffers.get(name, ()))
        if self.buffer_elems() - existing + size > self.quota.max_buffer_elems:
            raise ServerError(protocol.E_QUOTA, (
                f"buffer {name!r} ({size} elems) exceeds the session "
                f"buffer quota"), {
                    "quota_elems": self.quota.max_buffer_elems,
                    "in_use_elems": self.buffer_elems() - existing})
        values = [0] * size
        if fill is not None:
            if len(fill) > size:
                raise ServerError(
                    protocol.E_BAD_REQUEST,
                    f"buffer {name!r}: fill has {len(fill)} values for "
                    f"size {size}")
            values[:len(fill)] = [int(value) for value in fill]
        self.buffers[name] = values

    def read_buffer(self, name: str) -> List[int]:
        try:
            return self.buffers[name]
        except KeyError:
            raise ServerError(
                protocol.E_NOT_FOUND,
                f"session has no buffer {name!r}; known: "
                f"{sorted(self.buffers)}") from None

    def free_buffer(self, name: str) -> None:
        self.read_buffer(name)
        del self.buffers[name]

    # -- programs ----------------------------------------------------------

    def get_program(self, program_id: str) -> Dict[str, Any]:
        try:
            return self.programs[program_id]
        except KeyError:
            raise ServerError(
                protocol.E_NOT_FOUND,
                f"session has no program {program_id!r}; known: "
                f"{sorted(self.programs)}") from None

    # -- trace accumulation -------------------------------------------------

    def add_records(self, schemas, records) -> List[TraceRecord]:
        """Register schema layouts, retain the records, return them.

        Retention is bounded by the quota: the *oldest* records are
        dropped (subscribers streamed them already; only ``trace.query``
        over ancient history is affected) and the drop count surfaces in
        ``server.stats``.
        """
        for name, fields, doc in schemas:
            self.registry.ensure(name, tuple(fields), doc=doc)
        self.records.extend(records)
        self.stats.trace_rows += len(records)
        overflow = len(self.records) - self.quota.max_trace_records
        if overflow > 0:
            del self.records[:overflow]
            self.stats.trace_rows_dropped += overflow
        return list(records)

    def make_store(self):
        """Seal the accumulated records into an in-memory columnar store."""
        from repro.trace.columnar import ColumnarStore

        return ColumnarStore.from_records(self.records, self.registry)

    def batch_segments(self, records,
                       subscription: Subscription) -> List[Any]:
        """Seal one job's records into segments for one subscriber.

        Grouping matches :meth:`ColumnarStore.append_records` (schema
        first-appearance order), so a client that stitches batches back
        together reproduces exactly what a local ``ColumnarSink`` flush
        per run would have written. A non-zero ``quota.trace_flush_rows``
        additionally splits each group into segments of at most that
        many rows (clients merge them back with
        :func:`repro.trace.columnar.merge_segments`).
        """
        from repro.trace.columnar import Segment

        grouped: Dict[str, List[TraceRecord]] = {}
        for record in records:
            if subscription.wants(record.schema):
                grouped.setdefault(record.schema, []).append(record)
        limit = self.quota.trace_flush_rows
        segments: List[Any] = []
        for name, group in grouped.items():
            schema = self.registry.get(name)
            if limit and len(group) > limit:
                segments.extend(
                    Segment.from_records(schema, group[start:start + limit])
                    for start in range(0, len(group), limit))
            else:
                segments.append(Segment.from_records(schema, group))
        return segments

    # -- summary -----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The per-session block of ``server.stats``."""
        return {
            "jobs_completed": self.stats.jobs_completed,
            "jobs_failed": self.stats.jobs_failed,
            "jobs_rejected": self.stats.jobs_rejected,
            "cycles_total": self.stats.cycles_total,
            "queue_depth": self.active_jobs,
            "queue_limit": self.quota.queue_limit,
            "programs": len(self.programs),
            "buffers": len(self.buffers),
            "buffer_elems": self.buffer_elems(),
            "trace_rows": self.stats.trace_rows,
            "trace_rows_dropped": self.stats.trace_rows_dropped,
            "subscriptions": len(self.subscriptions),
        }
