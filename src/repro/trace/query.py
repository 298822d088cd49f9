"""Query API over columnar trace stores.

:class:`TraceQuery` is a small fluent builder: pick schemas, narrow by
time window / kernel / CU / site / payload equality, then project rows or
aggregate. Segment footers carry ``min_ts``/``max_ts``, so time-window
queries skip whole segments without touching their columns.

Execution runs on the vectorized columnar engine in
:mod:`repro.trace.engine`: segment pruning via string dictionaries and
footer stats, bisected monotone time windows, column-sweep match
indices, batch materialization, running-accumulator aggregates. The
row-at-a-time scan it replaced lives on as a test oracle
(``tests/trace_oracle.py``); ``tests/test_prop_trace_engine.py`` pins
the two together.

:func:`run_params` runs a query spelled as plain params — the
``repro trace query`` flags and the ``trace.query`` /
``trace.store_query`` wire params all go through it.

The module also provides the bridges that reimplement the legacy
in-memory analysis paths on top of stored traces:
:func:`latency_samples` feeds :mod:`repro.analysis.latency` and
:func:`stored_order_records` feeds :mod:`repro.analysis.order` with
objects bit-for-bit identical to what the live instrumentation produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ReproError, TraceStoreError
from repro.trace import engine as _vector
from repro.trace.columnar import ColumnarStore, Segment
from repro.trace.schema import TraceRecord


@dataclass(frozen=True)
class Aggregate:
    """Summary of one numeric column over the matching rows."""

    count: int
    minimum: int
    maximum: int
    total: int

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 for an empty population)."""
        return self.total / self.count if self.count else 0.0


class TraceQuery:
    """Fluent filter/projection/aggregation over a :class:`ColumnarStore`.

    Filters compose with AND semantics; each narrowing method returns the
    query itself, so calls chain::

        rows = (TraceQuery(store).schema("latency.sample")
                .kernel("stall_monitor").between(0, 5_000).rows())
    """

    def __init__(self, store: ColumnarStore) -> None:
        self._store = store
        self._schemas: Optional[set] = None
        self._since: Optional[int] = None
        self._until: Optional[int] = None
        self._kernels: Optional[set] = None
        self._cus: Optional[set] = None
        self._sites: Optional[set] = None
        self._field_equals: Dict[str, int] = {}
        self._limit: Optional[int] = None

    # -- narrowing ---------------------------------------------------------

    def schema(self, *names: str) -> "TraceQuery":
        """Keep only records of the named schema(s)."""
        self._schemas = set(names)
        return self

    def between(self, since: Optional[int] = None,
                until: Optional[int] = None) -> "TraceQuery":
        """Keep records with ``since <= ts < until`` (either side open)."""
        self._since = since
        self._until = until
        return self

    def kernel(self, *names: str) -> "TraceQuery":
        """Keep records from the named kernel(s)/instrumentation families."""
        self._kernels = set(names)
        return self

    def cu(self, *ids: int) -> "TraceQuery":
        """Keep records from the given compute-unit / unit indices."""
        self._cus = {int(i) for i in ids}
        return self

    def site(self, *names: str) -> "TraceQuery":
        """Keep records from the named source sites."""
        self._sites = set(names)
        return self

    def where(self, **field_equals: int) -> "TraceQuery":
        """Keep records whose payload fields equal the given values."""
        for name, value in field_equals.items():
            self._field_equals[name] = int(value)
        return self

    def limit(self, count: int) -> "TraceQuery":
        """Stop after ``count`` matching rows (in storage order)."""
        self._limit = int(count)
        return self

    # -- execution ---------------------------------------------------------

    def _segment_matches(self, segment: Segment) -> bool:
        if self._schemas is not None and segment.schema not in self._schemas:
            return False
        if segment.rows == 0:
            return False
        if self._until is not None and segment.min_ts >= self._until:
            return False
        if self._since is not None and segment.max_ts < self._since:
            return False
        return True

    def rows(self) -> List[Dict[str, object]]:
        """Matching rows as flat dicts, in storage order."""
        return _vector.rows(self)

    def records(self) -> List[TraceRecord]:
        """Matching rows as :class:`TraceRecord` objects."""
        return _vector.records(self)

    def select(self, *columns: str) -> List[Tuple]:
        """Project the named columns from matching rows, as tuples."""
        return _vector.select(self, columns)

    def count(self) -> int:
        """Number of matching rows."""
        return _vector.count(self)

    def aggregate(self, field: str, by: Optional[str] = None
                  ) -> Union[Aggregate, Dict[object, Aggregate]]:
        """Count/min/max/total/mean of ``field`` over matching rows.

        With ``by`` (any column, e.g. ``"site"`` or ``"kernel"``), returns
        one :class:`Aggregate` per distinct group key.
        """
        accumulators = _vector.aggregate(self, field, by)
        if by is None:
            acc = accumulators.get(None)
            if acc is None:
                return Aggregate(count=0, minimum=0, maximum=0, total=0)
            return Aggregate(count=acc[0], minimum=acc[1],
                             maximum=acc[2], total=acc[3])
        return {key: Aggregate(count=acc[0], minimum=acc[1],
                               maximum=acc[2], total=acc[3])
                for key, acc in accumulators.items()}


# -- plain-params queries -----------------------------------------------------

class QueryParamError(ReproError):
    """A query param holds a value of the wrong type; ``param`` names it."""

    def __init__(self, param: str, value: Any) -> None:
        kind = _PARAM_TYPES[param].__name__
        super().__init__(f"query param {param!r} takes {kind} values, "
                         f"got {value!r}")
        self.param = param


_PARAM_TYPES = {"schema": str, "kernel": str, "cu": int, "site": str,
                "since": int, "until": int, "limit": int, "agg": str,
                "by": str}
_LIST_PARAMS = ("kernel", "cu", "site")


def _param(params: Mapping[str, Any], name: str) -> Any:
    """``params[name]`` type-checked (a list for kernel/cu/site)."""
    value = params.get(name)
    if value is None:
        return None
    many = name in _LIST_PARAMS
    items = value if many and isinstance(value, (list, tuple)) else [value]
    kind = _PARAM_TYPES[name]
    # bool is an int subclass, but True is no row count or cycle.
    if not all(isinstance(item, kind) and not isinstance(item, bool)
               for item in items):
        raise QueryParamError(name, value)
    return items if many else value


def run_params(store: ColumnarStore, params: Mapping[str, Any]
               ) -> Union[List[Dict[str, object]], Dict[object, Aggregate]]:
    """Run the query that plain ``params`` spell over ``store``.

    Reads schema, kernel, cu, site, since, until, limit, agg and by; an
    empty value leaves its filter unset, and kernel/cu/site take one
    value or a list. With ``agg`` it returns ``{group: Aggregate}`` (one
    ``"(all)"`` group unless ``by`` is given) and ignores ``limit``;
    otherwise the matching rows. A wrong-typed value raises
    :class:`QueryParamError`.
    """
    query = TraceQuery(store)
    schema, kernels, cus, sites, since, until, limit, agg, by = (
        _param(params, name) for name in (
            "schema", "kernel", "cu", "site", "since", "until", "limit",
            "agg", "by"))
    if schema:
        query.schema(schema)
    if kernels:
        query.kernel(*kernels)
    if cus:
        query.cu(*cus)
    if sites:
        query.site(*sites)
    if since is not None or until is not None:
        query.between(since, until)
    if agg:
        result = query.aggregate(agg, by=by)
        return result if by is not None else {"(all)": result}
    if limit:
        query.limit(limit)
    return query.rows()


# -- legacy-analysis bridges --------------------------------------------------

def latency_samples(store: ColumnarStore, kernel: Optional[str] = None,
                    site: Optional[str] = None, cu: Optional[int] = None
                    ) -> List["LatencySample"]:
    """Stored ``latency.sample`` records -> :class:`LatencySample` objects.

    The result is bit-for-bit what :meth:`StallMonitor.latencies` returned
    live, so every :mod:`repro.analysis.latency` function runs unchanged
    on a stored trace.
    """
    from repro.core.stall_monitor import LatencySample

    query = TraceQuery(store).schema("latency.sample")
    if kernel is not None:
        query.kernel(kernel)
    if site is not None:
        query.site(site)
    if cu is not None:
        query.cu(cu)
    samples = []
    for row in query.rows():
        sample = LatencySample(start_cycle=row["start_cycle"],
                               end_cycle=row["end_cycle"],
                               start_value=row["start_value"],
                               end_value=row["end_value"])
        if sample.latency != row["latency"]:
            raise TraceStoreError(
                f"stored latency {row['latency']} disagrees with "
                f"end-start = {sample.latency} (corrupt record)")
        samples.append(sample)
    return samples


def stored_order_records(store: ColumnarStore, kernel: Optional[str] = None
                         ) -> List["OrderRecord"]:
    """Stored ``order.record`` records -> :class:`OrderRecord` objects.

    Feeds :mod:`repro.analysis.order` (classification, access pattern,
    Figure 2 rendering) identically to the live decode path.
    """
    from repro.analysis.order import OrderRecord

    query = TraceQuery(store).schema("order.record")
    if kernel is not None:
        query.kernel(kernel)
    return [OrderRecord(seq=row["seq"], timestamp=row["ts"],
                        outer=row["outer"], inner=row["inner"])
            for row in query.rows()]
