"""Vectorized execution engine behind :class:`~repro.trace.query.TraceQuery`.

Queries run as per-segment column passes rather than one Python
``if``-chain and one dict per row:

* **Segment pruning before any decode** — schema filters, footer
  ``min_ts``/``max_ts`` windows, and kernel/site filters resolved to
  string-dictionary ID sets all reject whole segments without touching
  their payload bytes.
* **Match-index selection** — each surviving predicate runs as one
  column sweep producing a list of matching row indices; time windows
  bisect instead of sweeping when the segment's ``ts`` column is flagged
  monotone (write-time flag, validated at first decode). A selection is
  either a ``range`` (contiguous match — often the whole segment) or an
  ascending index list.
* **Batch materialization** — ``rows()``/``records()`` build their
  outputs only for survivors, decoding the string dictionary once per
  segment; ``select()`` zips column batches into tuples; ``aggregate()``
  folds running ``(count, min, max, total)`` accumulators per group key
  with no per-group value lists and no per-row dicts, dropping to
  C-level ``sum``/``min``/``max`` over raw column slices when a
  selection is contiguous.

Semantics are pinned to the row-at-a-time scan in
``tests/trace_oracle.py`` by the hypothesis suite in
``tests/test_prop_trace_engine.py`` — including error messages, the
"``limit(0)`` emits one row" quirk, and exporter byte-equality.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import TraceSchemaError
from repro.trace.columnar import Segment
from repro.trace.schema import TraceRecord

#: Keys every materialized row carries besides the payload fields.
_ROW_KEYS: Tuple[str, ...] = ("schema", "ts", "kernel", "cu", "site")

#: A per-segment selection: contiguous ``range`` or ascending index list.
Selection = Union[range, List[int]]


# -- selection ---------------------------------------------------------------

def _dictionary_ids(strings: List[str], wanted) -> set:
    """String-dictionary IDs whose strings are in ``wanted``."""
    return {index for index, text in enumerate(strings) if text in wanted}


def _filter_in(column, allowed: set, sel: Optional[Selection]) -> List[int]:
    """Keep indices whose column value is in ``allowed`` (one sweep)."""
    if sel is None:
        return [i for i, v in enumerate(column) if v in allowed]
    if isinstance(sel, range):
        start = sel.start
        return [i for i, v in enumerate(column[start:sel.stop], start)
                if v in allowed]
    return [i for i in sel if column[i] in allowed]


def _filter_eq(column, value: int, sel: Optional[Selection]) -> List[int]:
    """Keep indices whose column value equals ``value`` (one sweep)."""
    if sel is None:
        return [i for i, v in enumerate(column) if v == value]
    if isinstance(sel, range):
        start = sel.start
        return [i for i, v in enumerate(column[start:sel.stop], start)
                if v == value]
    return [i for i in sel if column[i] == value]


def _window_selection(segment: Segment, since: Optional[int],
                      until: Optional[int]) -> Optional[Selection]:
    """Time-window selection for one segment (None = empty).

    The caller has already pruned fully-outside segments via the footer
    stats; a fully-inside segment returns the full range without
    decoding ``ts``. Monotone segments bisect; the rest sweep once.
    """
    rows = segment.rows
    if ((since is None or segment.min_ts >= since)
            and (until is None or segment.max_ts < until)):
        return range(rows)
    ts = segment.column("ts")
    if segment.ts_monotone:
        lo = bisect_left(ts, since) if since is not None else 0
        hi = bisect_left(ts, until) if until is not None else rows
        return range(lo, hi) if lo < hi else None
    if since is None:
        sel = [i for i, t in enumerate(ts) if t < until]
    elif until is None:
        sel = [i for i, t in enumerate(ts) if t >= since]
    else:
        sel = [i for i, t in enumerate(ts) if since <= t < until]
    return sel or None


def _segment_selection(query, segment: Segment) -> Optional[Selection]:
    """Matching row indices for one segment (None = no matches)."""
    sel: Optional[Selection] = None
    if query._since is not None or query._until is not None:
        sel = _window_selection(segment, query._since, query._until)
        if sel is None:
            return None
    if query._kernels is not None:
        allowed = _dictionary_ids(segment.strings, query._kernels)
        if not allowed:
            return None
        sel = _filter_in(segment.column("kernel"), allowed, sel)
        if not sel:
            return None
    if query._sites is not None:
        allowed = _dictionary_ids(segment.strings, query._sites)
        if not allowed:
            return None
        sel = _filter_in(segment.column("site"), allowed, sel)
        if not sel:
            return None
    if query._cus is not None:
        sel = _filter_in(segment.column("cu"), query._cus, sel)
        if not sel:
            return None
    for name, value in query._field_equals.items():
        if not segment.has_column(name):
            return None   # schema lacks the field: no match
        sel = _filter_eq(segment.column(name), value, sel)
        if not sel:
            return None
    return sel if sel is not None else range(segment.rows)


def selections(query) -> List[Tuple[Segment, Selection]]:
    """Per-segment selections in storage order, with ``limit`` applied.

    The cut-off is checked *after* each emitted row, as the row-at-a-time
    scan always did, so a zero or negative limit still emits one row.
    """
    limit = query._limit
    cap = None if limit is None else (limit if limit >= 1 else 1)
    out: List[Tuple[Segment, Selection]] = []
    emitted = 0
    for segment in query._store.segments:
        if not query._segment_matches(segment):
            continue
        sel = _segment_selection(query, segment)
        if sel is None or len(sel) == 0:
            continue
        if cap is not None and emitted + len(sel) >= cap:
            out.append((segment, sel[:cap - emitted]))
            return out
        out.append((segment, sel))
        emitted += len(sel)
    return out


# -- execution ---------------------------------------------------------------

def count(query) -> int:
    """Number of matching rows."""
    return sum(len(sel) for _, sel in selections(query))


def rows(query) -> List[Dict[str, object]]:
    """Matching rows as flat dicts, batch-materialized per segment."""
    out: List[Dict[str, object]] = []
    for segment, sel in selections(query):
        schema = segment.schema
        strings = segment.strings
        ts = segment.column("ts")
        kernel = segment.column("kernel")
        cu = segment.column("cu")
        site = segment.column("site")
        fields = [(name, segment.column(name)) for name in segment.fields]
        for i in sel:
            row: Dict[str, object] = {
                "schema": schema,
                "ts": ts[i],
                "kernel": strings[kernel[i]],
                "cu": cu[i],
                "site": strings[site[i]],
            }
            for name, column in fields:
                row[name] = column[i]
            out.append(row)
    return out


def records(query) -> List[TraceRecord]:
    """Matching rows as :class:`TraceRecord` objects."""
    out: List[TraceRecord] = []
    for segment, sel in selections(query):
        schema = segment.schema
        strings = segment.strings
        ts = segment.column("ts")
        kernel = segment.column("kernel")
        cu = segment.column("cu")
        site = segment.column("site")
        columns = [segment.column(name) for name in segment.fields]
        for i in sel:
            out.append(TraceRecord(
                schema, ts[i], strings[kernel[i]], cu[i],
                strings[site[i]],
                tuple(column[i] for column in columns)))
    return out


def _missing_column(segment: Segment, name: str) -> TraceSchemaError:
    row_keys = sorted(set(_ROW_KEYS) | set(segment.fields))
    return TraceSchemaError(
        f"schema {segment.schema!r} has no column {name!r};"
        f" columns: {row_keys}")


def select(query, columns: Tuple[str, ...]) -> List[Tuple]:
    """Project the named columns from matching rows, as tuples."""
    out: List[Tuple] = []
    for segment, sel in selections(query):
        available = set(_ROW_KEYS) | set(segment.fields)
        for name in columns:
            if name not in available:
                raise _missing_column(segment, name)
        if not columns:
            out.extend(() for _ in range(len(sel)))
            continue
        batches = []
        for name in columns:
            if name == "schema":
                batches.append([segment.schema] * len(sel))
            elif name in ("kernel", "site"):
                strings = segment.strings
                column = segment.column(name)
                batches.append([strings[column[i]] for i in sel])
            else:
                column = segment.column(name)
                batches.append([column[i] for i in sel])
        out.extend(zip(*batches))
    return out


def _column_batch(column, sel: Selection):
    """The selected values of one column (zero-copy when contiguous)."""
    if isinstance(sel, range):
        if sel.start == 0 and sel.stop == len(column):
            return column
        return column[sel.start:sel.stop]
    return [column[i] for i in sel]


def _fold(accumulators: Dict[object, List[int]], key, values) -> None:
    """Merge one batch of values into the running (count,min,max,total)."""
    total = sum(values)
    minimum = min(values)
    maximum = max(values)
    acc = accumulators.get(key)
    if acc is None:
        accumulators[key] = [len(values), minimum, maximum, total]
    else:
        acc[0] += len(values)
        acc[3] += total
        if minimum < acc[1]:
            acc[1] = minimum
        if maximum > acc[2]:
            acc[2] = maximum


def aggregate(query, field: str,
              by: Optional[str]) -> Dict[object, List[int]]:
    """Running ``{key: [count, min, max, total]}`` accumulators.

    Group keys are the decoded ``by`` values (strings for
    ``kernel``/``site``/``schema``, raw integers otherwise), matching the
    row-at-a-time oracle's per-row dict lookups; the caller wraps the
    accumulators into :class:`~repro.trace.query.Aggregate` objects.
    """
    accumulators: Dict[object, List[int]] = {}
    for segment, sel in selections(query):
        available = set(_ROW_KEYS) | set(segment.fields)
        if field not in available:
            raise TraceSchemaError(
                f"schema {segment.schema!r} has no column {field!r}")
        if by is not None and by not in available:
            raise TraceSchemaError(
                f"schema {segment.schema!r} has no column {by!r}")
        values = _aggregate_values(segment, field, sel)
        if by is None:
            _fold(accumulators, None, values)
        elif by == "schema":
            _fold(accumulators, segment.schema, values)
        elif by in ("kernel", "site"):
            # Accumulate per dictionary ID, then merge under the string.
            local: Dict[int, List] = {}
            keys = segment.column(by)
            for position, i in enumerate(sel):
                key = keys[i]
                value = values[position]
                acc = local.get(key)
                if acc is None:
                    local[key] = [1, value, value, value]
                else:
                    acc[0] += 1
                    acc[3] += value
                    if value < acc[1]:
                        acc[1] = value
                    if value > acc[2]:
                        acc[2] = value
            strings = segment.strings
            for key, acc in local.items():
                merged = accumulators.get(strings[key])
                if merged is None:
                    accumulators[strings[key]] = acc
                else:
                    merged[0] += acc[0]
                    merged[3] += acc[3]
                    if acc[1] < merged[1]:
                        merged[1] = acc[1]
                    if acc[2] > merged[2]:
                        merged[2] = acc[2]
        else:
            keys = segment.column(by)
            for position, i in enumerate(sel):
                key = keys[i]
                value = values[position]
                acc = accumulators.get(key)
                if acc is None:
                    accumulators[key] = [1, value, value, value]
                else:
                    acc[0] += 1
                    acc[3] += value
                    if value < acc[1]:
                        acc[1] = value
                    if value > acc[2]:
                        acc[2] = value
    return accumulators


def _aggregate_values(segment: Segment, field: str, sel: Selection):
    """The aggregated column's selected values, as plain integers.

    String columns replicate the oracle's ``int(row[field])``: the
    decoded text goes through ``int()``, raising the same ``ValueError``
    for non-numeric labels.
    """
    if field == "schema":
        return [int(segment.schema)] * len(sel)
    if field in ("kernel", "site"):
        strings = segment.strings
        column = segment.column(field)
        return [int(strings[column[i]]) for i in sel]
    return _column_batch(segment.column(field), sel)


def distinct_kernels(store) -> List[str]:
    """Sorted distinct kernel names, from the string dictionaries.

    Only IDs actually referenced by the ``kernel`` column count — a
    dictionary entry used solely by ``site`` is not a kernel.
    """
    kernels: set = set()
    for segment in store.segments:
        if not segment.rows:
            continue
        strings = segment.strings
        for index in set(segment.column("kernel")):
            kernels.add(strings[index])
    return sorted(kernels)
