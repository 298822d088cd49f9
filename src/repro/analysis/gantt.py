"""Pipeline Gantt views: iteration lifetimes rendered as ASCII rows.

The paper's core motivation is that "the synthesized hardware is
fundamentally parallel" and developers need "facilities to see how
operations are executed" (§1). The engine's per-iteration trace — issue
and retire cycles per tag — renders directly into a Gantt chart: one row
per iteration, one column per cycle bin, making pipelining, stalls, and
serialization visually obvious in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from repro.errors import TraceDecodeError

Lifetime = Tuple[Any, int, int]    # (tag, issue_cycle, retire_cycle)


@dataclass(frozen=True)
class GanttRow:
    tag: Any
    start: int
    end: int


def _validate(lifetimes: Sequence[Lifetime]) -> List[GanttRow]:
    if not lifetimes:
        raise TraceDecodeError("no iteration lifetimes to render")
    rows = []
    for tag, start, end in lifetimes:
        if end < start:
            raise TraceDecodeError(
                f"iteration {tag!r} retires before it issues ({end} < {start})")
        rows.append(GanttRow(tag=tag, start=start, end=end))
    return rows


def render_gantt(lifetimes: Sequence[Lifetime], width: int = 64,
                 max_rows: int = 24, label_width: int = 10) -> str:
    """Render lifetimes as an ASCII Gantt chart.

    ``#`` marks cycles where the iteration is in flight; rows beyond
    ``max_rows`` are elided with a summary line.
    """
    rows = _validate(lifetimes)
    rows.sort(key=lambda row: (row.start, str(row.tag)))
    t_min = min(row.start for row in rows)
    t_max = max(row.end for row in rows)
    span = max(1, t_max - t_min)
    scale = span / width

    lines = [f"{'iteration':>{label_width}s} |"
             f"{t_min} .. {t_max} cycles ({span} total, "
             f"{scale:.1f} cycles/col)"]
    shown = rows[:max_rows]
    for row in shown:
        first = int((row.start - t_min) / scale)
        last = max(first, int((row.end - t_min) / scale) - 1)
        first = min(first, width - 1)
        last = min(last, width - 1)
        bar = " " * first + "#" * (last - first + 1)
        label = str(row.tag)
        if len(label) > label_width:
            label = label[:label_width - 1] + "…"
        lines.append(f"{label:>{label_width}s} |{bar}")
    if len(rows) > max_rows:
        lines.append(f"{'':>{label_width}s} |... {len(rows) - max_rows} "
                     "more iterations")
    return "\n".join(lines)


def concurrency_profile(lifetimes: Sequence[Lifetime]) -> List[Tuple[int, int]]:
    """(cycle, in-flight count) at each change point — the pipeline's
    instantaneous parallelism."""
    rows = _validate(lifetimes)
    events: List[Tuple[int, int]] = []
    for row in rows:
        events.append((row.start, +1))
        events.append((row.end, -1))
    events.sort()
    profile = []
    level = 0
    for cycle, delta in events:
        level += delta
        if profile and profile[-1][0] == cycle:
            profile[-1] = (cycle, level)
        else:
            profile.append((cycle, level))
    return profile


def peak_concurrency(lifetimes: Sequence[Lifetime]) -> int:
    """Maximum iterations simultaneously in flight."""
    return max(level for _, level in concurrency_profile(lifetimes))


def mean_lifetime(lifetimes: Sequence[Lifetime]) -> float:
    """Average issue-to-retire duration."""
    rows = _validate(lifetimes)
    return sum(row.end - row.start for row in rows) / len(rows)


def pipelining_speedup(lifetimes: Sequence[Lifetime]) -> float:
    """How much the pipeline overlapped: sum of lifetimes / wall span.

    1.0 means fully serialized (pointer-chase-like); larger means real
    overlap. This is the quantitative face of the Gantt chart.
    """
    rows = _validate(lifetimes)
    total = sum(row.end - row.start for row in rows)
    span = max(row.end for row in rows) - min(row.start for row in rows)
    return total / span if span else float(len(rows))
