"""Pieces shared by every workload: spans, percentiles, process probes.

Spans are recorded by the benchmark around its calls into the program,
kept in plain lists and written out when the run ends. They never go
through ``repro.trace``, which is one of the layers being measured.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: The layers a span name may start with (``<layer>.<call>``); ``item``
#: spans are the roots, one per benchmark item.
LAYERS = ("experiments", "sim", "pipeline", "memory", "frontend", "trace",
          "server")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Seed of the item order of every workload's first round, the same for
#: every ``--seed``: ``peak_rss_mb`` is read after that round, and the
#: program's peak depends on the order its items come in.
FIRST_ROUND_ORDER = 0

#: Iterations of one host-speed calibration chunk (about 1 ms).
CALIBRATION_ITERATIONS = 12000

#: Median seconds of one calibration chunk on the reference host, a
#: 2-vCPU Intel Xeon VM running Python 3.11.7, in a quiet period.
CALIBRATION_REFERENCE_S = 0.00085


def calibration_chunk() -> int:
    """A fixed pure-Python loop that calls nothing of the program.

    Run between items, its time tracks how fast the shared host runs the
    interpreter at that moment. It touches no memory beyond a few
    integers, so neither the program's heap nor what the program left
    in the caches reaches it.
    """
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += index * index % 7
    return total


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False
    item = -1

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans[self.index] = (self.name, self.start, end, parent,
                                    tracer.item)
        return False


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, item id)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self._stack: List[int] = []
        #: Id of the item whose spans are being recorded.
        self.item = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self, name: str) -> List[float]:
        """Wall seconds of every span called ``name``."""
        return [end - start for (span_name, start, end, _, _) in self.spans
                if span_name == name]

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer: each span minus its children's time.

        Children of one span run one after another, so the time they
        cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (
                end - start - child_time[index])
        return totals

    def covered_share(self) -> float:
        """Share of item wall time covered by the items' child spans."""
        item_time = 0.0
        covered = 0.0
        roots = {index for index, span in enumerate(self.spans)
                 if span[0] == "item"}
        for name, start, end, parent, _ in self.spans:
            if name == "item":
                item_time += end - start
            elif parent in roots:
                covered += end - start
        return covered / item_time if item_time else 0.0

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "item": item}) + "\n")


def host_slowdown(seconds: float) -> float:
    """Calibration chunks for ``seconds``: their mean over the reference."""
    chunks = 0
    start = time.perf_counter()
    while True:
        calibration_chunk()
        chunks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / chunks / CALIBRATION_REFERENCE_S


def at_reference_speed(value: float, unit: str, slowdown: float) -> float:
    """A time or rate as the reference host would have measured it.

    ``slowdown`` is the mean calibration chunk of the measuring window
    over ``CALIBRATION_REFERENCE_S``; other units pass unchanged.
    """
    if unit in ("ms", "s", "us/cycle"):
        return value / slowdown
    if unit.endswith("/s"):
        return value * slowdown
    return value


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p50_ms(seconds: Iterable[float]) -> float:
    return median([value * 1e3 for value in seconds])


def tail(values_ms: Sequence[float]) -> Tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value ms, percentile, samples beyond); falls back to the
    median when the run holds too few samples for any higher percentile.
    """
    ordered = sorted(values_ms)
    if not ordered:
        return 0.0, 50.0, 0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = int(len(ordered) * pct / 100.0)
        beyond = len(ordered) - rank - 1
        if beyond >= 10:
            break
    return ordered[rank], pct, beyond


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def add_counts(counts: Dict[str, Any], tally: Dict[str, int]) -> None:
    """Add one item's counters into its round's counts."""
    for key, value in tally.items():
        counts[key] = counts.get(key, 0) + value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def model_metrics(counts: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-round counts of the modelled hardware and tiers, as metrics.

    These are counts of simulated events: only a change to the model (or
    to which tier runs a launch) may move them.
    """
    hits = counts.get("frontend.cache_hits", 0)
    compiles = counts.get("frontend.compiles", 0)
    row_hits = counts.get("memory.row_hits", 0)
    return {
        "sim.cycles": (counts.get("sim.cycles", 0), "cycles"),
        "frontend.compiles": (compiles, "count"),
        "frontend.cache_hit_ratio": (_ratio(hits, hits + compiles), "ratio"),
        "pipeline.iterations_retired": (
            counts.get("pipeline.iterations_retired", 0), "count"),
        "pipeline.issue_stall_cycles": (
            counts.get("pipeline.issue_stall_cycles", 0), "cycles"),
        "pipeline.batch_table_ratio": (
            _ratio(counts.get("pipeline.batch_table", 0),
                   counts.get("pipeline.batch_attempts", 0)), "ratio"),
        "pipeline.batch_fallbacks": (
            counts.get("pipeline.batch_fallbacks", 0), "count"),
        "memory.loads": (counts.get("memory.loads", 0), "count"),
        "memory.stores": (counts.get("memory.stores", 0), "count"),
        "memory.row_hit_ratio": (
            _ratio(row_hits, row_hits + counts.get("memory.row_misses", 0)),
            "ratio"),
        "memory.avg_load_latency_cycles": (
            _ratio(counts.get("memory.total_load_latency", 0),
                   counts.get("memory.loads", 0)), "cycles"),
    }
