"""Timelines: turning trace entries into per-cycle activity series.

The §5.1 monitor yields event-level records; engineers often want the
*time view*: how many operations were in flight each cycle, where the
stall bursts sit, when a channel ran full. These helpers bin traces onto
the cycle axis and render compact ASCII sparklines for terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.core.stall_monitor import LatencySample
from repro.errors import TraceDecodeError

_SPARKS = " ▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class Timeline:
    """A binned series over cycles: values[i] covers
    [start + i*bin_width, start + (i+1)*bin_width)."""

    start: int
    bin_width: int
    values: Tuple[float, ...]

    @property
    def end(self) -> int:
        return self.start + self.bin_width * len(self.values)

    def sparkline(self) -> str:
        """One-line ASCII rendering (block characters by magnitude)."""
        if not self.values:
            return ""
        top = max(self.values) or 1
        levels = len(_SPARKS) - 1
        return "".join(
            _SPARKS[min(levels, int(round(value / top * levels)))]
            for value in self.values)

    def render(self, label: str = "activity") -> str:
        return (f"{label} [{self.start}..{self.end}) "
                f"bin={self.bin_width}: {self.sparkline()} "
                f"(peak {max(self.values):g})")


def occupancy_timeline(samples: Sequence[LatencySample],
                       bin_width: int = 64) -> Timeline:
    """In-flight operation count per cycle bin.

    Each sample occupies [start_cycle, end_cycle); the timeline reports the
    mean concurrent occupancy in each bin — the pipeline's memory pressure
    over time.
    """
    if not samples:
        raise TraceDecodeError("no samples for a timeline")
    if bin_width < 1:
        raise TraceDecodeError(f"bin width must be >= 1, got {bin_width}")
    start = min(sample.start_cycle for sample in samples)
    end = max(sample.end_cycle for sample in samples)
    bins = max(1, -(-(end - start) // bin_width))
    busy = [0.0] * bins
    for sample in samples:
        for index in range(bins):
            bin_lo = start + index * bin_width
            bin_hi = bin_lo + bin_width
            overlap = min(sample.end_cycle, bin_hi) - max(sample.start_cycle,
                                                          bin_lo)
            if overlap > 0:
                busy[index] += overlap / bin_width
    return Timeline(start=start, bin_width=bin_width, values=tuple(busy))


def event_rate_timeline(entries: Iterable[Dict[str, int]],
                        bin_width: int = 64,
                        time_field: str = "timestamp") -> Timeline:
    """Events per bin for any decoded trace."""
    stamps = [entry[time_field] for entry in entries]
    if not stamps:
        raise TraceDecodeError("no entries for a timeline")
    if bin_width < 1:
        raise TraceDecodeError(f"bin width must be >= 1, got {bin_width}")
    start, end = min(stamps), max(stamps) + 1
    bins = max(1, -(-(end - start) // bin_width))
    counts = [0.0] * bins
    for stamp in stamps:
        counts[(stamp - start) // bin_width] += 1
    return Timeline(start=start, bin_width=bin_width, values=tuple(counts))


def latency_timeline(samples: Sequence[LatencySample],
                     bin_width: int = 64) -> Timeline:
    """Mean latency of operations *starting* in each bin — shows when the
    pipeline transitioned from warm-up to steady-state stalling."""
    if not samples:
        raise TraceDecodeError("no samples for a timeline")
    if bin_width < 1:
        raise TraceDecodeError(f"bin width must be >= 1, got {bin_width}")
    start = min(sample.start_cycle for sample in samples)
    end = max(sample.start_cycle for sample in samples) + 1
    bins = max(1, -(-(end - start) // bin_width))
    totals = [0.0] * bins
    counts = [0] * bins
    for sample in samples:
        index = (sample.start_cycle - start) // bin_width
        totals[index] += sample.latency
        counts[index] += 1
    means = tuple(totals[i] / counts[i] if counts[i] else 0.0
                  for i in range(bins))
    return Timeline(start=start, bin_width=bin_width, values=means)
