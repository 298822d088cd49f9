"""Trace and profile diffing: regression detection for FPGA designs.

The practical workflow the paper's framework enables is *comparative*:
profile a design, change something (channel depth, unroll factor, memory
layout), profile again, and ask what moved. These helpers diff latency
populations and decoded traces and render the answer compactly, so a CI
job can fail when a design change regresses its measured behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.latency import LatencyStats, summarize
from repro.core.stall_monitor import LatencySample
from repro.errors import TraceDecodeError


@dataclass(frozen=True)
class LatencyDiff:
    """Before/after comparison of two latency populations."""

    before: LatencyStats
    after: LatencyStats

    @property
    def mean_delta(self) -> float:
        return self.after.mean - self.before.mean

    @property
    def mean_delta_pct(self) -> float:
        if self.before.mean == 0:
            return 0.0
        return 100.0 * self.mean_delta / self.before.mean

    @property
    def p95_delta(self) -> float:
        return self.after.p95 - self.before.p95

    @property
    def regressed(self) -> bool:
        """True when the change made latencies meaningfully worse (>2%)."""
        return self.mean_delta_pct > 2.0

    def render(self, label: str = "latency") -> str:
        """One-line verdict plus the stat deltas."""
        verdict = ("REGRESSED" if self.regressed
                   else "improved" if self.mean_delta_pct < -2.0
                   else "unchanged")
        return (f"{label}: {verdict} — mean {self.before.mean:.1f} -> "
                f"{self.after.mean:.1f} ({self.mean_delta_pct:+.1f}%), "
                f"p95 {self.before.p95:.1f} -> {self.after.p95:.1f}, "
                f"max {self.before.maximum} -> {self.after.maximum}")


def diff_latencies(before: Sequence[LatencySample],
                   after: Sequence[LatencySample]) -> LatencyDiff:
    """Compare two latency populations (any sizes)."""
    return LatencyDiff(before=summarize(before), after=summarize(after))


def diff_traces(before: Sequence[Dict[str, int]],
                after: Sequence[Dict[str, int]],
                ignore_fields: Tuple[str, ...] = ("timestamp",)
                ) -> List[str]:
    """Structural diff of decoded trace entries.

    Returns human-readable difference descriptions (empty = identical up
    to the ignored fields). Timestamps are ignored by default: two runs
    of a changed design keep the same *event content* while cycles move.
    """
    differences: List[str] = []
    if len(before) != len(after):
        differences.append(
            f"entry count changed: {len(before)} -> {len(after)}")
    for index, (left, right) in enumerate(zip(before, after)):
        left_view = {key: value for key, value in left.items()
                     if key not in ignore_fields}
        right_view = {key: value for key, value in right.items()
                      if key not in ignore_fields}
        if left_view != right_view:
            differences.append(
                f"entry {index}: {left_view} -> {right_view}")
            if len(differences) >= 20:
                differences.append("... (diff truncated)")
                break
    return differences


def assert_traces_equal(before: Sequence[Dict[str, int]],
                        after: Sequence[Dict[str, int]],
                        ignore_fields: Tuple[str, ...] = ("timestamp",)
                        ) -> None:
    """Raise :class:`TraceDecodeError` describing the first differences.

    The CI-guard form of :func:`diff_traces`.
    """
    differences = diff_traces(before, after, ignore_fields)
    if differences:
        raise TraceDecodeError(
            "traces differ:\n  " + "\n  ".join(differences[:5]))
