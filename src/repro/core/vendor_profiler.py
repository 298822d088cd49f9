"""Model of the vendor's built-in profiler — the paper's §6 baseline.

"Altera provides profiling support for OpenCL for FPGA designs, which is
inserted into the generated logic during synthesis and provides
information on accumulated bandwidth and channel stalls. In comparison,
our proposed framework provides detailed insight into synthesized designs
and supports smart debugging functions."

This module implements that baseline faithfully to its *limitations*: it
accumulates per-LSU and per-channel counters during execution and can
report aggregate bandwidth, occupancy and stall percentages — but it has
no timestamps, no event ordering, no per-event records, and no
programmable processing. The comparison bench
(``benchmarks/bench_baseline_vendor_profiler.py``) quantifies exactly
what the ibuffer can answer that this baseline cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import ResourceProfile


@dataclass(frozen=True)
class LSUCounters:
    """Accumulated counters for one memory site (no per-event data)."""

    site: str
    kind: str
    accesses: int
    total_latency_cycles: int
    max_latency_cycles: int

    @property
    def mean_latency_cycles(self) -> float:
        return self.total_latency_cycles / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class ChannelCounters:
    """Accumulated counters for one channel (stall percentages only)."""

    name: str
    writes: int
    reads: int
    write_stall_cycles: int
    read_stall_cycles: int
    max_occupancy: int

    def write_stall_pct(self, window_cycles: int) -> float:
        return 100.0 * self.write_stall_cycles / window_cycles if window_cycles else 0.0

    def read_stall_pct(self, window_cycles: int) -> float:
        return 100.0 * self.read_stall_cycles / window_cycles if window_cycles else 0.0


@dataclass
class VendorProfileReport:
    """The aggregate report the vendor tool produces after a run."""

    window_cycles: int
    lsus: List[LSUCounters]
    channels: List[ChannelCounters]
    buffer_bandwidth: Dict[str, float]   # bytes / cycle
    total_bytes: int

    def busiest_site(self) -> Optional[LSUCounters]:
        """The site with the highest accumulated latency — the aggregate
        hint that *something* stalls there (but not when, or how badly
        per access)."""
        return max(self.lsus, key=lambda c: c.total_latency_cycles,
                   default=None)

    def render(self) -> str:
        lines = [f"=== Vendor profiler report (window: {self.window_cycles} cycles) ===",
                 f"{'site':44s} {'acc':>6s} {'mean lat':>9s} {'max lat':>8s}"]
        for counter in sorted(self.lsus, key=lambda c: -c.total_latency_cycles):
            lines.append(f"{counter.site:44s} {counter.accesses:6d} "
                         f"{counter.mean_latency_cycles:9.1f} "
                         f"{counter.max_latency_cycles:8d}")
        lines.append(f"{'channel':44s} {'wr':>6s} {'rd':>6s} "
                     f"{'wr-stall%':>9s} {'rd-stall%':>9s}")
        for counter in self.channels:
            lines.append(
                f"{counter.name:44s} {counter.writes:6d} {counter.reads:6d} "
                f"{counter.write_stall_pct(self.window_cycles):9.1f} "
                f"{counter.read_stall_pct(self.window_cycles):9.1f}")
        lines.append("bandwidth by buffer (bytes/cycle): " + ", ".join(
            f"{name}: {value:.3f}"
            for name, value in sorted(self.buffer_bandwidth.items())))
        return "\n".join(lines)


class VendorProfiler:
    """The synthesis-time-inserted aggregate profiler.

    Usage: create before running kernels (it notes the start cycle), run
    the workload, then :meth:`report` over the engines of interest.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self.start_cycle = fabric.sim.now
        self._start_bytes = (fabric.memory.stats.bytes_read
                             + fabric.memory.stats.bytes_written)

    def report(self, *engines: PipelineEngine) -> VendorProfileReport:
        """Accumulate counters over the given kernel launches."""
        if not engines:
            raise ReproError("vendor profiler needs at least one engine")
        window = self.fabric.sim.now - self.start_cycle
        lsus: List[LSUCounters] = []
        for engine in engines:
            for (site, kind), lsu in engine.lsus.items():
                lsus.append(LSUCounters(
                    site=site, kind=kind,
                    accesses=lsu.stats.completed,
                    total_latency_cycles=lsu.stats.total_latency,
                    max_latency_cycles=lsu.stats.max_latency))
        channels = [
            ChannelCounters(
                name=channel.name,
                writes=channel.stats.writes,
                reads=channel.stats.reads,
                write_stall_cycles=channel.stats.write_stall_cycles,
                read_stall_cycles=channel.stats.read_stall_cycles,
                max_occupancy=channel.stats.max_occupancy,
            )
            for channel in self.fabric.channels.all_channels()
        ]
        stats = self.fabric.memory.stats
        total_bytes = (stats.bytes_read + stats.bytes_written
                       - self._start_bytes)
        bandwidth = {}
        if window > 0:
            for name, traffic in self.fabric.memory.traffic.items():
                bandwidth[name] = (traffic.bytes_read
                                   + traffic.bytes_written) / window
        result = VendorProfileReport(
            window_cycles=window,
            lsus=lsus,
            channels=channels,
            buffer_bandwidth=bandwidth,
            total_bytes=total_bytes,
        )
        if self.fabric.trace is not None:
            from repro.trace.capture import publish_vendor_report
            publish_vendor_report(self.fabric.trace, result,
                                  kernel="vendor_profiler")
        return result

    def report_channels_only(self) -> List[ChannelCounters]:
        """Channel counters without any kernel launch (autorun-only runs)."""
        return [
            ChannelCounters(
                name=channel.name,
                writes=channel.stats.writes,
                reads=channel.stats.reads,
                write_stall_cycles=channel.stats.write_stall_cycles,
                read_stall_cycles=channel.stats.read_stall_cycles,
                max_occupancy=channel.stats.max_occupancy,
            )
            for channel in self.fabric.channels.all_channels()
        ]

    @staticmethod
    def resource_profile(lsu_sites: int, channel_count: int) -> ResourceProfile:
        """Area of the inserted counters (one counter bank per site/channel).

        Cheaper than an ibuffer — it stores nothing — which is the honest
        half of the trade-off the paper's framework makes.
        """
        return ResourceProfile(
            adders=lsu_sites + channel_count,
            logic_ops=2 * (lsu_sites + channel_count),
            extra_registers=48 * (lsu_sites + channel_count),
            control_states=2,
        )
