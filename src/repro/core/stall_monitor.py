"""Pipeline stall monitor (§5.1, Figure 4, Listing 9).

Assembles the HDL timestamp and the ibuffer framework into a load-latency
profiler: ``take_snapshot(id, value)`` sites bracket an operation of
interest; each arrival is timestamped *inside* the ibuffer; host-side
analysis pairs site arrivals into latencies.

"As the ibuffer is stall free, the latency of the load can be computed as
the difference between the two snapshots and the processed trace contains
the latency of the load in an execution window determined by the trace
buffer depth."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.commands import SamplingMode, IBufferState
from repro.core.host_interface import HostController
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import StallMonitorLogic
from repro.errors import IBufferError
from repro.pipeline.context import KernelContext
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import ResourceProfile


@dataclass
class LatencySample:
    """One paired measurement between two snapshot sites."""

    start_cycle: int
    end_cycle: int
    start_value: int
    end_value: int

    @property
    def latency(self) -> int:
        return self.end_cycle - self.start_cycle


class StallMonitor:
    """One ibuffer per snapshot site, plus the host control path."""

    def __init__(self, fabric: Fabric, sites: int = 2, depth: int = 1024,
                 mode: SamplingMode = SamplingMode.LINEAR,
                 name: str = "stall_monitor",
                 initial_state: IBufferState = IBufferState.SAMPLE,
                 data_channel_depth: int = 8) -> None:
        if sites < 1:
            raise IBufferError(f"stall monitor needs >= 1 site, got {sites}")
        self.fabric = fabric
        self.name = name
        self.sites = sites
        self.ibuffer = IBuffer(
            fabric, name,
            logic_factory=lambda cu: StallMonitorLogic(cu),
            config=IBufferConfig(count=sites, depth=depth, mode=mode,
                                 initial_state=initial_state,
                                 data_channel_depth=data_channel_depth))
        self.host = HostController(fabric, self.ibuffer)

    # -- kernel-side API ---------------------------------------------------

    def take_snapshot(self, ctx: KernelContext, site: int, value: int) -> bool:
        """Listing 9's ``take_snapshot(uint id, int in)``.

        A non-blocking channel write followed by a channel mem-fence;
        zero-time for the calling pipeline. Returns the (ignored in the
        paper) success flag.
        """
        if not 0 <= site < self.sites:
            raise IBufferError(f"snapshot site {site} out of range [0, {self.sites})")
        ok = ctx.write_channel_nb(self.ibuffer.data_c[site], int(value))
        # mem_fence(CLK_CHANNEL_MEM_FENCE) — ordering is inherent here.
        return ok

    # -- host-side analysis --------------------------------------------------

    def read_site(self, site: int) -> List[Dict[str, int]]:
        """Stop (if sampling) and read one site's trace entries."""
        if self.ibuffer.states.get(site) == IBufferState.SAMPLE:
            self.host.stop(site)
        return self.host.read_trace(site)

    def dropped_snapshots(self, site: int) -> int:
        """Snapshots lost to probe-channel overflow at one site.

        Bursty pipelines can retire several monitored operations in one
        cycle while the ibuffer drains one datum per cycle; the probe's
        non-blocking writes drop rather than stall the kernel (§4's
        requirement). A non-zero count means the trace is a *sample* of
        the events — raise ``data_channel_depth`` to widen the burst
        absorber.
        """
        return self.ibuffer.data_c[site].stats.write_failures

    def latencies(self, start_site: int = 0, end_site: int = 1) -> List[LatencySample]:
        """Pair start/end arrivals in order into latency samples.

        Arrivals at both sites are in pipeline order (the ibuffer records
        them as they happen and each site's LSU retires in order), so the
        n-th start pairs with the n-th end.
        """
        starts = self.read_site(start_site)
        ends = self.read_site(end_site)
        samples = []
        for start, end in zip(starts, ends):
            samples.append(LatencySample(
                start_cycle=start["timestamp"], end_cycle=end["timestamp"],
                start_value=start["value"], end_value=end["value"]))
        if self.fabric.trace is not None:
            from repro.trace.capture import publish_latency_samples
            publish_latency_samples(
                self.fabric.trace, samples, kernel=self.name,
                cu=start_site,
                site=f"{self.name}:site{start_site}->site{end_site}")
        return samples

    def resource_profile(self) -> ResourceProfile:
        """Hardware the monitor adds to the design (all CUs)."""
        return self.ibuffer.resource_profile().scaled(self.sites)

    def kernels(self) -> list:
        """The kernels this monitor adds to the compiled image."""
        return [self.ibuffer, self.host.kernel]


def caller_site_profile(sites: int = 2) -> ResourceProfile:
    """Hardware added *inside the kernel under test* by its snapshot calls:
    one channel write endpoint per ``take_snapshot`` site."""
    return ResourceProfile(channel_endpoints=sites, logic_ops=sites)
