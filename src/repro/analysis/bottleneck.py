"""Bottleneck diagnosis: rank what a run spent its cycles on, with advice.

The end goal of the paper's tooling is answering "why is my kernel slow?"
This module turns one launch's observables — per-site LSU statistics,
issue stalls, channel stalls, pipeline overlap — into a ranked list of
:class:`Finding` objects with concrete remediation hints, the way a
performance advisor in a vendor GUI would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.gantt import pipelining_speedup
from repro.errors import ReproError
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.fabric import Fabric


@dataclass(frozen=True)
class Finding:
    """One diagnosed contributor to the run's cycle count."""

    kind: str            # "memory-site" | "issue-stall" | "channel" | "serialization"
    subject: str         # site/channel name
    cost_cycles: int     # attributed cycles
    detail: str          # human explanation
    advice: str          # what to try

    def render(self) -> str:
        return (f"[{self.kind:>14s}] {self.subject}: ~{self.cost_cycles} "
                f"cycles — {self.detail}\n{'':17s}advice: {self.advice}")


def diagnose(fabric: Fabric, engine: PipelineEngine,
             top: int = 5) -> List[Finding]:
    """Rank the launch's cycle sinks, largest first."""
    if not engine.completion.triggered:
        raise ReproError("diagnose needs a completed launch")
    findings: List[Finding] = []

    # Memory sites: total accumulated latency marks the pressure points;
    # the hit/miss balance suggests the fix.
    stats = fabric.memory.stats
    mostly_misses = stats.row_misses > stats.row_hits
    for (site, kind), lsu in engine.lsus.items():
        if lsu.stats.completed == 0:
            continue
        advice = ("access pattern is row-unfriendly: consider reordering "
                  "the loop nest or tiling for locality"
                  if mostly_misses else
                  "latency is queuing-dominated: spread buffers across "
                  "banks or reduce the site's issue rate")
        findings.append(Finding(
            kind="memory-site",
            subject=f"{site} ({kind})",
            cost_cycles=lsu.stats.total_latency,
            detail=(f"{lsu.stats.completed} accesses, mean "
                    f"{lsu.stats.mean_latency:.0f}, max {lsu.stats.max_latency}"),
            advice=advice,
        ))

    # Issue stalls: the pipeline was full.
    if engine.stats.issue_stall_cycles:
        findings.append(Finding(
            kind="issue-stall",
            subject=engine.kernel.name,
            cost_cycles=engine.stats.issue_stall_cycles,
            detail="the launcher waited for pipeline slots",
            advice="raise max_inflight (pipeline depth) or remove the "
                   "long-latency op that clogs retirement",
        ))

    # Channels: producers or consumers blocked.
    for channel in fabric.channels.all_channels():
        blocked = (channel.stats.write_stall_cycles
                   + channel.stats.read_stall_cycles)
        if blocked:
            findings.append(Finding(
                kind="channel",
                subject=channel.name,
                cost_cycles=blocked,
                detail=(f"write stalls {channel.stats.write_stall_cycles}, "
                        f"read stalls {channel.stats.read_stall_cycles}, "
                        f"peak occupancy {channel.stats.max_occupancy}"),
                advice="deepen the channel or rebalance the stage rates",
            ))

    # Serialization: low overlap despite pipelining support.
    trace = engine.stats.iteration_trace
    if len(trace) > 2:
        overlap = pipelining_speedup(trace)
        if overlap < 1.5:
            findings.append(Finding(
                kind="serialization",
                subject=engine.kernel.name,
                cost_cycles=engine.stats.total_cycles or 0,
                detail=f"iterations overlap only {overlap:.1f}x",
                advice="break the loop-carried dependency (pointer chase / "
                       "accumulation) or restructure as NDRange",
            ))

    findings.sort(key=lambda finding: -finding.cost_cycles)
    return findings[:top]


def render_diagnosis(findings: List[Finding]) -> str:
    """Readable, ranked advisory report."""
    if not findings:
        return "no significant cycle sinks found"
    return "\n".join(finding.render() for finding in findings)
