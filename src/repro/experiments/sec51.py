"""§5.1 use case: measuring load latency with the stall monitor.

Reproduces Listing 9 / Figure 4: a matrix-multiply kernel instrumented
with ``take_snapshot`` sites around the ``data_a`` load; the ibuffer
timestamps each arrival; host-side pairing yields the load-latency trace.

Validation unique to a simulator: the LSU that actually serviced the load
keeps ground-truth per-access latencies, so the experiment checks that the
monitor's reconstruction matches the hardware truth sample-by-sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.latency import LatencyStats, histogram, render_latency_table, summarize
from repro.core.commands import SamplingMode
from repro.core.stall_monitor import LatencySample, StallMonitor
from repro.kernels.matmul import (
    MatMulKernel,
    allocate_matmul_buffers,
    expected_matmul,
)
from repro.pipeline.fabric import Fabric


@dataclass
class Sec51Result:
    samples: List[LatencySample]
    stats: LatencyStats
    ground_truth: List[int]
    result_correct: bool
    unloaded_latency: int

    @property
    def measured(self) -> List[int]:
        return [sample.latency for sample in self.samples]

    @property
    def matches_ground_truth(self) -> bool:
        """Monitor-reconstructed latencies == LSU-recorded latencies."""
        truth = self.ground_truth[:len(self.measured)]
        return self.measured == truth

    @property
    def observed_stalls(self) -> bool:
        """The trace must actually show stalls (latency above unloaded)."""
        return any(value > self.unloaded_latency for value in self.measured)

    def render(self) -> str:
        lines = ["=== Section 5.1: stall monitor on matrix multiply ===",
                 render_latency_table(self.stats, "data_a load latency"),
                 f"ground-truth agreement: {self.matches_ground_truth}",
                 f"stalls observed: {self.observed_stalls} "
                 f"(unloaded latency {self.unloaded_latency} cycles)"]
        lines.append("histogram (cycles: count): " + ", ".join(
            f"{k}: {v}" for k, v in histogram(self.samples, bin_width=64).items()))
        return "\n".join(lines)


def run(rows_a: int = 8, col_a: int = 16, col_b: int = 8,
        depth: int = 1024, mode: SamplingMode = SamplingMode.LINEAR,
        trace=None) -> Sec51Result:
    """Run the instrumented matmul and reconstruct the latency trace.

    ``trace`` may be a :class:`repro.trace.hub.TraceHub`; the monitor then
    publishes raw ibuffer drains and paired ``latency.sample`` records,
    plus one ``run.span`` for the kernel launch.
    """
    fabric = Fabric(trace=trace)
    monitor = StallMonitor(fabric, sites=2, depth=depth, mode=mode)
    kernel = MatMulKernel(stall_monitor=monitor)
    buffers = allocate_matmul_buffers(fabric, rows_a, col_a, col_b)
    engine = fabric.run_kernel(kernel, {"rows_a": rows_a, "col_a": col_a,
                                        "col_b": col_b})
    if trace is not None:
        from repro.trace.capture import publish_run_span
        publish_run_span(trace, kernel.name, 0, engine.stats.total_cycles)
    correct = bool(np.array_equal(
        buffers["data_c"].snapshot().reshape(rows_a, col_b),
        expected_matmul(rows_a, col_a, col_b)))

    samples = monitor.latencies(0, 1)
    # Ground truth: the data_a load site's LSU samples. Sites are labelled
    # by source line; the first load in the body (lowest line) is data_a.
    def _line_of(lsu) -> int:
        _, _, tail = lsu.site.rpartition("@L")
        return int(tail) if tail.isdigit() else 0

    data_a_lsus = [lsu for (site, kind), lsu in engine.lsus.items()
                   if kind == "load"]
    data_a_lsu = min(data_a_lsus, key=_line_of)
    truth: List[int] = list(data_a_lsu.stats.samples)

    config = fabric.memory.config
    unloaded = (config.pipe_latency + config.row_hit_cycles
                + config.bank_busy_cycles)
    return Sec51Result(
        samples=samples,
        stats=summarize(samples),
        ground_truth=truth,
        result_correct=correct,
        unloaded_latency=unloaded,
    )
