"""Figure 2: execution/scheduling order of single-task vs NDRange matvec.

Runs both Listing 6 and Listing 7 with the paper's parameters (N=50 rows,
num=100 columns, probing i<10), instrumented with the sequence-number and
persistent-timestamp patterns, and reconstructs the dynamic issue order
from the info buffers.

Expected shapes (the paper's findings):

* single-task executes in program order — all inner iterations before the
  next outer iteration (Figure 2(a));
* NDRange interleaves work-items — every work-item issues inner iteration
  i before any issues i+1 (Figure 2(b));
* the access patterns of ``x`` differ (unit-stride vs ``num``-stride), and
  so do the execution times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.order import (
    OrderRecord,
    access_pattern,
    classify_order,
    order_records,
    render_figure2,
    timestamps_monotonic,
)
from repro.core.sequence import SequenceService
from repro.core.timestamp import PersistentTimestampService
from repro.kernels.matvec import (
    MatVecNDRange,
    MatVecSingleTask,
    allocate_matvec_buffers,
    expected_matvec,
)
from repro.pipeline.fabric import Fabric

#: The paper's workload: N=50 work-items/rows, num=100 inner iterations.
PAPER_N = 50
PAPER_NUM = 100
PAPER_PROBE_I = 10


@dataclass
class Fig2KernelResult:
    """One sub-figure: the trace and derived properties for one kernel."""

    label: str
    records: List[OrderRecord]
    classification: str
    access_order: List[int]
    total_cycles: int
    result_correct: bool

    def render(self, start_seq: Optional[int] = None, count: int = 4) -> str:
        if start_seq is None:
            # The paper shows slots 51-54; fall back to a mid-trace window
            # when the run is smaller than that.
            start_seq = 51 if len(self.records) >= 51 + count else max(
                1, len(self.records) // 2)
        header = (f"[{self.label}] order={self.classification} "
                  f"cycles={self.total_cycles} "
                  f"x-access={self.access_order[:5]}...")
        return header + "\n" + render_figure2(self.records, start_seq, count)


@dataclass
class Fig2Result:
    """Both sub-figures plus the cross-kernel comparison."""

    single_task: Fig2KernelResult
    ndrange: Fig2KernelResult

    @property
    def orders_differ(self) -> bool:
        return self.single_task.classification != self.ndrange.classification

    @property
    def runtimes_differ(self) -> bool:
        return self.single_task.total_cycles != self.ndrange.total_cycles

    def render(self) -> str:
        return "\n\n".join([
            "=== Figure 2: execution/scheduling order ===",
            self.single_task.render(),
            self.ndrange.render(),
            f"orders differ: {self.orders_differ}; "
            f"runtimes differ: {self.runtimes_differ} "
            f"({self.single_task.total_cycles} vs {self.ndrange.total_cycles} cycles)",
        ])


def _run_one(kind: str, n: int, num: int, probe_i: int,
             trace=None) -> Fig2KernelResult:
    import numpy as np

    fabric = Fabric(trace=trace)
    sequence = SequenceService(fabric)
    timestamps = PersistentTimestampService(fabric, sites=1)
    buffers = allocate_matvec_buffers(fabric, n, num, probe_i=probe_i)
    if kind == "single-task":
        kernel = MatVecSingleTask(sequence, timestamps, probe_i=probe_i)
    else:
        kernel = MatVecNDRange(sequence, timestamps, probe_i=probe_i)
    engine = fabric.run_kernel(kernel, {"N": n, "num": num})
    correct = bool(np.array_equal(buffers["z"].snapshot(),
                                  expected_matvec(n, num)))
    records = order_records(buffers["info1"].snapshot(),
                            buffers["info2"].snapshot(),
                            buffers["info3"].snapshot(),
                            count=n * min(probe_i, num))
    assert timestamps_monotonic(records), "sequence/time order disagreement"
    if trace is not None:
        from repro.trace.capture import publish_order_records, publish_run_span
        publish_order_records(trace, records, kernel=kind,
                              site=f"{kind}:probe")
        publish_run_span(trace, kind, 0, engine.stats.total_cycles)
    return Fig2KernelResult(
        label=kind,
        records=records,
        classification=classify_order(records),
        access_order=access_pattern(records, num),
        total_cycles=engine.stats.total_cycles,
        result_correct=correct,
    )


def run(n: int = PAPER_N, num: int = PAPER_NUM,
        probe_i: int = PAPER_PROBE_I, trace=None) -> Fig2Result:
    """Run the full Figure 2 experiment (both kernels, fresh fabrics).

    ``trace`` may be a :class:`repro.trace.hub.TraceHub`; both kernels
    then publish their decoded ``order.record`` probes and a ``run.span``
    each into it.
    """
    return Fig2Result(
        single_task=_run_one("single-task", n, num, probe_i, trace=trace),
        ndrange=_run_one("ndrange", n, num, probe_i, trace=trace),
    )
