"""§3.1: area & frequency overhead of the two timestamp patterns.

The paper's measurement campaign on the pointer-chasing kernel:

* un-profiled baseline reaches 233.3 MHz;
* adding the OpenCL free-running counters (persistent kernels + channels)
  lowers it to 227.8 MHz, with 1.3% logic overhead (incl. a trace buffer);
* adding the HDL counter costs less — 1.1% logic overhead — and keeps
  frequency within 3% of baseline; hence "the HDL approach is preferred".

Both overhead percentages are measured against device capacity (the way
vendor reports quote utilization deltas).

This module also runs the instrumented kernels functionally to check that
the two patterns report identical step latencies (same counter semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.commands import SamplingMode
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import RawRecorderLogic
from repro.core.timestamp import HDLTimestampService, PersistentTimestampService
from repro.host.context import Context
from repro.host.program import Program
from repro.kernels.pointer_chase import PointerChaseKernel, build_chain
from repro.synthesis.report import SynthesisReport

PAPER_REFERENCE = {
    "base_mhz": 233.3,
    "opencl_mhz": 227.8,
    "hdl_max_drop_pct": 3.0,
    "opencl_logic_overhead_pct": 1.3,
    "hdl_logic_overhead_pct": 1.1,
}

#: Trace buffer attached in both instrumented variants ("including a trace
#: buffer", §3.1).
TRACE_DEPTH = 1024


@dataclass
class Sec31Variant:
    """One of the three synthesized designs."""

    label: str
    report: SynthesisReport
    step_stamps: List[int]

    @property
    def fmax_mhz(self) -> float:
        return self.report.fmax_mhz


@dataclass
class Sec31Result:
    base: Sec31Variant
    opencl: Sec31Variant
    hdl: Sec31Variant
    device_alms: int

    def freq_drop_pct(self, variant: Sec31Variant) -> float:
        return 100.0 * (self.base.fmax_mhz - variant.fmax_mhz) / self.base.fmax_mhz

    def logic_overhead_pct(self, variant: Sec31Variant) -> float:
        """Overhead as % of device logic (vendor-report convention)."""
        delta = variant.report.total.alms - self.base.report.total.alms
        return 100.0 * delta / self.device_alms

    def step_latencies(self, variant: Sec31Variant) -> List[int]:
        stamps = variant.step_stamps
        return [b - a for a, b in zip(stamps, stamps[1:])]

    def render(self) -> str:
        lines = ["=== Section 3.1: timestamp pattern overhead (pointer chase) ===",
                 f"{'variant':22s} {'fmax MHz':>9s} {'dFreq%':>8s} {'dLogic% of device':>18s}"]
        for variant in (self.base, self.opencl, self.hdl):
            lines.append(
                f"{variant.label:22s} {variant.fmax_mhz:9.1f} "
                f"{self.freq_drop_pct(variant):8.2f} "
                f"{self.logic_overhead_pct(variant):18.2f}")
        lines.append(
            f"paper: base {PAPER_REFERENCE['base_mhz']} MHz, OpenCL counter "
            f"{PAPER_REFERENCE['opencl_mhz']} MHz, HDL drop < "
            f"{PAPER_REFERENCE['hdl_max_drop_pct']}%; logic overhead "
            f"{PAPER_REFERENCE['opencl_logic_overhead_pct']}% vs "
            f"{PAPER_REFERENCE['hdl_logic_overhead_pct']}%")
        return "\n".join(lines)


def _run_variant(mode: Optional[str], chain_size: int, steps: int) -> Sec31Variant:
    context = Context()
    fabric = context.fabric
    persistent = hdl = None
    kernels = []
    if mode == "persistent":
        # Listing 2 uses one counter kernel per read site; the pointer-chase
        # experiment reads at one site per step plus a second site, matching
        # the "free-running counters" plural of §3.1.
        persistent = PersistentTimestampService(fabric, sites=2, name="pc_time")
        kernels.extend(persistent.kernels)
    elif mode == "hdl":
        hdl = HDLTimestampService(fabric, context.hdl_library, name="pc_get_time")
    kernel = PointerChaseKernel(timestamps=mode, persistent=persistent, hdl=hdl)
    kernels.insert(0, kernel)
    if mode is not None:
        # "... 1.3% logic overhead including a trace buffer": both variants
        # carry one raw-recording ibuffer.
        trace = IBuffer(fabric, "pc_trace",
                        logic_factory=lambda cu: RawRecorderLogic(),
                        config=IBufferConfig(count=1, depth=TRACE_DEPTH,
                                             mode=SamplingMode.CYCLIC))
        kernels.append(trace)

    ptr = fabric.memory.allocate("ptr", chain_size)
    ptr.fill(build_chain(chain_size))
    fabric.memory.allocate("out", 1)
    fabric.run_kernel(kernel, {"start": 0, "steps": steps})

    program = Program(context, kernels, name=f"pointer_chase_{mode or 'base'}")
    return Sec31Variant(label=mode or "base", report=program.synthesis_report(),
                        step_stamps=list(kernel.step_stamps))


def run(chain_size: int = 64, steps: int = 32) -> Sec31Result:
    """Run all three §3.1 variants (synthesis + functional)."""
    from repro.synthesis.resources import STRATIX_V

    return Sec31Result(
        base=_run_variant(None, chain_size, steps),
        opencl=_run_variant("persistent", chain_size, steps),
        hdl=_run_variant("hdl", chain_size, steps),
        device_alms=STRATIX_V.alms,
    )
