"""Timing (fmax) model: critical-path heuristic per kernel, min over design.

The model captures the effects the paper reports:

* simple kernels synthesize to high frequencies, and the fitter can spend
  logic (retiming/duplication) to push them higher — which is why the §5.3
  baseline matrix multiply has *more* logic and *more* MHz than the
  stall-monitored variant;
* kernels with unbreakable dependency chains (pointer chasing) are capped
  by that intrinsic path, so instrumentation barely moves their fmax
  ("the overhead is kernel dependent", §5.3);
* instrumentation adds channel endpoints and high-fanout counter nets,
  lengthening the achievable path modestly — and disqualifying the
  aggressive retiming, which is where the large (≈20%) drop on simple
  kernels comes from.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.pipeline.kernel import ResourceProfile
from repro.synthesis.design import Design
from repro.synthesis.resources import DeviceModel, ResourceVector, STRATIX_V


class TimingModel:
    """Deterministic fmax estimation against one device."""

    def __init__(self, device: Optional[DeviceModel] = None) -> None:
        self.device = device or STRATIX_V

    def kernel_path_ns(self, profile: ResourceProfile,
                       utilization_fraction: float = 0.0,
                       retimed: bool = False) -> float:
        """Critical path (ns) of one kernel's clock domain."""
        d = self.device
        lsus = profile.load_sites + profile.store_sites
        # Wide (unrolled) datapaths are pipelined by the compiler, so the
        # per-stage operator depth saturates rather than growing with the
        # total operator count.
        operators = min(profile.adders + profile.multipliers + profile.logic_ops,
                        16)
        fanout_nets = profile.hdl_modules + profile.control_states / 16.0
        path = d.base_path_ns
        path += d.lsu_path_ns * math.log2(1 + lsus)
        path += d.alu_path_ns * math.log2(1 + operators)
        path += d.channel_path_ns * math.log2(1 + profile.channel_endpoints)
        path += d.fanout_path_ns * math.log2(1 + fanout_nets)
        path += d.congestion_path_ns * (utilization_fraction * 10.0)
        path += profile.intrinsic_path_ns
        if retimed:
            path *= d.retiming_path_factor
        return path

    def kernel_fmax_mhz(self, profile: ResourceProfile,
                        utilization_fraction: float = 0.0,
                        retimed: bool = False) -> float:
        return 1000.0 / self.kernel_path_ns(profile, utilization_fraction, retimed)

    def design_fmax_mhz(self, design: Design, total: ResourceVector) -> float:
        """The design clock: slowest kernel wins (single clock domain).

        ``total`` is the design's area (for routing-congestion pressure).
        """
        utilization = min(total.alms / self.device.alms, 1.0)
        retimed = design.retiming_eligible()
        fmax = float("inf")
        for name, profile in design.kernel_profiles().items():
            fmax = min(fmax, self.kernel_fmax_mhz(profile, utilization, retimed))
        if fmax == float("inf"):
            # An empty design runs at the shell clock.
            fmax = 1000.0 / self.device.base_path_ns
        return fmax
