"""A synthesizable design: kernels + channels + HDL modules + BSP shell.

This is what gets handed to the synthesis model — the static content of
one ``.aocx`` image. The board-support-package (BSP) shell is included
because vendor utilization reports (like Table 1) are whole-device numbers
that contain the static region (PCIe, DDR controllers, host interface).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SynthesisError
from repro.pipeline.kernel import Kernel, ResourceProfile
from repro.synthesis.cost_model import ChannelSpec
from repro.synthesis.resources import ResourceVector


@dataclass(frozen=True)
class ShellProfile:
    """The BSP static region's fixed footprint."""

    alms: float = 38_500.0
    registers: float = 72_000.0
    memory_bits: float = 640_000.0
    ram_blocks: int = 96
    dsps: int = 0

    def vector(self) -> ResourceVector:
        return ResourceVector(alms=self.alms, registers=self.registers,
                              memory_bits=self.memory_bits,
                              ram_blocks=self.ram_blocks, dsps=self.dsps)


DEFAULT_SHELL = ShellProfile()


class Design:
    """Static content of one compiled FPGA image."""

    def __init__(self, name: str, kernels: Optional[List[Kernel]] = None,
                 channels: Optional[List[ChannelSpec]] = None,
                 shell: Optional[ShellProfile] = None) -> None:
        self.name = name
        self.kernels: List[Kernel] = list(kernels or [])
        self.channels: List[ChannelSpec] = list(channels or [])
        self.shell = shell or DEFAULT_SHELL

    def add_kernel(self, kernel: Kernel) -> "Design":
        self.kernels.append(kernel)
        return self

    def add_channel(self, spec: ChannelSpec) -> "Design":
        self.channels.append(spec)
        return self

    def add_channels(self, depth: int, width_bits: int = 32, count: int = 1) -> "Design":
        return self.add_channel(ChannelSpec(depth=depth, width_bits=width_bits,
                                            count=count))

    @property
    def instrumented(self) -> bool:
        """True when any profiling/debugging kernel is present."""
        return any(kernel.is_instrumentation for kernel in self.kernels)

    def kernel_profiles(self) -> Dict[str, ResourceProfile]:
        """Per-kernel profiles scaled by compute-unit replication.

        Duplicate kernel names are rejected — they would silently merge rows
        in the report.
        """
        profiles: Dict[str, ResourceProfile] = {}
        for kernel in self.kernels:
            if kernel.name in profiles:
                raise SynthesisError(
                    f"design {self.name!r} has two kernels named {kernel.name!r}")
            profiles[kernel.name] = kernel.resource_profile().scaled(
                kernel.num_compute_units)
        return profiles

    def retiming_eligible(self) -> bool:
        """Whether the fitter may apply its logic-for-frequency trade.

        Two conditions, both grounded in the paper's observations (§5.3):
        no instrumentation kernels, and no kernel whose critical path is an
        unbreakable data dependency (retiming cannot move registers across
        a load-to-address feedback, as in pointer chasing).
        """
        if self.instrumented:
            return False
        return all(kernel.resource_profile().intrinsic_path_ns == 0.0
                   for kernel in self.kernels)
