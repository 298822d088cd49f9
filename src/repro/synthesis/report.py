"""Synthesis reports: the model's equivalent of a Quartus fit summary.

:func:`synthesize` runs the cost and timing models over a
:class:`~repro.synthesis.design.Design` and returns a
:class:`SynthesisReport` with per-kernel and whole-design numbers, plus a
text rendering in the style of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.synthesis.cost_model import CostModel
from repro.synthesis.design import Design
from repro.synthesis.resources import DeviceModel, ResourceVector, STRATIX_V
from repro.synthesis.timing_model import TimingModel


@dataclass
class SynthesisReport:
    """Fit summary of one design on one device."""

    design_name: str
    device_name: str
    per_kernel: Dict[str, ResourceVector]
    channels: ResourceVector
    shell: ResourceVector
    total: ResourceVector
    fmax_mhz: float
    retimed: bool

    @property
    def logic_utilization(self) -> float:
        """Fraction of device ALMs used (what vendor reports headline)."""
        return self._util_alms

    _util_alms: float = 0.0

    def utilization_of(self, device: DeviceModel) -> Dict[str, float]:
        """Utilization fractions against a device's capacity."""
        return {
            "alms": self.total.alms / device.alms,
            "registers": self.total.registers / device.registers,
            "memory_bits": self.total.memory_bits / device.total_memory_bits,
            "ram_blocks": self.total.ram_blocks / device.m20k_blocks,
            "dsps": self.total.dsps / device.dsps if device.dsps else 0.0,
        }

    def row(self) -> Dict[str, float]:
        """One Table-1-style row for this design."""
        return {
            "clock_freq_mhz": round(self.fmax_mhz, 1),
            "logic_alms": round(self.total.alms),
            "memory_bits": round(self.total.memory_bits),
            "ram_blocks": self.total.ram_blocks,
            "registers": round(self.total.registers),
            "dsps": self.total.dsps,
        }

    def render(self) -> str:
        """Human-readable fit summary."""
        lines = [
            f"=== Synthesis report: {self.design_name} on {self.device_name} ===",
            f"fmax          : {self.fmax_mhz:8.1f} MHz"
            + ("   (retiming applied)" if self.retimed else ""),
            f"logic (ALMs)  : {self.total.alms:10.0f}",
            f"registers     : {self.total.registers:10.0f}",
            f"memory bits   : {self.total.memory_bits:10.0f}",
            f"RAM blocks    : {self.total.ram_blocks:10d}",
            f"DSPs          : {self.total.dsps:10d}",
            "--- per kernel ---",
        ]
        for name, vec in sorted(self.per_kernel.items()):
            lines.append(
                f"  {name:30s} alms={vec.alms:9.0f} regs={vec.registers:9.0f} "
                f"bits={vec.memory_bits:9.0f} blocks={vec.ram_blocks:4d} dsps={vec.dsps:3d}")
        lines.append(
            f"  {'<channels>':30s} alms={self.channels.alms:9.0f} "
            f"regs={self.channels.registers:9.0f} bits={self.channels.memory_bits:9.0f} "
            f"blocks={self.channels.ram_blocks:4d}")
        lines.append(
            f"  {'<bsp shell>':30s} alms={self.shell.alms:9.0f} "
            f"regs={self.shell.registers:9.0f} bits={self.shell.memory_bits:9.0f} "
            f"blocks={self.shell.ram_blocks:4d}")
        return "\n".join(lines)


def synthesize(design: Design, device: Optional[DeviceModel] = None,
               cost_model: Optional[CostModel] = None) -> SynthesisReport:
    """Run the full synthesis model over ``design``."""
    device = device or STRATIX_V
    cost_model = cost_model or CostModel(bits_per_block=device.bits_per_block)
    timing = TimingModel(device)

    retimed = design.retiming_eligible()
    per_kernel: Dict[str, ResourceVector] = {}
    total = ResourceVector()
    for name, profile in design.kernel_profiles().items():
        vector = cost_model.profile_vector(profile)
        if retimed:
            vector = ResourceVector(
                alms=vector.alms * device.retiming_alm_factor,
                registers=vector.registers * device.retiming_alm_factor,
                memory_bits=vector.memory_bits,
                ram_blocks=vector.ram_blocks,
                dsps=vector.dsps,
            )
        per_kernel[name] = vector
        total = total + vector

    channels_vec = ResourceVector()
    for spec in design.channels:
        channels_vec = channels_vec + cost_model.channel_vector(spec)
    total = total + channels_vec

    shell_vec = design.shell.vector()
    total = total + shell_vec

    fmax = timing.design_fmax_mhz(design, total)
    report = SynthesisReport(
        design_name=design.name,
        device_name=device.name,
        per_kernel=per_kernel,
        channels=channels_vec,
        shell=shell_vec,
        total=total,
        fmax_mhz=fmax,
        retimed=retimed,
    )
    report._util_alms = total.alms / device.alms
    return report


def compare_reports(reports: Dict[str, SynthesisReport],
                    baseline: str) -> str:
    """Render a Table-1-style comparison against a named baseline row."""
    if baseline not in reports:
        raise KeyError(f"baseline {baseline!r} not among reports {list(reports)}")
    base = reports[baseline]
    header = (f"{'Type':12s} {'Clock(MHz)':>11s} {'Logic(ALM)':>11s} "
              f"{'MemoryBits':>12s} {'Blocks':>7s} {'dFreq%':>8s} {'dLogic%':>8s}")
    lines = [header, "-" * len(header)]
    for name, report in reports.items():
        dfreq = 100.0 * (report.fmax_mhz - base.fmax_mhz) / base.fmax_mhz
        dlogic = 100.0 * (report.total.alms - base.total.alms) / base.total.alms
        lines.append(
            f"{name:12s} {report.fmax_mhz:11.1f} {report.total.alms:11.0f} "
            f"{report.total.memory_bits:12.0f} {report.total.ram_blocks:7d} "
            f"{dfreq:8.1f} {dlogic:8.1f}")
    return "\n".join(lines)
