"""Resource vectors and FPGA device models.

A :class:`ResourceVector` is what a Quartus fitter report boils down to:
adaptive logic modules (ALMs), registers, block-RAM bits and M20K blocks,
and DSPs. A :class:`DeviceModel` provides the device totals (for
utilization percentages) plus the timing constants used by
:mod:`repro.synthesis.timing_model`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SynthesisError


@dataclass
class ResourceVector:
    """Absolute resource usage of one kernel or one whole design."""

    alms: float = 0.0
    registers: float = 0.0
    memory_bits: float = 0.0
    ram_blocks: int = 0
    dsps: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            alms=self.alms + other.alms,
            registers=self.registers + other.registers,
            memory_bits=self.memory_bits + other.memory_bits,
            ram_blocks=self.ram_blocks + other.ram_blocks,
            dsps=self.dsps + other.dsps,
        )

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(
            alms=self.alms * factor,
            registers=self.registers * factor,
            memory_bits=self.memory_bits * factor,
            ram_blocks=int(round(self.ram_blocks * factor)),
            dsps=int(round(self.dsps * factor)),
        )

    def as_dict(self) -> dict:
        return {
            "alms": self.alms,
            "registers": self.registers,
            "memory_bits": self.memory_bits,
            "ram_blocks": self.ram_blocks,
            "dsps": self.dsps,
        }


@dataclass(frozen=True)
class DeviceModel:
    """An FPGA part: capacity totals and timing constants.

    The timing constants parameterize the critical-path heuristic:
    ``path_ns = base_path_ns + Σ contributions`` and ``fmax = 1000 / path_ns``.
    """

    name: str
    alms: int
    registers: int
    m20k_blocks: int
    bits_per_block: int
    dsps: int
    #: Intrinsic register-to-register path (ns) of a trivial kernel.
    base_path_ns: float
    #: Added path per doubling of LSU count (interconnect muxing).
    lsu_path_ns: float
    #: Added path per doubling of datapath operator count.
    alu_path_ns: float
    #: Added path per doubling of channel endpoint count.
    channel_path_ns: float
    #: Added path per doubling of high-fanout nets (counters, replication).
    fanout_path_ns: float
    #: Added path per 10% of ALM utilization (routing congestion).
    congestion_path_ns: float
    #: Critical-path multiplier when the fitter applies retiming/duplication
    #: optimizations (trades logic for frequency).
    retiming_path_factor: float
    #: ALM multiplier paid for retiming.
    retiming_alm_factor: float

    def __post_init__(self) -> None:
        if min(self.alms, self.registers, self.m20k_blocks,
               self.bits_per_block, self.dsps) <= 0:
            raise SynthesisError(f"device {self.name!r}: capacities must be positive")
        if self.base_path_ns <= 0:
            raise SynthesisError(f"device {self.name!r}: base path must be positive")

    @property
    def total_memory_bits(self) -> int:
        return self.m20k_blocks * self.bits_per_block


#: The discrete Stratix V board the paper mainly reports (§2).
STRATIX_V = DeviceModel(
    name="Stratix V GX A7",
    alms=234_720,
    registers=938_880,
    m20k_blocks=2_560,
    bits_per_block=20_480,
    dsps=256,
    base_path_ns=2.20,
    lsu_path_ns=0.30,
    alu_path_ns=0.20,
    channel_path_ns=0.070,
    fanout_path_ns=0.033,
    congestion_path_ns=0.045,
    retiming_path_factor=0.82,
    retiming_alm_factor=1.30,
)

#: The discrete Arria 10 board (§2): same trends, somewhat faster fabric.
ARRIA_10 = DeviceModel(
    name="Arria 10 GX 1150",
    alms=427_200,
    registers=1_708_800,
    m20k_blocks=2_713,
    bits_per_block=20_480,
    dsps=1_518,
    base_path_ns=1.90,
    lsu_path_ns=0.26,
    alu_path_ns=0.17,
    channel_path_ns=0.060,
    fanout_path_ns=0.029,
    congestion_path_ns=0.040,
    retiming_path_factor=0.82,
    retiming_alm_factor=1.30,
)

#: The Arria 10 integrated with a Broadwell-EP Xeon (§2); the shared
#: coherent interface costs some fabric headroom.
ARRIA_10_INTEGRATED = DeviceModel(
    name="Arria 10 (Broadwell-EP integrated)",
    alms=427_200,
    registers=1_708_800,
    m20k_blocks=2_713,
    bits_per_block=20_480,
    dsps=1_518,
    base_path_ns=2.05,
    lsu_path_ns=0.28,
    alu_path_ns=0.18,
    channel_path_ns=0.065,
    fanout_path_ns=0.031,
    congestion_path_ns=0.042,
    retiming_path_factor=0.82,
    retiming_alm_factor=1.30,
)

#: Platforms evaluated in §2, keyed by short name.
PLATFORMS = {
    "stratix-v": STRATIX_V,
    "arria-10": ARRIA_10,
    "arria-10-integrated": ARRIA_10_INTEGRATED,
}
