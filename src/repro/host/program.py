"""Programs: the compiled image's kernel collection + synthesis reporting.

A :class:`Program` plays the role of the ``.aocx`` handle: it knows which
kernels the image contains and can produce the fit report for that image
through the synthesis model (the ``--report`` flow of the offline
compiler).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import HostAPIError
from repro.host.context import Context
from repro.pipeline.kernel import Kernel
from repro.synthesis.cost_model import ChannelSpec
from repro.synthesis.design import Design
from repro.synthesis.report import SynthesisReport, synthesize


class Program:
    """The set of kernels programmed onto the context's device."""

    def __init__(self, context: Context, kernels: List[Kernel],
                 name: str = "program") -> None:
        if not kernels:
            raise HostAPIError("a program needs at least one kernel")
        self.context = context
        self.name = name
        self._kernels: Dict[str, Kernel] = {}
        for kernel in kernels:
            if kernel.name in self._kernels:
                raise HostAPIError(f"duplicate kernel name {kernel.name!r}")
            self._kernels[kernel.name] = kernel

    def kernel(self, name: str) -> Kernel:
        """Look a kernel up by name (clCreateKernel)."""
        try:
            return self._kernels[name]
        except KeyError:
            raise HostAPIError(
                f"program {self.name!r} has no kernel {name!r}; "
                f"available: {sorted(self._kernels)}") from None

    def kernels(self) -> List[Kernel]:
        return list(self._kernels.values())

    def design(self) -> Design:
        """The static design for synthesis: kernels + declared channels."""
        design = Design(self.name, kernels=self.kernels())
        for channel in self.context.fabric.channels.all_channels():
            design.add_channel(ChannelSpec(depth=channel.requested_depth,
                                           width_bits=channel.width_bits))
        return design

    def synthesis_report(self) -> SynthesisReport:
        """Fit summary of this image on the context's device."""
        return synthesize(self.design(), device=self.context.device.model)
