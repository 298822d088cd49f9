"""Streaming FIR filter: the signature AOCL channel-pipeline design.

Three kernels connected by channels — reader -> FIR -> writer — the
dataflow style the AOCL best-practices guide recommends and the kind of
design whose inter-kernel behaviour (channel stalls, stage imbalance) the
paper's instrumentation makes visible.

The FIR stage keeps its sample window in a shift register (private
registers in hardware) and computes one output per input sample.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.channels.channel import Channel
from repro.errors import KernelArgumentError
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import PipelineConfig, ResourceProfile, SingleTaskKernel


class StreamReaderKernel(SingleTaskKernel):
    """Streams ``samples`` from global memory into a channel."""

    def __init__(self, output: Channel, name: str = "fir_reader") -> None:
        super().__init__(name=name)
        self.output = output

    def iteration_space(self, args: Dict):
        return range(args["n"])

    def body(self, ctx):
        value = yield ctx.load("samples", ctx.iteration)
        yield ctx.write_channel(self.output, value)

    def resource_profile(self) -> ResourceProfile:
        return ResourceProfile(load_sites=1, channel_endpoints=1,
                               adders=1, control_states=4)


class FIRKernel(SingleTaskKernel):
    """The filter stage: shift register + multiply-accumulate per sample.

    Serial by construction (the window is loop-carried state), like the
    single-work-item dataflow kernels AOCL generates for this pattern.
    """

    def __init__(self, taps: Sequence[int], input_channel: Channel,
                 output_channel: Channel, name: str = "fir",
                 mac_cycles_per_tap: int = 1) -> None:
        super().__init__(name=name,
                         pipeline=PipelineConfig(ii=1, max_inflight=1))
        if not taps:
            raise KernelArgumentError("FIR needs at least one tap")
        if mac_cycles_per_tap < 0:
            raise KernelArgumentError("mac_cycles_per_tap must be >= 0")
        self.taps = [int(tap) for tap in taps]
        self.input_channel = input_channel
        self.output_channel = output_channel
        #: Datapath cost of the tap loop per sample: a naive (not
        #: unrolled) inner loop costs one cycle per tap; 0 models a fully
        #: unrolled single-cycle MAC array.
        self.mac_cycles_per_tap = mac_cycles_per_tap

    def iteration_space(self, args: Dict) -> List[int]:
        return [0]

    def body(self, ctx):
        n = ctx.arg("n")
        window = [0] * len(self.taps)
        for _ in range(n):
            sample = yield ctx.read_channel(self.input_channel)
            # Shift register: one-cycle datapath in hardware.
            window = [sample] + window[:-1]
            accumulator = 0
            for tap, value in zip(self.taps, window):
                accumulator += tap * value
            if self.mac_cycles_per_tap:
                yield ctx.compute(len(self.taps) * self.mac_cycles_per_tap)
            yield ctx.write_channel(self.output_channel, accumulator)

    def resource_profile(self) -> ResourceProfile:
        taps = len(self.taps)
        return ResourceProfile(
            multipliers=taps, adders=taps, channel_endpoints=2,
            extra_registers=32 * taps, control_states=4)


class StreamWriterKernel(SingleTaskKernel):
    """Drains the filtered stream into global memory."""

    def __init__(self, input_channel: Channel,
                 name: str = "fir_writer") -> None:
        super().__init__(name=name)
        self.input_channel = input_channel

    def iteration_space(self, args: Dict):
        return range(args["n"])

    def body(self, ctx):
        value = yield ctx.read_channel(self.input_channel)
        yield ctx.store("filtered", ctx.iteration, value)

    def resource_profile(self) -> ResourceProfile:
        return ResourceProfile(store_sites=1, channel_endpoints=1,
                               adders=1, control_states=4)


def build_fir_pipeline(fabric: Fabric, taps: Sequence[int],
                       channel_depth: int = 8,
                       mac_cycles_per_tap: int = 1) -> Dict:
    """Declare the channels and construct all three kernels."""
    raw = fabric.channels.declare("fir_raw", depth=channel_depth,
                                  width_bits=32)
    filtered = fabric.channels.declare("fir_filtered", depth=channel_depth,
                                       width_bits=32)
    return {
        "reader": StreamReaderKernel(raw),
        "fir": FIRKernel(taps, raw, filtered,
                         mac_cycles_per_tap=mac_cycles_per_tap),
        "writer": StreamWriterKernel(filtered),
        "channels": (raw, filtered),
    }


def run_fir(fabric: Fabric, taps: Sequence[int], samples,
            channel_depth: int = 8, mac_cycles_per_tap: int = 1) -> np.ndarray:
    """Allocate, launch all three stages, and return the filtered signal."""
    samples = np.asarray(samples, dtype=np.int64)
    n = len(samples)
    fabric.memory.allocate("samples", n).fill(samples)
    out = fabric.memory.allocate("filtered", n)
    stages = build_fir_pipeline(fabric, taps, channel_depth,
                                mac_cycles_per_tap)
    engines = [fabric.launch(stages["reader"], {"n": n}),
               fabric.launch(stages["fir"], {"n": n}),
               fabric.launch(stages["writer"], {"n": n})]
    fabric.run(*[engine.completion for engine in engines])
    fabric.run(fabric.memory.drained())
    return out.snapshot()


def expected_fir(taps: Sequence[int], samples) -> np.ndarray:
    """Reference: causal FIR with zero initial state."""
    samples = np.asarray(samples, dtype=np.int64)
    output = np.zeros(len(samples), dtype=np.int64)
    for index in range(len(samples)):
        for offset, tap in enumerate(taps):
            if index - offset >= 0:
                output[index] += tap * samples[index - offset]
    return output
