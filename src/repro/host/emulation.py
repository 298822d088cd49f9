"""Functional emulation of kernels — the ``aocl -march=emulator`` flow.

Listing 3's dual definition exists because AOCL designs are *emulated* on
the host CPU before synthesis: functionally exact, but sequential and
timing-free. This module reproduces that flow and, deliberately, its
well-known divergences from hardware:

* kernels run **sequentially in program order** — an NDRange kernel's
  work-items execute one after another, so the work-item interleaving the
  paper observes on hardware (Figure 2(b)) is *invisible* under emulation.
  This is precisely the motivation of the paper: "It is essential to
  provide software developers with facilities to see how operations are
  executed" on the real pipeline (§1);
* HDL library calls use their OpenCL emulation stubs (``get_time`` returns
  ``command + 1``), so measured "latencies" are meaningless;
* channel depths are ignored (unbounded FIFOs), which can mask deadlocks;
* persistent autorun service kernels (timestamp counters, sequence
  servers) are emulated cooperatively: a sequence channel yields 1, 2, 3…
  per read, a timer channel yields an emulation step counter.

Everything data-related is exact: results computed under emulation match
the cycle-accurate simulation bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.core.sequence import SequenceServerKernel
from repro.core.timestamp import TimerServiceKernel
from repro.errors import HostAPIError, KernelBuildError
from repro.pipeline import ops
from repro.pipeline.context import KernelContext
from repro.pipeline.engine import KernelInstance
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, Kernel


@dataclass
class EmulationStats:
    """What the emulator did (for tests and reports)."""

    iterations: int = 0
    loads: int = 0
    stores: int = 0
    channel_reads: int = 0
    channel_writes: int = 0
    hdl_calls: int = 0
    warnings: List[str] = field(default_factory=list)


class _EmulatedChannel:
    """A channel as the emulator sees it: unbounded, or service-backed."""

    def __init__(self, service: Optional[str] = None) -> None:
        self.service = service          # None | "sequence" | "timer"
        self.fifo: Deque[Any] = deque()
        self.counter = 0

    def write(self, value: Any) -> None:
        self.fifo.append(value)

    def read(self, emulator: "Emulator") -> Any:
        if self.service == "sequence":
            self.counter += 1
            return self.counter
        if self.service == "timer":
            emulator._step += 1
            return emulator._step
        if not self.fifo:
            raise HostAPIError(
                "emulated blocking channel read with no data and no "
                "producer — on hardware this kernel would deadlock")
        return self.fifo.popleft()

    def read_nb(self, emulator: "Emulator") -> tuple:
        if self.service in ("sequence", "timer"):
            return self.read(emulator), True
        if self.fifo:
            return self.fifo.popleft(), True
        return None, False


class Emulator:
    """Runs kernels functionally against a fabric's buffers.

    The fabric provides buffers and channel identities only; no simulated
    time passes. Instrumentation autorun kernels already installed on the
    fabric are emulated cooperatively (see module docstring).
    """

    def __init__(self, fabric: Fabric, trace: Optional[Any] = None) -> None:
        self.fabric = fabric
        self.stats = EmulationStats()
        #: Optional trace hub; defaults to the fabric's. Each emulated
        #: kernel run publishes one ``emu.kernel`` record (ts = steps).
        self.trace = trace if trace is not None else fabric.trace
        self._step = 0
        self._channels: Dict[int, _EmulatedChannel] = {}
        self._discover_services()

    def _discover_services(self) -> None:
        # Lazily modelled services have no engine but are services all the
        # same; the emulator treats both populations identically.
        kernels = [engine.kernel for engine in self.fabric.autorun_engines]
        kernels.extend(self.fabric.service_kernels)
        for kernel in kernels:
            if isinstance(kernel, SequenceServerKernel):
                self._channels[id(kernel.channel)] = _EmulatedChannel("sequence")
            elif isinstance(kernel, TimerServiceKernel):
                self._channels[id(kernel.channel)] = _EmulatedChannel("timer")
            else:
                self.stats.warnings.append(
                    f"autorun kernel {kernel.name!r} has no emulation model; "
                    "its channels behave as plain FIFOs")

    def _channel(self, channel: Any) -> _EmulatedChannel:
        key = id(channel)
        if key not in self._channels:
            if channel.requested_depth == 0:
                self.stats.warnings.append(
                    f"channel {channel.name!r}: depth ignored under emulation")
            self._channels[key] = _EmulatedChannel()
        return self._channels[key]

    # -- execution ---------------------------------------------------------

    def run_kernel(self, kernel: Kernel, args: Optional[Dict[str, Any]] = None
                   ) -> EmulationStats:
        """Execute every iteration sequentially, in program order.

        Note the order: for NDRange kernels the *hardware* interleaving
        policy is irrelevant here — the emulator always runs work-items
        serially, exactly like the real emulator.
        """
        if isinstance(kernel, AutorunKernel):
            raise HostAPIError(
                f"autorun kernel {kernel.name!r} is emulated implicitly as a "
                "service; run the kernels under test instead")
        instance = KernelInstance(self.fabric, kernel, args or {})
        space = kernel.iteration_space(instance.args)
        if kernel.kind == "ndrange":
            # Sequential emulation: program order regardless of policy.
            space = sorted(space)
        before = (self.stats.iterations, self.stats.loads, self.stats.stores,
                  self.stats.channel_reads, self.stats.channel_writes)
        for tag in space:
            context = KernelContext(instance, iteration=tag)
            self._run_body(kernel.body(context))
            self.stats.iterations += 1
        if self.trace is not None:
            from repro.trace.capture import publish_emulation_run
            after = (self.stats.iterations, self.stats.loads,
                     self.stats.stores, self.stats.channel_reads,
                     self.stats.channel_writes)
            delta = [now - then for now, then in zip(after, before)]
            publish_emulation_run(self.trace, kernel.name, self._step, {
                "iterations": delta[0], "loads": delta[1],
                "stores": delta[2], "channel_reads": delta[3],
                "channel_writes": delta[4]})
        return self.stats

    def _run_body(self, body) -> None:
        send_value: Any = None
        while True:
            try:
                op = body.send(send_value)
            except StopIteration:
                return
            send_value = self._emulate_op(op)

    def _emulate_op(self, op: ops.Op) -> Any:
        memory = self.fabric.memory
        if isinstance(op, ops.Load):
            self.stats.loads += 1
            return memory.buffer(op.buffer).read(op.index)
        if isinstance(op, ops.Store):
            self.stats.stores += 1
            memory.buffer(op.buffer).write(op.index, op.value)
            return None
        if isinstance(op, ops.LoadLocal):
            return op.memory.peek(op.index)
        if isinstance(op, ops.StoreLocal):
            op.memory.poke(op.index, op.value)
            return None
        if isinstance(op, ops.ReadChannel):
            self.stats.channel_reads += 1
            return self._channel(op.channel).read(self)
        if isinstance(op, ops.WriteChannel):
            self.stats.channel_writes += 1
            self._channel(op.channel).write(op.value)
            return None
        if isinstance(op, ops.Transfer):
            channel = self._channel(op.channel)
            store = memory.buffer(op.buffer)
            for k in range(op.count):
                self.stats.channel_reads += 1
                self.stats.stores += 1
                store.write(k, channel.read(self))
            return None
        if isinstance(op, ops.Call):
            self.stats.hdl_calls += 1
            # The emulator always uses the OpenCL stub definition.
            return op.module.emulate(*op.args)
        if isinstance(op, ops.Compute):
            return op.value
        if isinstance(op, ops.CollectReduction):
            # Sequential execution: all contributions already arrived.
            return op.accumulator.value(op.key)
        if isinstance(op, (ops.MemFence, ops.CycleBoundary)):
            return None
        raise KernelBuildError(f"emulator cannot execute op {op!r}")
