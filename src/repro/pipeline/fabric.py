"""The FPGA fabric: one programmed device image.

A :class:`Fabric` bundles everything one compiled ``.aocx`` image contains
at run time — the clock (simulator), the channel namespace, the global
memory system, and the set of autorun kernels that start with the device.
The host runtime (:mod:`repro.host`) wraps a fabric; tests and benchmarks
may use it directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.channels.registry import ChannelNamespace
from repro.errors import (KernelBuildError, KernelError, ProcessError,
                          SimulationError)
from repro.memory.global_memory import GlobalMemory, GlobalMemoryConfig
from repro.pipeline.engine import AutorunEngine, PipelineEngine
from repro.pipeline.kernel import AutorunKernel, Kernel
from repro.sim.core import _HORIZON, Event, Simulator


#: The ``executor`` names a launch accepts. They select nothing: every
#: launch takes the cheapest exact tier (see :meth:`Fabric.launch`).
EXECUTORS = ("fast", "batch")


class Fabric:
    """A programmed FPGA: clock + channels + memory + persistent kernels."""

    def __init__(self, sim: Optional[Simulator] = None,
                 memory_config: Optional[GlobalMemoryConfig] = None,
                 keep_lsu_samples: bool = True,
                 trace: Optional[Any] = None) -> None:
        self.sim = sim or Simulator()
        self.channels = ChannelNamespace(self.sim)
        self.memory = GlobalMemory(self.sim, config=memory_config)
        #: When True, LSUs retain per-access latency samples (ground truth
        #: used to validate what the stall monitor reconstructs).
        self.keep_lsu_samples = keep_lsu_samples
        #: Optional :class:`repro.trace.hub.TraceHub`; when set, every
        #: instrumentation source on this fabric publishes typed records
        #: into it (ibuffer READ drains, latency pairs, watch events,
        #: vendor counters, host-queue events).
        self.trace = trace
        self.autorun_engines: List[AutorunEngine] = []
        self.engines: List[PipelineEngine] = []
        #: Persistent service kernels modelled *analytically* (no server
        #: process; see CounterRegisterChannel and SequenceChannel). They
        #: occupy fabric resources and are discovered by the emulator like
        #: autoruns, but never run.
        self.service_kernels: List[AutorunKernel] = []
        self._lazy_channels: List[Any] = []
        #: Every persistent kernel, eager or lazy, in installation order.
        self.persistent_kernels: List[AutorunKernel] = []

    def enable_tracing(self, hub: Optional[Any] = None, *,
                       flush_rows: int = 0) -> Any:
        """Install (and return) a trace hub on this fabric.

        With no argument a fresh :class:`repro.trace.hub.TraceHub` is
        created; ``flush_rows`` is forwarded to it (seal + flush attached
        sinks every N published rows; 0, the default, flushes only at
        close). Imported lazily so the base fabric stays importable
        without the trace subsystem.
        """
        if hub is None:
            from repro.trace.hub import TraceHub
            hub = TraceHub(flush_rows=flush_rows)
        self.trace = hub
        return hub

    # -- kernels ---------------------------------------------------------

    def add_autorun(self, kernel: AutorunKernel,
                    args: Optional[Dict[str, Any]] = None) -> AutorunEngine:
        """Install and start a persistent autorun kernel."""
        engine = AutorunEngine(self, kernel, args)
        engine.start()
        self.autorun_engines.append(engine)
        self.persistent_kernels.append(kernel)
        return engine

    def add_lazy_service(self, kernel: AutorunKernel, channel: Any) -> None:
        """Install a persistent service whose effect is computed on demand.

        ``channel`` is the analytic channel standing in for the kernel's
        writes (a free-running counter's register, or a sequence server's
        rendezvous); it is frozen when the device is torn down, exactly
        as stopping the eager kernel would leave its last write in place.
        """
        self.service_kernels.append(kernel)
        self._lazy_channels.append(channel)
        self.persistent_kernels.append(kernel)

    def launch(self, kernel: Kernel, args: Optional[Dict[str, Any]] = None,
               compute_id: int = 0, executor: str = "fast") -> PipelineEngine:
        """Launch a single-task or NDRange kernel; returns its engine.

        The engine times the launch on the cheapest exact tier: the batch
        table, the analytic replay or stepping (see
        :meth:`PipelineEngine._launch_space`). ``executor`` selects
        nothing; it is still checked against :data:`EXECUTORS`.
        """
        if executor not in EXECUTORS:
            raise KernelBuildError(
                f"unknown executor {executor!r} (use 'fast' or 'batch')")
        engine = PipelineEngine(self, kernel, args, compute_id=compute_id)
        engine.start()
        self.engines.append(engine)
        return engine

    def launch_replicated(self, kernel: Kernel,
                          args: Optional[Dict[str, Any]] = None
                          ) -> List[PipelineEngine]:
        """Launch all compute units of a replicated kernel.

        ``num_compute_units(N)`` on a (non-autorun) kernel splits the
        iteration space round-robin across N hardware copies, each with
        its own pipeline and memory ports — the AOCL throughput-scaling
        replication. Wait on every returned engine's completion.
        """
        count = kernel.num_compute_units
        space = list(kernel.iteration_space(dict(args or {})))
        engines = []
        for compute_id in range(count):
            share = space[compute_id::count]
            engine = PipelineEngine(self, kernel, args,
                                    compute_id=compute_id, space=share)
            engine.start()
            self.engines.append(engine)
            engines.append(engine)
        return engines

    def run_replicated(self, kernel: Kernel,
                       args: Optional[Dict[str, Any]] = None,
                       max_cycles: int = 10_000_000) -> List[PipelineEngine]:
        """Launch all compute units and run until every one completes."""
        engines = self.launch_replicated(kernel, args)
        self.run(*[engine.completion for engine in engines],
                 max_cycles=max_cycles)
        self.run(self.memory.drained(), max_cycles=max_cycles)
        return engines

    def run(self, *completions: Event, max_cycles: int = 10_000_000) -> None:
        """Advance simulation until every given completion event fired.

        ``max_cycles`` guards against deadlocked designs (e.g. a blocking
        channel read whose producer never writes) — a real board would hang
        the same way; the simulator reports it instead.
        """
        sim = self.sim
        pending = Event._PENDING
        burst_limit = max_cycles - _HORIZON
        for completion in completions:
            while completion._value is pending:
                next_time = sim.peek()
                if next_time is None:
                    raise SimulationError(
                        "deadlock: no scheduled events but a kernel launch "
                        "has not completed (blocked channel or missing producer?)")
                if sim.now > max_cycles or next_time > max_cycles:
                    raise SimulationError(
                        f"kernel did not complete within {max_cycles} cycles")
                if not sim._wheel_count or next_time > burst_limit:
                    # Precise mode: only far-future events remain (their
                    # times are unbounded) or now is close enough to the
                    # cycle guard that a wheel event could cross it, so a
                    # peek must precede every step.
                    sim.step()
                    if sim._crashed:
                        sim._raise_crashed()
                else:
                    # Burst mode: the wheel is non-empty and wheel times
                    # are bounded by now + horizon, so whatever _pop_next
                    # selects (wheel head or an even earlier far event)
                    # fires at most now + horizon <= max_cycles — while
                    # now stays below the guard minus the horizon, no
                    # event past max_cycles can execute, so events are
                    # drained without the two peek() calls per step the
                    # old loop paid (they dominated the run() profile).
                    while (sim._wheel_count and sim._now <= burst_limit
                           and completion._value is pending):
                        sim.step()
                        if sim._crashed:
                            sim._raise_crashed()
            if not completion._ok:
                completion._defused = True
                raise ProcessError(str(completion._value)) from completion._value

    def run_kernel(self, kernel: Kernel, args: Optional[Dict[str, Any]] = None,
                   max_cycles: int = 10_000_000,
                   executor: str = "fast") -> PipelineEngine:
        """Launch ``kernel`` and run until it completes and memory quiesces.

        Posted stores commit after the pipeline retires them; like a real
        runtime's ``clFinish``, this waits for global memory to drain so the
        host may immediately read result buffers.
        """
        engine = self.launch(kernel, args, executor=executor)
        self.run(engine.completion, max_cycles=max_cycles)
        self.run(self.memory.drained(), max_cycles=max_cycles)
        return engine

    def advance(self, cycles: int) -> None:
        """Run the clock forward by ``cycles`` (autorun kernels keep going)."""
        if cycles < 0:
            raise KernelError(f"cannot advance by negative cycles ({cycles})")
        self.sim.run(until=self.sim.now + cycles)

    def stop_autorun(self) -> None:
        """Tear down all persistent kernels (device reprogramming)."""
        for engine in self.autorun_engines:
            engine.stop()
        self.autorun_engines = []
        for channel in self._lazy_channels:
            channel.freeze()
        self.service_kernels = []
        self._lazy_channels = []
        self.persistent_kernels = []
