"""The reference op executor: the semantic oracle of the engine's drive loop.

The product engines (:mod:`repro.pipeline.engine`) run kernel bodies
through one fast drive loop: inlined hot ops, fused zero-latency
computes, broadcast cycle ticks, parked idle units and analytic launch
replay. This module keeps the original one-generator-per-op loop they
replaced, for tests to compare against:

* :class:`ReferencePipelineEngine` — a
  :class:`~repro.pipeline.engine.PipelineEngine` whose launches always
  step (``stepped_reason == "reference executor"``), each op through
  :meth:`_ReferenceDrive._execute`.
* :class:`ReferenceAutorunEngine` — an
  :class:`~repro.pipeline.engine.AutorunEngine` whose units never start
  parked and poll ``AwaitData``/``Drain`` once per cycle.
* :class:`SteppedPipelineEngine` — the product drive loop with the
  batch table and the analytic replay switched off: every launch steps,
  one iteration at a time (``stepped_reason == "stepping executor"``).
  The baseline of speed gates that measure a tier against
  per-iteration stepping.
* :class:`BodiesPipelineEngine` — the product engine with the batch
  table switched off: a launch the table would time replays its body
  generators (``LaunchReplay.run_bodies``) instead, so the replay's two
  launch feeders can be compared.
* :func:`launch` / :func:`run_kernel` — :meth:`Fabric.launch
  <repro.pipeline.fabric.Fabric.launch>` and :meth:`Fabric.run_kernel
  <repro.pipeline.fabric.Fabric.run_kernel>` with three more executors,
  ``"reference"``, ``"stepped"`` and ``"bodies"``; any other executor
  goes to the fabric unchanged. :func:`autorun_engine` builds either
  autorun engine the same way.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.errors import KernelBuildError
from repro.pipeline import ops
from repro.pipeline.context import KernelContext
from repro.pipeline.engine import AutorunEngine, PipelineEngine
from repro.pipeline.replay import LaunchReplay
from repro.sim.core import Interrupt

REFERENCE = "reference"
STEPPED = "stepped"
BODIES = "bodies"


class _ReferenceDrive:
    """The one-generator-per-op drive loop, mixed into an engine."""

    def _drive(self, generator: Generator, compute_id: int,
               ctx: Optional[KernelContext] = None) -> Generator:
        """The retained reference executor: one ``_execute`` generator per
        op, no fusion, per-process pooled cycle ticks. Semantic oracle for
        the fast path (see tests/test_prop_dispatch_equivalence.py)."""
        send_value: Any = None
        throw_exc: Optional[BaseException] = None
        while True:
            try:
                if throw_exc is not None:
                    op = generator.throw(throw_exc)
                    throw_exc = None
                else:
                    op = generator.send(send_value)
            except StopIteration:
                return
            if not isinstance(op, ops.Op):
                generator.close()
                raise KernelBuildError(
                    f"kernel {self.kernel.name!r} yielded {op!r}; kernel bodies "
                    "must yield Op objects built via the KernelContext")
            site = op.site or self._derive_site(generator, op, compute_id)
            try:
                send_value = yield from self._execute(op, site, ctx)
            except Interrupt:
                generator.close()
                raise
            except BaseException as exc:
                send_value = None
                throw_exc = exc

    def _execute(self, op: ops.Op, site: str,
                 ctx: Optional[KernelContext] = None) -> Generator:
        """Execute one op; returns its result value (generator protocol)."""
        if isinstance(op, ops.Barrier):
            yield self._barrier_arrive(site, ctx)
            return None
        if isinstance(op, ops.Load):
            value = yield self.lsu(site, "load").issue(op.buffer, op.index)
            return value
        if isinstance(op, ops.Store):
            yield self.lsu(site, "store").issue(op.buffer, op.index, op.value)
            return None
        if isinstance(op, ops.LoadLocal):
            value = yield op.memory.load(op.index)
            return value
        if isinstance(op, ops.StoreLocal):
            yield op.memory.store(op.index, op.value)
            return None
        if isinstance(op, ops.ReadChannel):
            value = yield from op.channel.read()
            return value
        if isinstance(op, ops.WriteChannel):
            yield from op.channel.write(op.value)
            return None
        if isinstance(op, ops.Call):
            value = yield from op.module.invoke(op.args)
            return value
        if isinstance(op, ops.Compute):
            if op.cycles == 1:
                yield self.sim.tick()
            elif op.cycles:
                yield self.sim.timeout(op.cycles)
            return op.value
        if isinstance(op, ops.CollectReduction):
            value = yield op.accumulator.collect(op.key, op.expected)
            return value
        if isinstance(op, ops.MemFence):
            return None
        if isinstance(op, ops.CycleBoundary):
            # The dominant event of autorun stepping: use the pooled tick.
            yield self.sim.tick(self._cycle_priority())
            return None
        if isinstance(op, ops.AwaitData):
            # Semantic oracle: keep polling once per cycle, failing one
            # non-blocking read per channel, until a value is there. A
            # first wait is reached after the unit's phase alignment, so
            # the unit polls at once.
            self._check_can_park()
            if op.first:
                return None
            yield self.sim.tick(self._cycle_priority())
            while not any(channel.has_data for channel in op.channels):
                for channel in op.channels:
                    channel.read_nb()
                yield self.sim.tick(self._cycle_priority())
            return None
        if isinstance(op, ops.Drain):
            return (yield from self._drain_per_cycle(op))
        if isinstance(op, ops.Transfer):
            lsu = self.lsu(site, "store")
            for k in range(op.count):
                word = yield from op.channel.read()
                yield lsu.issue(op.buffer, k, word)
            return None
        raise KernelBuildError(f"unknown op {op!r} from kernel {self.kernel.name!r}")


class ReferencePipelineEngine(_ReferenceDrive, PipelineEngine):
    """A pipelined launch that never replays: every op steps."""

    def _launch_space(self, space: Any) -> Generator:
        self.stepped_reason = "reference executor"
        yield from self._launch_tags(space)


class SteppedPipelineEngine(PipelineEngine):
    """A pipelined launch on the fast drive loop that never replays."""

    def _launch_space(self, space: Any) -> Generator:
        self.stepped_reason = "stepping executor"
        yield from self._launch_tags(space)


class BodiesPipelineEngine(PipelineEngine):
    """A pipelined launch that never runs in the batch table: it replays
    its body generators when the kernel is replayable and the launch
    owns the simulator, else steps."""

    def _launch_space(self, space: Any) -> Generator:
        kernel = self.kernel
        self.stepped_reason = (
            (self.sim.exclusive_reason() or kernel.replay_gate())
            if kernel.replayable else kernel.replay_blocker)
        if self.stepped_reason is None:
            LaunchReplay(self).run_bodies(space)
            return
        yield from self._launch_tags(space)


_ENGINES = {REFERENCE: ReferencePipelineEngine,
            STEPPED: SteppedPipelineEngine,
            BODIES: BodiesPipelineEngine}


class ReferenceAutorunEngine(_ReferenceDrive, AutorunEngine):
    """Autorun compute units that start aligned and poll every cycle."""

    def _starts_parked(self) -> bool:
        return False


def launch(fabric: Any, kernel: Any, args: Optional[Dict[str, Any]] = None,
           executor: str = "fast", compute_id: int = 0) -> PipelineEngine:
    """``fabric.launch`` with the ``"reference"``, ``"stepped"`` and
    ``"bodies"`` executors."""
    engine_class = _ENGINES.get(executor)
    if engine_class is None:
        return fabric.launch(kernel, args, compute_id=compute_id,
                             executor=executor)
    engine = engine_class(fabric, kernel, args, compute_id=compute_id)
    engine.start()
    fabric.engines.append(engine)
    return engine


def run_kernel(fabric: Any, kernel: Any,
               args: Optional[Dict[str, Any]] = None,
               executor: str = "fast",
               max_cycles: int = 10_000_000) -> PipelineEngine:
    """``fabric.run_kernel`` with the ``"reference"``, ``"stepped"`` and
    ``"bodies"`` executors."""
    if executor not in _ENGINES:
        return fabric.run_kernel(kernel, args, max_cycles=max_cycles,
                                 executor=executor)
    engine = launch(fabric, kernel, args, executor)
    fabric.run(engine.completion, max_cycles=max_cycles)
    fabric.run(fabric.memory.drained(), max_cycles=max_cycles)
    return engine


def autorun_engine(fabric: Any, kernel: Any,
                   args: Optional[Dict[str, Any]] = None,
                   executor: str = "fast") -> AutorunEngine:
    """An unstarted autorun engine of ``executor`` (fast or reference)."""
    engine_class = (ReferenceAutorunEngine if executor == REFERENCE
                    else AutorunEngine)
    return engine_class(fabric, kernel, args)
