"""In-order command queues (cl_command_queue equivalent).

Commands launch in enqueue order: each kernel starts only after the
previous command completed, exactly like a default (in-order) OpenCL
queue. ``finish()`` blocks the host — i.e. advances the simulation — until
everything enqueued has completed and global memory has quiesced.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import HostAPIError
from repro.host.context import Context
from repro.host.event import EventStatus, HostEvent
from repro.pipeline.kernel import AutorunKernel, Kernel
from repro.sim.core import Event


class CommandQueue:
    """An in-order queue bound to one context."""

    def __init__(self, context: Context) -> None:
        self.context = context
        self._tail: Optional[Event] = None
        self._events: List[HostEvent] = []

    def enqueue_kernel(self, kernel: Kernel,
                       args: Optional[Dict[str, Any]] = None) -> HostEvent:
        """Enqueue a single-task or NDRange kernel launch."""
        if isinstance(kernel, AutorunKernel):
            raise HostAPIError(
                f"autorun kernel {kernel.name!r} cannot be enqueued — it "
                "started when the device was programmed")
        fabric = self.context.fabric
        sim = fabric.sim
        host_event = HostEvent(f"launch {kernel.name}")
        host_event.queued_cycle = sim.now
        done = sim.event()
        previous_tail = self._tail
        self._tail = done

        def _command():
            if previous_tail is not None and not previous_tail.processed:
                yield previous_tail
            host_event.status = EventStatus.RUNNING
            host_event.start_cycle = sim.now
            engine = fabric.launch(kernel, args)
            stats = yield engine.completion
            host_event.stats = stats
            host_event.end_cycle = sim.now
            host_event.status = EventStatus.COMPLETE
            if fabric.trace is not None:
                from repro.trace.capture import publish_host_event
                publish_host_event(fabric.trace, host_event,
                                   kernel=kernel.name)
            done.succeed()

        sim.process(_command(), name=f"queue.{kernel.name}")
        host_event.status = EventStatus.SUBMITTED
        self._events.append(host_event)
        return host_event

    #: Alias matching clEnqueueTask terminology for single-task kernels.
    enqueue_task = enqueue_kernel

    def finish(self, max_cycles: int = 10_000_000) -> None:
        """Run the device until the queue drains (clFinish)."""
        fabric = self.context.fabric
        if self._tail is not None:
            fabric.run(self._tail, max_cycles=max_cycles)
        fabric.run(fabric.memory.drained(), max_cycles=max_cycles)

    def events(self) -> List[HostEvent]:
        """All events ever enqueued on this queue, in order."""
        return list(self._events)
