"""§5.2 use case: smart watchpoints with bound & invariance checking.

Reproduces the Listing 11 scenario on a faulty kernel:

* a watch is installed on one element of a data buffer; every hit records
  (timestamp, address, value) — the gdb ``watch`` history;
* the kernel is given an off-by-N index bug, so some monitored reads fall
  outside the legal buffer extent — address bound checking flags each one;
* a second monitor unit watches the output location with invariance
  checking enabled; the faulty kernel overwrites it with a different
  value, which is flagged as an invariance violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.violations import WatchEvent, decode_events, render_watch_report
from repro.core.watchpoint import SmartWatchpoint
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import SingleTaskKernel


class FaultyStencilKernel(SingleTaskKernel):
    """Reads ``src[i + offset]`` for i in [0, n) — out of bounds when
    ``offset`` pushes past the end; writes a result that should stay
    invariant but doesn't.

    Every memory operation that may touch watched state is explicitly
    monitored, as §5.2 requires ("a user needs to explicitly insert a
    monitor_address function for every possible memory operation that may
    access the location under watch").
    """

    def __init__(self, watchpoint: SmartWatchpoint,
                 name: str = "faulty_stencil") -> None:
        super().__init__(name=name)
        self.watchpoint = watchpoint

    def iteration_space(self, args: Dict) -> range:
        return range(args["n"])

    def body(self, ctx):
        i = ctx.iteration
        n = ctx.arg("n")
        offset = ctx.arg("offset")
        memory = ctx._instance.fabric.memory
        src = memory.buffer("src")
        dst = memory.buffer("dst")

        if i == 0:
            # Watch the first source element and the first output element.
            self.watchpoint.add_watch(ctx, 0, src.address_of(0))
            self.watchpoint.add_watch(ctx, 1, dst.address_of(0))

        index = i + offset            # the bug: offset shifts reads off the end
        address = src.base_address + index * src.itemsize
        value = 0
        if 0 <= index < src.size:
            value = yield ctx.load("src", index)
        # Monitor the read address for bound checking (Listing 11).
        self.watchpoint.monitor_address(ctx, 0, address, value)

        # The "invariant" output: should always hold the same sentinel, but
        # the faulty kernel writes the loop counter for odd iterations.
        result = 7 if i % 2 == 0 else i
        yield ctx.store("dst", 0, result)
        self.watchpoint.monitor_address(ctx, 1, dst.address_of(0), result)


@dataclass
class Sec52Result:
    watch_hits: List[WatchEvent]
    bound_violations: List[WatchEvent]
    invariance_violations: List[WatchEvent]
    expected_bound_violations: int
    expected_invariance_violations: int

    @property
    def bound_check_correct(self) -> bool:
        return len(self.bound_violations) == self.expected_bound_violations

    @property
    def invariance_check_correct(self) -> bool:
        return len(self.invariance_violations) == self.expected_invariance_violations

    def render(self) -> str:
        return "\n".join([
            "=== Section 5.2: smart watchpoints ===",
            f"watch hits: {len(self.watch_hits)}",
            f"bound violations: {len(self.bound_violations)} "
            f"(expected {self.expected_bound_violations}) -> "
            f"{'OK' if self.bound_check_correct else 'MISMATCH'}",
            f"invariance violations: {len(self.invariance_violations)} "
            f"(expected {self.expected_invariance_violations}) -> "
            f"{'OK' if self.invariance_check_correct else 'MISMATCH'}",
            render_watch_report(self.bound_violations + self.invariance_violations,
                                limit=10),
        ])


def run(n: int = 24, offset: int = 4, src_size: int = 24,
        depth: int = 256, trace=None) -> Sec52Result:
    """Run the faulty kernel under full watchpoint instrumentation.

    ``trace`` may be a :class:`repro.trace.hub.TraceHub`; the watchpoint
    then publishes raw ibuffer drains and typed ``watch.event`` records,
    plus one ``run.span`` for the kernel launch.
    """
    fabric = Fabric(trace=trace)
    watchpoint = SmartWatchpoint(fabric, units=2, depth=depth,
                                 max_watches=2, invariance=True)
    src = fabric.memory.allocate("src", src_size)
    src.fill(list(range(100, 100 + src_size)))
    fabric.memory.allocate("dst", 4)
    # Bound-check monitored reads against the src buffer's real extent.
    watchpoint.set_bounds_to_buffer("src", unit=0)

    kernel = FaultyStencilKernel(watchpoint)
    engine = fabric.run_kernel(kernel, {"n": n, "offset": offset})
    if trace is not None:
        from repro.trace.capture import publish_run_span
        publish_run_span(trace, kernel.name, 0, engine.stats.total_cycles)

    unit0 = decode_events(watchpoint.read_unit(0))
    unit1 = decode_events(watchpoint.read_unit(1))
    from repro.core.logic_blocks import (
        KIND_BOUND_VIOLATION,
        KIND_INVARIANCE_VIOLATION,
        KIND_MATCH,
    )
    hits = [e for e in unit0 + unit1 if e.kind == KIND_MATCH]
    bounds = [e for e in unit0 if e.kind == KIND_BOUND_VIOLATION]
    invariance = [e for e in unit1 if e.kind == KIND_INVARIANCE_VIOLATION]

    # Expected counts: reads at index i+offset for i in [0, n) go out of
    # bounds whenever i + offset >= src_size.
    expected_bounds = sum(1 for i in range(n) if i + offset >= src_size)
    # dst[0] sequence: 7, 1, 7, 3, 7, 5 ... every write after the first that
    # differs from its predecessor is one invariance violation.
    writes = [7 if i % 2 == 0 else i for i in range(n)]
    expected_invariance = sum(1 for a, b in zip(writes, writes[1:]) if a != b)

    return Sec52Result(
        watch_hits=hits,
        bound_violations=bounds,
        invariance_violations=invariance,
        expected_bound_violations=expected_bounds,
        expected_invariance_violations=expected_invariance,
    )
