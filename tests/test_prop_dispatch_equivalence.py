"""Property test: the fast dispatch executor is observationally equal to
the reference op executor.

The fast drive loop (type-keyed dispatch, inlined hot ops, zero-cycle
compute fusion, analytic LSU retirement) is a pure optimisation — for any
kernel it must produce the same values, the same timestamps, and the same
statistics as the retained reference executor. Hypothesis generates small
random op programs and runs each on two independent fabrics, one per
executor, then compares every externally observable surface.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.memory.local_memory import LocalMemory
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import PipelineConfig, SingleTaskKernel
from tests.executor_oracle import run_kernel

# One program step = (op kind, payload). Indices stay under the buffer /
# scratchpad sizes allocated in _run.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("load"), st.integers(0, 63)),
        st.tuples(st.just("store"), st.integers(0, 63)),
        st.tuples(st.just("load_local"), st.integers(0, 15)),
        st.tuples(st.just("store_local"), st.integers(0, 15)),
        st.tuples(st.just("compute"), st.integers(0, 4)),
        st.tuples(st.just("fence"), st.just(0)),
        st.tuples(st.just("cycle"), st.just(0)),
    ),
    min_size=1, max_size=12)


class _Program(SingleTaskKernel):
    """Replays a generated op list, recording (step, now, value) tuples."""

    def __init__(self, steps, iterations, **kw):
        super().__init__(**kw)
        self.steps = steps
        self.iterations = iterations
        self.observed = []

    def iteration_space(self, args):
        return range(self.iterations)

    def create_locals(self, fabric, compute_id):
        return {"scratch": LocalMemory(
            fabric.sim, f"{self.name}.cu{compute_id}.scratch", 16)}

    def body(self, ctx):
        base = ctx.iteration
        for step, (kind, operand) in enumerate(self.steps):
            if kind == "load":
                value = yield ctx.load("data", operand)
            elif kind == "store":
                value = yield ctx.store("data", operand, base * 100 + step)
            elif kind == "load_local":
                value = yield ctx.load_local("scratch", operand)
            elif kind == "store_local":
                value = yield ctx.store_local("scratch", operand,
                                              base * 100 + step)
            elif kind == "compute":
                value = yield ctx.compute(operand, value=step * 7)
            elif kind == "fence":
                value = yield ctx.mem_fence()
            else:
                value = yield ctx.cycle()
            self.observed.append((step, ctx.now, value))


def _run(steps, iterations, inflight, executor):
    fabric = Fabric(keep_lsu_samples=True)
    fabric.memory.allocate("data", 64).fill(range(64))
    kernel = _Program(steps, iterations, name="prog",
                      pipeline=PipelineConfig(max_inflight=inflight))
    engine = run_kernel(fabric, kernel, {}, executor=executor)
    return fabric, kernel, engine


def _lsu_snapshot(engine):
    snapshot = {}
    for (site, kind), lsu in engine.lsus.items():
        stats = lsu.stats
        snapshot[(site, kind)] = (
            stats.issued, stats.completed, stats.total_latency,
            stats.max_latency, stats.ordering_stall_cycles,
            tuple(stats.samples))
    return snapshot


class TestBroadcastCohortPreemption:
    """Regression: a broadcast-tick cohort must be preemptible.

    With per-process ticks (reference executor) an iteration retiring
    mid-cycle frees a pipeline slot whose NORMAL-lane wake-up lets the
    launcher issue the next iteration *before* the remaining LATE-lane
    cycle waiters resume. The coalesced broadcast tick used to run its
    whole cohort atomically, flipping the wake order one cycle later;
    the event loop now parks the un-resumed waiters when an earlier lane
    fills up (see Simulator._step_broadcast).
    """

    def test_launcher_preempts_remaining_cycle_waiters(self):
        steps = [("cycle", 0), ("cycle", 0)]
        fast = _run(steps, 4, 2, "fast")
        ref = _run(steps, 4, 2, "reference")
        assert fast[1].observed == ref[1].observed
        assert fast[0].sim.now == ref[0].sim.now
        assert fast[2].stats.iteration_trace == ref[2].stats.iteration_trace


class TestExecutorEquivalence:
    @given(steps=_steps,
           iterations=st.integers(1, 4),
           inflight=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference(self, steps, iterations, inflight):
        fast = _run(steps, iterations, inflight, "fast")
        ref = _run(steps, iterations, inflight, "reference")
        fast_fabric, fast_kernel, fast_engine = fast
        ref_fabric, ref_kernel, ref_engine = ref

        # Every value and timestamp the body observed.
        assert fast_kernel.observed == ref_kernel.observed
        # Wall-clock and engine accounting.
        assert fast_fabric.sim.now == ref_fabric.sim.now
        fs, rs = fast_engine.stats, ref_engine.stats
        assert (fs.iterations_issued, fs.iterations_retired) == \
            (rs.iterations_issued, rs.iterations_retired)
        assert (fs.start_cycle, fs.finish_cycle) == \
            (rs.start_cycle, rs.finish_cycle)
        assert fs.issue_stall_cycles == rs.issue_stall_cycles
        assert fs.iteration_trace == rs.iteration_trace
        # Same static sites spawned the same LSUs with the same timings.
        assert _lsu_snapshot(fast_engine) == _lsu_snapshot(ref_engine)
        # Memory contents converged identically.
        fast_data = fast_fabric.memory.buffer("data")
        ref_data = ref_fabric.memory.buffer("data")
        assert [fast_data.read(i) for i in range(64)] == \
            [ref_data.read(i) for i in range(64)]
